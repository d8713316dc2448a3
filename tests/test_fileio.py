import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmono import (
    ComposedTarget,
    CubeLattice,
    DenseFunction,
    MonotoneDNF,
    XorHypothesis,
    dumps_function,
    load_function,
    loads_function,
    parse_lattice,
    save_function,
    tightness_family,
)
from dmono.errors import DmonoError, FileFormatError

from conftest import DIAMOND_COVERS, DIAMOND_NAMES, lattice_file_text


class TestRoundTrips:
    def test_mdnf(self, tmp_path, cube3):
        g = MonotoneDNF(cube3, (0b110, 0b001))
        path = tmp_path / "g.json"
        save_function(g, path)
        loaded, meta = load_function(path)
        assert loaded == g
        assert meta == {}

    def test_dense(self, tmp_path, cube2):
        f = DenseFunction.from_bits(cube2, "0110")
        path = tmp_path / "f.json"
        save_function(f, path)
        loaded, _ = load_function(path)
        assert loaded == f

    def test_xor(self, tmp_path, cube2):
        h = XorHypothesis(
            cube2, (MonotoneDNF(cube2, (1, 2)), MonotoneDNF(cube2, (3,)))
        )
        path = tmp_path / "h.json"
        save_function(h, path)
        loaded, _ = load_function(path)
        assert loaded == h

    def test_composed_with_meta(self, tmp_path):
        t = tightness_family(2, 2)
        path = tmp_path / "t.json"
        save_function(t, path, meta={"family": "tightness", "d": 2, "t": 2})
        loaded, meta = load_function(path)
        assert loaded == t
        assert meta == {"family": "tightness", "d": 2, "t": 2}

    @pytest.mark.parametrize("table", ["0000", "1111", "1000", "0001", "0110"])
    def test_composed_outer_table(self, table):
        inner = (MonotoneDNF(CubeLattice(2), (1,)), MonotoneDNF(CubeLattice(2), (2,)))
        outer = sum(1 << k for k, ch in enumerate(table) if ch == "1")
        t = ComposedTarget(CubeLattice(2), outer, inner)
        text = dumps_function(t)
        assert json.loads(text)["payload"]["F"] == table
        loaded, _ = loads_function(text)
        assert loaded == t

    def test_explicit_lattice_reference(self, tmp_path):
        lat_path = tmp_path / "diamond.lat"
        lat_path.write_text(lattice_file_text(DIAMOND_NAMES, DIAMOND_COVERS))
        doc = {
            "lattice": {"file": "diamond.lat"},
            "repr": "mdnf",
            "payload": ["p"],
        }
        fn_path = tmp_path / "g.json"
        fn_path.write_text(json.dumps(doc))
        loaded, _ = load_function(fn_path)
        assert loaded.lattice.size == 4
        assert [loaded.lattice.element_name(a) for a in loaded.minimals] == ["p"]
        # and back out again, preserving the relative reference target
        out = tmp_path / "copy.json"
        save_function(loaded, out)
        again, _ = load_function(out)
        assert again.minimals == loaded.minimals

    def test_relative_lattice_path_is_saved_relative_to_the_file(self, tmp_path, monkeypatch):
        # loaded from sub/, the lattice's path is sub/diamond.lat, relative
        # to the working directory; a saved copy names it from its own directory
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        (tmp_path / "other").mkdir()
        (tmp_path / "sub" / "diamond.lat").write_text(
            lattice_file_text(DIAMOND_NAMES, DIAMOND_COVERS)
        )
        doc = {"lattice": {"file": "diamond.lat"}, "repr": "mdnf", "payload": ["p"]}
        (tmp_path / "sub" / "g.json").write_text(json.dumps(doc))
        loaded, _ = load_function("sub/g.json")
        assert loaded.lattice.source_path == "sub/diamond.lat"
        for path, named in (
            ("sub/copy.json", "diamond.lat"),
            ("other/copy.json", "../sub/diamond.lat"),
        ):
            save_function(loaded, path)
            assert json.loads((tmp_path / path).read_text())["lattice"] == {"file": named}
            again, _ = load_function(path)
            assert again == loaded
        # strings and records keep the path relative to the working directory
        assert json.loads(dumps_function(loaded))["lattice"] == {"file": "sub/diamond.lat"}

    def test_lattice_path_is_saved_from_where_it_was_loaded(self, tmp_path, monkeypatch):
        # the lattice file is found when loaded; a copy saved after a change
        # of working directory still names it, while describe(), strings and
        # records keep the path as it was given
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        (tmp_path / "B").mkdir()
        (tmp_path / "sub" / "x.lat").write_text(lattice_file_text(DIAMOND_NAMES, DIAMOND_COVERS))
        doc = {"lattice": {"file": "x.lat"}, "repr": "mdnf", "payload": ["p"]}
        (tmp_path / "sub" / "t.json").write_text(json.dumps(doc))
        loaded, _ = load_function("sub/t.json")
        monkeypatch.chdir(tmp_path / "B")
        save_function(loaded, "copy.json")
        saved = json.loads((tmp_path / "B" / "copy.json").read_text())
        assert saved["lattice"] == {"file": "../sub/x.lat"}
        assert load_function("copy.json")[0] == loaded
        assert loaded.lattice.describe() == "sub/x.lat"
        assert json.loads(dumps_function(loaded))["lattice"] == {"file": "sub/x.lat"}

    def test_absolute_lattice_path_is_saved_as_it_is(self, tmp_path):
        lat_path = tmp_path / "diamond.lat"
        lat_path.write_text(lattice_file_text(DIAMOND_NAMES, DIAMOND_COVERS))
        doc = {"lattice": {"file": str(lat_path)}, "repr": "mdnf", "payload": ["p"]}
        (tmp_path / "g.json").write_text(json.dumps(doc))
        loaded, _ = load_function(tmp_path / "g.json")
        (tmp_path / "sub").mkdir()
        save_function(loaded, tmp_path / "sub" / "copy.json")
        saved = json.loads((tmp_path / "sub" / "copy.json").read_text())
        assert saved["lattice"] == {"file": str(lat_path)}
        assert load_function(tmp_path / "sub" / "copy.json")[0] == loaded


class TestStability:
    def test_minimals_emitted_in_canonical_order(self, cube3):
        g = MonotoneDNF(cube3, (0b110, 0b001))
        doc = json.loads(dumps_function(g))
        assert doc["payload"] == ["001", "110"]

    def test_dumps_is_byte_stable(self):
        t = tightness_family(2, 1)
        assert dumps_function(t) == dumps_function(t)
        expected = (
            '{\n'
            '  "lattice": {\n'
            '    "cube": 2\n'
            '  },\n'
            '  "repr": "composed",\n'
            '  "payload": {\n'
            '    "F": "0110",\n'
            '    "g": [\n'
            '      [\n'
            '        "01"\n'
            '      ],\n'
            '      [\n'
            '        "10"\n'
            '      ]\n'
            '    ]\n'
            '  }\n'
            '}\n'
        )
        assert dumps_function(t) == expected


class TestErrors:
    def test_not_json(self):
        with pytest.raises(FileFormatError, match="JSON"):
            loads_function("lattice v1")

    def test_missing_keys(self):
        with pytest.raises(FileFormatError, match="repr"):
            loads_function('{"lattice": {"cube": 2}, "payload": "0110"}')

    def test_unknown_repr(self):
        with pytest.raises(FileFormatError, match="unknown repr"):
            loads_function('{"lattice": {"cube": 2}, "repr": "bdd", "payload": ""}')

    def test_dense_length_mismatch(self):
        with pytest.raises(FileFormatError, match=r"exactly 2\^2 characters"):
            loads_function('{"lattice": {"cube": 2}, "repr": "dense", "payload": "01"}')

    def test_mdnf_not_an_antichain(self):
        doc = '{"lattice": {"cube": 2}, "repr": "mdnf", "payload": ["01", "11"]}'
        with pytest.raises(FileFormatError, match="antichain"):
            loads_function(doc)

    def test_unknown_element_name(self):
        doc = '{"lattice": {"cube": 2}, "repr": "mdnf", "payload": ["0111"]}'
        with pytest.raises(FileFormatError, match="0111"):
            loads_function(doc)

    def test_outer_table_length(self):
        doc = '{"lattice": {"cube": 2}, "repr": "composed", "payload": {"F": "01", "g": [["01"], ["10"]]}}'
        with pytest.raises(FileFormatError, match="length 4"):
            loads_function(doc)

    @pytest.mark.parametrize(
        "table",
        ["01101", "01_1", " 011", "0121", "０１", "0_1", "01\ud800", " 01", "０１１０", "01\ud8000"],
    )
    def test_malformed_outer_table(self, table):
        payload = {"F": table, "g": [["01"], ["10"]]}
        doc = json.dumps({"lattice": {"cube": 2}, "repr": "composed", "payload": payload})
        with pytest.raises(FileFormatError, match="length 4"):
            loads_function(doc)

    def test_bad_lattice_descriptor(self):
        with pytest.raises(FileFormatError, match="descriptor"):
            loads_function('{"lattice": {"torus": 2}, "repr": "dense", "payload": ""}')

    def test_missing_file_reported_with_path(self, tmp_path):
        with pytest.raises(FileFormatError, match="nope.json"):
            load_function(tmp_path / "nope.json")

    def test_memory_only_explicit_lattice_refuses_serialization(self, diamond):
        g = MonotoneDNF(diamond, (diamond.parse_element("p"),))
        with pytest.raises(FileFormatError, match="memory"):
            dumps_function(g)

    def test_lattice_parsed_from_text_refuses_serialization(self):
        # a parsed lattice with no source names no file a load could read
        lat = parse_lattice(lattice_file_text(DIAMOND_NAMES, DIAMOND_COVERS))
        assert lat.source_path is None
        assert lat.describe() == "explicit:4"
        g = MonotoneDNF(lat, (lat.parse_element("p"),))
        with pytest.raises(FileFormatError, match="built in memory"):
            dumps_function(g)
        named = parse_lattice(lattice_file_text(DIAMOND_NAMES, DIAMOND_COVERS), "d.lat")
        assert named.source_path == "d.lat"


def rejection(text):
    """The message of the FileFormatError that loading ``text`` raises."""
    with pytest.raises(FileFormatError) as exc:
        loads_function(text)
    return str(exc.value)


def doc_text(lattice=None, kind="dense", payload="0110", **extra):
    doc = {"lattice": {"cube": 2} if lattice is None else lattice, "repr": kind}
    return json.dumps({**doc, "payload": payload, **extra})


class TestBoundaryRejections:
    def test_document_not_an_object(self):
        assert rejection("[1, 2]") == "function document must be a JSON object"

    @pytest.mark.parametrize("desc", [5, [2], {"cube": 2, "file": "x.lat"}])
    def test_lattice_descriptor_not_a_one_key_object(self, desc):
        assert rejection(doc_text(lattice=desc)) == f"bad lattice descriptor {desc!r}"

    @pytest.mark.parametrize("n", [0, -1, "2", 2.0, None, True])
    def test_bad_cube_dimension(self, n):
        assert rejection(doc_text(lattice={"cube": n})) == f"bad cube dimension {n!r}"

    @pytest.mark.parametrize("path", [5, None, ["x.lat"]])
    def test_lattice_file_path_not_a_string(self, path):
        assert rejection(doc_text(lattice={"file": path})) == f"bad lattice file path {path!r}"

    def test_mdnf_payload_not_a_list(self):
        text = doc_text(kind="mdnf", payload="01")
        assert rejection(text) == "mdnf payload must be a list, got '01'"

    def test_dense_payload_not_a_string(self):
        assert rejection(doc_text(payload=[0, 1, 1, 0])) == "dense payload must be a bit string"

    def test_xor_payload_not_a_list(self):
        text = doc_text(kind="xor", payload={"levels": []})
        assert rejection(text) == "xor payload must be a list of mdnf payloads"

    @pytest.mark.parametrize(
        "payload", [{"F": "0110", "g": [["01"], ["10"]], "d": 2}, {"F": "0110"}, ["0110"]]
    )
    def test_composed_payload_keys(self, payload):
        text = doc_text(kind="composed", payload=payload)
        assert rejection(text) == 'composed payload must be {"F": bits, "g": [mdnf...]}'

    @pytest.mark.parametrize("inner", [[], "01", None])
    def test_composed_payload_without_inner_functions(self, inner):
        text = doc_text(kind="composed", payload={"F": "01", "g": inner})
        assert rejection(text) == "composed payload needs at least one inner function"

    @pytest.mark.parametrize("meta", [[], [1], None, "tightness", 3])
    def test_meta_not_an_object(self, meta):
        assert rejection(doc_text(meta=meta)) == "meta must be a JSON object"

    def test_load_function_prefixes_the_path(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(doc_text(payload="01"))
        with pytest.raises(FileFormatError) as exc:
            load_function(path)
        assert str(exc.value) == f"{path}: dense payload must be exactly 2^2 characters of 0/1"


# lattice files beside the fuzzed function file; "" and "." name the directory
FUZZ_LATTICES = ("ok.lat", "bad.lat", "bin.lat", "dir.lat", "missing.lat", "", ".")
# a NUL, and a lone surrogate that no file system encoding takes
FUZZ_LATTICES += ("a\x00b.lat", "\ud800.lat")

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 70) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=10,
)
element_names = st.sampled_from(["0", "1", "01", "10", "11", "bot", "p", "top"])
element_names |= st.text(max_size=3)
mdnf_payloads = st.lists(element_names, max_size=4)
# path text without "/" stays inside the fuzz directory
lattice_paths = st.sampled_from(FUZZ_LATTICES) | st.text(
    st.characters(blacklist_characters="/"), max_size=6
)
composed_payloads = st.fixed_dictionaries(
    {"F": st.text("01", max_size=8), "g": st.lists(mdnf_payloads, max_size=3)}
)
function_docs = json_values | st.fixed_dictionaries(
    {},
    optional={
        "lattice": json_values
        | st.fixed_dictionaries({"cube": json_values})
        | st.fixed_dictionaries({"file": lattice_paths}),
        "repr": st.sampled_from(["dense", "mdnf", "xor", "composed"]) | json_values,
        "payload": json_values
        | st.text("01", max_size=8)
        | mdnf_payloads
        | st.lists(mdnf_payloads, max_size=3)
        | composed_payloads,
        "meta": json_values,
    },
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "ok.lat").write_text(lattice_file_text(DIAMOND_NAMES, DIAMOND_COVERS))
    (root / "bad.lat").write_text("lattice v1\nelem a\nelem b\ncover a c\n")
    (root / "bin.lat").write_bytes(b"\xff\xfe")
    (root / "dir.lat").mkdir()
    return root


def loads_or_raises_dmono_error(path):
    try:
        load_function(path)
    except DmonoError:
        pass


class TestEveryLoadFailureIsADmonoError:
    @settings(max_examples=300, deadline=None)
    @given(data=st.binary(max_size=64))
    def test_any_bytes(self, fuzz_dir, data):
        path = fuzz_dir / "f.json"
        path.write_bytes(data)
        loads_or_raises_dmono_error(path)

    @settings(max_examples=200, deadline=None)
    @given(doc=function_docs)
    def test_any_document(self, fuzz_dir, doc):
        path = fuzz_dir / "f.json"
        path.write_text(json.dumps(doc))
        loads_or_raises_dmono_error(path)

    @pytest.mark.parametrize("depth", [1000, 5000])
    def test_deeply_nested_json_is_invalid_json(self, tmp_path, depth):
        path = tmp_path / "deep.json"
        path.write_text("[" * depth + "]" * depth)
        with pytest.raises(FileFormatError) as exc:
            load_function(path)
        assert str(exc.value).startswith(f"{path}: not valid JSON: ")
