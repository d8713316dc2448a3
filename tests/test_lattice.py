import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmono import CubeLattice, ExplicitLattice, load_lattice, parse_lattice
from dmono.errors import FileFormatError, InvalidElementError, LatticeValidationError
from dmono.lattice import Lattice, elements_mask, mask_bit, mask_elements

from conftest import (
    DIAMOND_COVERS,
    DIAMOND_NAMES,
    PENTAGON_COVERS,
    PENTAGON_NAMES,
    chain_product,
    inclusion_covers,
    lattice_file_text,
    moore_families,
    set_name,
    single_top_orders,
    top_down_chain,
)
from oracles import (
    brute_global_min,
    brute_immediate_predecessors,
    brute_is_lattice,
    brute_join,
    brute_mask_elements,
    brute_up_set,
    sigma_downset_recursion,
)


CHAIN4_NAMES = ["a", "b", "c", "d"]


def _reversed_cube(n):
    """The n-cube as an explicit lattice whose ids run top-down."""
    cube = CubeLattice(n)
    names = [cube.element_name(a) for a in reversed(range(cube.size))]
    covers = [
        (cube.element_name(b), cube.element_name(a))
        for a in range(cube.size)
        for b in cube.immediate_predecessors(a)
    ]
    return ExplicitLattice(names, covers)


KERNEL_LATTICES = {
    "cube6": CubeLattice(6),
    "diamond": ExplicitLattice(DIAMOND_NAMES, DIAMOND_COVERS),
    "chain4": ExplicitLattice(CHAIN4_NAMES, list(zip(CHAIN4_NAMES, CHAIN4_NAMES[1:]))),
    "pentagon": ExplicitLattice(PENTAGON_NAMES, PENTAGON_COVERS),
    "chain5-top-down": top_down_chain(5),
    "cube3-top-down": _reversed_cube(3),
}
EXPLICIT_SWEEP_LATTICES = [
    KERNEL_LATTICES["diamond"],
    KERNEL_LATTICES["chain4"],
    KERNEL_LATTICES["pentagon"],
    _reversed_cube(3),
]


class TestCubeOrder:
    def test_leq_examples(self, cube3):
        assert cube3.leq(0b010, 0b011)
        assert not cube3.leq(0b010, 0b001)

    def test_leq_reflexive(self, cube3):
        for a in range(cube3.size):
            assert cube3.leq(a, a)

    def test_join_examples(self):
        cube4 = CubeLattice(4)
        assert cube4.join(0b0110, 0b0011) == 0b0111

    def test_join_idempotent(self, cube3):
        for a in range(cube3.size):
            assert cube3.join(a, a) == a

    def test_preds_examples(self, cube3):
        assert cube3.immediate_predecessors(0b110) == (0b010, 0b100)
        assert cube3.immediate_predecessors(0b000) == ()
        assert cube3.immediate_predecessors(0b111) == (0b011, 0b101, 0b110)

    def test_preds_match_the_coordinate_scan(self):
        # one word per coordinate cleared, ascending, from n = 1 to past
        # one machine word
        rng = random.Random(41)
        for n in range(1, 71):
            cube = CubeLattice(n)
            top = cube.size - 1
            for a in [0, top, 1, 1 << n - 1] + [rng.randrange(cube.size) for _ in range(20)]:
                scan = tuple(a & ~(1 << j) for j in reversed(range(n)) if a >> j & 1)
                assert cube.immediate_predecessors(a) == scan

    def test_unknown_element_rejected(self, cube3, diamond):
        # the boundary checks; the queries trust the ids they are given
        for lat in (cube3, diamond):
            queries = [lat.check_element, lat.element_name]
            for bad in (-1, lat.size, 1.0, "3", None):
                message = f"{bad!r} is not an element of {lat.describe()}"
                for query in queries:
                    with pytest.raises(InvalidElementError, match=f"^{re.escape(message)}$"):
                        query(bad)

    @pytest.mark.parametrize("value", [-(2**70), -1, 0, 7, 8, 2**70, True, 1.0, "3", None])
    def test_check_element_matches_range_test(self, cube3, value):
        def verdict(check):
            try:
                return check(value)
            except InvalidElementError:
                return "rejected"

        expected = verdict(lambda a: Lattice.check_element(cube3, a))
        assert verdict(cube3.check_element) == expected

    # each name has the cube's length, so only its characters are at fault;
    # int(..., 2) reads fullwidth digits, underscores and a leading space
    @pytest.mark.parametrize("name", ["０１", "0_1", "01\ud800", " 01", "012"])
    def test_cube_parse_element_rejects_malformed_words(self, name):
        lat = CubeLattice(len(name))
        message = f"{name!r} is not a {len(name)}-bit word"
        with pytest.raises(InvalidElementError, match=f"^{re.escape(message)}$"):
            lat.parse_element(name)

    @given(st.integers(0, 1023), st.integers(0, 1023))
    def test_join_is_least_upper_bound(self, a, b):
        lat = CubeLattice(10)
        j = lat.join(a, b)
        assert lat.leq(a, j) and lat.leq(b, j)
        # every common upper bound in a random probe dominates the join
        rng = random.Random(a * 1024 + b)
        for _ in range(20):
            c = rng.randrange(lat.size)
            if lat.leq(a, c) and lat.leq(b, c):
                assert lat.leq(j, c)

    @given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
    def test_join_laws(self, a, b, c):
        lat = CubeLattice(8)
        assert lat.join(a, b) == lat.join(b, a)
        assert lat.join(lat.join(a, b), c) == lat.join(a, lat.join(b, c))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_preds_match_definition(self, n):
        lat = CubeLattice(n)
        for a in range(lat.size):
            assert list(lat.immediate_predecessors(a)) == brute_immediate_predecessors(lat, a)

    def test_join_matches_exhaustive_scan(self):
        lat = CubeLattice(4)
        for a in range(lat.size):
            for b in range(lat.size):
                assert lat.join(a, b) == brute_join(lat, a, b)


class TestSigma:
    @pytest.mark.parametrize("n,expected", [(1, 1), (2, 3), (3, 6), (4, 10)])
    def test_cube_closed_form(self, n, expected):
        assert CubeLattice(n).sigma() == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_cube_agrees_with_downset_recursion(self, n):
        lat = CubeLattice(n)
        assert sigma_downset_recursion(lat) == n * (n + 1) // 2

    def test_chain_of_four(self, chain4):
        assert chain4.sigma() == 3

    def test_singleton(self):
        lat = ExplicitLattice(["only"], [])
        assert lat.sigma() == 0

    def test_diamond(self, diamond):
        # one of two predecessors of the top, then one more step down
        assert diamond.sigma() == 3
        assert sigma_downset_recursion(diamond) == 3


def assert_up_and_minimal_matches_brute(lat, mask):
    """The kernel against the order scan, and its closure against ``up_closure``."""
    up, low = lat.up_and_minimal(mask)
    assert up == elements_mask(brute_up_set(lat, mask_elements(mask)))
    assert mask_elements(low) == brute_global_min(lat, lambda x: mask >> x & 1)
    assert up == lat.up_closure(mask)


class TestUpAndMinimal:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_cube_matches_brute(self, n):
        # the empty and full masks, every single point up to n = 6 and a
        # spread of them past it, then random masks of every density
        lat = CubeLattice(n)
        rng = random.Random(200 + n)
        points = range(lat.size) if n <= 6 else rng.sample(range(lat.size), 40)
        masks = [0, (1 << lat.size) - 1] + [1 << a for a in points]
        masks += [rng.getrandbits(lat.size) & rng.getrandbits(lat.size) for _ in range(10)]
        masks += [rng.getrandbits(lat.size) for _ in range(10)]
        for mask in masks:
            assert_up_and_minimal_matches_brute(lat, mask)

    def test_explicit_matches_brute_on_every_mask(self):
        for lat in EXPLICIT_SWEEP_LATTICES:
            for mask in range(1 << lat.size):
                assert_up_and_minimal_matches_brute(lat, mask)


class TestMinimal:
    # the minimal elements of a mask, as up_and_minimal's second half
    def test_examples(self, cube2):
        mask = elements_mask({0b01, 0b10, 0b11})
        assert cube2.up_and_minimal(mask)[1] == elements_mask({0b01, 0b10})
        assert cube2.up_and_minimal(0) == (0, 0)
        cube3, mask = CubeLattice(3), elements_mask({0b110})
        assert cube3.up_and_minimal(mask)[1] == mask

    @given(st.sets(st.integers(0, 63)))
    def test_output_is_undominated_and_covers_input(self, points):
        lat = CubeLattice(6)
        mask = elements_mask(points)
        mins = lat.up_and_minimal(mask)[1]
        assert set(mask_elements(mins)) <= set(points)
        for a in mask_elements(mins):
            assert not any(b != a and lat.leq(b, a) for b in points)
        for b in points:
            assert any(lat.leq(a, b) for a in mask_elements(mins))
        assert lat.up_and_minimal(mins)[1] == mins

    @pytest.mark.parametrize("name", sorted(KERNEL_LATTICES))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_brute_global_min(self, name, data):
        lat = KERNEL_LATTICES[name]
        mask = data.draw(st.integers(0, (1 << lat.size) - 1))
        assert_up_and_minimal_matches_brute(lat, mask)

    @settings(max_examples=100, deadline=None)
    @given(family=moore_families(max_ground=5, max_draws=8), data=st.data())
    def test_matches_brute_global_min_on_moore_families(self, family, data):
        _, names, covers = family
        lat = ExplicitLattice(names, covers)
        assert_up_and_minimal_matches_brute(lat, data.draw(st.integers(0, (1 << lat.size) - 1)))


class TestExplicitLattice:
    def test_diamond_join(self, diamond):
        p, q, top = (diamond.parse_element(nm) for nm in ("p", "q", "top"))
        assert diamond.join(p, q) == top
        assert diamond.immediate_predecessors(diamond.parse_element("bot")) == ()

    def test_two_maximal_elements_rejected(self):
        with pytest.raises(LatticeValidationError, match="'a'.*'b'"):
            ExplicitLattice(["a", "b"], [])

    def test_non_unique_join_rejected(self):
        names = ["a", "b", "c", "d", "top"]
        covers = [
            ("a", "c"),
            ("a", "d"),
            ("b", "c"),
            ("b", "d"),
            ("c", "top"),
            ("d", "top"),
        ]
        with pytest.raises(LatticeValidationError, match="'a' and 'b'"):
            ExplicitLattice(names, covers)

    def test_error_names_a_cover_pair_not_the_first_pair_by_id(self):
        # pp and qq, ids 0 and 1, are the first pair by id without a join
        # (both lie below c and d), but they cover no common element; the
        # sweep meets p and q, the upper covers of z, and names them
        names = ["pp", "qq", "z", "p", "q", "c", "d", "top"]
        covers = [("z", "p"), ("z", "q"), ("p", "pp"), ("q", "qq")]
        covers += [(lo, hi) for lo in ("pp", "qq") for hi in ("c", "d")]
        covers += [("c", "top"), ("d", "top")]
        ok, failing = brute_is_lattice(names, covers)
        assert (ok, failing) == (False, ("p", "q", ["c", "d"]))
        with pytest.raises(LatticeValidationError) as exc:
            ExplicitLattice(names, covers)
        assert str(exc.value) == join_error(*failing)

    def test_cycle_rejected(self):
        with pytest.raises(LatticeValidationError, match="cycle"):
            ExplicitLattice(["a", "b", "c"], [("a", "b"), ("b", "a"), ("a", "c"), ("b", "c")])

    def test_duplicate_name_rejected(self):
        with pytest.raises(LatticeValidationError, match="duplicate"):
            ExplicitLattice(["a", "a"], [])

    def test_transitive_input_edges_do_not_become_covers(self):
        lat = ExplicitLattice(
            ["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")]
        )
        c = lat.parse_element("c")
        assert [lat.element_name(x) for x in lat.immediate_predecessors(c)] == ["b"]

    def test_explicit_cube_matches_builtin(self):
        cube = CubeLattice(2)
        names = [cube.element_name(a) for a in range(cube.size)]
        covers = [
            (cube.element_name(b), cube.element_name(a))
            for a in range(cube.size)
            for b in cube.immediate_predecessors(a)
        ]
        exp = ExplicitLattice(names, covers)
        for a in range(cube.size):
            assert exp.immediate_predecessors(a) == cube.immediate_predecessors(a)
            for b in range(cube.size):
                assert exp.leq(a, b) == cube.leq(a, b)
                assert exp.join(a, b) == cube.join(a, b)
        assert exp.sigma() == cube.sigma()

    def test_preds_match_definition(self, diamond, chain4):
        for lat in (diamond, chain4):
            for a in range(lat.size):
                assert list(lat.immediate_predecessors(a)) == brute_immediate_predecessors(lat, a)

    def test_pentagon_with_scrambled_declaration(self):
        lat = ExplicitLattice(PENTAGON_NAMES, PENTAGON_COVERS)
        top = lat.parse_element("top")
        assert sorted(
            lat.element_name(x) for x in lat.immediate_predecessors(top)
        ) == ["b", "c"]
        a, b = lat.parse_element("a"), lat.parse_element("b")
        assert lat.join(a, b) == top
        assert lat.sigma() == 4
        assert sigma_downset_recursion(lat) == 4
        for x in range(lat.size):
            assert list(lat.immediate_predecessors(x)) == brute_immediate_predecessors(lat, x)
            for y in range(lat.size):
                assert lat.join(x, y) == brute_join(lat, x, y)

    def test_several_bottom_most_elements_allowed(self):
        # p and q both sit directly above the implicit bottom
        lat = ExplicitLattice(["p", "q", "t"], [("p", "t"), ("q", "t")])
        assert lat.immediate_predecessors(lat.parse_element("p")) == ()
        assert lat.immediate_predecessors(lat.parse_element("q")) == ()
        assert lat.sigma() == 2


def _quoted(message):
    return re.findall(r"'(\w+)'", message)


def join_error(a, b, bounds):
    return (
        f"elements {a!r} and {b!r} have no unique least upper bound "
        f"(minimal upper bounds: {bounds})"
    )


class TestMooreFamilies:
    @settings(max_examples=80, deadline=None)
    @given(moore_families())
    def test_queries_match_inclusion_order(self, family):
        sets, names, covers = family
        lat = ExplicitLattice(names, covers)
        for a in range(lat.size):
            for b in range(lat.size):
                assert lat.leq(a, b) == (sets[a] & sets[b] == sets[a])
                assert lat.join(a, b) == brute_join(lat, a, b)
            assert list(lat.immediate_predecessors(a)) == brute_immediate_predecessors(lat, a)
        assert sets[lat.top] == max(sets)
        if lat.size <= 10:
            assert lat.sigma() == sigma_downset_recursion(lat)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 4), st.integers(1, 3), st.data())
    def test_cycle_error_names_two_cycle_elements(self, cycle_len, tail_len, data):
        # a cycle with one element below it and a chain above it
        cycle = [f"c{i}" for i in range(cycle_len)]
        tail = [f"t{i}" for i in range(tail_len)]
        covers = list(zip(cycle, cycle[1:] + cycle[:1])) + list(zip(tail, tail[1:]))
        covers.append((data.draw(st.sampled_from(cycle)), tail[0]))
        covers.append(("b", data.draw(st.sampled_from(cycle))))
        names = data.draw(st.permutations(["b"] + cycle + tail))
        with pytest.raises(LatticeValidationError, match="cycle") as exc:
            ExplicitLattice(names, data.draw(st.permutations(covers)))
        named = _quoted(str(exc.value))
        assert len(set(named)) == 2 and set(named) <= set(cycle)

    @settings(max_examples=40, deadline=None)
    @given(moore_families(), st.data())
    def test_second_maximal_element_rejected(self, family, data):
        sets, names, covers = family
        lower = [nm for s, nm in zip(sets, names) if s != max(sets)]
        extra = data.draw(st.lists(st.sampled_from(lower), max_size=1)) if lower else []
        at = data.draw(st.integers(0, len(names)))
        names = names[:at] + ["extra"] + names[at:]
        with pytest.raises(LatticeValidationError, match="both maximal") as exc:
            ExplicitLattice(names, covers + [(nm, "extra") for nm in extra])
        assert _quoted(str(exc.value)) == sorted([set_name(max(sets)), "extra"], key=names.index)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3), st.lists(st.integers(0, 7), max_size=5), st.data())
    def test_pair_without_least_upper_bound_rejected(self, ground, draws, data):
        # any subsets of the low bits, plus {x} and {y} whose only minimal
        # upper bounds are {x, y, u} and {x, y, v}
        low = (1 << ground) - 1
        x, y, u, v = (1 << ground + i for i in range(4))
        family = {r & low for r in draws} | {x, y, x | y | u, x | y | v, low | x | y | u | v}
        sets = data.draw(st.permutations(sorted(family)))
        names = [set_name(s) for s in sets]

        def minimal_upper_bounds(a, b):
            ubs = [s for s in sets if s & (a | b) == a | b]
            return {s for s in ubs if not any(t != s and t & s == t for t in ubs)}

        covers = [(names[a], names[b]) for a, b in inclusion_covers(sets)]
        ok, failing = brute_is_lattice(names, covers)
        assert not ok
        a, b, bounds = failing
        ubs = minimal_upper_bounds(sets[names.index(a)], sets[names.index(b)])
        assert len(ubs) > 1
        assert bounds == sorted(map(set_name, ubs), key=names.index)
        with pytest.raises(LatticeValidationError) as exc:
            ExplicitLattice(names, covers)
        assert str(exc.value) == join_error(*failing)


def assert_validation_matches_brute(names, covers):
    ok, failing = brute_is_lattice(names, covers)
    if ok:
        lat = ExplicitLattice(names, covers)
        for a in range(lat.size):
            assert list(lat.immediate_predecessors(a)) == brute_immediate_predecessors(lat, a)
            for b in range(lat.size):
                assert lat.join(a, b) == brute_join(lat, a, b)
        return
    # rejected, naming the first failing pair of the validation sweep
    with pytest.raises(LatticeValidationError) as exc:
        ExplicitLattice(names, covers)
    assert str(exc.value) == join_error(*failing)


class TestValidationAgainstBruteForce:
    @settings(max_examples=400, deadline=None)
    @given(single_top_orders())
    def test_fuzzed_orders(self, order):
        assert_validation_matches_brute(*order)

    @settings(max_examples=100, deadline=None)
    @given(moore_families())
    def test_moore_families(self, family):
        _, names, covers = family
        assert brute_is_lattice(names, covers) == (True, None)
        assert_validation_matches_brute(names, covers)


class TestChainProductAtScale:
    def test_shuffled_16_cubed(self):
        rng = random.Random(16)
        points, lat = chain_product((16, 16, 16), rng)
        ids = {p: i for i, p in enumerate(points)}
        assert lat.sigma() == 132
        assert points[lat.top] == (15, 15, 15)
        for _ in range(200):
            a, b = rng.randrange(lat.size), rng.randrange(lat.size)
            assert points[lat.join(a, b)] == tuple(map(max, points[a], points[b]))
        for a in rng.sample(range(lat.size), 200):
            p = points[a]
            below = [ids[p[:j] + (p[j] - 1,) + p[j + 1 :]] for j in range(3) if p[j]]
            assert list(lat.immediate_predecessors(a)) == sorted(below)


@st.composite
def noisy_lattice_text(draw, names, covers):
    """``lattice_file_text`` with drawn comment and blank lines, spacing and line endings."""
    gap = st.sampled_from([" ", "\t", "  ", " \t "])
    edge = st.sampled_from(["", " ", "\t", "  "])
    filler = st.lists(st.sampled_from(["", "  ", "\t", "# note", "  #cover x y", "#elem z"]), max_size=2)
    records = [["elem", nm] for nm in names] + [["cover", lo, hi] for lo, hi in covers]
    lines = draw(filler) + [draw(edge) + "lattice v1" + draw(edge)]
    for first, *rest in records:
        lines += draw(filler)
        lines.append(draw(edge) + first + "".join(draw(gap) + nm for nm in rest) + draw(edge))
    return "".join(line + draw(st.sampled_from(["\n", "\r\n"])) for line in lines)


class TestLatticeFiles:
    def test_load_diamond(self, tmp_path):
        path = tmp_path / "diamond.lat"
        path.write_text(lattice_file_text(DIAMOND_NAMES, DIAMOND_COVERS))
        lat = load_lattice(path)
        assert lat.size == 4
        assert lat.element_name(lat.top) == "top"
        assert lat.source_path == str(path)

    def test_header_required(self):
        with pytest.raises(LatticeValidationError, match="<lattice>:1"):
            parse_lattice("elem a\n")

    def test_unknown_directive_reports_line(self):
        with pytest.raises(LatticeValidationError, match=":3"):
            parse_lattice("lattice v1\nelem a\nnode b\n")

    def test_unknown_cover_name_reports_line(self):
        with pytest.raises(LatticeValidationError, match=":3.*'b'"):
            parse_lattice("lattice v1\nelem a\ncover a b\n")

    def test_elem_after_cover_rejected(self):
        text = "lattice v1\nelem a\nelem b\ncover a b\nelem c\n"
        with pytest.raises(LatticeValidationError, match=":5"):
            parse_lattice(text)

    def test_comments_and_blanks_skipped(self):
        text = "# chain\nlattice v1\n\nelem a\nelem b\n# covers\ncover a b\n"
        lat = parse_lattice(text)
        assert lat.size == 2

    def test_structural_error_carries_source(self, tmp_path):
        path = tmp_path / "bad.lat"
        path.write_text("lattice v1\nelem a\nelem b\n")
        with pytest.raises(LatticeValidationError, match="bad.lat"):
            load_lattice(path)

    def test_two_parses_are_equal_and_one_cover_line_apart_is_not(self):
        text = lattice_file_text(PENTAGON_NAMES, PENTAGON_COVERS)
        lat, again = parse_lattice(text), parse_lattice(text)
        assert lat is not again and lat == again and hash(lat) == hash(again)
        assert lat != parse_lattice(text.replace("cover a c\n", "cover a top\n"))

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(single_top_orders(), moore_families().map(lambda f: f[1:])), st.data())
    def test_noisy_file_loads_as_the_constructor_builds(self, order, data):
        names, covers = order
        if covers:
            covers = covers + data.draw(st.lists(st.sampled_from(covers), max_size=3))
        text = data.draw(noisy_lattice_text(names, covers))
        try:
            want = ExplicitLattice(names, covers)
        except LatticeValidationError as exc:
            with pytest.raises(LatticeValidationError) as got:
                parse_lattice(text)
            assert str(got.value) == f"<lattice>: {exc}"
            return
        lat = parse_lattice(text)
        assert lat.names == want.names and lat._ups == want._ups
        assert lat._lower_covers == want._lower_covers and lat.sigma() == want.sigma()

    @pytest.mark.parametrize(
        "content", [None, b"lattice v1\nelem \xff\n"], ids=["missing", "not-utf8"]
    )
    def test_unreadable_file_is_a_file_error_naming_it(self, tmp_path, content):
        path = tmp_path / "x.lat"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(FileFormatError) as exc:
            load_lattice(path)
        assert str(exc.value).startswith(f"cannot read {path}: ")


class TestBoundaryRejections:
    @pytest.mark.parametrize(
        "names, covers, message",
        [
            ([], [], "a lattice needs at least one element"),
            (["a"], [("a", "b")], "cover names unknown element 'b'"),
            (["a", "b"], [("c", "b")], "cover names unknown element 'c'"),
            (["a", "b"], [("a", "b"), ("b", "b")], "cover relates 'b' to itself"),
        ],
    )
    def test_explicit_lattice_constructor(self, names, covers, message):
        with pytest.raises(LatticeValidationError) as exc:
            ExplicitLattice(names, covers)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "text, message",
        [
            ("lattice v1\nelem a b\n", "<lattice>:2: elem takes exactly one name"),
            ("lattice v1\nelem\n", "<lattice>:2: elem takes exactly one name"),
            ("lattice v1\nelem a\nelem b\ncover a\n", "<lattice>:4: cover takes exactly two names"),
            ("lattice v1\nelem a\ncover a a a\n", "<lattice>:3: cover takes exactly two names"),
            ("lattice v1\nelem a\n# b\n\nelem a\n", "<lattice>:5: duplicate element 'a'"),
            ("cover a b\n", "<lattice>:1: expected 'lattice v1' header, got 'cover a b'"),
            ("# a comment\n\n  # another\n", "<lattice>: empty file, expected 'lattice v1' header"),
            ("", "<lattice>: empty file, expected 'lattice v1' header"),
        ],
    )
    def test_lattice_file_lines(self, text, message):
        with pytest.raises(LatticeValidationError) as exc:
            parse_lattice(text)
        assert str(exc.value) == message


class TestMaskHelpers:
    @given(st.integers(0, 2**40 - 1))
    def test_roundtrip(self, mask):
        assert elements_mask(mask_elements(mask)) == mask

    def test_ascending(self):
        assert mask_elements(0b101001) == [0, 3, 5]

    @settings(max_examples=200)
    @given(
        st.just(0)
        | st.integers(0, (1 << 12) - 1).map(lambda i: 1 << i)
        | st.sets(st.integers(0, (1 << 12) - 1), max_size=24).map(
            lambda bits: sum(1 << i for i in bits)
        )
        | st.binary(max_size=(1 << 12) // 8).map(lambda b: int.from_bytes(b, "little"))
    )
    def test_matches_bitwise_reference(self, mask):
        # zero, single high bits, sparse and dense masks up to 2^12 bits wide
        assert mask_elements(mask) == brute_mask_elements(mask)

    @settings(max_examples=200)
    @given(
        st.integers(0, (1 << 64) - 1)
        | st.binary(max_size=(1 << 12) // 8).map(lambda b: int.from_bytes(b, "little")),
        st.lists(st.integers(0, (1 << 12) + 64), max_size=8),
    )
    def test_mask_bit_matches_the_shift(self, mask, drawn):
        # ids below the middle of the mask take the AND, the rest the shift;
        # ids at and past its length read 0
        length = mask.bit_length()
        middle = length // 2
        ids = {0, middle - 1, middle, middle + 1, length - 1, length, length + 1, 2 * length + 7}
        for i in ids.union(drawn) - {-1}:
            assert mask_bit(mask, i) == mask >> i & 1


class TestDenseSweeps:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
    def test_cube_up_closure_matches_pointwise(self, n):
        lat = CubeLattice(n)
        rng = random.Random(n)
        for _ in range(25):
            mask = rng.getrandbits(lat.size)
            closed = lat.up_closure(mask)
            pts = mask_elements(mask)
            for x in range(lat.size):
                expected = any(lat.leq(a, x) for a in pts)
                assert bool(closed >> x & 1) == expected

    @pytest.mark.parametrize("n", range(1, 11))
    def test_cube_up_closure_of_one_point_matches_pointwise(self, n, monkeypatch):
        # a point with at most 5 set coordinates ORs their clear masks; one
        # with more doubles element 0 over its clear coordinates and reads
        # no mask.  From n = 6 on, both kinds occur: the bottom 0 and the top
        lat = CubeLattice(n)
        masks = lat._coordinate_clear_masks()
        reads = []
        monkeypatch.setattr(lat, "_coordinate_clear_masks", lambda: reads.append(1) or masks)
        assert lat.up_closure(1 << 0) == (1 << lat.size) - 1
        assert len(reads) == 1
        ored = 1
        for a in range(1, lat.size):
            assert lat.up_closure(1 << a) == elements_mask(brute_up_set(lat, [a]))
            ored += a.bit_count() <= 5
        assert len(reads) == ored
        assert (ored < lat.size) == (n > 5)

    @pytest.mark.parametrize("n", [12, 14])
    def test_cube_up_closure_of_one_point_at_every_set_count(self, n):
        # one point per set-coordinate count, the set coordinates drawn at
        # random, so both paths see low and high coordinates clear
        lat = CubeLattice(n)
        rng = random.Random(n)
        for k in range(n + 1):
            a = elements_mask(rng.sample(range(n), k))
            assert lat.up_closure(1 << a) == elements_mask(brute_up_set(lat, [a]))

    @pytest.mark.parametrize("n", range(1, 14))
    def test_cube_clear_masks_match_definition(self, n):
        lat = CubeLattice(n)
        masks = lat._coordinate_clear_masks()
        assert len(masks) == n
        for j, zeros in enumerate(masks):
            assert zeros == elements_mask(x for x in range(lat.size) if not x >> j & 1)
        assert lat._coordinate_clear_masks() is masks

    def test_explicit_sweeps_match_pointwise(self):
        for lat in EXPLICIT_SWEEP_LATTICES:
            for mask in range(1 << lat.size):
                closed = lat.up_closure(mask)
                pts = mask_elements(mask)
                for x in range(lat.size):
                    assert bool(closed >> x & 1) == any(lat.leq(a, x) for a in pts)
