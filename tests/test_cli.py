import argparse
import json
import random
import subprocess
import sys
import time
import tracemalloc

import pytest

from dmono import (
    CubeLattice,
    DenseFunction,
    EquivalenceOracle,
    MembershipOracle,
    MonotoneDNF,
    XorHypothesis,
    learn,
    save_function,
    strict_decompose,
    takimoto_family,
    tightness_family,
)
from dmono.cli import build_parser, main
from dmono.errors import InvalidElementError
from dmono.fileio import function_to_doc, load_function

from conftest import DIAMOND_COVERS, DIAMOND_NAMES, chain_product, lattice_file_text
from oracles import brute_consistent_rounds


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def record_of(out):
    lines = [ln for ln in out.strip().splitlines() if ln]
    assert len(lines) == 1
    return json.loads(lines[0])


@pytest.fixture
def parity_file(tmp_path):
    path = tmp_path / "parity.json"
    save_function(tightness_family(2, 1), path, meta={"family": "tightness", "d": 2, "t": 1})
    return path


@pytest.fixture
def diamond_file(tmp_path):
    """A degree-2 target on a diamond declared top first, so descents move."""
    (tmp_path / "diamond.lat").write_text(
        lattice_file_text(DIAMOND_NAMES[::-1], DIAMOND_COVERS)
    )
    path = tmp_path / "diamond.json"
    doc = {"lattice": {"file": "diamond.lat"}, "repr": "xor", "payload": [["p", "q"], ["top"]]}
    path.write_text(json.dumps(doc))
    return path


class TestSigma:
    def test_cube(self, capsys):
        code, out, _ = run_cli(capsys, "sigma", "cube:3")
        assert code == 0
        assert out.strip() == "6"

    def test_chain_file(self, capsys, tmp_path):
        path = tmp_path / "chain.lat"
        path.write_text(
            lattice_file_text(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")])
        )
        code, out, _ = run_cli(capsys, "sigma", str(path))
        assert code == 0
        assert out.strip() == "3"

    def test_invalid_lattice_names_pair(self, capsys, tmp_path):
        path = tmp_path / "bad.lat"
        path.write_text(lattice_file_text(["a", "b"], []))
        code, out, err = run_cli(capsys, "sigma", str(path))
        assert code == 1
        assert "'a'" in err and "'b'" in err

    @pytest.mark.parametrize(
        "spec, reason",
        [
            ("cube:x", "invalid literal for int() with base 10: 'x'"),
            ("cube:0", "cube dimension must be at least 1"),
        ],
    )
    def test_bad_cube_spec_exits_1(self, capsys, spec, reason):
        assert run_cli(capsys, "sigma", spec) == (1, "", f"dmono: bad cube spec {spec!r}: {reason}\n")

    def test_out_appends_the_number(self, capsys, tmp_path):
        out_path = tmp_path / "sigma.txt"
        for spec in ("cube:3", "cube:4"):
            assert run_cli(capsys, "sigma", spec, "--out", str(out_path)) == (0, "", "")
        assert out_path.read_text() == "6\n10\n"


class TestFamilyAndDecompose:
    def test_generate_then_decompose(self, capsys, tmp_path):
        target = tmp_path / "t22.json"
        code, out, _ = run_cli(
            capsys, "family", "tightness", "-d", "2", "-t", "2", "--out", str(target)
        )
        assert code == 0
        assert json.loads(out)["written"] == str(target)

        code, out, _ = run_cli(capsys, "decompose", str(target))
        assert code == 0
        rec = record_of(out)
        assert rec["degree"] == 2
        assert rec["level_sizes"] == [4, 4]
        assert rec["size_xor_m"] == 8
        assert rec["roundtrip_ok"] is True

    def test_family_to_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "family", "tightness", "-d", "2", "-t", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["repr"] == "composed"
        assert doc["meta"]["family"] == "tightness"

    def test_random_family_is_seed_reproducible(self, capsys):
        args = ("family", "random", "-d", "2", "--sizes", "2,1", "-n", "5", "--seed", "7")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_missing_family_params(self, capsys):
        code, _, err = run_cli(capsys, "family", "takimoto", "-d", "2")
        assert code == 1
        assert "-t" in err

    @pytest.mark.parametrize("argv", [("--sizes", "2,1"), ("-n", "5"), ()])
    def test_random_family_needs_sizes_and_n(self, capsys, argv):
        code, out, err = run_cli(capsys, "family", "random", "-d", "2", *argv)
        assert (code, out, err) == (1, "", "dmono: random needs --sizes and -n\n")

    @pytest.mark.parametrize("sizes", ["1,x", "", "1,,2"])
    def test_random_family_sizes_are_a_usage_error(self, capsys, tmp_path, sizes):
        out_path = tmp_path / "r.json"
        argv = ("family", "random", "-d", "2", "--sizes", sizes, "-n", "5", "--out", str(out_path))
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.endswith(f"argument --sizes: not a comma list of integers: {sizes!r}\n")
        assert not out_path.exists()

    @pytest.mark.parametrize("n", ["64", "4"])
    def test_random_family_refuses_a_negative_size(self, capsys, tmp_path, n):
        out_path = tmp_path / "neg.json"
        argv = ("family", "random", "-d", "2", "-n", n, "--max-n", "64", "--out", str(out_path))
        code, out, err = run_cli(capsys, *argv[:2], "--sizes", "2,-1", *argv[2:])
        assert (code, out, err) == (1, "", "dmono: inner size -1 is negative\n")
        assert not out_path.exists()
        code, _, _ = run_cli(capsys, *argv[:2], "--sizes", "0,2", *argv[2:])
        assert code == 0
        assert json.loads(out_path.read_text())["payload"]["g"][0] == []

    def test_bad_family_params_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "family", "takimoto", "-d", "1", "-t", "2")
        assert code == 1
        assert "d >= 2" in err


class TestLearn:
    def test_worked_example_record(self, capsys, parity_file):
        code, out, _ = run_cli(capsys, "learn", str(parity_file), "-d", "2")
        assert code == 0
        rec = record_of(out)
        assert rec["counterexamples"] == 3
        assert rec["eq_used"] == 4
        assert rec["eq_bound"] == 3
        assert rec["x0"] == ["11"]
        assert rec["x1"] == ["01", "10"]
        assert rec["hypothesis"]["payload"] == [["01", "10"], ["11"]]

    def test_degree_too_small_exits_2(self, capsys, parity_file):
        code, _, err = run_cli(capsys, "learn", str(parity_file), "-d", "1")
        assert code == 2
        assert err.endswith("dmono: retry with -d 2\n")

    def test_retry_hint_of_a_lifted_target_is_one_above_d(self, capsys, tmp_path):
        # tightness(2,2) with its outer table complemented has degree 3: at
        # -d 1 it runs at degree 2 and fails, and -d 2 (degree 3) succeeds
        from dmono import ComposedTarget

        base = tightness_family(2, 2)
        lifted = tmp_path / "lifted.json"
        save_function(ComposedTarget(base.lattice, base.outer ^ 0b1111, base.inner), lifted)
        code, _, err = run_cli(capsys, "learn", str(lifted), "-d", "1")
        assert code == 2
        assert err.endswith("dmono: retry with -d 2\n")
        code, out, _ = run_cli(capsys, "learn", str(lifted), "-d", "2")
        assert code == 0
        assert record_of(out)["effective_d"] == 3

    def test_constant_zero_target(self, capsys, tmp_path):
        path = tmp_path / "zero.json"
        save_function(DenseFunction(CubeLattice(3), 0), path)
        code, out, _ = run_cli(capsys, "learn", str(path), "-d", "1")
        assert code == 0
        rec = record_of(out)
        assert rec["counterexamples"] == 0
        assert rec["mq_used"] == 0

    def test_origin_one_target_learned_at_d_plus_1(self, capsys, tmp_path):
        lifted = tmp_path / "lifted.json"
        base = tightness_family(2, 1)
        from dmono import ComposedTarget

        save_function(
            ComposedTarget(base.lattice, base.outer | 1, base.inner), lifted
        )
        code, out, _ = run_cli(capsys, "learn", str(lifted), "-d", "2")
        assert code == 0
        rec = record_of(out)
        assert rec["d"] == 2
        assert rec["effective_d"] == 3
        assert rec["eq_bound"] is None
        assert len(rec["hypothesis"]["payload"]) == 3

    def test_trace_flag_adds_named_trace(self, capsys, parity_file):
        code, out, _ = run_cli(capsys, "learn", str(parity_file), "-d", "2", "--trace")
        assert code == 0
        rec = record_of(out)
        assert [t["settled"] for t in rec["trace"]] == ["01", "10", "11"]
        assert all(set(t) == {"counterexample", "settled", "label", "steps", "inspections"} for t in rec["trace"])

    @pytest.mark.parametrize("fixture", ["parity_file", "diamond_file"])
    def test_trace_names_the_runs_descents(self, capsys, request, fixture):
        # the record's names, written a batch at a time, are element_name's
        path = request.getfixturevalue(fixture)
        target, _ = load_function(path)
        lat = target.lattice
        name = lat.element_name
        h, stats = learn(2, lat, MembershipOracle.for_function(target), EquivalenceOracle(target))
        assert any(r.steps for r in stats.trace) == (fixture == "diamond_file")
        assert stats.x0 and stats.x1
        code, out, _ = run_cli(capsys, "learn", str(path), "-d", "2", "--trace")
        assert code == 0
        rec = record_of(out)
        assert rec["trace"] == [
            {
                "counterexample": name(r.counterexample),
                "settled": name(r.element),
                "label": r.value,
                "steps": r.steps,
                "inspections": r.inspections,
            }
            for r in stats.trace
        ]
        assert rec["x0"] == [name(a) for a in stats.x0]
        assert rec["x1"] == [name(a) for a in stats.x1]
        levels = strict_decompose(h).levels
        assert rec["hypothesis"]["payload"] == [[name(a) for a in lv.minimals] for lv in levels]

    def test_records_identical_up_to_timing(self, capsys, parity_file):
        _, first, _ = run_cli(capsys, "learn", str(parity_file), "-d", "2")
        _, second, _ = run_cli(capsys, "learn", str(parity_file), "-d", "2")
        a, b = json.loads(first), json.loads(second)
        for rec in (a, b):
            rec.pop("wall_ms")
            rec.pop("rebuild_ms")
        assert a == b

    def test_out_appends_records(self, capsys, parity_file, tmp_path):
        out_path = tmp_path / "runs.jsonl"
        run_cli(capsys, "learn", str(parity_file), "-d", "2", "--out", str(out_path))
        run_cli(capsys, "learn", str(parity_file), "-d", "3", "--out", str(out_path))
        lines = out_path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[1])["d"] == 3

    def test_target_table_is_built_once(self, capsys, parity_file, monkeypatch):
        from dmono import ComposedTarget

        calls = []
        dense = ComposedTarget.dense
        monkeypatch.setattr(ComposedTarget, "dense", lambda f: calls.append(f) or dense(f))
        assert run_cli(capsys, "learn", str(parity_file), "-d", "2")[0] == 0
        assert len(calls) == 1

    def test_missing_target_exits_1(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "learn", str(tmp_path / "none.json"), "-d", "1")
        assert code == 1

    def test_explicit_lattice_target_end_to_end(self, capsys, tmp_path):
        from conftest import DIAMOND_COVERS, DIAMOND_NAMES

        (tmp_path / "diamond.lat").write_text(
            lattice_file_text(DIAMOND_NAMES, DIAMOND_COVERS)
        )
        target = tmp_path / "g.json"
        target.write_text(
            json.dumps(
                {"lattice": {"file": "diamond.lat"}, "repr": "mdnf", "payload": ["p"]}
            )
        )
        code, out, _ = run_cli(capsys, "learn", str(target), "-d", "1")
        assert code == 0
        rec = record_of(out)
        assert rec["counterexamples"] == 1
        assert rec["x1"] == ["p"]
        assert rec["hypothesis"]["payload"] == [["p"]]


class TestConsistentCommand:
    def test_parity_sample(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "consistent",
            "--lattice",
            "cube:2",
            "-d",
            "2",
            "--x0",
            "11",
            "--x1",
            "01",
            "--x1",
            "10",
        )
        assert code == 0
        rec = record_of(out)
        assert rec["hypothesis"]["payload"] == [["01", "10"], ["11"]]
        assert rec["level_sizes"] == [2, 1]

    def test_empty_sample_keeps_d_levels(self, capsys):
        code, out, _ = run_cli(capsys, "consistent", "--lattice", "cube:2", "-d", "2")
        assert code == 0
        rec = record_of(out)
        assert rec["hypothesis"]["payload"] == [[], []]
        assert rec["level_sizes"] == [0, 0]

    @pytest.mark.parametrize("spec", ["cube:3", "chains"])
    def test_payload_is_the_rounds_padded_to_d(self, capsys, tmp_path, spec):
        # labels from an XOR of at most d closures always fit, and the
        # record shows the d rounds' levels, the empty ones last
        rng = random.Random(25)
        if spec == "cube:3":
            lat = CubeLattice(3)
        else:
            _, lat = chain_product((2, 3, 2), rng)
            covers = [
                (lat.element_name(p), lat.element_name(x))
                for x in range(lat.size)
                for p in lat.immediate_predecessors(x)
            ]
            spec = str(tmp_path / "chains.lat")
            (tmp_path / "chains.lat").write_text(lattice_file_text(lat.names, covers))
        padded = 0
        for _ in range(40):
            d = rng.randint(1, 3)
            labels = 0
            for _ in range(rng.randint(0, d)):
                labels ^= lat.up_closure(rng.getrandbits(lat.size) & rng.getrandbits(lat.size))
            points = rng.sample(range(lat.size), rng.randint(0, lat.size))
            x0 = [x for x in points if not labels >> x & 1]
            x1 = [x for x in points if labels >> x & 1]
            levels, _, violated = brute_consistent_rounds(lat, d, x0, x1)
            assert violated is None
            argv = ["consistent", "--lattice", spec, "-d", str(d)]
            argv += [arg for x in x0 for arg in ("--x0", lat.element_name(x))]
            argv += [arg for x in x1 for arg in ("--x1", lat.element_name(x))]
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            rec = record_of(out)
            assert rec["hypothesis"]["payload"] == [lat.element_names(lv) for lv in levels]
            assert rec["level_sizes"] == [len(lv) for lv in levels]
            padded += not levels[-1]
        assert padded

    def test_unsatisfiable_sample_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys,
            "consistent",
            "--lattice",
            "cube:2",
            "-d",
            "1",
            "--x0",
            "11",
            "--x1",
            "01",
            "--x1",
            "10",
        )
        assert code == 2
        assert "11" in err

    def test_unknown_element_of_a_lattice_file_exits_1(self, capsys, tmp_path):
        path = tmp_path / "diamond.lat"
        path.write_text(lattice_file_text(DIAMOND_NAMES, DIAMOND_COVERS))
        argv = ("consistent", "--lattice", str(path), "-d", "1", "--x1", "nope")
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (1, "", f"dmono: 'nope' is not an element of {path}\n")


class TestDegreeRange:
    # cube:2 has sigma 3, so -d runs from 1 to 4
    def test_sigma_plus_one_is_accepted(self, capsys, parity_file):
        code, out, _ = run_cli(capsys, "consistent", "--lattice", "cube:2", "-d", "4", "--x1", "01")
        assert code == 0
        assert out == (
            '{"command":"consistent","lattice":"cube:2","d":4,"x0":[],"x1":["01"],'
            '"level_sizes":[1,0,0,0],"hypothesis":{"lattice":{"cube":2},"repr":"xor",'
            '"payload":[["01"],[],[],[]]}}\n'
        )
        code, out, _ = run_cli(capsys, "learn", str(parity_file), "-d", "4")
        assert code == 0
        rec = record_of(out)
        assert (rec["effective_d"], rec["counterexamples"]) == (4, 3)
        assert rec["hypothesis"]["payload"] == [["01", "10"], ["11"], [], []]

    @pytest.mark.parametrize("d", ["0", "5", "1000000"])
    def test_degree_outside_the_range_writes_nothing(self, capsys, tmp_path, parity_file, d):
        out_path = tmp_path / "out.jsonl"
        for argv in (
            ("consistent", "--lattice", "cube:2", "--x1", "01"),
            ("learn", str(parity_file)),
        ):
            code, out, err = run_cli(capsys, *argv, "-d", d, "--out", str(out_path))
            assert (code, out) == (1, "")
            assert err == f"dmono: -d {d} is outside 1..4 (sigma + 1) for cube:2\n"
        assert not out_path.exists()

    def test_cap_is_checked_first(self, capsys, parity_file):
        for argv in (
            ("consistent", "--lattice", "cube:2", "--x1", "01"),
            ("learn", str(parity_file)),
        ):
            code, out, _ = run_cli(capsys, *argv, "-d", "0", "--max-n", "1")
            assert (code, out) == (3, "")


class TestDegreeCommand:
    def test_degree(self, capsys, parity_file):
        code, out, _ = run_cli(capsys, "degree", str(parity_file))
        assert code == 0
        assert record_of(out)["degree"] == 2


class TestVerify:
    def test_all_checks_pass_on_tightness(self, capsys, tmp_path):
        target = tmp_path / "t22.json"
        run_cli(capsys, "family", "tightness", "-d", "2", "-t", "2", "--out", str(target))
        code, out, _ = run_cli(capsys, "verify", str(target))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines and all(ln.startswith("PASS") for ln in lines)
        names = {ln.split()[2] for ln in lines}
        assert {"decompose-roundtrip", "levels-strict", "degree-bound", "sms-bound",
                "tightness-size", "tightness-levels"} <= names

    def test_takimoto_separation_checks(self, capsys, tmp_path):
        target = tmp_path / "tk22.json"
        run_cli(capsys, "family", "takimoto", "-d", "2", "-t", "2", "--out", str(target))
        code, out, _ = run_cli(capsys, "verify", str(target))
        assert code == 0
        names = {ln.split()[2] for ln in out.strip().splitlines()}
        assert {"separation-size", "chain-witnesses"} <= names

    def test_nested_target_whose_chain_witnesses_miss(self, capsys, tmp_path):
        # F = g_1 | g_2 = g_1 with nested blocks: the target has degree 1,
        # so no chain's second element has a level to be minimal in
        path = tmp_path / "or.json"
        doc = function_to_doc(takimoto_family(2, 2), {"family": "takimoto", "d": 2, "t": 2})
        doc["payload"]["F"] = "0111"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "verify", str(path))
        assert (code, err) == (1, "")
        assert out.splitlines() == [
            f"PASS {path} decompose-roundtrip",
            f"PASS {path} levels-strict",
            f"PASS {path} degree-bound",
            f"PASS {path} sms-bound",
            f"PASS {path} separation-size",
            f"FAIL {path} chain-witnesses (a chain witness missed its level)",
        ]

    def test_directory_and_against(self, capsys, tmp_path, parity_file):
        hyp = tmp_path / "learned.json"
        _, out, _ = run_cli(capsys, "learn", str(parity_file), "-d", "2")
        rec = json.loads(out)
        hyp.write_text(json.dumps(rec["hypothesis"]) + "\n")
        code, out, _ = run_cli(capsys, "verify", str(hyp), "--against", str(parity_file))
        assert code == 0
        assert "PASS" in out and "pointwise-equal" in out
        assert "strict-recovery" in out

    def test_mismatch_fails(self, capsys, tmp_path, parity_file):
        other = tmp_path / "zero.json"
        save_function(DenseFunction(CubeLattice(2), 0), other)
        code, out, _ = run_cli(capsys, "verify", str(other), "--against", str(parity_file))
        assert code == 1
        assert any(ln.startswith("FAIL") and "pointwise-equal" in ln for ln in out.splitlines())

    @pytest.mark.parametrize(
        "argv, tables",
        [(("decompose",), 1), (("verify",), 1), (("verify", "--against", "FILE"), 2)],
    )
    def test_decompose_and_verify_build_the_target_table_once(
        self, capsys, tmp_path, monkeypatch, argv, tables
    ):
        # with --against, the other file's table is the second one built
        from dmono import ComposedTarget

        path = tmp_path / "t44.json"
        save_function(tightness_family(4, 4), path, meta={"family": "tightness", "d": 4, "t": 4})
        calls = []
        dense = ComposedTarget.dense
        monkeypatch.setattr(ComposedTarget, "dense", lambda f: calls.append(f) or dense(f))
        argv = [str(path) if arg == "FILE" else arg for arg in argv]
        assert run_cli(capsys, *argv, str(path))[0] == 0
        assert len(calls) == tables

    def test_verify_loads_and_builds_the_against_file_once(self, capsys, tmp_path, monkeypatch):
        import dmono.cli
        from dmono import ComposedTarget

        k = 3
        directory = tmp_path / "targets"
        directory.mkdir()
        for i in range(k):
            save_function(tightness_family(2, 2), directory / f"t{i}.json")
        other = tmp_path / "other.json"
        save_function(tightness_family(2, 2), other)
        loads, tables = [], []
        load, dense = dmono.cli.load_function, ComposedTarget.dense
        monkeypatch.setattr(dmono.cli, "load_function", lambda p: loads.append(p) or load(p))
        monkeypatch.setattr(ComposedTarget, "dense", lambda f: tables.append(f) or dense(f))
        code, out, err = run_cli(capsys, "verify", str(directory), "--against", str(other))
        assert (code, err) == (0, "")
        assert out.count(" pointwise-equal\n") == k
        assert (len(loads), len(tables)) == (k + 1, k + 1)

    def test_verify_builds_each_level_closure_once(self, capsys, tmp_path, monkeypatch):
        # d inner closures for the target's table, one fused sweep per level
        # for its decomposition, and one closure per level, rebuilt from its
        # minimal mask, shared by decompose-roundtrip and levels-strict
        d, t = 4, 4
        path = tmp_path / "t44.json"
        save_function(tightness_family(d, t), path, meta={"family": "tightness", "d": d, "t": t})
        levels = len(strict_decompose(tightness_family(d, t)).levels)
        calls = {"up_closure": [], "up_and_minimal": []}
        for name, log in calls.items():
            kernel = getattr(CubeLattice, name)

            def counted(lat, mask, kernel=kernel, log=log):
                log.append(mask)
                return kernel(lat, mask)

            monkeypatch.setattr(CubeLattice, name, counted)
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert code == 0 and "FAIL" not in out
        assert len(calls["up_closure"]) == d + levels == 8
        assert len(calls["up_and_minimal"]) == levels == 4

    def test_verify_against_builds_each_closure_once(self, capsys, tmp_path, monkeypatch):
        # the learned file's levels, its decomposition's levels and the
        # --against target's inner functions: one closure each, every
        # check after the first reading the table kept on its function
        d, t = 3, 2
        target, hyp = tmp_path / "t32.json", tmp_path / "h32.json"
        save_function(tightness_family(d, t), target)
        _, out, _ = run_cli(capsys, "learn", str(target), "-d", str(d))
        hyp.write_text(json.dumps(json.loads(out)["hypothesis"]))
        calls = []
        kernel = CubeLattice.up_closure
        monkeypatch.setattr(
            CubeLattice, "up_closure", lambda lat, mask: calls.append(mask) or kernel(lat, mask)
        )
        code, out, _ = run_cli(capsys, "verify", str(hyp), "--against", str(target))
        assert code == 0
        assert [ln.split()[2] for ln in out.splitlines()] == [
            "decompose-roundtrip", "levels-strict", "strict-recovery", "pointwise-equal"
        ]
        levels = len(load_function(hyp)[0].levels)
        assert levels == d
        assert len(calls) == 2 * levels + d == 9

    @pytest.mark.parametrize(
        "edit, roundtrip, strict",
        [
            (lambda lvs: lvs[:-1], "FAIL", "PASS"),
            (lambda lvs: lvs[::-1], "PASS", "FAIL"),
            (lambda lvs: lvs[:1] + lvs, "FAIL", "FAIL"),
        ],
        ids=["last-dropped", "reversed", "first-twice"],
    )
    def test_shape_checks_read_the_levels_they_are_given(
        self, capsys, tmp_path, monkeypatch, edit, roundtrip, strict
    ):
        # the shared level tables are built from the decomposition verify
        # checks, so a broken one fails the check that covers its fault;
        # decompose's roundtrip_ok reads the same levels
        import dmono.cli

        path = tmp_path / "t33.json"
        save_function(tightness_family(3, 3), path)
        decompose = dmono.cli.strict_decompose

        def broken(f):
            xor = decompose(f)
            return XorHypothesis(xor.lattice, edit(xor.levels))

        monkeypatch.setattr(dmono.cli, "strict_decompose", broken)
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == f"{roundtrip} {path} decompose-roundtrip"
        assert lines[1].startswith(f"{strict} {path} levels-strict")
        code, out, _ = run_cli(capsys, "decompose", str(path))
        assert code == 0
        assert record_of(out)["roundtrip_ok"] is (roundtrip == "PASS")

    def test_against_file_past_the_cap_exits_3_before_any_check(self, capsys, tmp_path):
        path, other = tmp_path / "t.json", tmp_path / "big.json"
        save_function(DenseFunction(CubeLattice(2), 0b0110), path)
        save_function(DenseFunction(CubeLattice(5), 0), other)
        argv = ("verify", str(path), "--against", str(other), "--max-n", "4")
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        assert err.startswith("dmono: cube:5 has 2^5 elements; ")


class TestRecordNames:
    """Records name lattice-issued ids in batches, each as ``element_name`` does.

    ``TestLearn.test_trace_names_the_runs_descents`` checks learn records.
    """

    @pytest.mark.parametrize("fixture", ["parity_file", "diamond_file"])
    def test_decompose_levels(self, capsys, request, fixture):
        path = request.getfixturevalue(fixture)
        target, _ = load_function(path)
        name = target.lattice.element_name
        code, out, _ = run_cli(capsys, "decompose", str(path))
        assert code == 0
        assert record_of(out)["levels"] == [
            [name(a) for a in lv.minimals] for lv in strict_decompose(target).levels
        ]

    @pytest.mark.parametrize("fixture", ["parity_file", "diamond_file"])
    def test_element_name_still_checks_its_id(self, request, fixture):
        lat = load_function(request.getfixturevalue(fixture))[0].lattice
        assert lat.element_names(range(lat.size)) == [lat.element_name(a) for a in range(lat.size)]
        for a in (-1, lat.size):
            with pytest.raises(InvalidElementError):
                lat.element_name(a)


def lattice_reference(name):
    """A dense function file over the lattice file ``name``."""
    return json.dumps({"lattice": {"file": name}, "repr": "dense", "payload": "01"}).encode()


def tightness_file_with_meta(capsys, tmp_path, edit):
    """tightness(2,2) written by ``dmono family``, with ``edit`` applied to its meta."""
    path = tmp_path / "t.json"
    run_cli(capsys, "family", "tightness", "-d", "2", "-t", "2", "--out", str(path))
    doc = json.loads(path.read_text())
    doc["meta"] = edit(doc["meta"])
    path.write_text(json.dumps(doc))
    return path


class TestVerifyMeta:
    @pytest.mark.parametrize(
        "edit, detail",
        [
            (lambda m: {k: v for k, v in m.items() if k != "d"}, "meta d is null, not a positive int"),
            (lambda m: {**m, "t": "2"}, 'meta t is "2", not a positive int'),
            (lambda m: {**m, "t": True}, "meta t is true, not a positive int"),
            (lambda m: {**m, "d": 0}, "meta d is 0, not a positive int"),
            (lambda m: {**m, "t": 1000000}, "target lies on cube:4, not cube:2000000"),
            (lambda m: {**m, "d": 1, "t": 2}, "target lies on cube:4, not cube:2"),
        ],
        ids=["no-d", "string-t", "bool-t", "zero-d", "huge-t", "other-cube"],
    )
    def test_tightness_checks_fail_on_a_meta_the_target_does_not_match(
        self, capsys, tmp_path, monkeypatch, edit, detail
    ):
        import dmono.cli

        def no_prefix_levels(d, t):
            raise AssertionError("a prefix level was built")

        path = tightness_file_with_meta(capsys, tmp_path, edit)
        monkeypatch.setattr(dmono.cli, "prefix_levels", no_prefix_levels)
        started = time.perf_counter()
        code, out, err = run_cli(capsys, "verify", str(path))
        assert time.perf_counter() - started < 1
        assert (code, err) == (1, "")
        assert out.splitlines()[-2:] == [
            f"FAIL {path} tightness-size ({detail})",
            f"FAIL {path} tightness-levels ({detail})",
        ]
        assert all(ln.startswith("PASS") for ln in out.splitlines()[:-2])

    @pytest.mark.parametrize("meta", [[], ["family", "tightness"], None])
    def test_meta_that_is_not_an_object_is_a_file_error(self, capsys, tmp_path, meta):
        path = tightness_file_with_meta(capsys, tmp_path, lambda m: meta)
        started = time.perf_counter()
        code, out, err = run_cli(capsys, "verify", str(path))
        assert time.perf_counter() - started < 1
        assert (code, out, err) == (1, "", f"dmono: {path}: meta must be a JSON object\n")


def takimoto_meta_dir(capsys, tmp_path, doc):
    """A directory holding ``doc`` as a.json and a valid takimoto target as b.json."""
    (tmp_path / "a.json").write_text(json.dumps(doc))
    run_cli(capsys, "family", "takimoto", "-d", "2", "-t", "2", "--out", str(tmp_path / "b.json"))
    return tmp_path


class TestVerifyTakimotoMeta:
    @pytest.mark.parametrize(
        "doc, detail",
        [
            (
                {"lattice": {"cube": 3}, "repr": "mdnf", "payload": ["001"]},
                "target is not composed",
            ),
            (
                {
                    "lattice": {"cube": 2},
                    "repr": "composed",
                    "payload": {"F": "0110", "g": [["11"], ["01"]]},
                },
                "target minterms are not single variables",
            ),
            (function_to_doc(tightness_family(2, 2)), "target blocks are not nested"),
        ],
        ids=["mdnf", "composite-minterms", "disjoint-blocks"],
    )
    def test_takimoto_checks_fail_on_a_target_that_is_not_nested(
        self, capsys, tmp_path, doc, detail
    ):
        bad = tmp_path / "a.json"
        good = tmp_path / "b.json"
        takimoto_meta_dir(capsys, tmp_path, {**doc, "meta": {"family": "takimoto"}})
        code, out, err = run_cli(capsys, "verify", str(tmp_path))
        assert (code, err) == (1, "")
        lines = out.splitlines()
        bad_lines = [ln for ln in lines if ln.split()[1] == str(bad)]
        good_lines = [ln for ln in lines if ln.split()[1] == str(good)]
        assert lines == bad_lines + good_lines
        assert bad_lines[-2:] == [
            f"FAIL {bad} separation-size ({detail})",
            f"FAIL {bad} chain-witnesses ({detail})",
        ]
        assert all(ln.startswith("PASS") for ln in bad_lines[:-2])
        assert all(ln.startswith("PASS") for ln in good_lines)
        assert {"separation-size", "chain-witnesses"} <= {ln.split()[2] for ln in good_lines}

    def test_takimoto_checks_refuse_an_explicit_lattice(self, capsys, tmp_path):
        # the ids of p and q are not bit vectors, so no block can be read off them
        names = ["z", "p", "q", "j", "top"]
        covers = [("p", "j"), ("q", "j"), ("j", "top"), ("z", "top")]
        (tmp_path / "e.lat").write_text(lattice_file_text(names, covers))
        path = tmp_path / "k.json"
        doc = {
            "lattice": {"file": "e.lat"},
            "repr": "composed",
            "payload": {"F": "0110", "g": [["p", "q"], ["p"]]},
            "meta": {"family": "takimoto"},
        }
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "verify", str(path))
        assert (code, err) == (1, "")
        detail = f"target lies on {load_function(path)[0].lattice.describe()}, not a cube"
        lines = out.splitlines()
        assert lines[-2:] == [
            f"FAIL {path} separation-size ({detail})",
            f"FAIL {path} chain-witnesses ({detail})",
        ]
        assert all(ln.startswith("PASS") for ln in lines[:-2])


class TestLatticeDescriptor:
    @pytest.mark.parametrize(
        "desc, reason",
        [
            ({"cube": True}, "bad cube dimension True"),
            ({"file": 5}, "bad lattice file path 5"),
            ({"file": None}, "bad lattice file path None"),
        ],
        ids=["bool-cube", "int-file", "null-file"],
    )
    @pytest.mark.parametrize(
        "argv", [("degree",), ("verify",), ("decompose",), ("learn", "-d", "1")], ids=lambda a: a[0]
    )
    def test_bad_descriptor_is_a_file_error(self, capsys, tmp_path, desc, reason, argv):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"lattice": desc, "repr": "dense", "payload": "01"}))
        assert run_cli(capsys, *argv, str(path)) == (1, "", f"dmono: {path}: {reason}\n")


class TestVerifyPaths:
    def test_directory_verifies_its_sorted_json_files(self, capsys, tmp_path):
        for name in ("b.json", "a.json"):
            save_function(DenseFunction(CubeLattice(2), 0b0110), tmp_path / name)
        (tmp_path / "notes.txt").write_text("not a function file")
        code, out, err = run_cli(capsys, "verify", str(tmp_path))
        assert (code, err) == (0, "")
        files = [ln.split()[1] for ln in out.splitlines()]
        assert files == [str(tmp_path / "a.json")] * 2 + [str(tmp_path / "b.json")] * 2

    def test_file_that_fails_to_load_is_reported_and_the_run_goes_on(self, capsys, tmp_path):
        bad, good = tmp_path / "a.json", tmp_path / "b.json"
        bad.write_text(json.dumps({"lattice": {"file": 5}, "repr": "dense", "payload": "01"}))
        save_function(tightness_family(2, 2), good, meta={"family": "tightness", "d": 2, "t": 2})
        code, out, err = run_cli(capsys, "verify", str(tmp_path))
        assert (code, err) == (1, f"dmono: {bad}: bad lattice file path 5\n")
        lines = out.splitlines()
        assert lines and all(ln.startswith(f"PASS {good} ") for ln in lines)
        # a missing file named on the command line is reported the same way
        missing = tmp_path / "none.json"
        code, out2, err = run_cli(capsys, "verify", str(missing), str(good))
        assert (code, out2) == (1, out)
        assert err.startswith(f"dmono: cannot read {missing}: ")

    @pytest.mark.parametrize(
        "function_bytes, lattice_name, lattice, head",
        [
            (lattice_reference("missing.lat"), "missing.lat", None, "{bad}: "),
            (lattice_reference("x.lat"), "x.lat", "dir", "{bad}: "),
            (b"\xff{}", None, None, "cannot read {bad}: "),
            (lattice_reference("x.lat"), "x.lat", b"\xff\xfe", "{bad}: "),
            (lattice_reference("x\x00.lat"), "x\x00.lat", None, "{bad}: "),
            (lattice_reference("x.lat"), "x.lat", b"lattice v1\nelem a\ncover a c\n", "{bad}: "),
            (b"[" * 1000 + b"]" * 1000, None, None, "{bad}: "),
        ],
        ids=[
            "lattice-missing",
            "lattice-is-a-directory",
            "function-not-utf8",
            "lattice-not-utf8",
            "nul-in-lattice-path",
            "lattice-invalid",
            "nested-1000-deep",
        ],
    )
    def test_each_load_failure_is_one_line_naming_the_function_file(
        self, capsys, tmp_path, function_bytes, lattice_name, lattice, head
    ):
        bad, good = tmp_path / "a.json", tmp_path / "b.json"
        bad.write_bytes(function_bytes)
        if lattice == "dir":
            (tmp_path / lattice_name).mkdir()
        elif lattice is not None:
            (tmp_path / lattice_name).write_bytes(lattice)
        save_function(tightness_family(2, 2), good, meta={"family": "tightness", "d": 2, "t": 2})
        prefix = "dmono: " + head.format(bad=bad)
        for argv in (("degree", str(bad)), ("verify", str(tmp_path))):
            code, out, err = run_cli(capsys, *argv)
            assert code == 1
            assert err.startswith(prefix) and err.count("\n") == 1
            assert "Traceback" not in err
            if lattice_name is not None:
                assert str(tmp_path / lattice_name) in err
        lines = out.splitlines()
        assert lines and all(ln.startswith(f"PASS {good} ") for ln in lines)

    def test_cap_still_stops_a_directory_run(self, capsys, tmp_path):
        save_function(DenseFunction(CubeLattice(5), 0), tmp_path / "a.json")
        save_function(DenseFunction(CubeLattice(2), 0b0110), tmp_path / "b.json")
        code, out, err = run_cli(capsys, "verify", str(tmp_path), "--max-n", "4")
        assert (code, out) == (3, "")
        assert err.startswith("dmono: cube:5 has 2^5 elements; ")

    def test_empty_directory_is_nothing_to_verify(self, capsys, tmp_path):
        assert run_cli(capsys, "verify", str(tmp_path)) == (1, "", "dmono: nothing to verify\n")

    def test_trailing_empty_levels_are_recovered(self, capsys, tmp_path):
        lat = CubeLattice(2)
        path = tmp_path / "h.json"
        levels = (MonotoneDNF(lat, (1, 2)), MonotoneDNF(lat, (3,)), MonotoneDNF(lat))
        save_function(XorHypothesis(lat, levels), path)
        code, out, err = run_cli(capsys, "verify", str(path))
        assert (code, err) == (0, "")
        assert f"PASS {path} strict-recovery" in out.splitlines()


class TestSizeCap:
    def test_max_n_flag(self, capsys, tmp_path):
        target = tmp_path / "t5.json"
        save_function(DenseFunction(CubeLattice(5), 0), target)
        code, _, err = run_cli(capsys, "decompose", str(target), "--max-n", "4")
        assert code == 3
        assert "--max-n" in err

    def test_env_mirror(self, capsys, tmp_path, monkeypatch):
        # no environment variable moves the cap: only --max-n does
        target = tmp_path / "t5.json"
        save_function(DenseFunction(CubeLattice(5), 0), target)
        monkeypatch.setenv("DMONO_MAX_N", "4")
        code, _, _ = run_cli(capsys, "learn", str(target), "-d", "1")
        assert code == 0
        monkeypatch.setenv("DMONO_MAX_N", "30")
        code, _, err = run_cli(capsys, "sigma", "cube:23")
        assert code == 3
        assert err.endswith("capped at 2^22 (raise with --max-n)\n")

    def test_consistent_is_capped(self, capsys):
        code, out, err = run_cli(
            capsys, "consistent", "--lattice", "cube:5", "-d", "1", "--x1", "00001", "--max-n", "4"
        )
        assert code == 3
        assert out == ""
        assert "--max-n" in err

    def test_sigma_is_capped(self, capsys, tmp_path):
        path = tmp_path / "chain5.lat"
        names = ["a", "b", "c", "d", "e"]
        path.write_text(lattice_file_text(names, list(zip(names, names[1:]))))
        for spec, max_n in (("cube:5", "4"), (str(path), "2")):
            code, out, err = run_cli(capsys, "sigma", spec, "--max-n", max_n)
            assert code == 3
            assert out == ""
            assert err.startswith("dmono: ") and "--max-n" in err
        assert run_cli(capsys, "sigma", str(path), "--max-n", "3")[:2] == (0, "4\n")

    @pytest.mark.parametrize(
        "argv, n",
        [
            (("tightness", "-d", "2", "-t", "3"), 6),
            (("takimoto", "-d", "2", "-t", "1"), 3),
            (("random", "-d", "2", "--sizes", "1,1", "-n", "7"), 7),
        ],
        ids=["tightness", "takimoto", "random"],
    )
    def test_family_is_capped_on_cube_dimension(self, capsys, tmp_path, argv, n):
        out_path = tmp_path / "f.json"
        code, out, err = run_cli(
            capsys, "family", *argv, "--max-n", str(n - 1), "--out", str(out_path)
        )
        assert code == 3
        assert out == ""
        assert err == (
            f"dmono: cube:{n} has 2^{n} elements; exhaustive work is capped at "
            f"2^{n - 1} (raise with --max-n)\n"
        )
        assert not out_path.exists()
        code, _, _ = run_cli(capsys, "family", *argv, "--max-n", str(n), "--out", str(out_path))
        assert code == 0
        assert json.loads(out_path.read_text())["lattice"] == {"cube": n}

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("tightness", "-d", "0", "-t", "30"), "tightness family needs d >= 1 and t >= 1"),
            (("takimoto", "-d", "1", "-t", "30"), "the nested family needs d >= 2"),
            (("random", "-d", "2", "--sizes", "1", "-n", "30"), "need one size per inner function"),
        ],
        ids=["tightness", "takimoto", "random"],
    )
    def test_family_arguments_are_checked_before_the_cap(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "family", *argv, "--max-n", "4")
        assert (code, out, err) == (1, "", f"dmono: {message}\n")

    def test_huge_cap_builds_nothing_of_its_size(self, capsys, tmp_path):
        path = tmp_path / "diamond.lat"
        path.write_text(lattice_file_text(DIAMOND_NAMES, DIAMOND_COVERS))
        tracemalloc.start()
        try:
            result = run_cli(capsys, "sigma", str(path), "--max-n", "1000000000")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result == (0, "3\n", "")
        assert peak < 1 << 20

    def test_random_family_is_capped_on_its_outer_table(self, capsys, tmp_path):
        out_path = tmp_path / "r.json"
        argv = ["family", "random", "--sizes", "1,1,1,1,1", "-n", "4", "--max-n", "4"]
        code, out, err = run_cli(capsys, *argv, "-d", "5", "--out", str(out_path))
        assert (code, out) == (3, "")
        assert err == (
            "dmono: -d 5 needs an outer table of 2^5 entries; exhaustive work is "
            "capped at 2^4 (raise with --max-n)\n"
        )
        assert not out_path.exists()
        argv[3] = "1,1,1,1"
        code, _, _ = run_cli(capsys, *argv, "-d", "4", "--out", str(out_path))
        assert code == 0
        assert len(json.loads(out_path.read_text())["payload"]["F"]) == 16

    def test_huge_cube_is_capped_by_dimension(self, capsys):
        # 2^20000 has more decimal digits than the interpreter converts to str
        for argv in (("sigma", "cube:20000"), ("consistent", "--lattice", "cube:20000", "-d", "1")):
            code, out, err = run_cli(capsys, *argv)
            assert code == 3
            assert out == ""
            assert err.startswith("dmono: cube:20000 has 2^20000 elements; ")

    @pytest.mark.parametrize(
        "argv",
        [
            ("sigma", "cube:50000000"),
            ("consistent", "--lattice", "cube:50000000", "-d", "1"),
            ("family", "tightness", "-d", "2", "-t", "25000000"),
            ("learn", "FILE", "-d", "1"),
            ("decompose", "FILE"),
            ("degree", "FILE"),
            ("verify", "FILE"),
        ],
        ids=["sigma", "consistent", "family", "learn", "decompose", "degree", "verify"],
    )
    def test_cap_refuses_a_cube_before_building_it(self, capsys, tmp_path, argv):
        # the size and top of cube:50000000 are two 50-million-bit ints
        # (about 13 MB); FILE is a function file over that cube
        path = tmp_path / "huge.json"
        path.write_text(
            json.dumps({"lattice": {"cube": 50000000}, "repr": "mdnf", "payload": []})
        )
        argv = [str(path) if arg == "FILE" else arg for arg in argv]
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, *argv, "--max-n", "22")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (3, "")
        assert err.startswith("dmono: cube:50000000 has 2^50000000 elements; ")
        assert peak < 1 << 20

    def test_dense_payload_over_a_huge_cube_is_checked_by_dimension(self, capsys, tmp_path):
        # the payload length is compared with 2^n without building it: the
        # int 2^1000000000 is 125 MB, and too long to print in decimal
        path = tmp_path / "huge.json"
        path.write_text(
            json.dumps({"lattice": {"cube": 1000000000}, "repr": "dense", "payload": "01"})
        )
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "degree", str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (1, "")
        assert err == (
            f"dmono: {path}: dense payload must be exactly 2^1000000000 characters of 0/1\n"
        )
        assert peak < 1 << 20

    def test_malformed_env_value_is_an_input_error(self, capsys, monkeypatch):
        # the cap is read from --max-n alone; a negative one is an input
        # error, raised before any command runs, whatever the environment holds
        monkeypatch.setenv("DMONO_MAX_N", "abc")
        assert run_cli(capsys, "sigma", "cube:4", "--max-n", "-1") == (
            1,
            "",
            "dmono: --max-n -1 is negative\n",
        )


# what each subcommand's parser accepts: --max-n everywhere, --out wherever
# a record or a target file is written, --seed and --trace where they are read
ACCEPTED = {
    "learn": {"target", "-d", "--seed", "--trace", "--max-n", "--out"},
    "consistent": {"--lattice", "-d", "--x0", "--x1", "--max-n", "--out"},
    "decompose": {"target", "--max-n", "--out"},
    "degree": {"target", "--max-n", "--out"},
    "sigma": {"lattice", "--max-n", "--out"},
    "family": {"family", "-d", "-t", "-n", "--sizes", "--seed", "--max-n", "--out"},
    "verify": {"paths", "--against", "--max-n"},
}


class TestFlags:
    def test_each_subcommand_accepts_exactly_its_flags(self):
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        accepted = {
            name: {
                action.option_strings[-1] if action.option_strings else action.dest
                for action in p._actions
                if not isinstance(action, argparse._HelpAction)
            }
            for name, p in sub.choices.items()
        }
        assert accepted == ACCEPTED
        assert sum(len(flags) for flags in accepted.values()) == 32

    @pytest.mark.parametrize(
        "argv",
        [
            ("consistent", "--lattice", "cube:2", "-d", "1", "--seed", "1"),
            ("consistent", "--lattice", "cube:2", "-d", "1", "--trace"),
            ("decompose", "FILE", "--seed", "1"),
            ("decompose", "FILE", "--trace"),
            ("degree", "FILE", "--seed", "1"),
            ("degree", "FILE", "--trace"),
            ("sigma", "cube:3", "--seed", "1"),
            ("sigma", "cube:3", "--trace"),
            ("family", "tightness", "-d", "2", "-t", "1", "--trace"),
            ("verify", "FILE", "--seed", "1"),
            ("verify", "FILE", "--trace"),
            ("verify", "FILE", "--out", "OUT"),
        ],
        ids=lambda argv: f"{argv[0]}{next(a for a in argv if a in ('--seed', '--trace', '--out'))}",
    )
    def test_flags_nothing_reads_are_usage_errors(self, capsys, tmp_path, parity_file, argv):
        out_path = tmp_path / "x"
        argv = [
            {"FILE": str(parity_file), "OUT": str(out_path)}.get(arg, arg) for arg in argv
        ]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert "unrecognized arguments" in err
        assert not out_path.exists()


class TestUsage:
    def test_bad_usage_exits_1(self, capsys):
        assert run_cli(capsys, "learn")[0] == 1

    def test_no_command_prints_help(self, capsys):
        code, out, _ = run_cli(capsys)
        assert code == 1
        assert "learn" in out

    def test_parsed_state_does_not_leak_between_calls(self, capsys):
        # one parser serves every main() call; each call must print what a
        # run on a freshly built parser prints
        calls = [
            ("consistent", "--lattice", "cube:2", "-d", "2", "--x0", "11", "--x1", "01", "--x1", "10"),
            ("consistent", "--lattice", "cube:2", "-d", "1"),
            ("family", "random", "-d", "2", "--sizes", "2,1", "-n", "5", "--seed", "7"),
            ("family", "random", "-d", "2", "--sizes", "2,1", "-n", "5"),
            ("consistent", "--lattice", "cube:2", "-d"),
            ("sigma", "cube:3"),
        ]
        fresh = []
        for argv in calls:
            build_parser.cache_clear()
            fresh.append(run_cli(capsys, *argv))
        build_parser.cache_clear()
        assert [run_cli(capsys, *argv) for argv in calls] == fresh
        assert build_parser.cache_info().misses == 1
        assert fresh[0][1] != fresh[1][1] and fresh[2][1] != fresh[3][1]
        assert fresh[4][0] == 1 and fresh[5] == (0, "6\n", "")

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "dmono", "sigma", "cube:3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "6"
