import argparse
import json
import subprocess
import sys
import tracemalloc

import pytest

from dmono import DenseFunction, CubeLattice, save_function, tightness_family
from dmono.cli import build_parser, main

from conftest import lattice_file_text


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
        assert "retry with -d 2" in err

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

    def test_trace_flag_adds_named_trace(self, capsys, parity_file):
        code, out, _ = run_cli(capsys, "learn", str(parity_file), "-d", "2", "--trace")
        assert code == 0
        rec = record_of(out)
        assert [t["settled"] for t in rec["trace"]] == ["01", "10", "11"]
        assert all(set(t) == {"counterexample", "settled", "label", "steps", "inspections"} for t in rec["trace"])

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


class TestSizeCap:
    def test_max_n_flag(self, capsys, tmp_path):
        target = tmp_path / "t5.json"
        save_function(DenseFunction(CubeLattice(5), 0), target)
        code, _, err = run_cli(capsys, "decompose", str(target), "--max-n", "4")
        assert code == 3
        assert "--max-n" in err

    def test_env_mirror(self, capsys, tmp_path, monkeypatch):
        target = tmp_path / "t5.json"
        save_function(DenseFunction(CubeLattice(5), 0), target)
        monkeypatch.setenv("DMONO_MAX_N", "4")
        code, _, _ = run_cli(capsys, "learn", str(target), "-d", "1")
        assert code == 3
        # explicit flag wins over the environment
        code, _, _ = run_cli(capsys, "learn", str(target), "-d", "1", "--max-n", "5")
        assert code == 0

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
            (("takimoto", "-d", "3", "-t", "1", "--uneven"), 6),
            (("random", "-d", "2", "--sizes", "1,1", "-n", "7"), 7),
        ],
        ids=["tightness", "takimoto", "takimoto-uneven", "random"],
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
            f"2^{n - 1} (raise with --max-n or DMONO_MAX_N)\n"
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

    def test_malformed_env_value_is_an_input_error(self, capsys, monkeypatch):
        monkeypatch.setenv("DMONO_MAX_N", "abc")
        code, out, err = run_cli(capsys, "sigma", "cube:3")
        assert code == 1
        assert out == ""
        assert err == "dmono: DMONO_MAX_N='abc' is not an integer\n"


# what each subcommand's parser accepts: --max-n everywhere, --out wherever
# a record or a target file is written, --seed and --trace where they are read
ACCEPTED = {
    "learn": {"target", "-d", "--seed", "--trace", "--max-n", "--out"},
    "consistent": {"--lattice", "-d", "--x0", "--x1", "--max-n", "--out"},
    "decompose": {"target", "--max-n", "--out"},
    "degree": {"target", "--max-n", "--out"},
    "sigma": {"lattice", "--max-n", "--out"},
    "family": {"family", "-d", "-t", "-n", "--sizes", "--uneven", "--seed", "--max-n", "--out"},
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
        assert sum(len(flags) for flags in accepted.values()) == 33

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

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "dmono", "sigma", "cube:3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "6"
