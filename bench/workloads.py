"""The three workloads: inputs, operations and the correctness gate.

A workload's ``setup`` (timed as set-up) writes its generated inputs
under a directory and loads them back through the package; ``ops`` turns
what it loaded into operations.  Each operation has a ``call`` (the
program's work, which the harness times) and a ``check`` (the correctness
gate, untimed) that returns the operation's counts or raises.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import gen


class CheckFailed(Exception):
    """An operation finished but its output broke the correctness gate."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass
class Op:
    label: str
    span: str  # name of the harness span around ``call`` in a traced pass
    call: Callable[[], object]
    check: Callable[[object], dict]


def write_files(directory: Path, files: dict[str, str]) -> list[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, text in files.items():
        path = directory / name
        path.write_text(text)
        paths.append(path)
    return paths


def truth_table(size: int, leq, outer: int, inner_minimals) -> int:
    """Composed target's table, evaluated by the harness from its definition."""
    mask = 0
    for x in range(size):
        idx = 0
        for i, mins in enumerate(inner_minimals):
            if any(leq(a, x) for a in mins):
                idx |= 1 << i
        if outer >> idx & 1:
            mask |= 1 << x
    return mask


# ---- learning ------------------------------------------------------------------


class RoundClock:
    """Equivalence oracle wrapper that records when each query starts.

    The interval between successive starts is one counterexample round:
    the query, then the descent, rebuild and ``dense()`` that follow it.
    """

    def __init__(self, inner):
        self._inner = inner
        self.target = inner.target
        self.lattice = inner.lattice
        self.starts: list[float] = []

    @property
    def eq_count(self) -> int:
        return self._inner.eq_count

    def query(self, hypothesis):
        self.starts.append(perf_counter())
        return self._inner.query(hypothesis)


def learn_op(dmono, label: str, target, d: int, expected: int, rounds: list) -> Op:
    def call():
        clock = RoundClock(dmono.EquivalenceOracle(target))
        mq = dmono.MembershipOracle.for_function(target)
        h, stats = dmono.learn(d, target.lattice, mq, clock)
        return h, stats, clock.starts

    def check(out) -> dict:
        h, stats, starts = out
        rounds.extend(b - a for a, b in zip(starts, starts[1:]))
        require(h.dense().mask == expected, f"{label}: hypothesis differs from the target")
        require(stats.eq_used == stats.counterexamples + 1, f"{label}: eq_used is not counterexamples + 1")
        if stats.eq_bound is not None:
            require(
                stats.counterexamples <= stats.eq_bound,
                f"{label}: {stats.counterexamples} counterexamples exceed the bound {stats.eq_bound}",
            )
        if stats.sigma is not None:
            require(
                stats.max_descent_inspections <= stats.sigma,
                f"{label}: {stats.max_descent_inspections} inspections exceed sigma {stats.sigma}",
            )
        return {
            "eq_used": stats.eq_used,
            "mq_used": stats.mq_used,
            "counterexamples": stats.counterexamples,
        }

    return Op(label, "learner.learn", call, check)


class LearnCube:
    """Library ``learn()`` on cube family targets loaded from function files."""

    name = "learn-cube"

    def __init__(self, dmono):
        self.dmono = dmono
        self.rounds: list[float] = []
        self._expected: dict[str, int] = {}  # one seed's tables, per label

    def setup(self, directory: Path, seed: int):
        paths = write_files(directory, gen.learn_cube_files(self.dmono, seed))
        return [(p.stem, *self.dmono.load_function(p)) for p in paths]

    def ops(self, loaded) -> list[Op]:
        ops = []
        for label, target, meta in loaded:
            if label not in self._expected:
                mins = [g.minimals for g in target.inner]
                self._expected[label] = truth_table(
                    target.lattice.size, lambda a, x: a & x == a, target.outer, mins
                )
            ops.append(
                learn_op(self.dmono, label, target, meta["d"], self._expected[label], self.rounds)
            )
        return ops


class LearnExplicit:
    """Library ``learn()`` on generated explicit lattices with non-topological ids."""

    name = "learn-explicit"

    def __init__(self, dmono):
        self.dmono = dmono
        self.rounds: list[float] = []
        self._expected: dict[str, int] = {}  # one seed's tables, per label

    def setup(self, directory: Path, seed: int):
        dm = self.dmono
        inputs = gen.learn_explicit_inputs(seed)
        write_files(directory, gen.render_explicit(inputs))
        loaded = []
        for name, glat, _ in inputs:
            lattice = dm.load_lattice(directory / f"{name}.lat")
            specs = json.loads((directory / f"{name}.targets.json").read_text())
            for k, spec in enumerate(specs):
                outer = sum(1 << i for i, ch in enumerate(spec["F"]) if ch == "1")
                ids = [[lattice.parse_element(nm) for nm in g] for g in spec["g"]]
                inner = tuple(dm.MonotoneDNF(lattice, tuple(g)) for g in ids)
                loaded.append((f"{name}-{k}", dm.ComposedTarget(lattice, outer, inner), ids, glat))
        return loaded

    def ops(self, loaded) -> list[Op]:
        ops = []
        for label, target, ids, glat in loaded:
            if label not in self._expected:
                self._expected[label] = truth_table(
                    len(glat.names), lambda a, x: glat.ups[a] >> x & 1, target.outer, ids
                )
            ops.append(
                learn_op(self.dmono, label, target, target.d, self._expected[label], self.rounds)
            )
        return ops


# ---- command line ----------------------------------------------------------------


class CliDecompose:
    """In-process ``dmono decompose`` and ``dmono verify`` on written function files."""

    name = "cli-decompose"

    def __init__(self, dmono):
        self.dmono = dmono
        self.rounds: list[float] = []

    def setup(self, directory: Path, seed: int):
        paths = write_files(directory, gen.cli_decompose_files(self.dmono, seed))
        return [(p, self.dmono.load_function(p)[1]) for p in paths]

    def ops(self, loaded) -> list[Op]:
        from dmono import cli

        ops = []
        for path, meta in loaded:
            ops.append(self._decompose(cli, path, meta))
            ops.append(self._verify(cli, path))
        return ops

    @staticmethod
    def _decompose(cli, path: Path, meta: dict) -> Op:
        out = path.with_suffix(".record")

        def call():
            return cli.main(["decompose", str(path), "--out", str(out), "--max-n", "22"])

        def check(code) -> dict:
            require(code == 0, f"decompose {path.name} exited {code}")
            text = out.read_text()
            out.unlink()
            record = json.loads(text)
            require(record["roundtrip_ok"] is True, f"decompose {path.name}: roundtrip failed")
            size = record["size_xor_m"]
            if meta.get("family") == "tightness":
                want = (meta["t"] + 1) ** meta["d"] - 1
                require(size == want, f"decompose {path.name}: size {size} != {want}")
            elif meta.get("family") == "takimoto":
                want = meta["t"] ** meta["d"]
                require(size >= want, f"decompose {path.name}: size {size} < {want}")
            return {"record_bytes": len(text.encode())}

        return Op(f"decompose {path.name}", "cli.decompose", call, check)

    @staticmethod
    def _verify(cli, path: Path) -> Op:
        def call():
            captured = io.StringIO()
            with contextlib.redirect_stdout(captured):
                code = cli.main(["verify", str(path), "--max-n", "22"])
            return code, captured.getvalue()

        def check(out) -> dict:
            code, text = out
            require(code == 0, f"verify {path.name} exited {code}: {text.strip()}")
            require("PASS" in text and "FAIL" not in text, f"verify {path.name}: {text.strip()}")
            return {}

        return Op(f"verify {path.name}", "cli.verify", call, check)


WORKLOADS = {w.name: w for w in (LearnCube, LearnExplicit, CliDecompose)}
