"""dmono benchmark: closed-loop workloads with a correctness gate and layer traces.

Usage, from the root of a checkout:

    python3 bench/run.py --workload learn-cube --seed 1 --seconds 30 --trace 0

One process, one operation at a time, no threads.  For ``--seconds`` the
harness interleaves timed set-ups of the workload's inputs with timed
passes over its batch of operations, checking every result.  ``--trace 0``
prints the end-to-end metrics: set-up and batch times scaled to a nominal
machine speed (see ``probe``), and peak memory.  ``--trace 1`` makes the
same timed passes, then one pass with layer spans and one pass that only
counts calls of the hot primitives, and prints the per-layer metrics as
measured.  The line before the result is a report with the machine stamp,
the measured seconds before scaling, each metric's unit and the sample
count behind each median and percentile; the last line is the result.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import traceback
from pathlib import Path
from time import perf_counter

import env
import spans

# set-ups are spread over the run, taking up to this share of its time,
# with at most SETUP_MAX_REPEATS of them before any one pass
SETUP_SHARE = 0.35
SETUP_MAX_REPEATS = 10

# The machine's speed drifts by tens of percent within seconds, largely
# alike for all pure-Python work.  So the harness times a fixed probe
# between every two operations and around every set-up, and scales each
# measured interval by PROBE_NOMINAL_S over the mean of the probes on
# either side: to its time at the speed where one probe takes that long.
# On a 2-core VM this cut the run-to-run spread of solve_s from 17-47% to
# 3-8% of the median (ten seeds per workload).
PROBE_NOMINAL_S = 0.0025

# each measured interval is kept as a (measured, scaled) pair
MEASURED, SCALED = 0, 1


def probe() -> int:
    """Fixed pure-Python work: loops, big-int shifts, set and dict traffic."""
    mask, seen, last = 0, set(), {}
    for i in range(5000):
        mask |= 1 << (i % 4096)
        if mask >> (i % 4000) & 1:
            seen.add(i & 1023)
        last[i & 511] = i
    return len(seen) + len(last)


def scaled(seconds: float, before: float, after: float) -> float:
    return seconds * 2 * PROBE_NOMINAL_S / (before + after)


class Harness:
    def __init__(self, workload, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.trace_ok = True
        self.probes: list[float] = []

    def timed_probe(self) -> float:
        started = perf_counter()
        probe()
        self.probes.append(perf_counter() - started)
        return self.probes[-1]

    def speed(self) -> float:
        """Factor from this run's seconds to seconds at the nominal speed."""
        return PROBE_NOMINAL_S / statistics.median(self.probes)

    def setup(self):
        # every set-up rewrites the same files: creating fresh ones would
        # time the file system's allocation, which varies far more
        return self.workload.setup(self.workdir, self.seed)

    def run_pass(self, ops, tracer=None, probing=False) -> tuple[list[float], list[float], dict]:
        """One batch of operations.

        Returns each operation's program seconds, the probe times taken
        before each operation and after the last one (when probing), and
        the counts the checks report, summed.
        """
        busy, marks = [], []
        counts: dict[str, int] = {}
        for op in ops:
            if probing:
                marks.append(self.timed_probe())
            self.attempted += 1
            if tracer is not None:
                tracer.op += 1
                span = tracer.open(op.span)
            started = perf_counter()
            try:
                out = op.call()
            except Exception:
                out = None
                self._fail(op, traceback.format_exc())
            busy.append(perf_counter() - started)
            if tracer is not None:
                tracer.close(span)
            if out is None:
                continue
            try:
                for key, value in op.check(out).items():
                    counts[key] = counts.get(key, 0) + value
            except Exception:
                self._fail(op, traceback.format_exc())
        if probing:
            marks.append(self.timed_probe())
        return busy, marks, counts

    def _fail(self, op, detail: str) -> None:
        self.failed += 1
        if self.failed <= 3:
            print(f"bench: {op.label} failed\n{detail}", file=sys.stderr)

    def measure(self, seconds: float):
        """Interleave set-ups and passes until ``seconds`` have passed.

        Spreading both over the whole run lets their medians see the same
        machine conditions.  Returns (measured, scaled) seconds for every
        set-up and, per operation, for every pass, then one pass's counts.
        """
        setups: list[tuple[float, float]] = []
        latencies: list[list[tuple[float, float]]] = []
        begin = perf_counter()
        deadline = begin + seconds
        while True:
            for _ in range(SETUP_MAX_REPEATS):
                if setups and sum(s for s, _ in setups) >= SETUP_SHARE * (perf_counter() - begin):
                    break
                before = self.timed_probe()
                started = perf_counter()
                loaded = self.setup()
                took = perf_counter() - started
                setups.append((took, scaled(took, before, self.timed_probe())))
                ops = self.workload.ops(loaded)
            gc.collect()  # every pass starts from a collected heap
            busy, marks, counts = self.run_pass(ops, probing=True)
            if not latencies:
                latencies = [[] for _ in ops]
            for i, (row, took) in enumerate(zip(latencies, busy)):
                row.append((took, scaled(took, marks[i], marks[i + 1])))
            if perf_counter() >= deadline:
                return setups, latencies, counts


def median_of(samples, which: int) -> float:
    return statistics.median(s[which] for s in samples)


def batch_seconds(latencies, which: int) -> float:
    """Time of one batch: the sum of each operation's median latency."""
    return sum(median_of(row, which) for row in latencies)


def round_metrics(rounds: list[float], prefix: str, speed: float) -> tuple[dict, dict]:
    ms = [r * 1000 * speed for r in rounds]
    n = len(ms)
    metrics, samples = {}, {}
    for p in (50, 95):
        name = f"{prefix}round_p{p}_ms"
        metrics[name] = (spans.percentile(ms, p) if ms else 0.0, "ms")
        samples[name] = {"n": n, "ten_beyond": spans.reportable(n, p)}
    return metrics, samples


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_run(h: Harness, seconds: float) -> tuple[dict, dict, dict]:
    """End-to-end metrics, with tracing off."""
    setups, latencies, counts = h.measure(seconds)
    metrics = {
        "setup_s": (median_of(setups, SCALED), "s"),
        "solve_s": (batch_seconds(latencies, SCALED), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    # reported beside the gated metrics: the measured seconds before scaling,
    # and the metrics that only some workloads have
    extra, samples = {}, {}
    if h.workload.rounds:
        extra, samples = round_metrics(h.workload.rounds, "", h.speed())
    extra["measured_setup_s"] = (median_of(setups, MEASURED), "s")
    extra["measured_solve_s"] = (batch_seconds(latencies, MEASURED), "s")
    extra["probe_ms"] = (statistics.median(h.probes) * 1000, "ms")
    for key, unit in (("eq_used", "count"), ("mq_used", "count"),
                      ("counterexamples", "count"), ("record_bytes", "B")):
        if key in counts:
            extra[key] = (counts[key], unit)
    extra["fail_frac"] = (h.failed / max(1, h.attempted), "ratio")
    samples["setup_s"] = {"n": len(setups)}
    samples["probe_ms"] = {"n": len(h.probes), "nominal_ms": PROBE_NOMINAL_S * 1000}
    samples["solve_s"] = {"n_per_operation": len(latencies[0]), "operations": len(latencies)}
    samples["fail_frac"] = {"base": "attempted operations", "base_value": h.attempted}
    return metrics, extra, samples


# layers reported with calls and self time, with self time only, and
# primitives that are only counted
LAYER_TIMES = (
    "consistent",
    "lattice.min_antichain",
    "boolfn.mdnf_init",
    "boolfn.dense.composed",
    "boolfn.dense.xor",
    "boolfn.dense.mdnf",
    "boolfn.strict_decompose",
    "lattice.up_closure",
    "lattice.shadow",
    "learner.learn",
    "learner.eq",
    "learner.descend",
    "fileio.load_function",
)
LAYER_SELF_ONLY = (
    "lattice.validate",
    "lattice.sigma",
    "boolfn.bits",
    "boolfn.from_bits",
    "families.verify_checks",
)
PRIMITIVE_COUNTS = (
    "lattice.leq",
    "lattice.check_element",
    "lattice.immediate_predecessors",
    "boolfn.evaluate",
    "learner.mq",
)


def traced_run(h: Harness, seconds: float) -> tuple[dict, dict, dict]:
    """Per-layer metrics: timed passes, then a spanned pass and a counting pass."""
    _, latencies, _ = h.measure(seconds)
    untraced = batch_seconds(latencies, MEASURED)
    rounds = list(h.workload.rounds)

    tracer = spans.Tracer()
    with tracer.spanning():
        root = tracer.open("harness.setup")
        loaded = h.setup()
        setup_wall = tracer.close(root)
    ops = h.workload.ops(loaded)
    gc.collect()
    # the untraced pass just before the traced one runs under the closest
    # machine conditions, so their difference is the tracing overhead
    adjacent = sum(h.run_pass(ops)[0])
    gc.collect()
    with tracer.spanning():
        root = tracer.open("harness.solve")
        busy, _, counts = h.run_pass(ops, tracer)
        solve_wall = tracer.close(root)
    traced = sum(busy)
    counter = spans.Tracer()
    with counter.counting():
        h.run_pass(ops)

    recorded = tracer.spans
    table = spans.summarize(recorded)
    selfs = spans.self_times(recorded)
    self_sum = sum(selfs)
    wall = spans.roots_wall(recorded)
    # every span's time is counted once: self times are never negative and
    # add up to the time the root spans cover
    h.trace_ok = abs(self_sum - wall) <= 1e-9 * len(recorded) and min(selfs) >= -1e-9

    def row(name):
        return table.get(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})

    metrics: dict = {}
    for name in LAYER_TIMES:
        metrics[f"{name}.calls"] = (row(name)["calls"], "count")
        metrics[f"{name}.self_s"] = (row(name)["self_s"], "s")
    for name in LAYER_SELF_ONLY:
        metrics[f"{name}.self_s"] = (row(name)["self_s"], "s")
    for name in PRIMITIVE_COUNTS:
        metrics[f"{name}.calls"] = (int(counter.extra.get(f"{name}.calls", 0)), "count")
    extra = tracer.extra
    learn_s = row("learner.learn")["incl_s"]
    inspections = int(extra.get("learner.descend.inspections", 0))
    mq_calls = metrics["learner.mq.calls"][0]
    # per-layer times are as measured; harness.probe_ms scales them
    round_ms, samples = round_metrics(rounds, "learner.", 1.0)
    metrics.update(round_ms)
    metrics.update(
        {
            "learner.rounds": (len(rounds), "count"),
            "consistent.sample_points": (int(extra.get("consistent.sample_points", 0)), "count"),
            "consistent.rebuild_share": (row("consistent")["incl_s"] / learn_s if learn_s else 0.0, "ratio"),
            "lattice.cube_first_closure_s": (extra.get("lattice.cube_first_closure_s", 0.0), "s"),
            "learner.descend.steps": (int(extra.get("learner.descend.steps", 0)), "count"),
            "learner.descend.inspections": (inspections, "count"),
            "learner.mq_cache_hit_ratio": (1 - mq_calls / inspections if inspections else 0.0, "ratio"),
            "cli.decompose.s": (row("cli.decompose")["incl_s"], "s"),
            "cli.verify.s": (row("cli.verify")["incl_s"], "s"),
            "cli.record_bytes": (counts.get("record_bytes", 0), "B"),
            "harness.self_s": (row("harness.setup")["self_s"] + row("harness.solve")["self_s"], "s"),
            "trace.setup_wall_s": (setup_wall, "s"),
            "trace.solve_wall_s": (solve_wall, "s"),
            "trace.self_sum_s": (self_sum, "s"),
            "trace.spans": (len(recorded), "count"),
            "trace.solve_s": (traced, "s"),
            "trace.untraced_solve_s": (untraced, "s"),
            "trace.overhead_s": (traced - adjacent, "s"),
            "harness.probe_ms": (statistics.median(h.probes) * 1000, "ms"),
        }
    )
    samples["consistent.rebuild_share"] = {"base": "learner.learn inclusive s", "base_value": learn_s}
    samples["learner.mq_cache_hit_ratio"] = {"base": "learner.descend.inspections", "base_value": inspections}
    samples["trace.untraced_solve_s"] = {"n_per_operation": len(latencies[0]), "operations": len(latencies)}
    return metrics, {}, samples


def parse_args(argv):
    import workloads

    p = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def as_json(metrics: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        dmono = env.import_dmono()
    except (env.MissingPackage, ImportError) as exc:
        print(f"bench: cannot import the package: {exc}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload](dmono)
    # fixed-width name: paths inside the program's records keep one length
    workdir = env.CHECKOUT / ".bench_work" / f"{args.workload}-{os.getpid():07d}"
    h = Harness(workload, args.seed, workdir)
    try:
        run = traced_run if args.trace else timed_run
        metrics, extra, samples = run(h, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still works there
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "stamp": env.stamp(dmono),
        "loop": "closed, one process, one operation at a time",
        "metrics": as_json(metrics),
        "reported": as_json(extra),
        "samples": samples,
    }
    print(json.dumps(report))
    result = {
        "correct": h.failed == 0 and h.trace_ok,
        "attempted": h.attempted,
        "failed": h.failed,
        "metrics": as_json(metrics),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
