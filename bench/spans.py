"""Layer spans and call counts, recorded from outside the package.

A ``Tracer`` replaces the package's public functions and methods with
wrappers for the duration of a ``with`` block and restores them on exit.
Span wrappers record ``[name, start, end, parent, op]`` rows in memory;
count wrappers only bump a counter, so the hot primitives, called millions
of times per operation, are counted in a pass of their own and never
distort span self times.
"""

from __future__ import annotations

import contextlib
import importlib
import math
import sys
from collections import defaultdict
from time import perf_counter

LATTICES = ("Lattice", "CubeLattice", "ExplicitLattice")
FUNCTIONS = ("DenseFunction", "MonotoneDNF", "XorHypothesis", "ComposedTarget")

# (layer name, module, classes or None for a module-level function, attribute)
SPANNED = (
    ("consistent", "dmono.consistent", None, "consistent"),
    ("lattice.min_antichain", "dmono.lattice", LATTICES, "min_antichain"),
    ("boolfn.mdnf_init", "dmono.boolfn", ("MonotoneDNF",), "__post_init__"),
    ("boolfn.dense.composed", "dmono.boolfn", ("ComposedTarget",), "dense"),
    ("boolfn.dense.xor", "dmono.boolfn", ("XorHypothesis",), "dense"),
    ("boolfn.dense.mdnf", "dmono.boolfn", ("MonotoneDNF",), "dense"),
    ("boolfn.strict_decompose", "dmono.boolfn", None, "strict_decompose"),
    ("boolfn.bits", "dmono.boolfn", ("DenseFunction",), "bits"),
    ("boolfn.from_bits", "dmono.boolfn", ("DenseFunction",), "from_bits"),
    ("lattice.up_closure", "dmono.lattice", LATTICES, "up_closure"),
    ("lattice.shadow", "dmono.lattice", LATTICES, "shadow"),
    ("lattice.validate", "dmono.lattice", ("ExplicitLattice",), "__init__"),
    ("lattice.sigma", "dmono.lattice", LATTICES, "sigma"),
    ("learner.eq", "dmono.learner", ("EquivalenceOracle",), "query"),
    ("learner.descend", "dmono.learner", None, "descend_to_local_min"),
    ("fileio.load_function", "dmono.fileio", None, "load_function"),
    ("families.verify_checks", "dmono.families", None, "prefix_levels"),
    ("families.verify_checks", "dmono.families", None, "chain_witness_check"),
)

COUNTED = (
    ("lattice.leq", "dmono.lattice", LATTICES, "leq"),
    ("lattice.check_element", "dmono.lattice", LATTICES, "check_element"),
    ("lattice.immediate_predecessors", "dmono.lattice", LATTICES, "immediate_predecessors"),
    ("boolfn.evaluate", "dmono.boolfn", FUNCTIONS, "evaluate"),
    ("learner.mq", "dmono.learner", ("MembershipOracle",), "query"),
)


def _targets(module_name, classes, attr):
    """(owner, attribute, raw value) for every binding the wrapper must replace.

    A method is patched on each listed class that defines it.  A module
    function is patched in every loaded ``dmono`` module that binds the
    same object, so ``from .x import f`` call sites see the wrapper too.
    Bindings that a later version of the package removed are skipped.
    """
    mod = importlib.import_module(module_name)
    if classes is not None:
        for cls_name in classes:
            cls = getattr(mod, cls_name, None)
            if cls is not None and attr in cls.__dict__:
                yield cls, attr, cls.__dict__[attr]
        return
    orig = getattr(mod, attr, None)
    if orig is None:
        return
    for name, other in list(sys.modules.items()):
        if other is None or not (name == "dmono" or name.startswith("dmono.")):
            continue
        for key, value in list(vars(other).items()):
            if value is orig:
                yield other, key, value


def _rewrap(raw, make):
    if isinstance(raw, classmethod):
        return classmethod(make(raw.__func__))
    return make(raw)


class Tracer:
    """Span recorder; also the owner of the patches it installs."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = 0
        self.extra: dict[str, float] = defaultdict(float)
        self._undo: list[tuple] = []
        self._seen_cubes: dict[int, object] = {}

    # ---- spans the harness opens itself --------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1, self.op])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> float:
        end = perf_counter()
        rec = self.spans[idx]
        rec[2] = end
        popped = self.stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {rec[0]} closed out of order")
        return end - rec[1]

    # ---- wrappers --------------------------------------------------------

    def _span_wrapper(self, name, fn, after=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result, rec[2] - rec[1])
            return result

        return wrapper

    def _after(self, name, cls):
        extra = self.extra
        if name == "learner.descend":
            def after(args, result, dur):
                extra["learner.descend.steps"] += getattr(result, "steps", 0)
                extra["learner.descend.inspections"] += getattr(result, "inspections", 0)
            return after
        if name == "consistent":
            def after(args, result, dur):
                sample = args[1] if len(args) > 1 else None
                extra["consistent.sample_points"] += len(getattr(sample, "x0", ())) + len(
                    getattr(sample, "x1", ())
                )
            return after
        if name in ("lattice.up_closure", "lattice.shadow") and getattr(cls, "__name__", "") == "CubeLattice":
            seen = self._seen_cubes

            def after(args, result, dur):
                # first closure on an instance pays for its coordinate masks;
                # instances stay referenced so their ids are not reused
                if id(args[0]) not in seen:
                    seen[id(args[0])] = args[0]
                    extra["lattice.cube_first_closure_s"] += dur
            return after
        return None

    def _count_wrapper(self, name, fn):
        counts = self.extra

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _install(self, table, spans: bool):
        for name, module, classes, attr in table:
            for owner, key, raw in list(_targets(module, classes, attr)):
                if spans:
                    after = self._after(name, owner if isinstance(owner, type) else None)
                    new = _rewrap(raw, lambda fn: self._span_wrapper(name, fn, after))
                else:
                    new = _rewrap(raw, lambda fn: self._count_wrapper(name + ".calls", fn))
                setattr(owner, key, new)
                self._undo.append((owner, key, raw))

    @contextlib.contextmanager
    def _patched(self, table, spans: bool):
        try:
            self._install(table, spans)
            yield self
        finally:
            self.restore()

    def spanning(self):
        return self._patched(SPANNED, True)

    def counting(self):
        return self._patched(COUNTED, False)

    def restore(self):
        while self._undo:
            owner, key, raw = self._undo.pop()
            setattr(owner, key, raw)
        self._seen_cubes.clear()


# ---- arithmetic over recorded spans ---------------------------------------


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for _name, start, end, parent, _op in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [(end - start) - covered[i] for i, (_n, start, end, _p, _o) in enumerate(spans)]


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per name: calls, inclusive seconds and self seconds.

    Inclusive time of a name counts only its outermost spans, so a
    recursive or re-entrant layer is not counted twice.
    """
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
    for i, (name, start, end, parent, _op) in enumerate(spans):
        row = out[name]
        row["calls"] += 1
        row["self_s"] += selfs[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            row["incl_s"] += end - start
    return out


def roots_wall(spans) -> float:
    return sum(end - start for _n, start, end, parent, _o in spans if parent < 0)


# ---- percentiles -------------------------------------------------------------


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p% at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of n samples lie strictly above the nearest-rank p-th percentile."""
    return n - max(1, math.ceil(p / 100 * n))


def reportable(n: int, p: float, tail: int = 10) -> bool:
    """A percentile is reported as such only with at least ``tail`` samples beyond it."""
    return n > 0 and samples_beyond(n, p) >= tail
