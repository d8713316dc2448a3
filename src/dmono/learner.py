"""Exact learner from membership and equivalence queries, with query accounting.

The learner proposes hypotheses built by ``consistent``, walks every
counterexample down to a local minimal point of disagreement, and stops at
the first YES.  Counters live on the oracles; the stats object additionally
tracks counterexamples, the worst descent, and the bound values they are
checked against when the target's representation makes them computable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from .boolfn import ComposedTarget, MonotoneDNF, Representation, XorHypothesis
from .consistent import LabeledSample, consistent
from .errors import DegreeTooSmallError, InconsistentSampleError, InternalError
from .lattice import Lattice, mask_elements


class MembershipOracle:
    """Answers point queries through a fixed function; counts every query."""

    def __init__(self, answer: Callable[[int], int]):
        self._answer = answer
        self.mq_count = 0

    @classmethod
    def for_function(cls, f: Representation) -> "MembershipOracle":
        """Answer from f's truth table: one bit read per query, ids still checked."""
        return cls(f.dense().evaluate)

    def query(self, x: int) -> int:
        self.mq_count += 1
        return 1 if self._answer(x) else 0


class EquivalenceOracle:
    """Exhaustive equivalence oracle: canonical-order scan against the target.

    Answers None for YES, otherwise the first element (ascending id) where
    hypothesis and target disagree.  ``table`` is the target's truth table,
    which a membership oracle can share.
    """

    def __init__(self, target: Representation):
        self.target = target
        self.lattice = target.lattice
        self.table = target.dense()
        self.eq_count = 0

    def query(self, hypothesis: Representation) -> int | None:
        self.eq_count += 1
        diff = hypothesis.dense().mask ^ self.table.mask
        if not diff:
            return None
        return (diff & -diff).bit_length() - 1


@dataclass
class QueryStats:
    """Query counters plus the bound values they are checked against.

    ``eq_used`` counts oracle calls including the final YES, so a complete
    run has eq_used = counterexamples + 1; the product bound applies to
    ``counterexamples``.  ``mq_used`` counts real membership queries
    (after caching), while ``max_descent_inspections`` counts raw
    predecessor inspections of the worst descent, the quantity bounded by
    the maximal predecessor sum.
    """

    eq_used: int = 0
    mq_used: int = 0
    counterexamples: int = 0
    eq_bound: int | None = None
    mq_bound: int | None = None
    sigma: int | None = None
    max_descent_inspections: int = 0
    rebuild_seconds: float = 0.0
    x0: tuple[int, ...] = ()
    x1: tuple[int, ...] = ()
    trace: list[dict] = field(default_factory=list)

    def within_bounds(self) -> bool:
        if self.eq_bound is not None and self.counterexamples > self.eq_bound:
            return False
        if self.mq_bound is not None and self.mq_used > self.mq_bound:
            return False
        return True


@dataclass(frozen=True)
class DescentResult:
    element: int
    value: int
    steps: int
    inspections: int


def counterexample_bound(target) -> int | None:
    """Product bound on counterexamples, when the representation supports it."""
    if isinstance(target, ComposedTarget) and target.outer_at_origin == 0:
        p = 1
        for g in target.inner:
            p *= g.size + 1
        return p - 1
    if isinstance(target, MonotoneDNF):
        return target.size
    return None


def descend_to_local_min(
    lattice: Lattice,
    a: int,
    hypothesis: Representation,
    mq: MembershipOracle,
    value: int | None = None,
    _cache: dict[int, int] | None = None,
) -> DescentResult:
    """Walk a counterexample down to a local minimal point of disagreement.

    Repeatedly moves to the first (canonical order) immediate predecessor
    where target and hypothesis disagree, one membership query per
    predecessor inspected, and stops when none disagrees.  ``value`` is the
    target's value at ``a`` when the caller already knows it (the learner
    infers it from the equivalence oracle's contract); otherwise one
    membership query establishes it.  The walk ends on a local minimal
    element of the pointwise disagreement; if it never meets one, meaning
    the start was no counterexample and no inspected predecessor disagreed
    either, a ValueError reports the broken contract.  Raw inspections per
    descent never exceed the lattice's maximal predecessor sum.
    """
    lattice.check_element(a)
    cache = {} if _cache is None else _cache

    def look(x: int) -> int:
        if x not in cache:
            cache[x] = mq.query(x)
        return cache[x]

    if value is None:
        value = look(a)
    else:
        cache.setdefault(a, value)

    steps = 0
    inspections = 0
    moved = True
    while moved:
        moved = False
        for b in lattice.immediate_predecessors(a):
            inspections += 1
            vb = look(b)
            if vb != hypothesis.evaluate(b):
                a, value, moved = b, vb, True
                steps += 1
                break
    if value == hypothesis.evaluate(a):
        raise ValueError(
            f"no disagreement at or below {lattice.element_name(a)}: "
            "descent requires a counterexample"
        )
    return DescentResult(a, value, steps, inspections)


def learn(
    d: int,
    lattice: Lattice,
    mq: MembershipOracle,
    eq,
) -> tuple[XorHypothesis, QueryStats]:
    """Exactly learn a d-monotone target from the given oracles.

    Starts from the constant-0 hypothesis, and per counterexample: infer
    the target's value there (the oracle guarantees disagreement, so no
    membership query is spent), descend to a local minimal disagreement,
    file that point under its label, and rebuild the hypothesis with
    ``consistent``.  The sample is kept as two dense masks that enter
    ``consistent`` unvalidated, and each query reads the truth table the
    rebuild returns.  Membership answers are memoized per run, so the raw
    inspection count of a descent can exceed the real queries it costs.

    Raises DegreeTooSmallError when the sample proves the target is not
    d-monotone, and InternalError if a descent settles on a point already
    in the sample, which a correct run cannot.
    """
    if d < 1:
        raise ValueError("degree must be at least 1")
    stats = QueryStats(sigma=lattice.sigma())
    bound = counterexample_bound(getattr(eq, "target", None))
    if bound is not None:
        stats.eq_bound = bound
        stats.mq_bound = stats.sigma * bound

    s0 = s1 = 0  # negative and positive sample points, one bit each
    h = consistent(d, LabeledSample.from_masks(lattice, 0, 0))
    cache: dict[int, int] = {}

    while True:
        hd = h.dense()
        cex = eq.query(hd)
        stats.eq_used = eq.eq_count
        stats.mq_used = mq.mq_count
        if cex is None:
            stats.x0 = tuple(mask_elements(s0))
            stats.x1 = tuple(mask_elements(s1))
            return h, stats
        stats.counterexamples += 1
        inferred = 1 - (hd.mask >> cex & 1)
        result = descend_to_local_min(lattice, cex, hd, mq, value=inferred, _cache=cache)
        stats.max_descent_inspections = max(
            stats.max_descent_inspections, result.inspections
        )
        stats.trace.append(
            {
                "counterexample": cex,
                "settled": result.element,
                "label": result.value,
                "steps": result.steps,
                "inspections": result.inspections,
            }
        )
        bit = 1 << result.element
        if (s0 | s1) & bit:
            # every hypothesis agrees with the sample, so this is a bug
            raise InternalError(
                f"descent settled on {lattice.element_name(result.element)}, "
                "which is already in the sample"
            )
        if result.value:
            s1 |= bit
        else:
            s0 |= bit
        started = time.perf_counter()
        try:
            h = consistent(d, LabeledSample.from_masks(lattice, s0, s1))
        except InconsistentSampleError as exc:
            raise DegreeTooSmallError(
                f"the target is not {d}-monotone: {exc}", degree=d, point=exc.point
            ) from exc
        stats.rebuild_seconds += time.perf_counter() - started
