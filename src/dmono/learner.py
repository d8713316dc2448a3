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

from .boolfn import ComposedTarget, DenseFunction, MonotoneDNF, Representation
from .consistent import DenseState, consistent
from .errors import DegreeTooSmallError, InconsistentSampleError
from .lattice import Lattice, mask_bit


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
        return (diff ^ (diff - 1)).bit_length() - 1


@dataclass(frozen=True, slots=True)
class DescentResult:
    """One counterexample's descent: its start, the point it settled on and that point's label."""

    counterexample: int
    element: int
    value: int
    steps: int
    inspections: int


@dataclass
class QueryStats:
    """Query counters plus the bound values they are checked against.

    ``eq_used`` counts oracle calls including the final YES, so a complete
    run has eq_used = counterexamples + 1; the product bound applies to
    ``counterexamples``.  ``mq_used`` counts real membership queries
    (after caching), while ``max_descent_inspections`` counts raw
    predecessor inspections of the worst descent, the quantity bounded by
    the maximal predecessor sum.  ``trace`` holds the run's descents, one
    per counterexample, in query order.
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
    trace: list[DescentResult] = field(default_factory=list)


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
    value: int,
    cache: dict[int, int],
) -> DescentResult:
    """Walk a counterexample down to a local minimal point of disagreement.

    ``value`` is the target's value at ``a`` (the learner infers it from
    the equivalence oracle's contract), and ``cache`` memoizes membership
    answers across the caller's descents; it gains ``a`` and every
    predecessor queried.  Repeatedly moves to the first (canonical order)
    immediate predecessor where target and hypothesis disagree, one
    membership query per uncached predecessor inspected, and stops when
    none disagrees.  Each hypothesis bit, the final check's included, is
    read as ``mask_bit`` reads it, at the cost of the shorter side of the
    table: an AND below its middle, a shift above.  An ``a`` off the
    lattice raises InvalidElementError before any query.  The walk ends on
    a local minimal element of the pointwise disagreement; if it never
    meets one, meaning the start was no counterexample and no inspected
    predecessor disagreed either, a ValueError reports the broken
    contract.  Raw inspections per descent never exceed the lattice's
    maximal predecessor sum.
    """
    start, steps, inspections = lattice.check_element(a), 0, 0
    # read once; the predecessor ids come from the lattice, so need no check
    table = hypothesis.dense().mask
    length = table.bit_length()
    cache.setdefault(a, value)
    while True:
        for b in lattice.immediate_predecessors(a):
            inspections += 1
            vb = cache.get(b)
            if vb is None:
                vb = cache[b] = mq.query(b)
            # mask_bit's read, inlined: a call per inspection costs more
            # than the read itself on tables of a few thousand bits
            if b << 1 < length:
                hb = 1 if table & (1 << b) else 0
            else:
                hb = table >> b & 1
            if vb != hb:
                a, value = b, vb
                steps += 1
                break
        else:
            break
    if value == mask_bit(table, a):
        raise ValueError(
            f"no disagreement at or below {lattice.element_name(a)}: "
            "descent requires a counterexample"
        )
    return DescentResult(start, a, value, steps, inspections)


def learn(
    d: int,
    lattice: Lattice,
    mq: MembershipOracle,
    eq,
) -> tuple[DenseFunction, QueryStats]:
    """Exactly learn a d-monotone target from the given oracles.

    Starts from the constant-0 hypothesis, and per counterexample: infer
    the target's value there (the oracle guarantees disagreement, so no
    membership query is spent), descend to a local minimal disagreement,
    join that point under its label to the run's ``DenseState``, and read
    the hypothesis out of that state with ``consistent``.  The sample grew
    by one point, so the state usually extends one level's up-closure by
    that point instead of running the full rounds.  Each hypothesis is
    its truth table, which every query and descent reads; the returned
    one's XOR-of-monotone levels are ``strict_decompose`` of it.
    Membership answers are memoized per run, so the raw inspection count
    of a descent can exceed the real queries it costs.

    Raises DegreeTooSmallError when the sample proves the target is not
    d-monotone, and InternalError (from the state) if a descent settles on
    a point already in the sample, which a correct run cannot: every
    hypothesis agrees with the sample.
    """
    stats = QueryStats(sigma=lattice.sigma())
    bound = counterexample_bound(getattr(eq, "target", None))
    if bound is not None:
        stats.eq_bound = bound
        stats.mq_bound = stats.sigma * bound

    state = DenseState(lattice)
    h = consistent(d, state)
    cache: dict[int, int] = {}

    while True:
        cex = eq.query(h)
        if cex is None:
            stats.eq_used, stats.mq_used = eq.eq_count, mq.mq_count
            stats.x0, stats.x1 = state.x0, state.x1
            return h, stats
        stats.counterexamples += 1
        inferred = 1 - mask_bit(h.mask, cex)
        result = descend_to_local_min(lattice, cex, h, mq, inferred, cache)
        stats.max_descent_inspections = max(
            stats.max_descent_inspections, result.inspections
        )
        stats.trace.append(result)
        started = time.perf_counter()
        state.add(result.element, result.value)
        try:
            h = consistent(d, state)
        except InconsistentSampleError as exc:
            raise DegreeTooSmallError(
                f"the target is not {d}-monotone: {exc}", degree=d, point=exc.point
            ) from exc
        stats.rebuild_seconds += time.perf_counter() - started
