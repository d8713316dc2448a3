"""Brute-force reference implementations used only as test oracles.

Everything here is deliberately definitional: order scans, exhaustive
chain enumeration, and the literal down-set recursion for the maximal
predecessor sum.  None of it shares code with the package's production
paths, so agreement is meaningful; the exceptions are
``reference_learn``, which reruns the learner's loop on point sets and
validated samples, so it shares the rebuild rounds and the descent but
none of the loop's mask bookkeeping, ``worst_case_run``, which plays
the learner's own hypotheses and descents against every counterexample
order, and ``brute_chain_witnesses``, which reads the blocks off the
target with ``takimoto_blocks`` and walks each chain one element at a time.
"""

from itertools import combinations, permutations, product

from dmono import (
    DenseFunction,
    DenseState,
    MembershipOracle,
    MonotoneDNF,
    QueryStats,
    XorHypothesis,
    consistent,
    counterexample_bound,
    descend_to_local_min,
    strict_decompose,
)
from dmono.errors import DegreeTooSmallError, InconsistentSampleError
from dmono.families import takimoto_blocks
from dmono.lattice import mask_bit


def brute_mask_elements(mask):
    """Set bit positions of a mask, one bit test per position."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def brute_lt(lat, a, b):
    return a != b and lat.leq(a, b)


def brute_immediate_predecessors(lat, a):
    """Definitional covers: b < a with nothing strictly between."""
    below = [b for b in range(lat.size) if brute_lt(lat, b, a)]
    return sorted(
        b
        for b in below
        if not any(brute_lt(lat, b, c) and brute_lt(lat, c, a) for c in below)
    )


def brute_antichain_pair(lat, elems):
    """The first comparable pair of ``elems`` in ascending order, or None."""
    elems = sorted(set(elems))
    for i, a in enumerate(elems):
        for b in elems[i + 1 :]:
            if lat.leq(a, b) or lat.leq(b, a):
                return a, b
    return None


def brute_value(f, x):
    """f at x from the definitions: an order scan per monotone part, no table."""
    if isinstance(f, DenseFunction):
        return f.mask >> x & 1
    if isinstance(f, MonotoneDNF):
        return int(any(f.lattice.leq(a, x) for a in f.minimals))
    if isinstance(f, XorHypothesis):
        return sum(brute_value(lv, x) for lv in f.levels) & 1
    idx = sum(brute_value(g, x) << i for i, g in enumerate(f.inner))
    return f.outer >> idx & 1


def brute_table(lat, value):
    """The checked ``DenseFunction`` holding ``value`` read at every element."""
    return DenseFunction(lat, sum(value(x) << x for x in range(lat.size)))


def brute_join(lat, a, b):
    """Unique minimal common upper bound by exhaustive scan; None if absent."""
    uppers = [c for c in range(lat.size) if lat.leq(a, c) and lat.leq(b, c)]
    mins = [c for c in uppers if not any(brute_lt(lat, u, c) for u in uppers)]
    return mins[0] if len(mins) == 1 else None


def brute_is_lattice(names, covers):
    """Lattice-ness of a declared acyclic order with one top, by all pairs.

    Ids follow ``names``; ``covers`` are (lower, upper) name pairs, read
    transitively.  Returns ``(True, None)`` when every pair has exactly one
    minimal common upper bound, else ``(False, (a, b, bounds))`` for the
    first failing pair in validation's sweep order with its minimal upper
    bounds' names in id order.  That order walks the covers of the implicit
    bottom, then the upper covers of each element by id, each group's
    pairs in id order; the cover-pair lemma says some such pair fails.
    """
    ids = {nm: i for i, nm in enumerate(names)}
    n = len(names)
    above = [{i} for i in range(n)]
    changed = True
    while changed:  # transitive closure, one relaxation sweep at a time
        changed = False
        for lo, hi in covers:
            grown = above[ids[lo]] | above[ids[hi]]
            if grown != above[ids[lo]]:
                above[ids[lo]] = grown
                changed = True

    def minimal_upper_bounds(a, b):
        common = above[a] & above[b]
        return sorted(c for c in common if not any(u != c and c in above[u] for u in common))

    if all(len(minimal_upper_bounds(a, b)) == 1 for a in range(n) for b in range(a + 1, n)):
        return True, None
    # covers by brute force: b strictly above a with nothing strictly between
    upper_covers = [
        sorted(b for b in above[a] if b != a and not any(b in above[c] for c in above[a] - {a, b}))
        for a in range(n)
    ]
    bottom_covers = [a for a in range(n) if not any(a in above[b] for b in range(n) if b != a)]
    for group in [bottom_covers] + upper_covers:
        for i, a in enumerate(group):
            for b in group[i + 1 :]:
                mins = minimal_upper_bounds(a, b)
                if len(mins) != 1:
                    return False, (names[a], names[b], [names[c] for c in mins])
    raise AssertionError("a pair fails but no two upper covers of a common element do")


def sigma_downset_recursion(lat, domain=None):
    """Literal maximal-predecessor-sum recursion over explicit down-sets.

    Exponential: recurses on the down-set of each immediate predecessor of
    the current top without memoization.  Singleton domains score 0.
    """
    if domain is None:
        domain = frozenset(range(lat.size))
    if len(domain) == 1:
        return 0
    tops = [a for a in domain if not any(brute_lt(lat, a, b) for b in domain)]
    assert len(tops) == 1, "domain is not a down-set with a unique top"
    top = tops[0]
    rest = domain - {top}
    preds = [
        b
        for b in rest
        if not any(brute_lt(lat, b, c) and brute_lt(lat, c, top) for c in rest)
    ]
    return len(preds) + max(
        sigma_downset_recursion(lat, frozenset(c for c in domain if lat.leq(c, p)))
        for p in preds
    )


def brute_global_min(lat, value):
    """Points with value 1 and value 0 strictly everywhere below."""
    return sorted(
        a
        for a in range(lat.size)
        if value(a) and not any(brute_lt(lat, b, a) and value(b) for b in range(lat.size))
    )


def brute_up_set(lat, points):
    """Every element above some point, by order scan."""
    return {x for x in range(lat.size) if any(lat.leq(a, x) for a in points)}


def brute_descent(lat, a, hypothesis, value):
    """The descent's walk with definitional covers and pointwise values.

    From ``a``, move to the first cover (ascending id) where ``value``
    and ``hypothesis.evaluate`` disagree, until none does.  Returns
    ``(element, value there, steps, inspections)``, counting every cover
    looked at.
    """
    steps = inspections = 0
    while True:
        for b in brute_immediate_predecessors(lat, a):
            inspections += 1
            if value(b) != hypothesis.evaluate(b):
                a = b
                steps += 1
                break
        else:
            return a, value(a), steps, inspections


def brute_consistent_rounds(lat, d, x0, x1):
    """The d rounds of ``consistent`` on point sets, with order scans.

    Returns ``(levels, table, violated)``: each level's minimal points as a
    sorted list, the set of elements where the XOR of the rounds'
    up-closures is 1, and the lowest positive left after d rounds (None
    when the sample fits).
    """
    neg, pos = set(x0), set(x1)
    levels, table = [], set()
    for _ in range(d):
        levels.append(brute_global_min(lat, lambda x: x in pos))
        up = brute_up_set(lat, pos)
        table ^= up
        neg, pos = pos | (neg - up), neg & up
    return levels, table, min(pos, default=None)


def brute_strict_levels(lat, value):
    """Minimal points of each residue of the strict decomposition."""
    cur = {x for x in range(lat.size) if value(x)}
    levels = []
    while cur:
        levels.append(brute_global_min(lat, lambda x: x in cur))
        cur ^= brute_up_set(lat, cur)
    return levels


def brute_local_min(lat, value):
    return sorted(
        a
        for a in range(lat.size)
        if value(a) and not any(value(b) for b in brute_immediate_predecessors(lat, a))
    )


def brute_closure_value(lat, value, x):
    """Least monotone upper bound, evaluated pointwise by down-set scan."""
    return int(any(value(y) for y in range(lat.size) if lat.leq(y, x)))


def brute_prefix_levels(d, t):
    """Minimal-element masks of the tightness family's levels, one minterm at a time.

    Level k holds the joins of one variable from each of k distinct
    t-wide blocks, block i owning bits i*t .. i*t+t-1.
    """
    levels = []
    for k in range(1, d + 1):
        mask = 0
        for combo in combinations(range(d), k):
            for choice in product(range(t), repeat=k):
                x = 0
                for blk, j in zip(combo, choice):
                    x |= 1 << (blk * t + j)
                mask |= 1 << x
        levels.append(mask)
    return levels


def brute_chain_witnesses(target, levels):
    """Walk every chain picking one variable per block, one element at a time.

    A chain's k-th element sets its picked variables of blocks 1..k and
    must be a minimal element of the k-th level; a missing level fails.
    """
    for picks in product(*takimoto_blocks(target)):
        x = 0
        for k, b in enumerate(picks):
            x |= 1 << b
            if k >= len(levels.levels) or not mask_bit(levels.levels[k].mask, x):
                return False
    return True


def maximal_chains_cube(n):
    """All maximal chains of the n-cube: insert one bit at a time."""
    chains = []
    for order in permutations(range(n)):
        x = 0
        chain = [x]
        for j in order:
            x |= 1 << j
            chain.append(x)
        chains.append(chain)
    return chains


def maximal_chains(lat):
    """All maximal chains, lowest element first, climbing definitional covers.

    A chain starts at an element with no predecessor (it covers the
    implicit bottom) and ends at the top.
    """
    covers = {a: brute_immediate_predecessors(lat, a) for a in range(lat.size)}
    upper = {a: [b for b in range(lat.size) if a in covers[b]] for a in range(lat.size)}

    def climb(chain):
        ups = upper[chain[-1]]
        if not ups:
            return [chain]
        return [c for b in ups for c in climb(chain + [b])]

    return [c for a in range(lat.size) if not covers[a] for c in climb([a])]


def max_chain_alternations(lat, value, chains):
    """Worst value-change count along the given chains, with a leading 0."""
    best = 0
    for chain in chains:
        prev = 0
        changes = 0
        for x in chain:
            v = value(x)
            if v != prev:
                changes += 1
                prev = v
        best = max(best, changes)
    return best


def join_products(lat, min_sets):
    """Joins of one element per chosen index set, over all nonempty choices.

    Given the minimal-element sets of g_1..g_d, this is the provenance set
    that collected sample points and decomposition minterms must live in.
    """
    out = set()
    options = [list(ms) + [None] for ms in min_sets]
    for picks in product(*options):
        chosen = [a for a in picks if a is not None]
        if not chosen:
            continue
        j = chosen[0]
        for a in chosen[1:]:
            j = lat.join(j, a)
        out.add(j)
    return out


def reference_learn(d, lattice, mq, eq):
    """The learner's loop on Python point sets, rebuilt by the public ``consistent``.

    Every round validates the whole sample into a fresh ``DenseState``,
    which runs the full rounds, and recomputes the hypothesis's table from
    its levels, ``strict_decompose`` of the table ``consistent`` returns,
    rather than reading that table.  Returns the hypothesis and a
    ``QueryStats`` filled as ``learn`` fills it.
    """
    stats = QueryStats(sigma=lattice.sigma())
    bound = counterexample_bound(getattr(eq, "target", None))
    if bound is not None:
        stats.eq_bound = bound
        stats.mq_bound = stats.sigma * bound
    x0, x1 = set(), set()
    h = consistent(d, DenseState(lattice, frozenset(), frozenset()))
    cache = {}
    for _ in range(lattice.size + 1):
        hd = XorHypothesis(lattice, strict_decompose(h).levels).dense()
        cex = eq.query(hd)
        stats.eq_used = eq.eq_count
        stats.mq_used = mq.mq_count
        if cex is None:
            stats.x0 = tuple(sorted(x0))
            stats.x1 = tuple(sorted(x1))
            return h, stats
        stats.counterexamples += 1
        inferred = 1 - hd.evaluate(cex)
        result = descend_to_local_min(lattice, cex, hd, mq, inferred, cache)
        stats.max_descent_inspections = max(stats.max_descent_inspections, result.inspections)
        stats.trace.append(result)
        (x1 if result.value else x0).add(result.element)
        try:
            h = consistent(d, DenseState(lattice, frozenset(x0), frozenset(x1)))
        except InconsistentSampleError as exc:
            raise DegreeTooSmallError(
                f"the target is not {d}-monotone: {exc}", degree=d, point=exc.point
            ) from exc
    raise AssertionError("learning loop exceeded the lattice size")


def worst_case_run(lattice, f_mask):
    """The learner's worst case over every counterexample order, by exhaustive game.

    A game state is the sample, as ``(s0, s1)`` masks, and its hypothesis
    is the table of a ``DenseState`` on that sample.  A move answers any
    disagreement x as the counterexample and walks it down with
    ``descend_to_local_min``, a fresh membership cache each time, to the
    point the learner files; moves that settle on the same point share one
    edge.  Returns ``(counterexamples, inspections, states)``: the longest
    path from the empty sample to a hypothesis equal to ``f_mask``, the
    most inspections of any descent in any reachable state, and the count
    of reachable states.
    """
    mq = MembershipOracle.for_function(DenseFunction(lattice, f_mask))
    longest = {}
    inspections = 0

    def play(s0, s1):
        nonlocal inspections
        key = s0, s1
        if key not in longest:
            state = DenseState(lattice, brute_mask_elements(s0), brute_mask_elements(s1))
            h = DenseFunction(lattice, state.table)
            settled = {}
            for x in brute_mask_elements(state.table ^ f_mask):
                r = descend_to_local_min(lattice, x, h, mq, f_mask >> x & 1, {})
                inspections = max(inspections, r.inspections)
                settled[r.element] = r.value
            longest[key] = max(
                (
                    1 + (play(s0, s1 | 1 << q) if v else play(s0 | 1 << q, s1))
                    for q, v in settled.items()
                ),
                default=0,
            )
        return longest[key]

    counterexamples = play(0, 0)
    return counterexamples, inspections, len(longest)
