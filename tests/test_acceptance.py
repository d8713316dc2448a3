"""Acceptance suite: one test per criterion, one PASS line each when green.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
print.  Every tolerance here is exact; the three timed criteria assert
their stated wall-clock budgets.
"""

import random
import time
from functools import lru_cache

from dmono import (
    CubeLattice,
    DenseFunction,
    EquivalenceOracle,
    DenseState,
    ExplicitLattice,
    MembershipOracle,
    chain_alternations,
    chain_witness_check,
    consistent,
    learn,
    nested_disjoint_violation,
    prefix_levels,
    random_composed,
    strict_decompose,
    takimoto_family,
    tightness_family,
)
from dmono.boolfn import XorHypothesis

from oracles import brute_consistent_rounds, maximal_chains_cube, sigma_downset_recursion

MASTER_SEED = 0xD30


def _report(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number}: PASS - {text}")


@lru_cache(maxsize=1)
def _roundtrip_targets():
    rng = random.Random(MASTER_SEED)
    targets = []
    for _ in range(200):
        n = rng.randint(3, 10)
        d = rng.choice([1, 2, 3])
        sizes = [rng.randint(1, 3) for _ in range(d)]
        targets.append(random_composed(d, sizes, n, seed=rng.randrange(10**9)))
    return targets


def _structured_targets():
    return [tightness_family(d, t) for d, t in [(2, 2), (2, 3), (3, 2)]] + [
        takimoto_family(d, t) for d, t in [(2, 2), (3, 1), (3, 2)]
    ]


def test_criterion_1_exact_learning_roundtrip():
    started = time.perf_counter()
    targets = _roundtrip_targets()
    assert len(targets) >= 200
    for target in targets:
        lat = target.lattice
        mq = MembershipOracle.for_function(target)
        eq = EquivalenceOracle(target)
        hypothesis, stats = learn(target.d, lat, mq, eq)
        assert hypothesis.dense().mask == target.dense().mask
        product = 1
        for g in target.inner:
            product *= g.size + 1
        assert stats.counterexamples <= product - 1
        assert stats.max_descent_inspections <= lat.n * (lat.n + 1) // 2
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report(
        1,
        f"200 seeded targets learned exactly within both query bounds "
        f"({elapsed:.1f}s)",
    )


def test_criterion_2_worked_trace():
    lat = CubeLattice(2)
    target = tightness_family(2, 1)
    mq = MembershipOracle.for_function(target)
    eq = EquivalenceOracle(target)
    hypothesis, stats = learn(2, lat, mq, eq)
    assert stats.counterexamples == 3
    assert set(stats.x1) == {0b01, 0b10}
    assert set(stats.x0) == {0b11}
    assert [lv.minimals for lv in strict_decompose(hypothesis).levels] == [(0b01, 0b10), (0b11,)]
    _report(2, "two-variable parity trace: 3 counterexamples, expected sample and levels")


def test_criterion_3_decomposition_identity_suite():
    rng = random.Random(MASTER_SEED + 3)
    for _ in range(100):
        lat = CubeLattice(rng.randint(1, 8))
        f = DenseFunction(lat, rng.getrandbits(lat.size))
        xor = strict_decompose(f)
        assert xor.dense().mask == f.mask
        for lo, hi in zip(xor.levels, xor.levels[1:]):
            assert hi.dense().mask & ~lo.dense().mask == 0
            assert hi != lo
            assert not set(lo.minimals) & set(hi.minimals)
    _report(3, "100 random dense functions: exact reconstruction, strictly nested levels")


def test_criterion_4_degree_oracle():
    rng = random.Random(MASTER_SEED + 4)
    chains_by_n = {n: maximal_chains_cube(n) for n in (1, 2, 3, 4)}
    for _ in range(100):
        n = rng.randint(1, 4)
        lat = CubeLattice(n)
        f = DenseFunction(lat, rng.getrandbits(lat.size))
        worst = max(chain_alternations(f, chain) for chain in chains_by_n[n])
        assert len(strict_decompose(f).levels) == worst
    _report(4, "100 random functions: degree equals worst alternation over all maximal chains")


def test_criterion_5_tightness_blowup():
    started = time.perf_counter()
    for d, t in [(2, 2), (2, 3), (3, 2)]:
        target = tightness_family(d, t)
        xor = strict_decompose(target)
        assert xor.size == (t + 1) ** d - 1
        assert list(xor.levels) == list(prefix_levels(d, t).levels)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _report(5, f"tightness sizes equal (t+1)^d-1 with prefix levels recovered ({elapsed:.2f}s)")


def test_criterion_6_nested_family_separation():
    started = time.perf_counter()
    for d, t in [(2, 2), (3, 1), (3, 2)]:
        target = takimoto_family(d, t)
        xor = strict_decompose(target)
        assert xor.size >= t**d
        assert chain_witness_check(target, xor)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report(6, f"nested-family blowup is at least t^d with every chain witness in place ({elapsed:.2f}s)")


def test_criterion_7_size_upper_bound():
    for target in list(_roundtrip_targets()) + _structured_targets():
        xor = strict_decompose(target)
        s, d = target.size, target.d
        # integer-exact form of size <= (s/d + 1)^d - 1
        assert (xor.size + 1) * d**d <= (s + d) ** d
    _report(7, "strict-representation size bounded by (size/d+1)^d - 1 on every target")


def test_criterion_8_sigma():
    for n in (1, 2, 3, 4):
        assert sigma_downset_recursion(CubeLattice(n)) == n * (n + 1) // 2
    for m in (1, 2, 3, 4, 5, 6):
        names = [f"c{i}" for i in range(m)]
        chain = ExplicitLattice(names, list(zip(names, names[1:])))
        assert chain.sigma() == m - 1
    _report(8, "down-set recursion matches n(n+1)/2 on cubes; chains of m elements give m-1")


def test_criterion_9_consistent_outputs():
    rng = random.Random(MASTER_SEED + 9)
    for _ in range(100):
        n = rng.randint(3, 7)
        d = rng.choice([1, 2, 3])
        sizes = [rng.randint(1, 3) for _ in range(d)]
        target = random_composed(d, sizes, n, seed=rng.randrange(10**9))
        lat = target.lattice
        points = rng.sample(range(lat.size), rng.randint(1, min(lat.size, 12)))
        sample = DenseState(
            lat,
            frozenset(x for x in points if not target.evaluate(x)),
            frozenset(x for x in points if target.evaluate(x)),
        )
        h = consistent(d, sample)
        assert all(h.evaluate(x) == 0 for x in sample.x0)
        assert all(h.evaluate(x) == 1 for x in sample.x1)
        assert len(strict_decompose(h).levels) <= d
        # the table's strict decomposition is the d rounds' levels, the
        # empty trailing ones dropped
        trimmed, _, _ = brute_consistent_rounds(lat, d, sample.x0, sample.x1)
        while trimmed and not trimmed[-1]:
            trimmed.pop()
        assert [list(lv.minimals) for lv in strict_decompose(h).levels] == trimmed
    _report(9, "100 samples: consistent output fits labels and decomposes into the rounds' levels")


def test_criterion_10_recovery_both_directions():
    for d, t in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]:
        expected = prefix_levels(d, t)
        assert nested_disjoint_violation(expected) is None
        assert list(strict_decompose(tightness_family(d, t)).levels) == list(expected.levels)
    for d, t in [(2, 2), (3, 1), (3, 2)]:
        target = takimoto_family(d, t)
        given = XorHypothesis(target.lattice, target.inner)
        assert nested_disjoint_violation(given) is not None
        recovered = strict_decompose(target)
        assert list(recovered.levels) != list(target.inner)
    _report(10, "disjoint prefix levels recovered exactly; overlapping nested levels are not")
