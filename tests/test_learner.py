import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmono import (
    ComposedTarget,
    CubeLattice,
    DenseFunction,
    DenseState,
    DescentResult,
    EquivalenceOracle,
    ExplicitLattice,
    MembershipOracle,
    MonotoneDNF,
    XorHypothesis,
    consistent,
    counterexample_bound,
    descend_to_local_min,
    learn,
    parity_table,
    random_composed,
    strict_decompose,
    takimoto_family,
    tightness_family,
)
from dmono.errors import DegreeTooSmallError, InvalidElementError
from dmono.lattice import elements_mask, mask_elements

from conftest import (
    DIAMOND_COVERS,
    DIAMOND_NAMES,
    PENTAGON_COVERS,
    PENTAGON_NAMES,
    chain_product,
    checked_ids,
    kernel_runs,
    moore_families,
)
from oracles import (
    brute_descent,
    join_products,
    max_chain_alternations,
    maximal_chains,
    reference_learn,
    worst_case_run,
)


def parity_target(lat):
    return ComposedTarget(lat, parity_table(2), (MonotoneDNF(lat, (1,)), MonotoneDNF(lat, (2,))))


def zero_hypothesis(lat):
    return XorHypothesis(lat, ())


def nested_blocks_2_1_1():
    """Parity of nested unions of blocks of 2, 1 and 1 variables on cube:6."""
    lat = CubeLattice(6)
    inner = ((0b0001, 0b0010, 0b0100, 0b1000), (0b0100, 0b1000), (0b1000,))
    return ComposedTarget(lat, parity_table(3), tuple(MonotoneDNF(lat, g) for g in inner))


LATTICES = st.sampled_from([CubeLattice(4)]) | moore_families(max_ground=5, max_draws=8).map(
    lambda fam: ExplicitLattice(fam[1], fam[2])
)


def draw_representations(data, lat):
    """One function of each of the four representations over ``lat``."""
    mask = st.integers(0, (1 << lat.size) - 1)
    g1, g2 = (MonotoneDNF.from_mask(lat, lat.up_and_minimal(data.draw(mask))[1]) for _ in range(2))
    return [
        DenseFunction(lat, data.draw(mask)),
        g1,
        XorHypothesis(lat, (g1, g2)),
        ComposedTarget(lat, data.draw(st.integers(0, 15)), (g1, g2)),
    ]


class TestMembershipOracle:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_answers_match_pointwise_evaluation(self, data):
        lat = data.draw(LATTICES)
        for f in draw_representations(data, lat):
            mq = MembershipOracle.for_function(f)
            assert [mq.query(x) for x in range(lat.size)] == [f.evaluate(x) for x in range(lat.size)]
            assert mq.mq_count == lat.size

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_out_of_lattice_ids_rejected(self, data):
        lat = data.draw(LATTICES)
        for f in draw_representations(data, lat):
            mq = MembershipOracle.for_function(f)
            for x in (-1, lat.size):
                with pytest.raises(InvalidElementError):
                    mq.query(x)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_learning_costs_the_same_queries(self, data):
        # the truth-table oracle, and one sharing the equivalence oracle's
        # table, against one evaluating the target point by point
        lat = data.draw(LATTICES)
        target = draw_representations(data, lat)[3]
        d = max(len(strict_decompose(target).levels), 1)
        shared = EquivalenceOracle(target).table
        assert shared == target.dense()
        runs = []
        for mq in (
            MembershipOracle.for_function(target),
            MembershipOracle(target.evaluate),
            MembershipOracle.for_function(shared),
        ):
            _, stats = learn(d, lat, mq, EquivalenceOracle(target))
            runs.append((stats.mq_used, stats.eq_used, stats.counterexamples, stats.trace))
        assert runs[0] == runs[1] == runs[2]


class TestDescend:
    def test_walks_to_first_disagreeing_predecessor(self, cube2):
        target = parity_target(cube2)
        mq = MembershipOracle.for_function(target)
        res = descend_to_local_min(cube2, 0b11, zero_hypothesis(cube2), mq, value=0, cache={})
        assert res.element == 0b01
        assert res.steps == 1
        # one query for f(01), one for f(00); f(11) was supplied
        assert mq.mq_count == 2

    def test_local_min_start_returns_unchanged(self, cube3):
        target = MonotoneDNF(cube3, (0b110,))
        mq = MembershipOracle.for_function(target)
        res = descend_to_local_min(cube3, 0b110, zero_hypothesis(cube3), mq, value=1, cache={})
        assert res.element == 0b110
        assert res.steps == 0
        # both predecessors inspected, one query each
        assert res.inspections == 2
        assert mq.mq_count == 2

    def test_bottom_start_costs_nothing(self, cube2):
        target = DenseFunction(cube2, 0b0001)  # value 1 only at 00
        mq = MembershipOracle.for_function(target)
        res = descend_to_local_min(cube2, 0b00, zero_hypothesis(cube2), mq, value=1, cache={})
        assert res.element == 0b00
        assert res.inspections == 0
        assert mq.mq_count == 0

    def test_contract_violation_detected(self, cube2):
        target = DenseFunction(cube2, 0)
        mq = MembershipOracle.for_function(target)
        with pytest.raises(ValueError, match="counterexample"):
            descend_to_local_min(cube2, 0b00, zero_hypothesis(cube2), mq, value=0, cache={})

    @pytest.mark.parametrize("lattice", ["cube2", "diamond"])
    def test_off_lattice_start_is_refused_before_any_query(self, request, lattice):
        lat = request.getfixturevalue(lattice)
        mq = MembershipOracle.for_function(DenseFunction(lat, 1))
        for a in (-1, lat.size):
            with pytest.raises(InvalidElementError) as info:
                descend_to_local_min(lat, a, zero_hypothesis(lat), mq, value=1, cache={})
            with pytest.raises(InvalidElementError) as expected:
                lat.check_element(a)
            assert str(info.value) == str(expected.value)
        assert mq.mq_count == 0

    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_a_descent_checks_only_its_start(self, monkeypatch, n):
        # every element but the bottom is 1, so the walk from the top
        # clears one bit per step down to a single set coordinate
        lat = CubeLattice(n)
        table = (1 << lat.size) - 2
        mq = MembershipOracle(lambda x: table >> x & 1)
        checked = checked_ids(monkeypatch, lat)
        res = descend_to_local_min(lat, lat.top, zero_hypothesis(lat), mq, 1, {})
        assert (res.steps, res.element.bit_count()) == (n - 1, 1)
        assert checked == [lat.top]

    def test_start_and_inspected_values_join_the_cache(self, cube2):
        target = parity_target(cube2)
        mq = MembershipOracle.for_function(target)
        cache = {}
        res = descend_to_local_min(cube2, 0b11, zero_hypothesis(cube2), mq, value=0, cache=cache)
        assert res == DescentResult(0b11, 0b01, 1, 1, 2)
        assert cache == {0b11: 0, 0b01: 1, 0b00: 0}
        # a second descent from a cached point spends no query
        again = descend_to_local_min(cube2, 0b01, zero_hypothesis(cube2), mq, 1, cache)
        assert again == DescentResult(0b01, 0b01, 1, 0, 1)
        assert mq.mq_count == 2

    @pytest.mark.parametrize("n", range(6, 11))
    def test_cube_descents_match_the_brute_walk(self, n):
        # starts in both halves of the ids read hypothesis bits on both sides
        # of the table's middle, so by the AND and by the shift; at most four
        # set coordinates keep the definitional covers cheap
        lat = CubeLattice(n)
        rng = random.Random(n)
        read, sides = [], set()

        class Recorded(DenseFunction):
            def evaluate(self, x):
                read.append(x)
                return super().evaluate(x)

        for _ in range(4):
            target = DenseFunction(lat, rng.getrandbits(lat.size))
            hd = Recorded(lat, rng.getrandbits(lat.size))
            starts = [a for a in mask_elements(target.mask ^ hd.mask) if a.bit_count() <= 4]
            low = [a for a in starts if a < lat.size // 2]
            high = [a for a in starts if a >= lat.size // 2]
            for a in rng.sample(low, 3) + rng.sample(high, 3):
                mq = MembershipOracle.for_function(target)
                got = descend_to_local_min(lat, a, hd, mq, target.evaluate(a), {})
                assert got == DescentResult(a, *brute_descent(lat, a, hd, target.evaluate))
            sides |= {b << 1 < hd.mask.bit_length() for b in read}
            read.clear()
        assert sides == {True, False}


class RecordingOracle(EquivalenceOracle):
    """The shipped oracle, keeping its counterexamples in answer order."""

    def __init__(self, target):
        super().__init__(target)
        self.answers = []

    def query(self, hypothesis):
        cex = super().query(hypothesis)
        if cex is not None:
            self.answers.append(cex)
        return cex


class TestTrace:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_one_descent_per_counterexample(self, data):
        lat = data.draw(LATTICES)
        target = draw_representations(data, lat)[3]
        eq = RecordingOracle(target)
        d = max(len(strict_decompose(target).levels), 1)
        _, stats = learn(d, lat, MembershipOracle.for_function(target), eq)
        assert all(type(r) is DescentResult for r in stats.trace)
        assert [r.counterexample for r in stats.trace] == eq.answers
        assert len(stats.trace) == stats.counterexamples
        # each descent files one new point under its label
        points = [r.element for r in stats.trace]
        assert len(set(points)) == len(points)
        assert sorted(r.element for r in stats.trace if not r.value) == list(stats.x0)
        assert sorted(r.element for r in stats.trace if r.value) == list(stats.x1)
        inspections = [r.inspections for r in stats.trace]
        assert max(inspections, default=0) == stats.max_descent_inspections


class TestWorkedTrace:
    def test_parity_learning_run(self, cube2):
        target = parity_target(cube2)
        mq = MembershipOracle.for_function(target)
        eq = EquivalenceOracle(target)
        h, stats = learn(2, cube2, mq, eq)
        assert h.dense().mask == target.dense().mask
        assert stats.counterexamples == 3
        assert stats.eq_used == 4
        assert stats.eq_bound == 3  # met with equality
        assert stats.x1 == (0b01, 0b10)
        assert stats.x0 == (0b11,)
        assert [lv.minimals for lv in strict_decompose(h).levels] == [(0b01, 0b10), (0b11,)]
        assert stats.counterexamples <= stats.eq_bound
        assert stats.mq_used <= stats.mq_bound

    def test_constant_zero_target(self, cube3):
        target = DenseFunction(cube3, 0)
        mq = MembershipOracle.for_function(target)
        eq = EquivalenceOracle(target)
        h, stats = learn(2, cube3, mq, eq)
        assert stats.eq_used == 1
        assert stats.counterexamples == 0
        assert stats.mq_used == 0
        assert all(h.evaluate(x) == 0 for x in range(cube3.size))

    def test_single_minterm_monotone_run(self, cube3):
        target = MonotoneDNF(cube3, (0b110,))
        mq = MembershipOracle.for_function(target)
        eq = EquivalenceOracle(target)
        h, stats = learn(1, cube3, mq, eq)
        assert [lv.minimals for lv in strict_decompose(h).levels] == [(0b110,)]
        assert stats.counterexamples == 1
        assert stats.eq_used == 2
        assert stats.eq_bound == 1

    def test_degree_too_small(self, cube2):
        target = parity_target(cube2)
        mq = MembershipOracle.for_function(target)
        eq = EquivalenceOracle(target)
        with pytest.raises(DegreeTooSmallError) as exc:
            learn(1, cube2, mq, eq)
        assert exc.value.degree == 1

    def test_explicit_lattice_run(self, diamond):
        p = diamond.parse_element("p")
        target = MonotoneDNF(diamond, (p,))
        mq = MembershipOracle.for_function(target)
        eq = EquivalenceOracle(target)
        h, stats = learn(1, diamond, mq, eq)
        assert h.dense().mask == target.dense().mask
        assert stats.counterexamples == 1
        assert stats.max_descent_inspections <= diamond.sigma()


def random_target(rng, n_lo=3, n_hi=8):
    n = rng.randint(n_lo, n_hi)
    d = rng.randint(1, 3)
    sizes = [rng.randint(1, 3) for _ in range(d)]
    return random_composed(d, sizes, n, seed=rng.randrange(10**9))


class TestLearnerProperties:
    def test_exactness_and_bounds(self):
        rng = random.Random(31)
        for _ in range(40):
            target = random_target(rng)
            lat = target.lattice
            mq = MembershipOracle.for_function(target)
            eq = EquivalenceOracle(target)
            h, stats = learn(target.d, lat, mq, eq)
            assert h.dense().mask == target.dense().mask
            assert stats.eq_bound is not None
            assert stats.counterexamples <= stats.eq_bound
            assert stats.mq_used <= stats.sigma * stats.counterexamples
            assert stats.mq_used <= stats.mq_bound
            assert stats.max_descent_inspections <= lat.sigma()
            assert stats.eq_used == stats.counterexamples + 1

    def test_collected_points_lie_in_join_products(self):
        rng = random.Random(32)
        for _ in range(25):
            target = random_target(rng, n_hi=6)
            lat = target.lattice
            mq = MembershipOracle.for_function(target)
            eq = EquivalenceOracle(target)
            _, stats = learn(target.d, lat, mq, eq)
            allowed = join_products(lat, [g.minimals for g in target.inner])
            assert set(stats.x0) | set(stats.x1) <= allowed

    def test_every_rebuild_agrees_with_collected_points(self):
        rng = random.Random(33)
        for _ in range(15):
            target = random_target(rng, n_hi=6)
            lat = target.lattice
            mq = MembershipOracle.for_function(target)
            eq = EquivalenceOracle(target)
            _, stats = learn(target.d, lat, mq, eq)
            x0, x1 = set(), set()
            for entry in stats.trace:
                (x1 if entry.value else x0).add(entry.element)
                h = consistent(target.d, DenseState(lat, frozenset(x0), frozenset(x1)))
                assert all(h.evaluate(u) == 0 for u in x0)
                assert all(h.evaluate(u) == 1 for u in x1)

    def test_monotone_targets_need_exactly_size_counterexamples(self):
        rng = random.Random(34)
        for _ in range(25):
            lat = CubeLattice(rng.randint(4, 8))
            want = rng.randint(1, 6)
            picks = rng.sample(range(1, lat.size), min(lat.size - 1, want + 6))
            mins = mask_elements(lat.up_and_minimal(elements_mask(picks))[1])[:want]
            target = MonotoneDNF(lat, tuple(mins))
            mq = MembershipOracle.for_function(target)
            eq = EquivalenceOracle(target)
            h, stats = learn(1, lat, mq, eq)
            assert h.dense().mask == target.dense().mask
            assert stats.counterexamples == target.size
            assert stats.eq_bound == target.size

    def test_rebuilds_extend_the_previous_hypothesis(self):
        # with the shipped oracle every settled point on these targets
        # extends one closure, so the full rounds run once, on the empty sample
        for target in (tightness_family(2, 3), tightness_family(3, 2), takimoto_family(2, 2)):
            mq = MembershipOracle.for_function(target)
            with kernel_runs() as runs:
                _, stats = learn(target.d, target.lattice, mq, EquivalenceOracle(target))
            assert stats.counterexamples > 0
            assert runs == [0]

    def test_caching_never_exceeds_raw_inspections(self):
        rng = random.Random(35)
        for _ in range(10):
            target = random_target(rng, n_hi=6)
            mq = MembershipOracle.for_function(target)
            eq = EquivalenceOracle(target)
            _, stats = learn(target.d, target.lattice, mq, eq)
            raw_total = sum(entry.inspections for entry in stats.trace)
            assert stats.mq_used <= raw_total


class HighestIdOracle(EquivalenceOracle):
    """Answers the highest disagreeing id instead of the lowest."""

    def query(self, hypothesis):
        self.eq_count += 1
        diff = hypothesis.dense().mask ^ self.table.mask
        return diff.bit_length() - 1 if diff else None


class SeededRandomOracle(EquivalenceOracle):
    """Answers a disagreeing id drawn by a generator seeded per oracle."""

    def __init__(self, target, seed):
        super().__init__(target)
        self._rng = random.Random(seed)

    def query(self, hypothesis):
        self.eq_count += 1
        diff = hypothesis.dense().mask ^ self.table.mask
        return self._rng.choice(mask_elements(diff)) if diff else None


ORDERS = {
    "highest": HighestIdOracle,
    "random": lambda target: SeededRandomOracle(target, seed=target.lattice.size),
}


def run_both(d, target, make_eq=EquivalenceOracle):
    """``learn`` and ``reference_learn`` on fresh oracles: each one's (h, stats) or error."""
    runs = []
    for run in (learn, reference_learn):
        mq = MembershipOracle.for_function(target)
        eq = make_eq(target)
        try:
            runs.append(run(d, target.lattice, mq, eq))
        except DegreeTooSmallError as exc:
            runs.append((str(exc), exc.degree, exc.point))
    return runs


def assert_same_run(d, target, make_eq=EquivalenceOracle):
    """Both loops agree; returns whether they learned the target."""
    got, want = run_both(d, target, make_eq)
    if isinstance(want[0], str):
        assert got == want
        return False
    (h, stats), (ref_h, ref_stats) = got, want
    # the levels are the strict decomposition of the table
    assert h == ref_h
    for field in (
        "x0",
        "x1",
        "eq_used",
        "mq_used",
        "counterexamples",
        "max_descent_inspections",
        "eq_bound",
        "mq_bound",
        "sigma",
        "trace",
    ):
        assert getattr(stats, field) == getattr(ref_stats, field), field
    return True


def learn_counting_fallbacks(d, target, make_eq):
    """``learn`` under a kernel spy: (h, stats, full-rounds runs on nonempty samples)."""
    with kernel_runs() as runs:
        h, stats = learn(
            d, target.lattice, MembershipOracle.for_function(target), make_eq(target)
        )
    return h, stats, sum(1 for points in runs if points)


class TestAgainstReferenceLoop:
    """The mask-native loop against the point-set loop with a validated rebuild.

    The shipped oracle answers the lowest disagreeing id; the highest-id
    and seeded-random oracles above exercise other counterexample orders.
    """

    @pytest.mark.parametrize(
        "target",
        [
            tightness_family(2, 1),
            tightness_family(2, 3),
            tightness_family(3, 2),
            takimoto_family(2, 1),
            takimoto_family(2, 2),
            nested_blocks_2_1_1(),
            tightness_family(3, 4),
        ],
        ids=["tight2x1", "tight2x3", "tight3x2", "taki2x1", "taki2x2", "taki3x1u", "tight3x4"],
    )
    def test_family_targets(self, target):
        assert_same_run(target.d, target)
        assert_same_run(target.d - 1, target)  # degree too small on both

    def test_seeded_random_composed(self):
        rng = random.Random(36)
        for _ in range(30):
            target = random_target(rng)
            assert_same_run(target.d, target)
            if target.d > 1:
                assert_same_run(target.d - 1, target)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_composed_targets_on_moore_families(self, data):
        _, names, covers = data.draw(moore_families(max_ground=5, max_draws=8))
        lat = ExplicitLattice(names, covers)
        d = data.draw(st.integers(1, 3))
        masks = st.integers(0, (1 << lat.size) - 1)
        inner = tuple(
            MonotoneDNF.from_mask(lat, lat.up_and_minimal(data.draw(masks))[1]) for _ in range(d)
        )
        outer = data.draw(st.integers(0, (1 << (1 << d)) - 1))
        target = ComposedTarget(lat, outer, inner)

        degree = len(strict_decompose(target).levels)
        assert_same_run(max(degree, 1), target)
        if degree > 1:
            assert_same_run(degree - 1, target)
        mq, eq = MembershipOracle.for_function(target), EquivalenceOracle(target)
        h, stats = learn(max(degree, 1), lat, mq, eq)
        assert h.dense().mask == target.dense().mask
        assert stats.max_descent_inspections <= lat.sigma()

        # the decomposition reproduces the target, and its level count is
        # the worst alternation count over the maximal chains
        xor = strict_decompose(target)
        assert xor.dense().mask == target.dense().mask
        assert len(xor.levels) == max_chain_alternations(lat, target.evaluate, maximal_chains(lat))
        assert degree <= d + (outer & 1)

    def test_twelve_dimensional_random_target_under_the_highest_id_order(self):
        # descents move under this order, on a table wide enough that bit
        # reads fall on both sides of its middle
        target = random_composed(3, (4, 4, 4), 12, seed=21)
        assert assert_same_run(target.d, target, HighestIdOracle)
        assert not assert_same_run(target.d - 1, target, HighestIdOracle)

    @pytest.mark.parametrize("order", sorted(ORDERS))
    def test_other_orders_on_family_and_random_targets(self, order):
        # learning stays exact within its bounds, and some rebuilds fall back
        # to the full rounds because an old sample point lies above the new one
        make_eq = ORDERS[order]
        rng = random.Random(38)
        targets = [
            tightness_family(2, 3),
            tightness_family(3, 2),
            takimoto_family(2, 2),
            nested_blocks_2_1_1(),
        ] + [random_target(rng) for _ in range(25)]
        fallbacks = 0
        for target in targets:
            if target.d > 1:
                assert_same_run(target.d - 1, target, make_eq)
            assert assert_same_run(target.d, target, make_eq)
            h, stats, fell_back = learn_counting_fallbacks(target.d, target, make_eq)
            assert h.dense().mask == target.dense().mask
            assert stats.counterexamples <= stats.eq_bound
            assert stats.max_descent_inspections <= target.lattice.sigma()
            fallbacks += fell_back
        assert fallbacks > 0

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), order=st.sampled_from(sorted(ORDERS)))
    def test_other_orders_on_moore_families(self, data, order):
        _, names, covers = data.draw(moore_families(max_ground=5, max_draws=8))
        lat = ExplicitLattice(names, covers)
        d = data.draw(st.integers(1, 3))
        masks = st.integers(0, (1 << lat.size) - 1)
        inner = tuple(
            MonotoneDNF.from_mask(lat, lat.up_and_minimal(data.draw(masks))[1]) for _ in range(d)
        )
        target = ComposedTarget(lat, data.draw(st.integers(0, (1 << (1 << d)) - 1)), inner)
        degree = max(len(strict_decompose(target).levels), 1)
        assert assert_same_run(degree, target, ORDERS[order])
        if degree > 1:
            assert not assert_same_run(degree - 1, target, ORDERS[order])
        h, stats, _ = learn_counting_fallbacks(degree, target, ORDERS[order])
        assert h.dense().mask == target.dense().mask
        assert stats.max_descent_inspections <= lat.sigma()


class TestBoundHelper:
    def test_composed_bound(self, cube3):
        target = ComposedTarget(
            cube3,
            parity_table(2),
            (MonotoneDNF(cube3, (1, 2)), MonotoneDNF(cube3, (4,))),
        )
        assert counterexample_bound(target) == (2 + 1) * (1 + 1) - 1

    def test_mdnf_bound(self, cube3):
        assert counterexample_bound(MonotoneDNF(cube3, (1, 2, 4))) == 3

    def test_absent_for_origin_one_and_dense(self, cube2):
        lifted = ComposedTarget(cube2, parity_table(2) | 1, (MonotoneDNF(cube2, (1,)), MonotoneDNF(cube2, (2,))))
        assert counterexample_bound(lifted) is None
        assert counterexample_bound(DenseFunction(cube2, 5)) is None
        assert counterexample_bound(None) is None


# lattices small enough to play every function's game, and larger ones to
# play seeded functions on; the chain products' ids are shuffled
EVERY_FUNCTION = {
    "cube3": lambda: CubeLattice(3),
    "diamond": lambda: ExplicitLattice(DIAMOND_NAMES, DIAMOND_COVERS),
    "pentagon": lambda: ExplicitLattice(PENTAGON_NAMES, PENTAGON_COVERS),
    "chains3x3": lambda: chain_product((3, 3), random.Random(3))[1],
}
SEEDED_FUNCTIONS = {
    "cube4": lambda: CubeLattice(4),
    "chains2x2x3": lambda: chain_product((2, 2, 3), random.Random(12))[1],
}


class TestEveryCounterexampleOrder:
    """The counterexample and descent bounds under every order the query model allows.

    The shipped oracle answers the lowest disagreeing id, and ``ORDERS``
    the highest and a seeded random one; ``worst_case_run`` answers every
    disagreement in every state, so its values bound each of their runs.
    """

    @staticmethod
    def check(lat, f_mask):
        f = DenseFunction(lat, f_mask)
        levels = strict_decompose(f).levels
        cex, inspections, _ = worst_case_run(lat, f_mask)
        assert cex <= math.prod(lv.size + 1 for lv in levels) - 1
        assert inspections <= lat.sigma()
        for make_eq in (EquivalenceOracle, *ORDERS.values()):
            mq, eq = MembershipOracle.for_function(f), make_eq(f)
            _, stats = learn(len(levels), lat, mq, eq)
            assert stats.counterexamples <= cex
            assert stats.max_descent_inspections <= inspections
            # the game's premise: the hypothesis depends on the sample, not
            # on the order its points came in
            points = [(r.element, r.value) for r in stats.trace]
            tables = set()
            for order in (points, sorted(points), sorted(points, reverse=True)):
                state = DenseState(lat)
                for q, label in order:
                    state.add(q, label)
                tables.add(state.table)
            assert tables == {f_mask}

    @pytest.mark.parametrize("make", EVERY_FUNCTION.values(), ids=EVERY_FUNCTION.keys())
    def test_every_function(self, make):
        lat = make()
        for f_mask in range(1, 1 << lat.size):
            self.check(lat, f_mask)

    @pytest.mark.parametrize("make", SEEDED_FUNCTIONS.values(), ids=SEEDED_FUNCTIONS.keys())
    def test_seeded_functions(self, make):
        lat = make()
        rng = random.Random(lat.size)
        for _ in range(200):
            self.check(lat, rng.randrange(1, 1 << lat.size))


# lattices whose ids are a linear extension of the order: x < y gives
# id x < id y.  Cube ids are one; chain products declared in lexicographic
# order are another
LINEAR_EXTENSIONS = {f"cube{n}": lambda n=n: CubeLattice(n) for n in range(3, 9)} | {
    "chains" + "x".join(map(str, dims)): lambda dims=dims: chain_product(dims)[1]
    for dims in ((3, 3), (5, 6), (2, 3, 4), (2, 2, 2, 3), (3, 4, 5))
}


class TestShippedOrderSweep:
    """On ids that extend the order, the lowest-id teacher sweeps upward.

    The predecessors of the lowest disagreement have lower ids and agree,
    so it is already a local minimum; every earlier sample point has a
    lower id, so none lies in up(q) and the one-point rule applies; and
    the update changes h only on ids above q, so the next counterexample
    lies higher.  Declared top-down, the same grids make descents move and
    the full rounds rerun, so this pins the shipped order, not the theorem.
    """

    @pytest.mark.parametrize("make", LINEAR_EXTENSIONS.values(), ids=LINEAR_EXTENSIONS.keys())
    def test_counterexamples_ascend_without_descents_or_fallbacks(self, make):
        lat = make()
        rng = random.Random(lat.size)
        for _ in range(100):
            f = DenseFunction(lat, rng.randrange(1, 1 << lat.size))
            d = len(strict_decompose(f).levels)
            h, stats, fallbacks = learn_counting_fallbacks(d, f, EquivalenceOracle)
            assert h == f
            ids = [r.counterexample for r in stats.trace]
            assert all(a < b for a, b in zip(ids, ids[1:]))
            assert all(r.steps == 0 for r in stats.trace)
            assert fallbacks == 0
