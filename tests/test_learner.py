import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmono import (
    ComposedTarget,
    CubeLattice,
    DenseFunction,
    EquivalenceOracle,
    ExplicitLattice,
    LabeledSample,
    MembershipOracle,
    MonotoneDNF,
    XorHypothesis,
    consistent,
    counterexample_bound,
    descend_to_local_min,
    learn,
    monotone_degree,
    parity_table,
    random_composed,
    strict_decompose,
    takimoto_family,
    tightness_family,
)
from dmono.errors import DegreeTooSmallError, InvalidElementError
from dmono.lattice import elements_mask, mask_elements

from conftest import moore_families
from oracles import (
    join_products,
    max_chain_alternations,
    maximal_chains,
    reference_learn,
)


def parity_target(lat):
    return ComposedTarget(lat, parity_table(2), (MonotoneDNF(lat, (1,)), MonotoneDNF(lat, (2,))))


def zero_hypothesis(lat):
    return XorHypothesis(lat, ())


LATTICES = st.sampled_from([CubeLattice(4)]) | moore_families(max_ground=5, max_draws=8).map(
    lambda fam: ExplicitLattice(fam[1], fam[2])
)


def draw_representations(data, lat):
    """One function of each of the four representations over ``lat``."""
    mask = st.integers(0, (1 << lat.size) - 1)
    g1, g2 = (MonotoneDNF.from_mask(lat, lat.minimal(data.draw(mask))) for _ in range(2))
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
            assert [mq.query(x) for x in lat.elements()] == [f.evaluate(x) for x in lat.elements()]
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
        d = max(monotone_degree(target), 1)
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
        res = descend_to_local_min(cube2, 0b11, zero_hypothesis(cube2), mq, value=0)
        assert res.element == 0b01
        assert res.steps == 1
        # one query for f(01), one for f(00); f(11) was supplied
        assert mq.mq_count == 2

    def test_local_min_start_returns_unchanged(self, cube3):
        target = MonotoneDNF(cube3, (0b110,))
        mq = MembershipOracle.for_function(target)
        res = descend_to_local_min(cube3, 0b110, zero_hypothesis(cube3), mq, value=1)
        assert res.element == 0b110
        assert res.steps == 0
        # both predecessors inspected, one query each
        assert res.inspections == 2
        assert mq.mq_count == 2

    def test_bottom_start_costs_nothing(self, cube2):
        target = DenseFunction(cube2, 0b0001)  # value 1 only at 00
        mq = MembershipOracle.for_function(target)
        res = descend_to_local_min(cube2, 0b00, zero_hypothesis(cube2), mq, value=1)
        assert res.element == 0b00
        assert res.inspections == 0
        assert mq.mq_count == 0

    def test_contract_violation_detected(self, cube2):
        target = DenseFunction(cube2, 0)
        mq = MembershipOracle.for_function(target)
        with pytest.raises(ValueError, match="counterexample"):
            descend_to_local_min(cube2, 0b00, zero_hypothesis(cube2), mq, value=0)

    def test_queries_start_value_when_not_supplied(self, cube2):
        target = parity_target(cube2)
        mq = MembershipOracle.for_function(target)
        res = descend_to_local_min(cube2, 0b01, zero_hypothesis(cube2), mq)
        assert res.element == 0b01
        assert mq.mq_count == 2  # f(01) itself plus its only predecessor


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
        assert [lv.minimals for lv in h.levels] == [(0b01, 0b10), (0b11,)]
        assert stats.within_bounds()

    def test_constant_zero_target(self, cube3):
        target = DenseFunction(cube3, 0)
        mq = MembershipOracle.for_function(target)
        eq = EquivalenceOracle(target)
        h, stats = learn(2, cube3, mq, eq)
        assert stats.eq_used == 1
        assert stats.counterexamples == 0
        assert stats.mq_used == 0
        assert all(h.evaluate(x) == 0 for x in cube3.elements())

    def test_single_minterm_monotone_run(self, cube3):
        target = MonotoneDNF(cube3, (0b110,))
        mq = MembershipOracle.for_function(target)
        eq = EquivalenceOracle(target)
        h, stats = learn(1, cube3, mq, eq)
        assert [lv.minimals for lv in h.levels] == [(0b110,)]
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
                (x1 if entry["label"] else x0).add(entry["settled"])
                h = consistent(
                    target.d, LabeledSample(lat, frozenset(x0), frozenset(x1))
                )
                assert all(h.evaluate(u) == 0 for u in x0)
                assert all(h.evaluate(u) == 1 for u in x1)

    def test_monotone_targets_need_exactly_size_counterexamples(self):
        rng = random.Random(34)
        for _ in range(25):
            lat = CubeLattice(rng.randint(4, 8))
            want = rng.randint(1, 6)
            picks = rng.sample(range(1, lat.size), min(lat.size - 1, want + 6))
            mins = mask_elements(lat.minimal(elements_mask(picks)))[:want]
            target = MonotoneDNF(lat, tuple(mins))
            mq = MembershipOracle.for_function(target)
            eq = EquivalenceOracle(target)
            h, stats = learn(1, lat, mq, eq)
            assert h.dense().mask == target.dense().mask
            assert stats.counterexamples == target.size
            assert stats.eq_bound == target.size

    def test_caching_never_exceeds_raw_inspections(self):
        rng = random.Random(35)
        for _ in range(10):
            target = random_target(rng, n_hi=6)
            mq = MembershipOracle.for_function(target)
            eq = EquivalenceOracle(target)
            _, stats = learn(target.d, target.lattice, mq, eq)
            raw_total = sum(entry["inspections"] for entry in stats.trace)
            assert stats.mq_used <= raw_total


def run_both(d, target):
    """``learn`` and ``reference_learn`` on fresh oracles: each one's (h, stats) or error."""
    runs = []
    for run in (learn, reference_learn):
        mq = MembershipOracle.for_function(target)
        eq = EquivalenceOracle(target)
        try:
            runs.append(run(d, target.lattice, mq, eq))
        except DegreeTooSmallError as exc:
            runs.append((str(exc), exc.degree, exc.point))
    return runs


def assert_same_run(d, target):
    got, want = run_both(d, target)
    if isinstance(want[0], str):
        assert got == want
        return
    (h, stats), (ref_h, ref_stats) = got, want
    assert [lv.minimals for lv in h.levels] == [lv.minimals for lv in ref_h.levels]
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


class TestAgainstReferenceLoop:
    """The mask-native loop against the point-set loop with a validated rebuild."""

    @pytest.mark.parametrize(
        "target",
        [
            tightness_family(2, 1),
            tightness_family(2, 3),
            tightness_family(3, 2),
            takimoto_family(2, 1),
            takimoto_family(2, 2),
            takimoto_family(3, 1, uneven=True),
        ],
        ids=["tight2x1", "tight2x3", "tight3x2", "taki2x1", "taki2x2", "taki3x1u"],
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
        inner = tuple(
            MonotoneDNF.from_mask(lat, lat.minimal(data.draw(st.integers(0, (1 << lat.size) - 1))))
            for _ in range(d)
        )
        outer = data.draw(st.integers(0, (1 << (1 << d)) - 1))
        target = ComposedTarget(lat, outer, inner)

        degree = monotone_degree(target)
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
