import random
from functools import reduce
from operator import xor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmono import (
    CubeLattice,
    DenseFunction,
    DenseState,
    ExplicitLattice,
    MembershipOracle,
    MonotoneDNF,
    XorHypothesis,
    consistent,
    learn,
    random_composed,
    strict_decompose,
)
from dmono.consistent import consistent_rounds
from dmono.errors import (
    InconsistentSampleError,
    InternalError,
    InvalidElementError,
    InvalidSampleError,
)
from dmono.lattice import elements_mask, mask_elements

from conftest import (
    PENTAGON_COVERS,
    PENTAGON_NAMES,
    kernel_runs,
    moore_families,
    top_down_chain,
)
from oracles import brute_consistent_rounds, brute_strict_levels, brute_up_set


class TestSample:
    @given(st.sets(st.integers(0, 15)), st.sets(st.integers(0, 15)))
    def test_points_round_trip_through_masks(self, x0, x1):
        x0 -= x1
        lat = CubeLattice(4)
        sample = DenseState(lat, x0, x1)
        assert (sample.x0, sample.x1) == (tuple(sorted(x0)), tuple(sorted(x1)))
        assert sample.points == elements_mask(x0 | x1)

    def test_points_read_back_as_ascending_tuples(self, cube3):
        state = DenseState(cube3, [0b110, 0b001], iter((0b111, 0b010)))
        assert (state.x0, state.x1) == ((0b001, 0b110), (0b010, 0b111))

    def test_points_are_checked_before_the_degree(self, cube2):
        # the state validates its points; only ``consistent`` reads d
        with pytest.raises(InvalidElementError):
            consistent(0, DenseState(cube2, (), {0b100}))
        with pytest.raises(InvalidSampleError, match="^point 01 is labeled both 0 and 1$"):
            consistent(0, DenseState(cube2, {0b01}, {0b01}))


def padded_minimals(h, d):
    """The minimals of h's strict decomposition, with empty levels up to d."""
    levels = [lv.minimals for lv in strict_decompose(h).levels]
    return levels + [()] * (d - len(levels))


class TestWorkedExamples:
    def test_single_positive_point(self, cube2):
        h = consistent(1, DenseState(cube2, (), {0b01}))
        assert [lv.minimals for lv in strict_decompose(h).levels] == [(0b01,)]

    def test_parity_sample(self, cube2):
        h = consistent(2, DenseState(cube2, {0b11}, {0b01, 0b10}))
        assert [lv.minimals for lv in strict_decompose(h).levels] == [(0b01, 0b10), (0b11,)]
        assert h.evaluate(0b11) == 0
        assert h.evaluate(0b01) == 1 and h.evaluate(0b10) == 1

    def test_empty_sample_is_the_zero_table(self, cube2):
        h = consistent(2, DenseState(cube2))
        assert h == DenseFunction(cube2, 0)
        assert strict_decompose(h).levels == ()


class TestErrors:
    def test_overlap_rejected(self, cube2):
        with pytest.raises(InvalidSampleError):
            DenseState(cube2, {0b01}, {0b01})

    def test_overlap_names_the_lowest_shared_point(self, cube3):
        with pytest.raises(InvalidSampleError, match="^point 011 is labeled both 0 and 1$"):
            DenseState(cube3, {0b101, 0b011, 0b001}, {0b111, 0b101, 0b011})

    def test_out_of_lattice_point_rejected(self, cube2):
        with pytest.raises(InvalidElementError):
            DenseState(cube2, (), {0b100})
        with pytest.raises(InvalidElementError):
            DenseState(cube2, {-1}, ())
        with pytest.raises(InvalidElementError):
            DenseState(cube2, {0b01}, {0b01, 0b100})

    def test_degree_must_be_positive(self, cube2):
        with pytest.raises(ValueError, match="^degree must be at least 1$"):
            consistent(0, DenseState(cube2))
        with pytest.raises(ValueError, match="^degree must be at least 1$"):
            consistent(-1, DenseState(cube2, (), {0b01}))
        target = MonotoneDNF(cube2, (0b01,))
        with pytest.raises(ValueError, match="at least 1"):
            learn(0, cube2, MembershipOracle.for_function(target), ReplayingOracle([]))

    def test_unsatisfiable_sample_names_point(self, cube2):
        # x1 xor x2 labels are not monotone-realizable
        with pytest.raises(InconsistentSampleError) as exc:
            consistent(1, DenseState(cube2, {0b11}, {0b01, 0b10}))
        assert exc.value.point == 0b11
        assert "11" in str(exc.value)

    def test_violation_names_the_lowest_surviving_point(self, cube3):
        # both negatives lie above the positive 001; the error names 011
        with pytest.raises(InconsistentSampleError) as exc:
            consistent(1, DenseState(cube3, {0b011, 0b101}, {0b001}))
        assert exc.value.point == 0b011


class TestProperties:
    @staticmethod
    def _random_case(rng):
        # sizes up to 3 need n >= 3: the widest antichain of the 2-cube has 2 points
        n = rng.randint(3, 8)
        d = rng.randint(1, 3)
        sizes = [rng.randint(1, 3) for _ in range(d)]
        target = random_composed(d, sizes, n, seed=rng.randrange(10**9))
        lat = target.lattice
        points = rng.sample(range(lat.size), min(lat.size, rng.randint(1, 15)))
        x0 = {x for x in points if not target.evaluate(x)}
        x1 = {x for x in points if target.evaluate(x)}
        return d, lat, DenseState(lat, x0, x1)

    def test_agrees_with_every_label(self):
        rng = random.Random(2024)
        for _ in range(60):
            d, lat, sample = self._random_case(rng)
            h = consistent(d, sample)
            for x in sample.x0:
                assert h.evaluate(x) == 0
            for x in sample.x1:
                assert h.evaluate(x) == 1

    def test_output_shape_and_degree(self):
        rng = random.Random(2025)
        for _ in range(40):
            d, lat, sample = self._random_case(rng)
            h = consistent(d, sample)
            assert len(strict_decompose(h).levels) <= d

    def test_output_is_its_own_strict_decomposition(self):
        rng = random.Random(2026)
        for _ in range(40):
            d, lat, sample = self._random_case(rng)
            h = consistent(d, sample)
            levels, _, _ = brute_consistent_rounds(lat, d, sample.x0, sample.x1)
            assert padded_minimals(h, d) == [tuple(lv) for lv in levels]

    def test_minterms_come_from_the_sample(self):
        rng = random.Random(2027)
        for _ in range(40):
            d, lat, sample = self._random_case(rng)
            h = consistent(d, sample)
            union = set(sample.x0) | set(sample.x1)
            levels = strict_decompose(h).levels
            for lv in levels:
                assert set(lv.minimals) <= union
                assert lv.size <= len(union)
            assert sum(lv.size for lv in levels) <= d * len(union)

    def test_zero_levels_only_trail(self):
        rng = random.Random(2028)
        for _ in range(40):
            d, lat, sample = self._random_case(rng)
            h = consistent(d, sample)
            # the decomposition holds no zero level, so a record's padding
            # to d puts every zero level after the others
            assert all(lv.size for lv in strict_decompose(h).levels)


EXPLICIT_KERNEL_LATTICES = st.sampled_from(
    [ExplicitLattice(PENTAGON_NAMES, PENTAGON_COVERS), top_down_chain(5)]
) | moore_families().map(lambda fam: ExplicitLattice(fam[1], fam[2]))
KERNEL_LATTICES = st.sampled_from([CubeLattice(2), CubeLattice(4)]) | EXPLICIT_KERNEL_LATTICES


def draw_sample_masks(data, lat):
    points = data.draw(st.integers(0, (1 << lat.size) - 1))
    s1 = data.draw(st.integers(0, (1 << lat.size) - 1)) & points
    return points & ~s1, s1


class TestKernel:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_agrees_with_public_consistent(self, data):
        lat = data.draw(KERNEL_LATTICES)
        s0, s1 = draw_sample_masks(data, lat)
        x0, x1 = mask_elements(s0), mask_elements(s1)
        closures, minimals, table = full_rounds(lat, s0 | s1, s1)
        d = max(1, len(closures)) + data.draw(st.integers(0, 1))
        h = consistent(d, DenseState(lat, x0, x1))
        levels = [lat.up_and_minimal(up)[1] for up in closures]
        assert minimals == levels
        brute_levels = brute_consistent_rounds(lat, len(closures), x0, x1)[0]
        assert [mask_elements(m) for m in minimals] == brute_levels
        padded = levels + [0] * (d - len(levels))
        assert padded_minimals(h, d) == [tuple(mask_elements(m)) for m in padded]
        assert h.dense().mask == table
        # the table is the XOR of the wrapped levels' up-closures, which are
        # the kernel's closures, strictly nested
        wrapped = XorHypothesis(lat, tuple(MonotoneDNF.from_mask(lat, m) for m in levels))
        assert table == wrapped.dense().mask
        assert closures == [lv.dense().mask for lv in wrapped.levels]
        assert all(lo & hi == hi != lo for lo, hi in zip(closures, closures[1:]))
        assert all(closures)
        assert table & s1 == s1 and table & s0 == 0

    def test_a_round_runs_when_it_is_taken(self, cube3, monkeypatch):
        # positives 001 and 111 around the negative 011 take three rounds
        calls = []
        kernel = cube3.up_and_minimal
        monkeypatch.setattr(cube3, "up_and_minimal", lambda m: calls.append(m) or kernel(m))
        points, s1 = 1 << 0b001 | 1 << 0b011 | 1 << 0b111, 1 << 0b001 | 1 << 0b111
        assert next(consistent_rounds(cube3, points, s1)) == kernel(s1)
        assert calls == [s1]
        assert len(list(consistent_rounds(cube3, points, s1))) == 3

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_rounds_match_brute_rounds(self, data):
        lat = data.draw(KERNEL_LATTICES)
        s0, s1 = draw_sample_masks(data, lat)
        assert_kernel_matches_brute(lat, s0, s1)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_every_degree_matches_brute_rounds(self, data):
        # the state holds as many closures as the sample needs levels: the
        # degree of its table; every d reads the same state, refusing below it
        lat = data.draw(KERNEL_LATTICES)
        s0, s1 = draw_sample_masks(data, lat)
        x0, x1 = mask_elements(s0), mask_elements(s1)
        state = DenseState(lat, x0, x1)
        assert len(state.closures) == len(strict_decompose(DenseFunction(lat, state.table)).levels)
        for d in range(1, len(state.closures) + 2):
            levels, table, violated = brute_consistent_rounds(lat, d, x0, x1)
            got = outcome(d, state)
            if violated is None:
                assert got == ([tuple(lv) for lv in levels], elements_mask(table))
            else:
                message = (
                    f"no {d}-monotone function matches the sample "
                    f"(violated at {lat.element_name(violated)})"
                )
                assert got == ("error", violated, message)
            assert (violated is None) == (d >= len(state.closures))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_explicit_kernels_never_take_the_shadow(self, data):
        # on explicit lattices the level masks come from the lower-cover
        # test on the mask's own points; there is no dense shadow to take
        assert not hasattr(ExplicitLattice, "shadow")
        lat = data.draw(EXPLICIT_KERNEL_LATTICES)
        s0, s1 = draw_sample_masks(data, lat)
        f = DenseFunction(lat, data.draw(st.integers(0, (1 << lat.size) - 1)))
        assert_kernel_matches_brute(lat, s0, s1)
        levels = [list(lv.minimals) for lv in strict_decompose(f).levels]
        assert levels == brute_strict_levels(lat, f.evaluate)


    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_levels_are_the_strict_decomposition_of_the_table(self, data):
        # a minimal element of closure i never lies in closure i+1, so
        # decomposing the table peels off exactly the rounds' levels
        lat = data.draw(KERNEL_LATTICES)
        d = data.draw(st.integers(1, 3))
        points = data.draw(st.integers(0, (1 << lat.size) - 1))
        labels = 0
        for _ in range(d):
            labels ^= lat.up_closure(data.draw(st.integers(0, (1 << lat.size) - 1)))
        x0, x1 = mask_elements(points & ~labels), mask_elements(points & labels)
        h = consistent(d, DenseState(lat, x0, x1))
        # the trusted table is one the checking constructor accepts
        assert h == DenseFunction(lat, h.mask)
        decomposed = strict_decompose(h).levels
        assert len(decomposed) <= d
        levels, _, violated = brute_consistent_rounds(lat, d, x0, x1)
        assert violated is None
        assert padded_minimals(h, d) == [tuple(lv) for lv in levels]


def full_rounds(lat, points, s1):
    """The rounds' closures, their minimal masks and the closures' XOR, the table."""
    rounds = list(consistent_rounds(lat, points, s1))
    closures = [up for up, _ in rounds]
    return closures, [low for _, low in rounds], reduce(xor, closures, 0)


def assert_kernel_matches_brute(lat, s0, s1):
    x0, x1 = mask_elements(s0), mask_elements(s1)
    closures, minimals, got_table = full_rounds(lat, s0 | s1, s1)
    # each round's level holds at least one sample point, so as many rounds
    # as points explain the sample, the last ones empty
    rounds = len(x0) + len(x1)
    levels, table, violated = brute_consistent_rounds(lat, rounds, x0, x1)
    assert violated is None
    assert not any(levels[len(closures):])
    levels = levels[: len(closures)]
    # level i is the minimal elements of closure i, which is its up-set
    got_levels = [lat.up_and_minimal(up)[1] for up in closures]
    assert [mask_elements(m) for m in got_levels] == levels
    assert [mask_elements(m) for m in minimals] == levels
    assert [set(mask_elements(up)) for up in closures] == [brute_up_set(lat, lv) for lv in levels]
    assert set(mask_elements(got_table)) == table


def outcome(d, sample):
    """The hypothesis's levels, padded to d, and table, or the error's point and text."""
    try:
        h = consistent(d, sample)
    except InconsistentSampleError as exc:
        return ("error", exc.point, str(exc))
    return padded_minimals(h, d), h.mask


def sample_outcome(lat, d, x0, x1):
    """``outcome`` of a fresh state holding the sample, which runs the full rounds."""
    return outcome(d, DenseState(lat, x0, x1))


def add_outcome(d, state, q, label):
    """``outcome`` of ``consistent`` at d on the state after ``state.add(q, label)``."""
    state.add(q, label)
    return outcome(d, state)


def draw_labels(data, lat, d):
    """A random table, or a d-monotone one: the XOR of d up-closures."""
    full = (1 << lat.size) - 1
    if data.draw(st.booleans()):
        return data.draw(st.integers(0, full))
    table = 0
    for _ in range(d):
        table ^= lat.up_closure(data.draw(st.integers(0, full)))
    return table


def labeled(points, labels):
    """The points' negatives and positives under ``labels``, each ascending."""
    points = sorted(points)
    return [p for p in points if not labels >> p & 1], [p for p in points if labels >> p & 1]


def rule_applies(lat, old_points, labels, q):
    """The one-point rule, decided by order scans on the old sample's rounds.

    True when q's rank equals the number of old closures holding it, or is
    one more with every old point above q inside that closure; a rank one
    past every old closure opens an empty one, so no old point may lie
    above q.
    """
    x0 = [p for p in old_points if not labels >> p & 1]
    x1 = [p for p in old_points if labels >> p & 1]
    levels, _, violated = brute_consistent_rounds(lat, len(old_points), x0, x1)
    assert violated is None
    closures = [brute_up_set(lat, lv) for lv in levels if lv]
    held = sum(q in up for up in closures)
    rank = held + ((labels >> q & 1) - held) % 2
    if rank == held:
        return True
    closure = closures[rank - 1] if rank <= len(closures) else set()
    return all(p in closure for p in old_points if lat.leq(q, p))


class TestOnePointExtension:
    """``DenseState.add``'s join against the full rounds and brute force."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_every_step_matches_the_full_rounds(self, data):
        lat = data.draw(KERNEL_LATTICES)
        d = data.draw(st.integers(1, 3))
        labels = draw_labels(data, lat, d)
        order = data.draw(st.permutations(range(lat.size)))
        state = DenseState(lat)
        for k, q in enumerate(order):
            x0, x1 = labeled(order[: k + 1], labels)
            with kernel_runs() as runs:
                state.add(q, labels >> q & 1)
            # right after the add, before any read-out, the state is the
            # full rounds on the grown sample
            fresh = DenseState(lat, x0, x1)
            assert (state.points, state.closures, state.table) == (
                fresh.points, fresh.closures, fresh.table
            )
            # the labels read back from the table are the sample's
            assert (state.x0, state.x1) == (tuple(x0), tuple(x1))
            # the full rounds run exactly when the one-point rule fails
            assert bool(runs) != rule_applies(lat, order[:k], labels, q)
            with kernel_runs() as runs:
                got = outcome(d, state)
            assert runs == []
            assert got == sample_outcome(lat, d, x0, x1)
            levels, table, violated = brute_consistent_rounds(lat, d, x0, x1)
            if violated is None:
                assert got == ([tuple(lv) for lv in levels], elements_mask(table))
                continue
            assert got[:2] == ("error", violated)
            # the refused state answers one degree up without a rebuild
            with kernel_runs() as runs:
                again = outcome(d + 1, state)
            assert runs == []
            assert again == sample_outcome(lat, d + 1, x0, x1)

    def test_earlier_hypotheses_stay_as_they_were(self, cube3):
        state = DenseState(cube3)
        state.add(0b011, 1)
        h = consistent(2, state)
        # 001 takes rank 1 too, so closure 1 grows in place to up(001);
        # h, decomposed only afterwards, must keep its own table
        with kernel_runs() as runs:
            state.add(0b001, 1)
            grown = consistent(2, state)
        assert runs == []
        assert padded_minimals(grown, 2) == [(0b001,), ()]
        assert padded_minimals(h, 2) == [(0b011,), ()]
        assert h.dense().mask == cube3.up_closure(1 << 0b011)

    def test_the_first_add_joins_its_point(self, cube3):
        state = DenseState(cube3)
        state.add(0b011, 1)
        up = cube3.up_closure(1 << 0b011)
        assert (state.points, state.closures, state.table) == (1 << 0b011, [up], up)
        state.add(0b001, 0)
        assert state.points == 1 << 0b011 | 1 << 0b001
        assert (state.x0, state.x1) == ((0b001,), (0b011,))
        assert outcome(2, state) == outcome(2, DenseState(cube3, {0b001}, {0b011}))

    def test_a_sample_point_is_refused_and_dropped(self, cube3):
        state = DenseState(cube3, {0b011}, {0b001})
        before = (state.points, list(state.closures), state.table)
        with pytest.raises(InternalError, match="^point 011 is already in the sample$"):
            state.add(0b011, 1)
        assert (state.points, state.closures, state.table) == before
        assert outcome(2, state) == outcome(2, DenseState(cube3, {0b011}, {0b001}))

    def test_consistent_runs_no_closure_kernel(self, cube3, monkeypatch):
        state = DenseState(cube3)
        for q, label in ((0b001, 1), (0b011, 0), (0b111, 1), (0b000, 0)):
            state.add(q, label)
        before = (state.points, list(state.closures), state.table)
        closures = []
        closure = cube3.up_closure

        def counted(mask):
            closures.append(mask)
            return closure(mask)

        monkeypatch.setattr(cube3, "up_closure", counted)
        # three closures: d = 1 and 2 are refused, d = 3 is answered
        with kernel_runs() as runs:
            got = [outcome(d, state) for d in (1, 2, 3)]
        assert (runs, closures) == ([], [])
        assert (state.points, state.closures, state.table) == before
        # the counter sees the closures that an add makes
        state.add(0b010, 1)
        assert closures
        monkeypatch.undo()
        x0, x1 = {0b011, 0b000}, {0b001, 0b111}
        assert got == [sample_outcome(cube3, d, x0, x1) for d in (1, 2, 3)]
        assert got[0][0] == got[1][0] == "error"

    @pytest.mark.parametrize(
        "q, label, error, message",
        [
            (5, 1, InvalidElementError, "^5 is not an element of cube:2$"),
            (4, 1, InvalidElementError, "^4 is not an element of cube:2$"),
            (-1, 1, InvalidElementError, "^-1 is not an element of cube:2$"),
            (None, 0, InvalidElementError, "^None is not an element of cube:2$"),
            (0b01, 2, ValueError, "^a label is 0 or 1, not 2$"),
            (0b01, -1, ValueError, "^a label is 0 or 1, not -1$"),
            (0b01, 1.0, ValueError, r"^a label is 0 or 1, not 1\.0$"),
        ],
    )
    def test_a_bad_add_is_refused_before_anything_is_filed(self, cube2, q, label, error, message):
        state = DenseState(cube2, {0b00}, {0b10})
        state.add(0b11, 0)
        before = (state.points, list(state.closures), state.table)
        with pytest.raises(error, match=message):
            state.add(q, label)
        assert (state.points, state.closures, state.table) == before
        assert outcome(2, state) == outcome(2, DenseState(cube2, {0b00, 0b11}, {0b10}))

    def test_point_above_a_lower_rank_falls_back(self, cube2):
        # 11 is a negative of rank 0; the positive 01 below it takes rank 1
        # and lifts 11 to rank 2, which only the full rounds see
        state = DenseState(cube2, {0b11}, ())
        with kernel_runs() as runs:
            got = add_outcome(2, state, 0b01, 1)
        assert runs == [0b1010]
        assert got[0] == [(0b01,), (0b11,)]

    def test_counterexample_extends_one_closure(self, cube3):
        # 011's rank is one past the only closure, so it opens a second one
        state = DenseState(cube3, (), {0b001})
        with kernel_runs() as runs:
            got = add_outcome(2, state, 0b011, 0)
        assert runs == []
        assert got == ([(0b001,), (0b011,)], 0b00100010)
        assert state.closures == [cube3.up_closure(1 << q) for q in (0b001, 0b011)]

    def test_rank_beyond_d_raises_as_the_full_rounds(self, cube3):
        # 011 opens a second closure by itself; d = 1 refuses it at read-out,
        # and the state keeps it, so d = 2 answers with no rebuild
        state = DenseState(cube3, (), {0b001})
        with kernel_runs() as runs:
            got = add_outcome(1, state, 0b011, 0)
            again = outcome(2, state)
        assert runs == []
        assert got == sample_outcome(cube3, 1, {0b011}, {0b001}) == (
            "error", 0b011, "no 1-monotone function matches the sample (violated at 011)"
        )
        assert (state.x0, state.x1) == ((0b011,), (0b001,))
        assert again == sample_outcome(cube3, 2, {0b011}, {0b001})


class ReplayingOracle:
    """Equivalence oracle answering from a fixed script of points, then YES."""

    def __init__(self, points):
        self._points = list(points)
        self.eq_count = 0

    def query(self, hypothesis):
        self.eq_count += 1
        return self._points.pop(0) if self._points else None


class TestLearnerInvariant:
    def test_repeated_point_is_an_internal_error(self, cube2):
        # f = x1: the first 01 settles at 01 as a positive; offering 01
        # again makes the descent settle there a second time
        target = MonotoneDNF(cube2, (0b01,))
        mq = MembershipOracle.for_function(target)
        with pytest.raises(InternalError, match="01.*already in the sample"):
            learn(1, cube2, mq, ReplayingOracle([0b01, 0b01]))
