import copy
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmono import (
    ComposedTarget,
    CubeLattice,
    DenseFunction,
    DenseState,
    ExplicitLattice,
    MonotoneDNF,
    XorHypothesis,
    chain_alternations,
    consistent,
    dumps_function,
    nested_disjoint_violation,
    parity_table,
    prefix_levels,
    strict_decompose,
)
from dmono.errors import InternalError, InvalidChainError, InvalidElementError
from dmono.fileio import function_to_doc, load_function
from dmono.learner import EquivalenceOracle, MembershipOracle
from dmono.lattice import elements_mask, mask_elements

from conftest import (
    DIAMOND_COVERS,
    DIAMOND_NAMES,
    PENTAGON_COVERS,
    PENTAGON_NAMES,
    chain_product,
    checked_ids,
    moore_families,
    top_down_chain,
)
from oracles import (
    brute_antichain_pair,
    brute_closure_value,
    brute_consistent_rounds,
    brute_global_min,
    brute_local_min,
    brute_mask_elements,
    brute_table,
    brute_up_set,
    brute_value,
    join_products,
    max_chain_alternations,
    maximal_chains_cube,
)


def random_antichain(rng, lat, max_size=3):
    want = rng.randint(1, max_size)
    picks = rng.sample(range(1, lat.size), min(want, lat.size - 1))
    return tuple(mask_elements(lat.up_and_minimal(elements_mask(picks))[1]))


def random_mdnf(rng, lat, max_size=3):
    return MonotoneDNF(lat, random_antichain(rng, lat, max_size))


def xor12(lat):
    """x1 xor x2 as a composed parity of two single-variable minterms."""
    return ComposedTarget(lat, parity_table(2), (MonotoneDNF(lat, (1,)), MonotoneDNF(lat, (2,))))


class TestEvaluate:
    def test_mdnf_example(self, cube2):
        g = MonotoneDNF(cube2, (0b01, 0b10))
        assert g.evaluate(0b11) == 1
        assert g.evaluate(0b00) == 0

    def test_composed_parity_example(self, cube2):
        f = xor12(cube2)
        assert f.evaluate(0b11) == 0
        for x in range(cube2.size):
            assert f.evaluate(x) == (x & 1) ^ (x >> 1 & 1)

    def test_empty_xor_is_zero(self, cube2):
        h = XorHypothesis(cube2, ())
        assert all(h.evaluate(x) == 0 for x in range(cube2.size))

    def test_off_lattice_ids_rejected(self, cube2, tmp_path):
        path = tmp_path / "zero.json"
        path.write_text('{"lattice": {"cube": 2}, "repr": "xor", "payload": []}')
        g = MonotoneDNF(cube2, (0b01,))
        functions = [
            DenseFunction(cube2, 0b0110),
            g,
            MonotoneDNF(cube2, ()),
            MonotoneDNF.from_mask(cube2, 0b0010),
            XorHypothesis(cube2, (g,)),
            consistent(1, DenseState(cube2, (), {0b01})),
            strict_decompose(DenseFunction(cube2, 0)),
            load_function(path)[0],
            xor12(cube2),
        ]
        for f in functions:
            for bad in (-1, cube2.size, None):
                with pytest.raises(InvalidElementError, match="is not an element of cube:2"):
                    f.evaluate(bad)

    def test_outer_origin_bit_applies_at_real_elements(self, cube2):
        # no special-casing of the all-zero inner tuple away from the bottom
        f = ComposedTarget(cube2, 0b0001, (MonotoneDNF(cube2, (0b11,)),))
        assert f.evaluate(0b00) == 1
        assert f.evaluate(0b11) == 0

    def test_dense_roundtrip(self, cube2):
        f = DenseFunction.from_bits(cube2, "0110")
        assert f.bits() == "0110"
        assert [f.evaluate(x) for x in range(cube2.size)] == [0, 1, 1, 0]

    @pytest.mark.parametrize("bits", ["0000", "1111", "1000", "0001", "0011"])
    def test_bits_roundtrip_edge_tables(self, cube2, bits):
        f = DenseFunction.from_bits(cube2, bits)
        assert [f.evaluate(x) for x in range(cube2.size)] == [int(ch) for ch in bits]
        assert f.bits() == bits

    # int(..., 2) reads fullwidth and Arabic-Indic digits and underscores;
    # a lone surrogate, as a JSON escape can give, cannot be encoded
    @pytest.mark.parametrize(
        "bits",
        ["011", "01100", "01_1", " 011", "0121", "01", "01100000", "０１１０", "01١0"]
        + ["０１", "0_1", "01\ud800", " 01", "01\ud8000"],
    )
    def test_from_bits_rejects_malformed_tables(self, cube2, bits):
        with pytest.raises(ValueError, match=r"exactly 2\^2 characters of 0/1"):
            DenseFunction.from_bits(cube2, bits)

    def test_from_bits_names_an_explicit_lattice_by_its_size(self, chain4):
        with pytest.raises(ValueError, match="exactly 4 characters of 0/1"):
            DenseFunction.from_bits(chain4, "01")


DENSE_LATTICES = [
    CubeLattice(1),
    CubeLattice(3),
    CubeLattice(5),
    ExplicitLattice(DIAMOND_NAMES, DIAMOND_COVERS),
    ExplicitLattice(PENTAGON_NAMES, PENTAGON_COVERS),
]


class TestComposedDense:
    @pytest.mark.parametrize("origin", [0, 1])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_pointwise_evaluate(self, origin, data):
        lat = data.draw(
            st.sampled_from(DENSE_LATTICES)
            | moore_families().map(lambda fam: ExplicitLattice(fam[1], fam[2]))
        )
        d = data.draw(st.integers(1, 3))
        masks = st.integers(0, (1 << lat.size) - 1)
        inner = tuple(
            MonotoneDNF.from_mask(lat, lat.up_and_minimal(data.draw(masks))[1]) for _ in range(d)
        )
        outer = data.draw(st.integers(0, (1 << (1 << d)) - 1)) & ~1 | origin
        f = ComposedTarget(lat, outer, inner)
        assert f.dense().mask == elements_mask(x for x in range(lat.size) if f.evaluate(x))

    @pytest.mark.parametrize("origin", [0, 1])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_normal_form_table_matches_brute_table(self, origin, data):
        # the table from outer's algebraic normal form against the table of
        # pointwise evaluation, up to d = 6 inner functions
        lat = data.draw(st.integers(1, 6).map(CubeLattice) | shuffled_chain_products())
        d = data.draw(st.integers(1, 6))
        masks = st.integers(0, (1 << lat.size) - 1)
        inner = tuple(
            MonotoneDNF.from_mask(lat, lat.up_and_minimal(data.draw(masks))[1]) for _ in range(d)
        )
        outer = data.draw(st.integers(0, (1 << (1 << d)) - 1)) & ~1 | origin
        f = ComposedTarget(lat, outer, inner)
        assert f.dense() == brute_table(lat, f.evaluate)

    def test_table_is_built_once_per_target(self, monkeypatch):
        # both oracles of a learn run read one target's table, so its inner
        # closures are built once, not once per oracle
        lat = CubeLattice(6)
        inner = tuple(MonotoneDNF(lat, (1 << i,)) for i in range(3))
        t = ComposedTarget(lat, parity_table(3), inner)
        assert t.dense() is t.dense()
        fresh = ComposedTarget(lat, t.outer, t.inner)
        calls = []
        closure = lat.up_closure
        monkeypatch.setattr(lat, "up_closure", lambda m: calls.append(m) or closure(m))
        oracles = EquivalenceOracle(fresh), MembershipOracle.for_function(fresh)
        assert len(calls) == fresh.d == 3
        assert oracles[0].table is fresh.dense()

    def test_read_table_leaves_equality_hash_and_copies_alone(self, cube3):
        t, fresh = xor12(cube3), xor12(cube3)
        table = t.dense()
        assert t == fresh and hash(t) == hash(fresh) and repr(t) == repr(fresh)
        copied = copy.deepcopy(t)
        assert copied == fresh and hash(copied) == hash(fresh)
        assert copied.dense() == table
        assert copy.deepcopy(fresh) == t


# each builds one function on cube:3, by one of the four representations'
# constructors; a second call builds an equal instance
BUILDS = {
    "dense": lambda lat: DenseFunction(lat, 0b10110110),
    "mdnf": lambda lat: MonotoneDNF(lat, (0b011, 0b101)),
    "mdnf-from-mask": lambda lat: MonotoneDNF.from_mask(lat, 1 << 0b011 | 1 << 0b101),
    "xor-levels": lambda lat: XorHypothesis(
        lat, (MonotoneDNF(lat, (0b001,)), MonotoneDNF(lat, (0b011,)))
    ),
    "composed": xor12,
}


class TestTableBuiltOnce:
    @pytest.mark.parametrize("build", BUILDS.values(), ids=BUILDS.keys())
    def test_second_read_returns_the_same_table(self, cube3, build):
        f, fresh = build(cube3), build(cube3)
        table = f.dense()
        assert f.dense() is table
        # the kept table is invisible to equality, hashing and repr
        assert f == fresh and hash(f) == hash(fresh) and repr(f) == repr(fresh)
        assert fresh.dense() == table

    def test_composed_table_keeps_no_inner_tables(self, cube3):
        t = xor12(cube3)
        t.dense()
        assert all("_dense" not in g.__dict__ for g in t.inner)

    def test_xor_levels_share_their_kept_tables(self, monkeypatch):
        lat = CubeLattice(3)
        h = BUILDS["xor-levels"](lat)
        calls = []
        closure = lat.up_closure
        monkeypatch.setattr(lat, "up_closure", lambda m: calls.append(m) or closure(m))
        h.dense()
        assert nested_disjoint_violation(h) is None
        assert len(calls) == len(h.levels) == 2


class TestAntichainForms:
    """A monotone DNF built from a mask and one built from a tuple are one function."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_mask_and_tuple_forms_agree(self, data):
        lat = data.draw(
            st.integers(1, 8).map(CubeLattice)
            | st.sampled_from(DENSE_LATTICES + [top_down_chain(5)])
            | moore_families().map(lambda fam: ExplicitLattice(fam[1], fam[2]))
        )
        mins = lat.up_and_minimal(data.draw(st.integers(0, (1 << lat.size) - 1)))[1]
        elems = tuple(brute_mask_elements(mins))

        def fresh():
            # neither form derived yet; the constructor gets them unsorted
            return MonotoneDNF.from_mask(lat, mins), MonotoneDNF(lat, elems[::-1])

        by_mask, by_tuple = fresh()
        assert by_mask.size == by_tuple.size == len(elems)
        by_mask, by_tuple = fresh()
        assert by_mask == by_tuple and by_tuple == by_mask
        assert hash(by_mask) == hash(by_tuple)
        by_mask, by_tuple = fresh()
        assert by_mask.minimals == by_tuple.minimals == elems
        assert by_mask.mask == by_tuple.mask == mins
        up = elements_mask(brute_up_set(lat, elems))
        assert by_mask.dense().mask == by_tuple.dense().mask == up
        for x in range(lat.size):
            assert by_mask.evaluate(x) == by_tuple.evaluate(x) == up >> x & 1
        # both forms known on both sides now: masks are compared
        assert by_mask == by_tuple and hash(by_mask) == hash(by_tuple)
        if isinstance(lat, CubeLattice):
            docs = [function_to_doc(g) for g in fresh()]
            assert docs[0] == docs[1] == {
                "lattice": {"cube": lat.n},
                "repr": "mdnf",
                "payload": [lat.element_name(a) for a in elems],
            }
            assert MonotoneDNF.from_mask(CubeLattice(lat.n + 1), mins) != by_mask

        # moving one element (or adding one to an empty antichain) is a
        # different function, whichever forms meet
        outside = [x for x in range(lat.size) if not mins >> x & 1]
        if not outside:
            return
        b = data.draw(st.sampled_from(outside))
        a = data.draw(st.sampled_from(elems)) if elems else None
        moved = mins & ~(0 if a is None else 1 << a) | 1 << b
        for g in fresh() + tuple(fresh()[::-1]):
            assert MonotoneDNF.from_mask(lat, moved) != g
            assert g != MonotoneDNF.from_mask(lat, moved)
            if lat.up_and_minimal(moved)[1] == moved:
                assert MonotoneDNF(lat, tuple(brute_mask_elements(moved))) != g

    @pytest.mark.parametrize("n", [30, 64])
    def test_constructor_form_builds_no_mask(self, n):
        # a mask reaching the top coordinates would take 2^(n-1) bits
        lat = CubeLattice(n)
        points = tuple(1 << j for j in range(n - 4, n))
        tracemalloc.start()
        try:
            g, same = MonotoneDNF(lat, points[::-1]), MonotoneDNF(lat, points)
            other = MonotoneDNF(lat, points[1:] + (1,))
            assert g.size == 4 and g.minimals == points
            assert g == same and g != other and hash(g) == hash(same)
            target = ComposedTarget(lat, parity_table(2), (g, other))
            text = dumps_function(target, {"family": "random", "n": n})
            assert f'"1{"0" * (n - 1)}"' in dumps_function(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert all("mask" not in f.__dict__ for f in (g, same, other))
        assert '"repr": "composed"' in text


class TestValidation:
    def test_non_antichain_rejected(self, cube2):
        with pytest.raises(ValueError, match="antichain"):
            MonotoneDNF(cube2, (0b01, 0b11))

    @pytest.mark.parametrize(
        "lat, points",
        [(CubeLattice(k), tuple(1 << j for j in range(k))) for k in (1, 2, 6)]
        + [(ExplicitLattice(DIAMOND_NAMES, DIAMOND_COVERS), (1, 2))],
        ids=["cube1", "cube2", "cube6", "diamond"],
    )
    def test_each_point_is_checked_once(self, monkeypatch, lat, points):
        # the pairwise antichain test asks the unchecked order
        checked = checked_ids(monkeypatch, lat)
        MonotoneDNF(lat, points)
        assert sorted(checked) == sorted(points)

    def test_duplicates_collapse(self, cube2):
        assert MonotoneDNF(cube2, (0b01, 0b01)).minimals == (0b01,)

    def test_outer_table_must_fit(self, cube2):
        with pytest.raises(ValueError, match="outer"):
            ComposedTarget(cube2, 1 << 4, (MonotoneDNF(cube2, (1,)), MonotoneDNF(cube2, (2,))))
        for d in (1, 2, 5):
            inner = (MonotoneDNF(cube2, (1,)),) * d
            for outer in (-1, 1 << (1 << d)):
                with pytest.raises(ValueError) as exc:
                    ComposedTarget(cube2, outer, inner)
                assert str(exc.value) == f"outer table must hold exactly {1 << d} bits"
            assert ComposedTarget(cube2, (1 << (1 << d)) - 1, inner).outer_at_origin == 1

    def test_outer_check_builds_nothing_of_the_tables_size(self, cube2):
        # 2^(2^26) would be a 2^26-bit (8 MB) int
        inner = (MonotoneDNF(cube2, (1,)),) * 26
        tracemalloc.start()
        try:
            ComposedTarget(cube2, 0b10, inner)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_dense_mask_must_fit(self, cube2):
        with pytest.raises(ValueError):
            DenseFunction(cube2, 1 << 16)
        with pytest.raises(ValueError, match="does not fit"):
            DenseFunction(cube2, -1)
        assert DenseFunction(cube2, (1 << 4) - 1).bits() == "1111"
        with pytest.raises(ValueError, match="does not fit"):
            DenseFunction(cube2, 1 << 4)

    def test_composed_target_needs_inner_functions_on_its_lattice(self, cube2, cube3):
        with pytest.raises(ValueError) as exc:
            ComposedTarget(cube2, 0b10, ())
        assert str(exc.value) == "a composed target needs at least one inner function"
        with pytest.raises(ValueError) as exc:
            ComposedTarget(cube2, 0b0110, (MonotoneDNF(cube2, (1,)), MonotoneDNF(cube3, (2,))))
        assert str(exc.value) == "inner function defined over a different lattice"

    def test_level_lattice_mismatch(self, cube2, cube3):
        with pytest.raises(ValueError, match="lattice"):
            XorHypothesis(cube2, (MonotoneDNF(cube3, (1,)),))


def shuffled_chain_products(dims=st.lists(st.integers(1, 3), min_size=1, max_size=3)):
    """Products of chains of ``dims`` elements, points and covers shuffled."""
    return st.tuples(dims, st.randoms(use_true_random=False)).map(
        lambda args: chain_product(*args)[1]
    )


class TestLargeAntichains:
    """Past a size set by the lattice, one ``up_and_minimal`` sweep tests the antichain."""

    @pytest.mark.parametrize(
        "lat, elems, pair",
        [
            # ten points of cube:8, 10^2 past both 64 and 2^8/16
            (CubeLattice(8), [1 << j for j in range(8)] + [0b11, 0b1100], ("00000001", "00000011")),
            # the 15 points of coordinate sum 4 in 5^3, ids in lexicographic order, and one above
            (
                chain_product((5, 5, 5))[1],
                [a * 25 + b * 5 + 4 - a - b for a in range(5) for b in range(5 - a)]
                + [1 * 25 + 1 * 5 + 3],
                ("p0-1-3", "p1-1-3"),
            ),
        ],
        ids=["cube8", "chain-product"],
    )
    def test_non_antichain_names_the_first_comparable_pair(self, monkeypatch, lat, elems, pair):
        sweeps = []
        sweep = lat.up_and_minimal
        monkeypatch.setattr(lat, "up_and_minimal", lambda m: sweeps.append(m) or sweep(m))
        with pytest.raises(ValueError) as exc:
            MonotoneDNF(lat, elems[::-1])
        assert str(exc.value) == (
            f"minimals are not an antichain: {pair[0]} and {pair[1]} are comparable"
        )
        assert sweeps == [elements_mask(elems)]

    @pytest.mark.parametrize("d", [4, 6])
    def test_prefix_level_is_accepted_by_one_sweep(self, monkeypatch, d):
        # the largest prefix level of tightness(d, 2): 240 minimals at n = 12
        lat = CubeLattice(2 * d)
        level = max(prefix_levels(d, 2).levels, key=lambda lv: lv.size)
        monkeypatch.setattr(lat, "leq", lambda a, b: pytest.fail("pairwise scan ran"))
        assert MonotoneDNF(lat, level.minimals).mask == level.mask

    @pytest.mark.parametrize(
        "lat, k",
        [(CubeLattice(16), 64), (CubeLattice(23), 100), (CubeLattice(50000000), 100)],
        ids=["cube16-small", "cube23", "cube50000000"],
    )
    def test_scan_where_a_sweep_costs_more(self, monkeypatch, lat, k):
        # at n = 16 a sweep pays from 65 minimals; past n = 22 never, and a
        # cube past the cap builds nothing of its size
        pairs = []
        leq = lat.leq
        monkeypatch.setattr(lat, "leq", lambda a, b: pairs.append(a) or leq(a, b))
        monkeypatch.setattr(lat, "up_and_minimal", lambda m: pytest.fail("sweep ran"))
        # points with two set coordinates, ascending
        points = tuple(1 << i | 1 << j for j in range(16) for i in range(j))[:k]
        tracemalloc.start()
        try:
            g = MonotoneDNF(lat, points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.minimals == points
        assert len(pairs) == k * (k - 1)
        assert peak < 1 << 20

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_sweep_and_scan_agree(self, data):
        # lattices with levels of 10-20 elements, past the sweep's size
        lat = data.draw(
            st.integers(5, 6).map(CubeLattice)
            | shuffled_chain_products(st.lists(st.integers(3, 4), min_size=3, max_size=3))
            | moore_families(max_ground=6, max_draws=12).map(
                lambda fam: ExplicitLattice(fam[1], fam[2])
            )
        )
        # elements of one height are an antichain: one level, the largest
        # first, less two points or fewer, and two more points or fewer,
        # which often break it
        height = {}
        for a in sorted(range(lat.size), key=lambda a: -len(brute_up_set(lat, [a]))):
            height[a] = 1 + max((height[p] for p in lat.immediate_predecessors(a)), default=0)
        levels = sorted(
            ([a for a in height if height[a] == h] for h in set(height.values())), key=len
        )
        level = data.draw(st.sampled_from(levels[::-1]))
        elems = set(level) - data.draw(st.sets(st.sampled_from(level), max_size=2))
        elems = sorted(elems | data.draw(st.sets(st.integers(0, lat.size - 1), max_size=2)))
        pair = brute_antichain_pair(lat, elems)
        mask = elements_mask(elems)
        assert (lat.up_and_minimal(mask)[1] == mask) == (pair is None)
        if pair is None:
            assert MonotoneDNF(lat, elems).minimals == tuple(elems)
        else:
            with pytest.raises(ValueError) as exc:
                MonotoneDNF(lat, elems)
            a, b = lat.element_names(pair)
            assert str(exc.value) == f"minimals are not an antichain: {a} and {b} are comparable"


class TestTrustedTables:
    """Every table the package computes is the checked table of its pointwise values."""

    @staticmethod
    def assert_is_table(got, want):
        assert type(got) is DenseFunction
        assert vars(got) == vars(want)
        assert got == want and hash(got) == hash(want) and repr(got) == repr(want)

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_dense_and_consistent_tables_match_pointwise_ones(self, data):
        lat = data.draw(
            st.integers(1, 6).map(CubeLattice)
            | shuffled_chain_products()
            | moore_families().map(lambda fam: ExplicitLattice(fam[1], fam[2]))
        )
        masks = st.integers(0, (1 << lat.size) - 1)
        antichains = masks.map(lambda m: MonotoneDNF.from_mask(lat, lat.up_and_minimal(m)[1]))
        inner = tuple(data.draw(st.lists(antichains, min_size=1, max_size=3)))
        functions = [
            data.draw(antichains),
            XorHypothesis(lat, tuple(data.draw(st.lists(antichains, max_size=3)))),
            ComposedTarget(lat, data.draw(st.integers(0, (1 << (1 << len(inner))) - 1)), inner),
            DenseFunction(lat, data.draw(masks)),
        ]
        for f in functions:
            self.assert_is_table(f.dense(), brute_table(lat, lambda x: brute_value(f, x)))
        points = data.draw(st.lists(st.integers(0, lat.size - 1), unique=True, max_size=8))
        labels = [data.draw(st.integers(0, 1)) for _ in points]
        x0 = [p for p, v in zip(points, labels) if not v]
        x1 = [p for p, v in zip(points, labels) if v]
        state = DenseState(lat, x0, x1)
        d = max(1, len(state.closures))
        _, table, violated = brute_consistent_rounds(lat, d, x0, x1)
        assert violated is None
        self.assert_is_table(consistent(d, state), brute_table(lat, table.__contains__))


class TestFromMask:
    @given(st.sets(st.integers(0, 63)))
    def test_equals_validated_constructor_on_cube(self, points):
        lat = CubeLattice(6)
        mins = lat.up_and_minimal(elements_mask(points))[1]
        trusted = MonotoneDNF.from_mask(lat, mins)
        assert trusted == MonotoneDNF(lat, tuple(mask_elements(mins)))
        assert trusted.dense().mask == lat.up_closure(elements_mask(points))

    def test_equals_validated_constructor_on_explicit(self, diamond, chain4):
        for lat in (diamond, chain4):
            for mask in range(1 << lat.size):
                mins = lat.up_and_minimal(mask)[1]
                assert MonotoneDNF.from_mask(lat, mins) == MonotoneDNF(
                    lat, tuple(mask_elements(mins))
                )


class TestMinimalElements:
    # a function's minimal points are up_and_minimal(mask)[1]; its local
    # minima, the points with no immediate predecessor where it is 1, come
    # from the order scan
    def test_global_min_examples(self, cube2):
        f = DenseFunction.from_bits(cube2, "0110")  # x1 xor x2
        assert cube2.up_and_minimal(f.mask)[1] == elements_mask([0b01, 0b10])
        assert cube2.up_and_minimal(0)[1] == 0
        g = MonotoneDNF(cube2, (0b01, 0b10))
        assert cube2.up_and_minimal(g.dense().mask)[1] == g.mask

    def test_local_min_examples(self, cube2):
        f = DenseFunction.from_bits(cube2, "0110")
        assert brute_local_min(cube2, f.evaluate) == [0b01, 0b10]
        assert cube2.up_and_minimal(f.mask)[1] == elements_mask([0b01, 0b10])
        # value 1 exactly on {00, 11}: both are local minimal points, and
        # only 00 is minimal
        f = DenseFunction(cube2, elements_mask([0b00, 0b11]))
        assert brute_local_min(cube2, f.evaluate) == [0b00, 0b11]
        assert cube2.up_and_minimal(f.mask)[1] == elements_mask([0b00])

    def test_local_contains_global(self):
        lat = CubeLattice(4)
        rng = random.Random(11)
        for _ in range(50):
            f = DenseFunction(lat, rng.getrandbits(lat.size))
            low = set(mask_elements(lat.up_and_minimal(f.mask)[1]))
            assert low <= set(brute_local_min(lat, f.evaluate))

    def test_monotone_local_equals_global(self):
        lat = CubeLattice(5)
        rng = random.Random(12)
        for _ in range(30):
            g = random_mdnf(rng, lat)
            up = g.dense().mask
            assert lat.up_and_minimal(up)[1] == g.mask
            assert brute_local_min(lat, g.evaluate) == list(g.minimals)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_brute_force_on_cubes(self, n):
        lat = CubeLattice(n)
        rng = random.Random(n * 31)
        for _ in range(20):
            f = DenseFunction(lat, rng.getrandbits(lat.size))
            low = lat.up_and_minimal(f.mask)[1]
            assert mask_elements(low) == brute_global_min(lat, f.evaluate)

    def test_matches_brute_force_on_explicit(self, diamond, chain4):
        for lat in (diamond, chain4):
            for mask in range(1 << lat.size):
                f = DenseFunction(lat, mask)
                low = lat.up_and_minimal(mask)[1]
                assert mask_elements(low) == brute_global_min(lat, f.evaluate)


class TestClosure:
    # the least monotone function above f: the antichain of f's minimal points
    def test_examples(self, cube2):
        f = DenseFunction.from_bits(cube2, "0110")
        closed = MonotoneDNF.from_mask(cube2, cube2.up_and_minimal(f.mask)[1])
        assert closed.minimals == (0b01, 0b10)
        assert MonotoneDNF.from_mask(cube2, cube2.up_and_minimal(0)[1]).minimals == ()
        g = MonotoneDNF(cube2, (0b10,))
        assert MonotoneDNF.from_mask(cube2, cube2.up_and_minimal(g.dense().mask)[1]) == g

    def test_pointwise_definition(self):
        lat = CubeLattice(4)
        rng = random.Random(4)
        for _ in range(20):
            f = DenseFunction(lat, rng.getrandbits(lat.size))
            closed = MonotoneDNF.from_mask(lat, lat.up_and_minimal(f.mask)[1]).dense()
            for x in range(lat.size):
                assert closed.evaluate(x) == brute_closure_value(lat, f.evaluate, x)

    def test_implied_by_original(self):
        lat = CubeLattice(5)
        rng = random.Random(5)
        for _ in range(20):
            f = DenseFunction(lat, rng.getrandbits(lat.size))
            closed = MonotoneDNF.from_mask(lat, lat.up_and_minimal(f.mask)[1]).dense()
            assert f.mask & ~closed.mask == 0


class TestStrictDecompose:
    def test_worked_example(self, cube2):
        f = DenseFunction.from_bits(cube2, "0110")
        levels = strict_decompose(f).levels
        assert [lv.minimals for lv in levels] == [(0b01, 0b10), (0b11,)]

    def test_single_minterm(self, cube3):
        f = MonotoneDNF(cube3, (0b110,))
        assert [lv.minimals for lv in strict_decompose(f).levels] == [(0b110,)]

    def test_constant_zero(self, cube2):
        assert strict_decompose(DenseFunction(cube2, 0)).levels == ()

    def test_cap_trips_internal_error(self, cube2, monkeypatch):
        # a closure of the whole lattice swaps positives and negatives
        # forever, so the guard trips once the levels reach the element count
        calls = []
        whole = (1 << cube2.size) - 1
        monkeypatch.setattr(cube2, "up_and_minimal", lambda mask: calls.append(mask) or (whole, 0))
        with pytest.raises(InternalError, match="within 4 levels"):
            strict_decompose(DenseFunction.from_bits(cube2, "0110"))
        assert len(calls) == 4

    @pytest.mark.parametrize("n", [2, 3, 4, 6, 8])
    def test_identity_and_level_shape(self, n):
        lat = CubeLattice(n)
        rng = random.Random(100 + n)
        for _ in range(12):
            f = DenseFunction(lat, rng.getrandbits(lat.size))
            xor = strict_decompose(f)
            assert xor.dense().mask == f.mask
            assert nested_disjoint_violation(xor) is None
            for lo, hi in zip(xor.levels, xor.levels[1:]):
                assert hi.dense().mask & ~lo.dense().mask == 0 and hi != lo

    def test_explicit_lattice_identity(self, diamond):
        for mask in range(1 << diamond.size):
            f = DenseFunction(diamond, mask)
            assert strict_decompose(f).dense().mask == mask

    def test_pentagon_identity_and_minimality(self):
        lat = ExplicitLattice(
            ["top", "c", "bot", "a", "b"],
            [("bot", "a"), ("a", "c"), ("c", "top"), ("bot", "b"), ("b", "top")],
        )
        for mask in range(1 << lat.size):
            f = DenseFunction(lat, mask)
            assert strict_decompose(f).dense().mask == mask
            low = mask_elements(lat.up_and_minimal(mask)[1])
            assert low == brute_global_min(lat, f.evaluate)
            assert set(low) <= set(brute_local_min(lat, f.evaluate))

    def test_multiple_bottom_most_elements_are_local_minimal(self):
        lat = ExplicitLattice(["p", "q", "t"], [("p", "t"), ("q", "t")])
        f = DenseFunction(lat, 0b011)  # value 1 exactly at p and q
        assert lat.element_names(brute_local_min(lat, f.evaluate)) == ["p", "q"]
        assert lat.up_and_minimal(f.mask)[1] == f.mask


class TestDegree:
    def test_examples(self, cube2, cube3):
        assert len(strict_decompose(DenseFunction(cube2, 0)).levels) == 0
        assert len(strict_decompose(MonotoneDNF(cube3, (0b101,))).levels) == 1
        assert len(strict_decompose(DenseFunction.from_bits(cube2, "0110")).levels) == 2

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_all_functions_monotonicity_characterization(self, n):
        lat = CubeLattice(n)
        for mask in range(1 << lat.size):
            f = DenseFunction(lat, mask)
            pointwise_monotone = all(
                f.evaluate(x) >= f.evaluate(y)
                for x in range(lat.size)
                for y in range(lat.size)
                if lat.leq(y, x)
            )
            assert (len(strict_decompose(f).levels) <= 1) == pointwise_monotone

    @pytest.mark.parametrize("n", [4, 5])
    def test_random_functions_monotonicity_characterization(self, n):
        lat = CubeLattice(n)
        rng = random.Random(n)
        samples = [rng.getrandbits(lat.size) for _ in range(40)]
        samples += [lat.up_closure(rng.getrandbits(lat.size)) for _ in range(10)]
        for mask in samples:
            f = DenseFunction(lat, mask)
            pointwise_monotone = all(
                f.evaluate(x) >= f.evaluate(y)
                for x in range(lat.size)
                for y in range(lat.size)
                if lat.leq(y, x)
            )
            assert (len(strict_decompose(f).levels) <= 1) == pointwise_monotone

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_degree_equals_worst_chain_alternations(self, n):
        lat = CubeLattice(n)
        chains = maximal_chains_cube(n)
        rng = random.Random(999 + n)
        for _ in range(25):
            f = DenseFunction(lat, rng.getrandbits(lat.size))
            expected = max_chain_alternations(lat, f.evaluate, chains)
            assert len(strict_decompose(f).levels) == expected


class TestChainAlternations:
    def test_worked_example(self, cube2):
        f = DenseFunction.from_bits(cube2, "0110")
        assert chain_alternations(f, [0b00, 0b01, 0b11]) == 2

    def test_constant_one(self, cube2):
        f = DenseFunction(cube2, 0b1111)
        assert chain_alternations(f, [0b00, 0b01]) == 1

    def test_constant_zero(self, cube2):
        f = DenseFunction(cube2, 0)
        assert chain_alternations(f, [0b00, 0b01, 0b11]) == 0

    def test_empty_chain(self, cube2):
        assert chain_alternations(DenseFunction(cube2, 0b1111), []) == 0

    def test_invalid_chain_rejected(self, cube2):
        f = DenseFunction(cube2, 0)
        with pytest.raises(InvalidChainError):
            chain_alternations(f, [0b01, 0b10])
        with pytest.raises(InvalidChainError):
            chain_alternations(f, [0b11, 0b01])
        with pytest.raises(InvalidChainError):
            chain_alternations(f, [0b01, 0b01])

    def test_agreement_with_decomposition_via_oracle(self):
        # alternation counts over explicit chains are the degree's oracle
        lat = CubeLattice(3)
        chains = maximal_chains_cube(3)
        f = DenseFunction(lat, 0b10010110)  # three-bit parity
        worst = max(chain_alternations(f, c[1:]) for c in chains)
        assert worst == len(strict_decompose(f).levels)


class TestMinAlgebra:
    @given(st.data())
    def test_min_of_or_and_and(self, data):
        lat = CubeLattice(6)
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        g = random_mdnf(rng, lat)
        h = random_mdnf(rng, lat)
        g_or_h = lat.up_and_minimal(g.dense().mask | h.dense().mask)[1]
        assert set(mask_elements(g_or_h)) <= set(g.minimals) | set(h.minimals)
        g_and_h = lat.up_and_minimal(g.dense().mask & h.dense().mask)[1]
        joins = {lat.join(v, w) for v in g.minimals for w in h.minimals}
        assert set(mask_elements(g_and_h)) <= joins

    @given(st.integers(0, 15), st.integers(0, 15), st.integers(0, 15))
    def test_term_conjunction_iff_join(self, u, v, w):
        lat = CubeLattice(4)
        m_u = MonotoneDNF(lat, (u,)).dense().mask
        m_v = MonotoneDNF(lat, (v,)).dense().mask
        m_w = MonotoneDNF(lat, (w,)).dense().mask
        assert (m_u == m_v & m_w) == (u == lat.join(v, w))


class TestComposedBounds:
    def _random_target(self, rng, n, d, origin_bit):
        lat = CubeLattice(n)
        inner = tuple(random_mdnf(rng, lat) for _ in range(d))
        outer = rng.getrandbits(1 << d)
        outer = (outer | 1) if origin_bit else (outer & ~1)
        return ComposedTarget(lat, outer, inner)

    def test_degree_bound_with_zero_at_origin(self):
        rng = random.Random(21)
        for _ in range(30):
            t = self._random_target(rng, rng.randint(2, 6), rng.randint(1, 3), 0)
            assert len(strict_decompose(t).levels) <= t.d

    def test_degree_bound_with_one_at_origin(self):
        rng = random.Random(22)
        for _ in range(30):
            t = self._random_target(rng, rng.randint(2, 6), rng.randint(1, 3), 1)
            assert len(strict_decompose(t).levels) <= t.d + 1

    def test_local_min_inside_join_products(self):
        rng = random.Random(23)
        for _ in range(20):
            n = rng.randint(2, 8)
            d = rng.randint(1, 3)
            t = self._random_target(rng, n, d, 0)
            allowed = join_products(t.lattice, [g.minimals for g in t.inner])
            mask = t.dense().mask
            assert set(brute_local_min(t.lattice, lambda x: mask >> x & 1)) <= allowed


class TestStrictShapeRecovery:
    def _random_nested(self, rng, lat, depth):
        levels = [random_mdnf(rng, lat)]
        for _ in range(depth - 1):
            prev = levels[-1]
            dense_prev = prev.dense().mask
            pool = [
                x
                for x in range(lat.size)
                if dense_prev >> x & 1 and x not in set(prev.minimals)
            ]
            if not pool:
                break
            picks = rng.sample(pool, min(len(pool), rng.randint(1, 3)))
            levels.append(MonotoneDNF.from_mask(lat, lat.up_and_minimal(elements_mask(picks))[1]))
        return XorHypothesis(lat, tuple(levels))

    def test_nested_disjoint_levels_are_recovered_exactly(self):
        lat = CubeLattice(6)
        rng = random.Random(77)
        for _ in range(25):
            xor = self._random_nested(rng, lat, rng.randint(1, 4))
            assert nested_disjoint_violation(xor) is None
            recovered = strict_decompose(xor)
            assert recovered.levels == xor.levels

    def test_violation_reporting(self, cube2):
        shared = XorHypothesis(
            cube2, (MonotoneDNF(cube2, (0b01, 0b10)), MonotoneDNF(cube2, (0b01,)))
        )
        assert "share" in nested_disjoint_violation(shared)
        not_implied = XorHypothesis(
            cube2, (MonotoneDNF(cube2, (0b01,)), MonotoneDNF(cube2, (0b10,)))
        )
        assert "imply" in nested_disjoint_violation(not_implied)
        twice = XorHypothesis(cube2, (MonotoneDNF(cube2, (0b01,)),) * 2)
        assert nested_disjoint_violation(twice) == "levels 1 and 2 are identical"
