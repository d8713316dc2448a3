import itertools
import math
import random

import pytest

from dmono import (
    ComposedTarget,
    CubeLattice,
    chain_witness_check,
    nested_disjoint_violation,
    parity_table,
    prefix_levels,
    random_composed,
    strict_decompose,
    takimoto_family,
    tightness_family,
)
from dmono.boolfn import MonotoneDNF, XorHypothesis
from dmono.errors import GenerationError
from dmono.families import _distinct_draws, takimoto_blocks

from oracles import brute_chain_witnesses, brute_prefix_levels


class TestTightness:
    def test_minimal_parameters_give_two_variable_parity(self):
        t = tightness_family(2, 1)
        assert t.lattice.n == 2
        assert [g.minimals for g in t.inner] == [(1,), (2,)]
        assert t.dense().bits() == "0110"

    def test_blowup_size_exact(self):
        t = tightness_family(2, 2)
        xor = strict_decompose(t)
        assert [lv.size for lv in xor.levels] == [4, 4]
        assert xor.size == (2 + 1) ** 2 - 1

    def test_degree_one_is_plain_or(self):
        t = tightness_family(1, 3)
        assert t.size == 3
        assert len(strict_decompose(t).levels) == 1

    @pytest.mark.parametrize("d,t", [(2, 1), (2, 2), (3, 1), (3, 2)])
    def test_decomposition_equals_prefix_levels(self, d, t):
        target = tightness_family(d, t)
        assert list(strict_decompose(target).levels) == list(prefix_levels(d, t).levels)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            tightness_family(0, 2)
        with pytest.raises(ValueError):
            tightness_family(2, 0)


class TestPrefixLevels:
    @pytest.mark.parametrize("d, t", [(0, 1), (1, 0), (-1, 2)])
    def test_parameter_validation(self, d, t):
        with pytest.raises(ValueError) as exc:
            prefix_levels(d, t)
        assert str(exc.value) == "prefix levels need d >= 1 and t >= 1"

    def test_minimal_parameters(self):
        assert [lv.minimals for lv in prefix_levels(2, 1).levels] == [(1, 2), (3,)]

    def test_level_sizes_follow_binomials(self):
        assert [lv.size for lv in prefix_levels(2, 2).levels] == [4, 4]
        assert [lv.size for lv in prefix_levels(3, 1).levels] == [3, 3, 1]

    @pytest.mark.parametrize("d,t", list(itertools.product((1, 2, 3), repeat=2)))
    def test_levels_equal_validated_constructor(self, d, t):
        # level k: the words with k set bits, at most one per t-wide block
        lat = CubeLattice(d * t)
        block = (1 << t) - 1
        levels = prefix_levels(d, t).levels
        assert len(levels) == d
        for k, level in enumerate(levels, start=1):
            words = tuple(
                x
                for x in range(lat.size)
                if x.bit_count() == k
                and all((x >> (b * t) & block).bit_count() <= 1 for b in range(d))
            )
            assert level == MonotoneDNF(lat, words)

    @pytest.mark.parametrize(
        "d, t", [(d, t) for d in range(1, 17) for t in range(1, 17) if d * t <= 16]
    )
    def test_shift_levels_equal_per_minterm_construction(self, d, t):
        # every cube up to 16 dimensions, (1,1), (1,16) and (16,1) included
        levels = prefix_levels(d, t).levels
        assert [lv.mask for lv in levels] == brute_prefix_levels(d, t)
        assert [lv.size for lv in levels] == [math.comb(d, k) * t**k for k in range(1, d + 1)]

    def test_satisfies_nested_disjoint_shape(self):
        for d, t in [(2, 2), (3, 1), (3, 2)]:
            assert nested_disjoint_violation(prefix_levels(d, t)) is None


def _nested_block_case(rng):
    """A random nested-block target on a cube of n <= 12 and a variant of its levels.

    d = 1..4 blocks of 1..3 variables at random bit positions, g_i the
    union of blocks i..d, a parity or random outer table.  The levels are
    the strict decomposition as it is, shuffled, truncated, with one
    minimal element dropped, or rebuilt in tuple form.
    """
    d = rng.randint(1, 4)
    widths = [rng.randint(1, 3) for _ in range(d)]
    lat = CubeLattice(rng.randint(sum(widths), 12))
    bits = rng.sample(range(lat.n), sum(widths))
    blocks = [bits[sum(widths[:i]) : sum(widths[: i + 1])] for i in range(d)]
    inner = tuple(
        MonotoneDNF(lat, tuple(1 << b for blk in blocks[i:] for b in blk)) for i in range(d)
    )
    outer = parity_table(d) if rng.random() < 0.5 else rng.getrandbits(1 << d)
    target = ComposedTarget(lat, outer, inner)
    levels = list(strict_decompose(target).levels)
    form = rng.choice(["as-is", "shuffled", "truncated", "dropped", "tuples"])
    if form == "shuffled":
        rng.shuffle(levels)
    elif form == "truncated":
        del levels[rng.randrange(len(levels) + 1) :]
    elif form == "dropped" and levels:
        k = rng.randrange(len(levels))
        a = rng.choice(levels[k].minimals)
        levels[k] = MonotoneDNF.from_mask(lat, levels[k].mask & ~(1 << a))
    elif form == "tuples":
        levels = [MonotoneDNF(lat, lv.minimals) for lv in levels]
    return target, XorHypothesis(lat, tuple(levels))


class TestTakimoto:
    def test_minimal_parameters(self):
        tk = takimoto_family(2, 1)
        assert tk.lattice.n == 3
        g1, g2 = tk.inner
        assert set(g2.minimals) < set(g1.minimals)

    def test_inner_sizes_and_nesting(self):
        for d, t in [(2, 2), (3, 1), (3, 2)]:
            tk = takimoto_family(d, t)
            assert tk.lattice.n == d * (d + 1) * t // 2
            assert [g.size for g in tk.inner] == [(d - i) * t for i in range(d)]
            assert tk.size == tk.lattice.n
            for lo, hi in zip(tk.inner, tk.inner[1:]):
                assert hi.dense().mask & ~lo.dense().mask == 0
                assert set(hi.minimals) < set(lo.minimals)

    def test_violates_disjointness_and_is_not_recovered(self):
        for d, t in [(2, 2), (3, 1), (3, 2)]:
            tk = takimoto_family(d, t)
            given = XorHypothesis(tk.lattice, tk.inner)
            assert nested_disjoint_violation(given) is not None
            assert list(strict_decompose(tk).levels) != list(tk.inner)

    def test_last_level_blowup(self):
        tk = takimoto_family(2, 2)
        xor = strict_decompose(tk)
        assert [lv.size for lv in xor.levels] == [2, 4]
        assert xor.size >= 2**2

    def test_chain_witnesses_all_pass(self):
        for d, t in [(2, 1), (2, 2), (3, 1), (3, 2)]:
            tk = takimoto_family(d, t)
            levels = strict_decompose(tk)
            assert chain_witness_check(tk, levels)
            assert brute_chain_witnesses(tk, levels)

    def test_chain_witnesses_read_minimal_elements_of_either_form(self):
        tk = takimoto_family(2, 2)
        levels = strict_decompose(tk).levels
        as_tuples = tuple(MonotoneDNF(tk.lattice, lv.minimals[::-1]) for lv in levels)
        # the chain's second element lies above the first level's minima
        # but is not one of them, and the first is not a minimum of level 2
        for wrong in [(levels[0], levels[0]), levels[::-1], (as_tuples[0],) * 2]:
            assert not chain_witness_check(tk, XorHypothesis(tk.lattice, wrong))
        assert chain_witness_check(tk, XorHypothesis(tk.lattice, as_tuples))

    def test_blocks_need_single_variable_minterms(self):
        lat = CubeLattice(3)
        target = ComposedTarget(lat, parity_table(2), (MonotoneDNF(lat, (0b011,)), MonotoneDNF(lat, (0b001,))))
        with pytest.raises(ValueError) as exc:
            takimoto_blocks(target)
        assert str(exc.value) == "target minterms are not single variables"

    @pytest.mark.parametrize("inner", [((0b001,), (0b001, 0b010)), ((0b001,), (0b001,))])
    def test_blocks_need_strictly_nested_inner_functions(self, inner):
        lat = CubeLattice(3)
        target = ComposedTarget(lat, parity_table(2), tuple(MonotoneDNF(lat, g) for g in inner))
        with pytest.raises(ValueError) as exc:
            takimoto_blocks(target)
        assert str(exc.value) == "target blocks are not nested"

    def test_blocks_need_a_cube(self, diamond):
        # p and q have ids 1 and 2, single bits that name no variable
        inner = (MonotoneDNF(diamond, (1, 2)), MonotoneDNF(diamond, (1,)))
        target = ComposedTarget(diamond, parity_table(2), inner)
        with pytest.raises(ValueError) as exc:
            takimoto_blocks(target)
        assert str(exc.value) == f"target lies on {diamond.describe()}, not a cube"

    def test_disjoint_blocks_are_not_nested(self):
        # the tightness blocks are disjoint, so no g_i contains the next
        with pytest.raises(ValueError, match="^target blocks are not nested$"):
            takimoto_blocks(tightness_family(3, 2))

    def test_failing_chain_without_given_levels(self):
        # g1 = x0 | x1 and g2 = x1 are nested, but the outer table reads g1
        # alone, so the target is 1-monotone and the chain's second element
        # has no level to be minimal in
        lat = CubeLattice(2)
        target = ComposedTarget(lat, 0b1010, (MonotoneDNF(lat, (0b01, 0b10)), MonotoneDNF(lat, (0b10,))))
        assert takimoto_blocks(target) == [[0], [1]]
        assert not chain_witness_check(target, strict_decompose(target))
        assert chain_witness_check(target, prefix_levels(2, 1))

    def test_uneven_variant(self):
        # nested blocks of 4, 2 and 1 variables: the witnesses need no equal widths
        lat = CubeLattice(12)
        blocks = [[0, 1, 2, 3], [4, 5], [6]]
        inner = tuple(
            MonotoneDNF(lat, tuple(1 << b for blk in blocks[i:] for b in blk)) for i in range(3)
        )
        tk = ComposedTarget(lat, parity_table(3), inner)
        assert takimoto_blocks(tk) == blocks
        assert [g.size for g in tk.inner] == [4 + 2 + 1, 2 + 1, 1]
        xor = strict_decompose(tk)
        assert xor.dense().mask == tk.dense().mask
        count = 4 * 2 * 1
        assert xor.size >= count
        assert chain_witness_check(tk, xor)
        assert brute_chain_witnesses(tk, xor)

    def test_chain_witnesses_agree_with_the_per_chain_walk(self):
        rng = random.Random(7)
        verdicts = {True: 0, False: 0}
        for _ in range(2980):
            target, levels = _nested_block_case(rng)
            want = brute_chain_witnesses(target, levels)
            assert chain_witness_check(target, levels) == want
            verdicts[want] += 1
        assert min(verdicts.values()) >= 500

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            takimoto_family(1, 2)
        with pytest.raises(ValueError):
            takimoto_family(2, 0)


class TestRandomComposed:
    def test_deterministic_from_seed(self):
        a = random_composed(2, [2, 1], 5, seed=9)
        b = random_composed(2, [2, 1], 5, seed=9)
        assert a == b
        c = random_composed(2, [2, 1], 5, seed=10)
        assert a != c

    def test_requested_shape(self):
        rng = random.Random(0)
        for _ in range(25):
            d = rng.randint(1, 3)
            sizes = [rng.randint(1, 3) for _ in range(d)]
            t = random_composed(d, sizes, rng.randint(3, 8), seed=rng.randrange(10**9))
            assert [g.size for g in t.inner] == sizes
            assert t.outer_at_origin == 0

    def test_degree_stays_within_d(self):
        rng = random.Random(1)
        for _ in range(25):
            d = rng.randint(1, 3)
            sizes = [rng.randint(1, 3) for _ in range(d)]
            t = random_composed(d, sizes, rng.randint(3, 7), seed=rng.randrange(10**9))
            assert len(strict_decompose(t).levels) <= d

    def test_single_minterm_request(self):
        t = random_composed(1, [1], 4, seed=3)
        assert t.inner[0].size == 1
        assert len(strict_decompose(t).levels) <= 1

    def test_impossible_size_raises(self):
        with pytest.raises(GenerationError):
            random_composed(1, [2], 1, seed=0)
        with pytest.raises(GenerationError):
            random_composed(1, [3], 2, seed=0)

    def test_wide_cubes_build_without_dense_tables(self, monkeypatch):
        # n = 40 is far past any dense table; generation must stay sparse
        def refuse(*args):
            raise AssertionError("dense sweep during generation")

        kernels = ("up_closure", "up_and_minimal", "_coordinate_clear_masks")
        for attr in kernels:
            monkeypatch.setattr(CubeLattice, attr, refuse)
        t = tightness_family(8, 5)
        assert t.lattice.n == 40 and t.size == 40
        r = random_composed(3, (3, 3, 3), 40, 0)
        assert [g.size for g in r.inner] == [3, 3, 3]
        assert r == random_composed(3, (3, 3, 3), 40, 0)

    def test_draws_equal_random_sample_below_the_overflow(self):
        # past n = 62 the draws leave ``rng.sample``; below it both must
        # agree, so every seeded target up to there keeps its points
        for n in range(10, 63):
            for seed in range(4):
                for k in (1, 2, 5):
                    want = random.Random(seed).sample(range(1, 1 << n), k)
                    assert _distinct_draws(random.Random(seed), 1 << n, k) == tuple(want)

    @pytest.mark.parametrize("n", [64, 128])
    def test_cubes_past_the_machine_word_draw_seeded_antichains(self, n):
        t = random_composed(2, (3, 2), n, seed=1)
        assert t.lattice.n == n and [g.size for g in t.inner] == [3, 2]
        assert t == random_composed(2, (3, 2), n, seed=1)
        assert t != random_composed(2, (3, 2), n, seed=2)
        for g in t.inner:
            assert all(0 < a < t.lattice.size for a in g.minimals)
            assert not any(a != b and a & b == a for a in g.minimals for b in g.minimals)

    def test_sizes_arity_mismatch(self):
        with pytest.raises(ValueError):
            random_composed(2, [1], 4, seed=0)

    def test_negative_size_is_refused(self):
        with pytest.raises(ValueError, match="inner size -1 is negative"):
            random_composed(2, [2, -1], 64, seed=0)

    def test_empty_inner_function_draws_nothing(self):
        t = random_composed(2, [0, 2], 4, seed=1)
        assert t.inner[0].size == 0
        assert t.inner[1] == random_composed(1, [2], 4, seed=1).inner[0]


class TestSizeBounds:
    def test_product_and_power_bounds_hold_everywhere(self):
        rng = random.Random(42)
        targets = [tightness_family(2, 2), tightness_family(3, 1), takimoto_family(2, 2)]
        for _ in range(25):
            d = rng.randint(1, 3)
            sizes = [rng.randint(1, 3) for _ in range(d)]
            targets.append(random_composed(d, sizes, rng.randint(3, 7), seed=rng.randrange(10**9)))
        for target in targets:
            xor = strict_decompose(target)
            product = 1
            for g in target.inner:
                product *= g.size + 1
            assert xor.size <= product - 1
            s, d = target.size, target.d
            assert (xor.size + 1) * d**d <= (s + d) ** d

    def test_parity_table(self):
        assert parity_table(1) == 0b10
        assert parity_table(2) == 0b0110
        for d in range(13):
            table = parity_table(d)
            assert table >> (1 << d) == 0
            for k in range(1 << d):
                assert (table >> k & 1) == k.bit_count() % 2
