"""Generators for structured and random learning targets.

Variable blocks occupy consecutive bit positions, block 1 starting at the
least significant bit, so witnesses and serialized goldens are byte-stable.
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence

from .boolfn import ComposedTarget, MonotoneDNF, XorHypothesis
from .errors import GenerationError
from .lattice import CubeLattice


def parity_table(d: int) -> int:
    """Truth table of d-input XOR, one bit per packed input tuple."""
    table = 0
    for i in range(d):
        # the 2^i tuples with input i set flip the parities of the 2^i below
        w = 1 << i
        table |= (table ^ ((1 << w) - 1)) << w
    return table


def _block_layout(d: int, t: int) -> list[range]:
    """Bit positions of d t-wide blocks, packed consecutively from bit 0."""
    return [range(i * t, (i + 1) * t) for i in range(d)]


def _join_block(points: int, bits: Iterable[int]) -> int:
    """The dense set of every point of ``points`` joined with one of ``bits``."""
    joined = 0
    for b in bits:
        # blocks are disjoint, so the shift by 2^b sets bit b, which is
        # clear in every point of the set
        joined |= points << (1 << b)
    return joined


def tightness_dimension(d: int, t: int) -> int:
    """Cube dimension of ``tightness_family(d, t)``, after checking d and t."""
    if d < 1 or t < 1:
        raise ValueError("tightness family needs d >= 1 and t >= 1")
    return d * t


def tightness_family(d: int, t: int) -> ComposedTarget:
    """XOR of d disjoint t-wide variable blocks on the cube of n = d*t.

    The strict decomposition of this target blows up to exactly
    (t+1)^d - 1 minterms while the composed representation has d*t.
    """
    lat = CubeLattice(tightness_dimension(d, t))
    blocks = _block_layout(d, t)
    inner = tuple(
        MonotoneDNF(lat, tuple(1 << b for b in blk)) for blk in blocks
    )
    return ComposedTarget(lat, parity_table(d), inner)


def takimoto_dimension(d: int, t: int) -> int:
    """Cube dimension of ``takimoto_family(d, t)``, after checking d and t."""
    if d < 2:
        raise ValueError("the nested family needs d >= 2")
    if t < 1:
        raise ValueError("block width must be at least 1")
    return d * (d + 1) * t // 2


def takimoto_family(d: int, t: int) -> ComposedTarget:
    """XOR of nested unions of t-wide blocks on the cube of n = d(d+1)t/2.

    g_i is the union of blocks i..d, so the g_i form a strictly shrinking
    chain that shares minterms between consecutive levels; the strict
    decomposition of the target differs from [g_1..g_d] and its last level
    alone has at least t^d minterms.
    """
    lat = CubeLattice(takimoto_dimension(d, t))
    blocks = _block_layout(d, t)
    inner = tuple(
        MonotoneDNF(
            lat, tuple(1 << b for blk in blocks[i:] for b in blk)
        )
        for i in range(d)
    )
    return ComposedTarget(lat, parity_table(d), inner)


def prefix_levels(d: int, t: int) -> XorHypothesis:
    """Expected strict decomposition of the tightness family.

    Level k fires when at least k blocks are active; its minimal elements
    are the joins of one variable from each of k distinct blocks, so it has
    C(d,k) * t^k minterms.  They all have k set bits, so they are pairwise
    incomparable and the level skips the constructor's antichain check.
    """
    if d < 1 or t < 1:
        raise ValueError("prefix levels need d >= 1 and t >= 1")
    lat = CubeLattice(d * t)
    # rows[k]: the dense set of points taking one variable from each of k
    # blocks seen so far.  Descending k reads rows[k-1] before this block
    # joins it
    rows = [1] + [0] * d
    for i, blk in enumerate(_block_layout(d, t)):
        for k in range(i + 1, 0, -1):
            rows[k] |= _join_block(rows[k - 1], blk)
    return XorHypothesis(lat, tuple(MonotoneDNF.from_mask(lat, row) for row in rows[1:]))


def takimoto_blocks(target: ComposedTarget) -> list[list[int]]:
    """Per-block bit positions of a nested (takimoto) target.

    Block i holds the variables of g_i that g_{i+1} lacks; raises
    ValueError when the inner minterms are not single variables or some
    g_i's variables are not a proper superset of g_{i+1}'s, or when the
    target does not lie on a cube, where ids are not bit vectors.
    """
    if not isinstance(target.lattice, CubeLattice):
        raise ValueError(f"target lies on {target.lattice.describe()}, not a cube")
    per = []
    for g in target.inner:
        bits = set()
        for a in g.minimals:
            if a.bit_count() != 1:
                raise ValueError("target minterms are not single variables")
            bits.add(a.bit_length() - 1)
        per.append(bits)
    per.append(set())
    if not all(outer > inner for outer, inner in zip(per, per[1:])):
        raise ValueError("target blocks are not nested")
    return [sorted(outer - inner) for outer, inner in zip(per, per[1:])]


def chain_witness_check(target: ComposedTarget, levels: XorHypothesis) -> bool:
    """Check that every chain picking one variable per block hits every level.

    A chain's k-th element sets its picked variables of blocks 1..k and
    must be a minimal element of the k-th level of ``levels``, the target's
    strict decomposition; a missing level fails.  The k-th elements of all
    chains form one dense set, so each level takes one inclusion test.
    """
    blocks = takimoto_blocks(target)
    if len(levels.levels) < len(blocks):
        return False
    heads = 1
    for blk, lv in zip(blocks, levels.levels):
        heads = _join_block(heads, blk)
        if heads & lv.mask != heads:
            return False
    return True


def random_dimension(d: int, sizes: Sequence[int], n: int) -> int:
    """Cube dimension of ``random_composed(d, sizes, n, seed)``, after checks."""
    if len(sizes) != d:
        raise ValueError("need one size per inner function")
    for size in sizes:
        if size < 0:
            raise ValueError(f"inner size {size} is negative")
    return n


def random_composed(
    d: int, sizes: Sequence[int], n: int, seed: int
) -> ComposedTarget:
    """Deterministic-from-seed random target with a 0 at the origin tuple.

    Each inner function is a uniform antichain of the requested size,
    produced by rejection: sample that many distinct nonzero points and
    retry until no two of them are comparable.
    """
    lat = CubeLattice(random_dimension(d, sizes, n))
    rng = random.Random(seed)
    inner = tuple(_random_antichain(rng, lat, s) for s in sizes)
    outer = rng.getrandbits(1 << d) & ~1
    return ComposedTarget(lat, outer, inner)


_RETRY_BUDGET = 1000


def _distinct_draws(rng: random.Random, stop: int, k: int) -> tuple[int, ...]:
    """k distinct draws from range(1, stop) as ``Random.sample`` makes them on large ranges."""
    picks: dict[int, None] = {}  # kept in draw order
    while len(picks) < k:
        picks[rng.randrange(1, stop)] = None
    return tuple(picks)


def _random_antichain(rng: random.Random, lat: CubeLattice, size: int) -> MonotoneDNF:
    if size > lat.size - 1:
        raise GenerationError(
            f"cannot place {size} incomparable points in {lat.describe()}"
        )
    for _ in range(_RETRY_BUDGET):
        try:
            picks = tuple(rng.sample(range(1, lat.size), size))
        except OverflowError:  # ``len`` of the range fails before any draw
            picks = _distinct_draws(rng, lat.size, size)
        # the constructor's sparse check rejects draws with a comparable pair
        try:
            return MonotoneDNF(lat, picks)
        except ValueError:
            pass
    raise GenerationError(
        f"no antichain of {size} points found in {lat.describe()} "
        f"after {_RETRY_BUDGET} attempts"
    )
