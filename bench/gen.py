"""Seeded benchmark inputs, produced as the exact bytes a workload writes.

Explicit lattices are shuffled-id products of chains and Moore families
(intersection-closed set systems plus the full set, ordered by inclusion);
their covers are computed here and emitted as ``.lat`` text whose
declaration order is not topological.  Targets over them are composed
functions of random antichains.  Cube inputs are function files built
with the package's own family generators.  One seed gives byte-identical
output on every call.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class GenLattice:
    """A finite order by declaration index: names, cover pairs, up-sets."""

    names: tuple[str, ...]
    covers: tuple[tuple[int, int], ...]
    ups: tuple[int, ...]  # bit b of ups[a] is set when a <= b

    def text(self) -> str:
        lines = ["lattice v1"]
        lines += [f"elem {nm}" for nm in self.names]
        lines += [f"cover {self.names[lo]} {self.names[hi]}" for lo, hi in self.covers]
        return "\n".join(lines) + "\n"


def _up_sets(size: int, covers, descending) -> tuple[int, ...]:
    """Up-set bitmasks, filled top-down along ``descending`` (maximal first)."""
    above: list[list[int]] = [[] for _ in range(size)]
    for lo, hi in covers:
        above[lo].append(hi)
    ups = [0] * size
    for a in descending:
        m = 1 << a
        for b in above[a]:
            m |= ups[b]
        ups[a] = m
    return tuple(ups)


def chain_product(dims: tuple[int, ...], rng: random.Random) -> GenLattice:
    """Product of chains 0 < 1 < ... < k-1, declared in shuffled order."""
    points = list(itertools.product(*(range(k) for k in dims)))
    rng.shuffle(points)
    idx = {p: i for i, p in enumerate(points)}
    covers = []
    for p in points:
        for j, k in enumerate(dims):
            if p[j] + 1 < k:
                q = p[:j] + (p[j] + 1,) + p[j + 1 :]
                covers.append((idx[p], idx[q]))
    covers.sort()
    descending = sorted(range(len(points)), key=lambda i: -sum(points[i]))
    names = tuple("p" + "-".join(map(str, p)) for p in points)
    return GenLattice(names, tuple(covers), _up_sets(len(points), covers, descending))


def moore_family(ground: int, size: int, rng: random.Random) -> GenLattice:
    """Intersection-closed family of subsets of ``ground`` bits, full set included.

    Random sets, each bit present with probability 0.7, join the family
    together with their intersections with every member, as long as the
    family stays within ``size`` members.
    """
    full = (1 << ground) - 1
    family = {full}
    for _ in range(50 * size):
        if len(family) >= size:
            break
        r = sum(1 << j for j in range(ground) if rng.random() < 0.7)
        grown = family | {r & s for s in family}
        if len(grown) <= size:
            family = grown
    sets = sorted(family)
    rng.shuffle(sets)
    idx = {s: i for i, s in enumerate(sets)}
    covers = []
    for b in sets:
        below = [a for a in sets if a != b and a & b == a]
        for a in below:
            if not any(c != a and a & c == a for c in below):
                covers.append((idx[a], idx[b]))
    covers.sort()
    descending = sorted(range(len(sets)), key=lambda i: -sets[i].bit_count())
    width = (ground + 3) // 4
    names = tuple("s" + format(s, f"0{width}x") for s in sets)
    return GenLattice(names, tuple(covers), _up_sets(len(sets), covers, descending))


def random_antichain(lat: GenLattice, k: int, rng: random.Random) -> list[int]:
    """k pairwise incomparable ids, by rejection over uniform k-subsets."""
    for _ in range(1000):
        picks = rng.sample(range(len(lat.names)), k)
        mins = [
            a for a in picks
            if not any(b != a and lat.ups[b] >> a & 1 for b in picks)
        ]
        if len(mins) == k:
            return sorted(mins)
    raise ValueError(f"no antichain of {k} points found")


def composed_targets(lat: GenLattice, count: int, sizes, rng: random.Random) -> list[dict]:
    """Composed payloads ``{"F": bits, "g": [names...]}`` with F(0) = 0 and F != 0."""
    d = len(sizes)
    out = []
    for _ in range(count):
        g = [[lat.names[a] for a in random_antichain(lat, s, rng)] for s in sizes]
        outer = 0
        while outer == 0:
            outer = rng.getrandbits(1 << d) & ~1
        bits = "".join("1" if outer >> k & 1 else "0" for k in range(1 << d))
        out.append({"F": bits, "g": g})
    return out


# ---- workload inputs: {file name: text} -----------------------------------

EXPLICIT_LATTICES = (
    ("grid6x3", lambda rng: chain_product((6, 6, 6), rng)),
    ("grid4x4", lambda rng: chain_product((4, 4, 4, 4), rng)),
    ("grid8x3", lambda rng: chain_product((8, 8, 8), rng)),
    ("moore", lambda rng: moore_family(10, 160, rng)),
)
EXPLICIT_TARGETS = 16
EXPLICIT_SIZES = (3, 3, 3)


def learn_explicit_inputs(seed: int) -> list[tuple[str, GenLattice, list[dict]]]:
    """Per lattice: its name, the generated order and its composed targets."""
    rng = random.Random(seed)
    out = []
    for name, build in EXPLICIT_LATTICES:
        lat = build(random.Random(rng.getrandbits(64)))
        targets = composed_targets(
            lat, EXPLICIT_TARGETS, EXPLICIT_SIZES, random.Random(rng.getrandbits(64))
        )
        out.append((name, lat, targets))
    return out


def render_explicit(inputs) -> dict[str, str]:
    """Per lattice: ``<name>.lat`` and ``<name>.targets.json``."""
    files = {}
    for name, lat, targets in inputs:
        files[f"{name}.lat"] = lat.text()
        files[f"{name}.targets.json"] = json.dumps(targets, indent=1) + "\n"
    return files


def _family_files(dmono, tight, taki, randoms, seed: int) -> dict[str, str]:
    rng = random.Random(seed)
    files = {}
    for d, t in tight:
        meta = {"family": "tightness", "d": d, "t": t}
        files[f"tightness-{d}-{t}.json"] = dmono.dumps_function(dmono.tightness_family(d, t), meta)
    for d, t in taki:
        meta = {"family": "takimoto", "d": d, "t": t}
        files[f"takimoto-{d}-{t}.json"] = dmono.dumps_function(dmono.takimoto_family(d, t), meta)
    for i, (n, sizes, dense) in enumerate(randoms):
        s = rng.getrandbits(32)
        target = dmono.random_composed(len(sizes), sizes, n, s)
        meta = {"family": "random", "d": len(sizes), "sizes": list(sizes), "n": n, "seed": s}
        if dense:
            files[f"dense-{i}-n{n}.json"] = dmono.dumps_function(target.dense(), meta)
        else:
            files[f"random-{i}-n{n}.json"] = dmono.dumps_function(target, meta)
    return files


def learn_cube_files(dmono, seed: int) -> dict[str, str]:
    randoms = [(n, (4, 4, 4), False) for n in (12, 13, 14, 12, 13, 14)]
    return _family_files(
        dmono, [(3, 3), (3, 4), (4, 2), (4, 3)], [(2, 3), (3, 1)], randoms, seed
    )


def cli_decompose_files(dmono, seed: int) -> dict[str, str]:
    randoms = [(15, (4, 4, 4), False), (16, (4, 4, 4), False), (14, (3, 3, 3), True)]
    return _family_files(dmono, [(4, 4), (5, 3)], [(2, 4), (3, 2)], randoms, seed)
