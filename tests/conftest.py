import itertools
import sys
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import strategies as st

from dmono import CubeLattice, ExplicitLattice

DIAMOND_NAMES = ["bot", "p", "q", "top"]
DIAMOND_COVERS = [("bot", "p"), ("bot", "q"), ("p", "top"), ("q", "top")]

# non-graded order, declaration order far from topological
PENTAGON_NAMES = ["top", "c", "bot", "a", "b"]
PENTAGON_COVERS = [
    ("bot", "a"),
    ("a", "c"),
    ("c", "top"),
    ("bot", "b"),
    ("b", "top"),
    ("bot", "top"),  # transitive, must not become a cover
]


@pytest.fixture
def cube2():
    return CubeLattice(2)


@pytest.fixture
def cube3():
    return CubeLattice(3)


@pytest.fixture
def diamond():
    return ExplicitLattice(DIAMOND_NAMES, DIAMOND_COVERS)


@pytest.fixture
def chain4():
    names = ["a", "b", "c", "d"]
    return ExplicitLattice(names, [("a", "b"), ("b", "c"), ("c", "d")])


@contextmanager
def kernel_runs():
    """Record the sample mask of every full-rounds ``consistent`` run in the block."""
    # ``dmono.consistent`` names the function, so reach the module directly
    module = sys.modules["dmono.consistent"]
    kernel = module.consistent_rounds
    runs = []

    def spy(lat, points, s1):
        runs.append(points)
        return kernel(lat, points, s1)

    with mock.patch.object(module, "consistent_rounds", spy):
        yield runs


def checked_ids(monkeypatch, lat):
    """List that records every id ``lat.check_element`` is asked about."""
    seen = []
    check = lat.check_element

    def counted(a):
        seen.append(a)
        return check(a)

    monkeypatch.setattr(lat, "check_element", counted)
    return seen


def top_down_chain(n):
    """An n-element chain whose ids run from the top down."""
    names = [f"c{i}" for i in reversed(range(n))]
    return ExplicitLattice(names, [(f"c{i}", f"c{i + 1}") for i in range(n - 1)])


def _point_name(p):
    return "p" + "-".join(map(str, p))


def chain_product(dims, rng=None):
    """Product of chains 0 < 1 < ... < k-1; returns the points by id and the lattice.

    The points are declared in lexicographic order, a linear extension of
    the product order, unless ``rng`` shuffles them and the cover lines.
    """
    points = list(itertools.product(*(range(k) for k in dims)))
    if rng is not None:
        rng.shuffle(points)
    covers = [
        (_point_name(p), _point_name(p[:j] + (p[j] + 1,) + p[j + 1 :]))
        for p in points
        for j, k in enumerate(dims)
        if p[j] + 1 < k
    ]
    if rng is not None:
        rng.shuffle(covers)
    return points, ExplicitLattice([_point_name(p) for p in points], covers)


def lattice_file_text(names, covers):
    lines = ["lattice v1"]
    lines += [f"elem {nm}" for nm in names]
    lines += [f"cover {lo} {hi}" for lo, hi in covers]
    return "\n".join(lines) + "\n"


def set_name(s):
    return f"s{s:x}"


def inclusion_covers(sets):
    """Hasse diagram of a set family under inclusion, as (lower, upper) index pairs."""
    below = {b: [a for a in sets if a != b and a & b == a] for b in sets}
    return [
        (sets.index(a), sets.index(b))
        for b in sets
        for a in below[b]
        if not any(a != c and a & c == a for c in below[b])
    ]


@st.composite
def moore_families(draw, max_ground=4, max_draws=6):
    """A random intersection-closed family of subsets, full set included.

    Returns ``(sets, names, covers)``: the member sets in a shuffled
    declaration order, their names, and cover lines by name that hold the
    inclusion covers plus some transitive pairs, in shuffled order.
    """
    ground = draw(st.integers(1, max_ground))
    full = (1 << ground) - 1
    family = {full}
    for r in draw(st.lists(st.integers(0, full), max_size=max_draws)):
        family |= {r & s for s in family}
    sets = draw(st.permutations(sorted(family)))
    covers = inclusion_covers(sets)
    transitive = [
        (i, j)
        for i, a in enumerate(sets)
        for j, b in enumerate(sets)
        if a != b and a & b == a and (i, j) not in covers
    ]
    if transitive:
        covers += draw(st.lists(st.sampled_from(transitive), max_size=3))
    lines = draw(st.permutations(covers))
    names = [set_name(s) for s in sets]
    return sets, names, [(names[i], names[j]) for i, j in lines]


@st.composite
def single_top_orders(draw, max_size=11):
    """A random acyclic order on 2..max_size elements with exactly one maximal element.

    Returns ``(names, covers)``: the names in a shuffled declaration order
    and cover lines by name, some transitive or repeated, in shuffled
    order.  About a quarter of the draws are not lattices.
    """
    n = draw(st.integers(2, max_size))
    # rank r lies below a nonempty set of later ranks, so only the last is maximal
    edges = []
    for r in range(n - 1):
        later = draw(st.integers(1, (1 << n - 1 - r) - 1))
        edges += [(r, r + 1 + i) for i in range(n - 1 - r) if later >> i & 1]
    edges += draw(st.lists(st.sampled_from(edges), max_size=2))
    names = draw(st.permutations([f"r{r}" for r in range(n)]))
    return names, [(f"r{r}", f"r{s}") for r, s in draw(st.permutations(edges))]
