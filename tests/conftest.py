import pytest

from dmono import CubeLattice, ExplicitLattice

DIAMOND_NAMES = ["bot", "p", "q", "top"]
DIAMOND_COVERS = [("bot", "p"), ("bot", "q"), ("p", "top"), ("q", "top")]


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


def lattice_file_text(names, covers):
    lines = ["lattice v1"]
    lines += [f"elem {nm}" for nm in names]
    lines += [f"cover {lo} {hi}" for lo, hi in covers]
    return "\n".join(lines) + "\n"
