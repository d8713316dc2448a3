"""Build a d-level XOR-of-monotone hypothesis consistent with labeled points."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .boolfn import XorHypothesis
from .errors import InconsistentSampleError, InvalidSampleError
from .lattice import Lattice, elements_mask, mask_elements


@dataclass(frozen=True, init=False)
class LabeledSample:
    """Disjoint negative (x0) and positive (x1) lattice points.

    The points are kept as two dense masks, ``s0`` and ``s1``.  The
    constructor validates every point; ``from_masks`` trusts its masks.
    """

    lattice: Lattice
    s0: int
    s1: int

    def __init__(self, lattice: Lattice, x0: Iterable[int], x1: Iterable[int]):
        s0 = elements_mask(lattice.check_element(a) for a in x0)
        s1 = elements_mask(lattice.check_element(a) for a in x1)
        overlap = s0 & s1
        if overlap:
            name = lattice.element_name((overlap & -overlap).bit_length() - 1)
            raise InvalidSampleError(f"point {name} is labeled both 0 and 1")
        self._set(lattice, s0, s1)

    @classmethod
    def from_masks(cls, lattice: Lattice, s0: int, s1: int) -> "LabeledSample":
        """Trusted constructor from disjoint in-lattice masks, skipping validation."""
        sample = object.__new__(cls)
        sample._set(lattice, s0, s1)
        return sample

    def _set(self, lattice: Lattice, s0: int, s1: int) -> None:
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "s0", s0)
        object.__setattr__(self, "s1", s1)

    @property
    def x0(self) -> frozenset[int]:
        return frozenset(mask_elements(self.s0))

    @property
    def x1(self) -> frozenset[int]:
        return frozenset(mask_elements(self.s1))

    @property
    def points(self) -> frozenset[int]:
        return frozenset(mask_elements(self.s0 | self.s1))


def consistent_masks(lattice: Lattice, d: int, s0: int, s1: int) -> tuple[list[int], int]:
    """Mask kernel of ``consistent``: the d level masks and the truth table.

    ``s0`` and ``s1`` are the negative and positive points as disjoint
    dense masks, trusted as given.  Round i takes the minimal elements of
    the current positives as level i, then swaps the roles: the negatives
    outside the up-closure of the positives (where level i is already 0)
    are parked, the rest become the next positives, and the old positives
    (plus the parked points) become the next negatives.  Level i's
    up-closure is the closure of the round's positives, so the XOR of the
    per-round closures is the hypothesis's truth table.

    Raises InconsistentSampleError when positives survive all d rounds,
    naming the lowest such point.
    """
    levels = []
    table = 0
    for _ in range(d):
        up = lattice.up_closure(s1)
        levels.append(lattice.minimal(s1, up))
        table ^= up
        s0, s1 = s1 | (s0 & ~up), s0 & up
    if s1:
        point = (s1 & -s1).bit_length() - 1
        raise InconsistentSampleError(
            f"no {d}-monotone function matches the sample "
            f"(violated at {lattice.element_name(point)})",
            point=point,
        )
    return levels, table


def consistent(d: int, sample: LabeledSample) -> XorHypothesis:
    """Return h = F_1 xor ... xor F_d agreeing with every sample label.

    Runs ``consistent_masks`` on the sample's masks; the hypothesis's
    ``dense()`` is the table the kernel returns, and its levels are wrapped
    when first read.  The output always has exactly d levels; trailing
    all-zero levels are kept so the hypothesis shape is stable, and
    evaluation ignores them.

    Raises InconsistentSampleError when no d-monotone function fits the
    sample, naming a point the output would misclassify.
    """
    if d < 1:
        raise ValueError("degree must be at least 1")
    levels, table = consistent_masks(sample.lattice, d, sample.s0, sample.s1)
    return XorHypothesis.from_masks(sample.lattice, levels, table)
