"""Build a d-level XOR-of-monotone hypothesis consistent with labeled points."""

from __future__ import annotations

from dataclasses import dataclass

from .boolfn import MonotoneDNF, XorHypothesis
from .errors import InconsistentSampleError, InvalidSampleError
from .lattice import Lattice, elements_mask


@dataclass(frozen=True)
class LabeledSample:
    """Disjoint sets of negative (x0) and positive (x1) lattice points."""

    lattice: Lattice
    x0: frozenset[int]
    x1: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "x0", frozenset(self.lattice.check_element(a) for a in self.x0))
        object.__setattr__(self, "x1", frozenset(self.lattice.check_element(a) for a in self.x1))
        overlap = self.x0 & self.x1
        if overlap:
            name = self.lattice.element_name(min(overlap))
            raise InvalidSampleError(f"point {name} is labeled both 0 and 1")

    @property
    def points(self) -> frozenset[int]:
        return self.x0 | self.x1


def consistent(d: int, sample: LabeledSample) -> XorHypothesis:
    """Return h = F_1 xor ... xor F_d agreeing with every sample label.

    Round i takes the minimal elements of the current positives as the
    minterms of F_i, then swaps the roles: the negatives outside the
    up-closure of the positives (where F_i is already 0) are parked, the
    rest become the next positives, and the old positives (plus the parked
    points) become the next negatives.  Point sets are dense masks, so
    each round is one closure and one shadow sweep.  The output always has
    exactly d levels; trailing all-zero levels are kept so the hypothesis
    shape is stable, and evaluation ignores them.

    Raises InconsistentSampleError when no d-monotone function fits the
    sample, naming a point the output would misclassify.
    """
    if d < 1:
        raise ValueError("degree must be at least 1")
    lat = sample.lattice
    s0, s1 = elements_mask(sample.x0), elements_mask(sample.x1)
    levels = []
    for _ in range(d):
        up = lat.up_closure(s1)
        levels.append(MonotoneDNF.from_mask(lat, s1 & ~lat.shadow(up)))
        s0, s1 = s1 | (s0 & ~up), s0 & up
    if s1:
        point = (s1 & -s1).bit_length() - 1
        raise InconsistentSampleError(
            f"no {d}-monotone function matches the sample "
            f"(violated at {lat.element_name(point)})",
            point=point,
        )
    return XorHypothesis(lat, tuple(levels))
