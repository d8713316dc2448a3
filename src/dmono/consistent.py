"""Build a d-level XOR-of-monotone hypothesis consistent with labeled points."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

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
    """Mask kernel of ``consistent``: the d rounds' up-closures and the truth table.

    ``s0`` and ``s1`` are the negative and positive points as disjoint
    dense masks, trusted as given.  Round i takes the up-closure U_i of the
    current positives, then swaps the roles: the negatives outside U_i
    (where level i is already 0) are parked, the rest become the next
    positives, and the old positives (plus the parked points) become the
    next negatives.  The closures are nested, U_1 ⊇ ... ⊇ U_d; level i is
    the set of minimal elements of U_i, and the XOR of the closures is the
    hypothesis's truth table.

    Raises InconsistentSampleError when positives survive all d rounds,
    naming the lowest such point.
    """
    closures = []
    table = 0
    for _ in range(d):
        up = lattice.up_closure(s1)
        closures.append(up)
        table ^= up
        s0, s1 = s1 | (s0 & ~up), s0 & up
    if s1:
        point = (s1 & -s1).bit_length() - 1
        raise InconsistentSampleError(
            f"no {d}-monotone function matches the sample "
            f"(violated at {lattice.element_name(point)})",
            point=point,
        )
    return closures, table


def _extend_by_one_point(
    d: int, sample: LabeledSample, points: int, prior: XorHypothesis
) -> tuple[Sequence[int], int] | None:
    """The kernel's output for ``sample`` from the one ``prior`` was built on.

    ``points`` is the sample's point mask.  A sample point's rank is the
    number of closures holding it.  It is the largest rank of the sample
    points strictly below it, raised by one when that has the wrong parity
    for its label, so a new point q changes only its own rank and those of
    the sample points above it.  When q's rank equals the count of closures
    already holding it, nothing changes; when it is one more, at most d,
    and every old sample point above q keeps its rank (lies in that closure
    already), only closure ``rank`` grows, by up(q).  Returns None whenever
    ``prior`` does not fit (built by other means or on another lattice or
    degree, a label changed, not exactly one new point) or the rule does
    not apply; the full rounds then decide.
    """
    state = vars(prior)  # the closures are set only by ``from_closures``
    closures = state.get("_closures")
    lattice, s1 = sample.lattice, sample.s1
    if closures is None or len(closures) != d:
        return None
    if prior.lattice is not lattice and prior.lattice != lattice:
        return None
    # xor and and only: negating a dense mask costs several times as much
    known, table = state["_points"], prior.dense().mask
    new = points ^ known
    if not new or new & (new - 1) or new & known:
        return None  # not one point added with every old point kept
    if (s1 ^ table) & known:
        return None  # a label differs from the prior's table on its sample
    held = sum(1 for up in closures if up & new)
    label = 1 if s1 & new else 0
    rank = held + (label - held) % 2
    if rank == held:
        return closures, table
    if rank > d:
        return None
    closures = list(closures)
    old = closures[rank - 1]
    up = lattice.up_closure(new)
    fresh = up ^ (up & old)
    if known & fresh:
        return None  # an old point above q would change its rank
    closures[rank - 1] = old | up
    return closures, table ^ fresh


def consistent(
    d: int, sample: LabeledSample, prior: XorHypothesis | None = None
) -> XorHypothesis:
    """Return h = F_1 xor ... xor F_d agreeing with every sample label.

    Runs ``consistent_masks`` on the sample's masks and keeps its closures;
    the hypothesis's ``dense()`` is the table the kernel returns, and level
    i is taken as the minimal sample points of closure i when the levels
    are first read.  The output always has exactly d levels; trailing
    all-zero levels are kept so the hypothesis shape is stable, and
    evaluation ignores them.

    ``prior`` is a hint: a hypothesis this function returned for the same
    lattice and d on a sample that ``sample`` extends by exactly one point
    with the other labels kept.  Then the new point usually settles by one
    closure of that point instead of d rounds; where it does not, or when
    ``prior`` does not fit, the full rounds run.  The output never depends
    on ``prior``.

    Raises InconsistentSampleError when no d-monotone function fits the
    sample, naming a point the output would misclassify.
    """
    if d < 1:
        raise ValueError("degree must be at least 1")
    lattice, points = sample.lattice, sample.s0 | sample.s1
    extended = None if prior is None else _extend_by_one_point(d, sample, points, prior)
    if extended is None:
        extended = consistent_masks(lattice, d, sample.s0, sample.s1)
    closures, table = extended
    return XorHypothesis.from_closures(lattice, closures, points, table)
