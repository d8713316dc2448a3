"""Build a d-monotone hypothesis consistent with labeled points."""

from __future__ import annotations

from functools import reduce
from operator import xor
from typing import Iterable

from .boolfn import DenseFunction, consistent_rounds
from .errors import InconsistentSampleError, InternalError, InvalidSampleError
from .lattice import Lattice, elements_mask, mask_bit, mask_elements


class DenseState:
    """A growing sample and the nested closures that the rounds build on it.

    ``points`` holds the sample, ``closures`` the up-closures U_1 ⊋ U_2 ⊋
    ... of ``consistent_rounds`` and ``table`` their XOR, all dense masks
    that depend on the sample alone; a point's label is its table bit.
    The constructor validates every point of ``x0`` and ``x1`` and rejects
    a point labeled both ways.  ``add`` joins one point at once, so the
    state always equals the full rounds on its sample.
    """

    __slots__ = ("lattice", "points", "closures", "table")

    def __init__(self, lattice: Lattice, x0: Iterable[int] = (), x1: Iterable[int] = ()):
        s0 = elements_mask(lattice.check_element(a) for a in x0)
        s1 = elements_mask(lattice.check_element(a) for a in x1)
        overlap = s0 & s1
        if overlap:
            name = lattice.element_name((overlap & -overlap).bit_length() - 1)
            raise InvalidSampleError(f"point {name} is labeled both 0 and 1")
        self.lattice, self.points = lattice, s0 | s1
        self.closures = [up for up, _ in consistent_rounds(lattice, self.points, s1)]
        self.table = reduce(xor, self.closures, 0)

    @property
    def x0(self) -> tuple[int, ...]:
        return tuple(mask_elements(self.points & ~self.table))

    @property
    def x1(self) -> tuple[int, ...]:
        return tuple(mask_elements(self.points & self.table))

    def add(self, q: int, label: int) -> None:
        """Join q, not yet in the sample, under ``label`` to the points, closures and table.

        A sample point's rank, the number of closures holding it, is the
        largest rank strictly below it, raised by one when its parity
        differs from its label; so q changes only its own rank and those
        of the points above it.  The closures are nested, so q's count is
        the prefix of them that holds q: one ``mask_bit`` read each, up to
        the first closure without q.  If q's rank is the count of closures
        holding it, nothing changes; if one more, with every old point
        above q already in closure ``rank``, only that closure grows, by
        up(q), and a rank one past every closure opens a new one.
        Otherwise the full rounds run on the grown sample.

        Raises InvalidElementError for a q off the lattice, ValueError for
        a label other than 0 or 1, and InternalError when q is already a
        sample point, each before anything changes.
        """
        self.lattice.check_element(q)
        if label not in (0, 1) or not isinstance(label, int):
            raise ValueError(f"a label is 0 or 1, not {label!r}")
        bit = 1 << q
        points = self.points
        if mask_bit(points, q):
            raise InternalError(f"point {self.lattice.element_name(q)} is already in the sample")
        closures = self.closures
        held = 0
        for up in closures:
            if not mask_bit(up, q):
                break
            held += 1
        rank = held + (label - held) % 2
        if rank > held:
            if held == len(closures):
                closures.append(0)
            old = closures[rank - 1]
            grown = old | self.lattice.up_closure(bit)
            fresh = grown ^ old
            if points & fresh:
                # an old point above q would change its rank
                s1 = points & self.table | label << q
                self.closures = [up for up, _ in consistent_rounds(self.lattice, points | bit, s1)]
                self.table = reduce(xor, self.closures, 0)
            else:
                closures[rank - 1] = grown
                self.table ^= fresh
        self.points = points | bit


def consistent(d: int, state: DenseState) -> DenseFunction:
    """Return the table of an h = F_1 xor ... xor F_d agreeing with every sample label.

    Reads the state out and changes nothing in it.  The rounds' levels
    F_i are the table's strict decomposition (a minimal element of
    closure i never lies in closure i+1), so ``strict_decompose`` of the
    result gives them back, at most d of them.

    Raises ValueError for a d below 1, and InconsistentSampleError when
    the state, which keeps its sample, holds more than d closures, naming
    the lowest point that d rounds leave unexplained.
    """
    if d < 1:
        raise ValueError("degree must be at least 1")
    if len(state.closures) > d:
        # round i's positives are the points of U_{i-1} labeled i mod 2
        left = state.closures[d - 1] & state.points & (~state.table if d & 1 else state.table)
        point = (left & -left).bit_length() - 1
        raise InconsistentSampleError(
            f"no {d}-monotone function matches the sample "
            f"(violated at {state.lattice.element_name(point)})",
            point=point,
        )
    return DenseFunction.from_mask(state.lattice, state.table)
