"""Finite lattices with joins, covers, and the maximal predecessor sum.

Two realizations: the Boolean cube {0,1}^n, whose elements are the integer
values of the n-bit words, and explicit lattices described by a covering
relation, whose elements are dense indices in declaration order.  The
artificial bottom sits below every element but is never stored; an element
with no in-lattice predecessor simply returns no covers.

Dense subsets and dense function tables are Python ints with one bit per
element id, which keeps closure sweeps cheap even at 2^12 elements.
"""

from __future__ import annotations

import heapq
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

from .errors import InvalidElementError, LatticeValidationError


def mask_elements(mask: int) -> list[int]:
    """Set bit positions of ``mask`` in ascending (canonical) order."""
    out = []
    if mask.bit_count() <= 16:
        # each peeled bit costs one pass over the int; measured on 2^6- to
        # 2^16-bit masks, peeling wins up to 16 set bits and ties at ~32
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return out
    # one linear pass; peeling every bit of a dense mask is quadratic
    bits = format(mask, "b")[::-1]
    i = bits.find("1")
    while i >= 0:
        out.append(i)
        i = bits.find("1", i + 1)
    return out


def elements_mask(elems: Iterable[int]) -> int:
    m = 0
    for a in elems:
        m |= 1 << a
    return m


class Lattice:
    """Shared machinery; concrete orders supply the primitive queries."""

    size: int
    top: int

    # ---- primitives -------------------------------------------------

    def leq(self, a: int, b: int) -> bool:
        raise NotImplementedError

    def join(self, a: int, b: int) -> int:
        raise NotImplementedError

    def immediate_predecessors(self, a: int) -> tuple[int, ...]:
        raise NotImplementedError

    def sigma(self) -> int:
        """Maximal predecessor sum over descending cover chains from the top."""
        raise NotImplementedError

    def up_closure(self, mask: int) -> int:
        """Dense indicator of the union of up-sets of the set bits of mask."""
        raise NotImplementedError

    def shadow(self, mask: int) -> int:
        """Elements having at least one immediate predecessor inside mask."""
        raise NotImplementedError

    def element_name(self, a: int) -> str:
        raise NotImplementedError

    def parse_element(self, name: str) -> int:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    # ---- shared -----------------------------------------------------

    def elements(self) -> range:
        return range(self.size)

    def check_element(self, a: int) -> int:
        if not isinstance(a, int) or not 0 <= a < self.size:
            raise InvalidElementError(f"{a!r} is not an element of {self.describe()}")
        return a

    def minimal(self, mask: int, up: int | None = None) -> int:
        """Minimal elements of a dense subset, as a dense subset.

        An element of ``mask`` is minimal when no immediate predecessor
        lies in the up-closure of ``mask``, i.e. nothing of ``mask`` sits
        strictly below it.  ``up`` is that up-closure when the caller
        already has it.  The result is always an antichain.
        """
        if up is None:
            up = self.up_closure(mask)
        return mask & ~self.shadow(up)


class CubeLattice(Lattice):
    """{0,1}^n under the coordinatewise order; join is bitwise OR."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("cube dimension must be at least 1")
        self.n = n
        self._clear_masks: list[int] | None = None

    # computed on first use, so that building even a huge cube is O(1)
    @cached_property
    def size(self) -> int:
        return 1 << self.n

    @cached_property
    def top(self) -> int:
        return self.size - 1

    def __eq__(self, other) -> bool:
        return isinstance(other, CubeLattice) and other.n == self.n

    def __hash__(self) -> int:
        return hash(("cube", self.n))

    def __repr__(self) -> str:
        return f"CubeLattice({self.n})"

    def describe(self) -> str:
        return f"cube:{self.n}"

    def leq(self, a: int, b: int) -> bool:
        self.check_element(a)
        self.check_element(b)
        return a | b == b

    def join(self, a: int, b: int) -> int:
        self.check_element(a)
        self.check_element(b)
        return a | b

    def immediate_predecessors(self, a: int) -> tuple[int, ...]:
        self.check_element(a)
        # clearing a higher bit yields a smaller word, so ascending output
        return tuple(a & ~(1 << j) for j in reversed(range(self.n)) if a >> j & 1)

    def sigma(self) -> int:
        return self.n * (self.n + 1) // 2

    def element_name(self, a: int) -> str:
        self.check_element(a)
        return format(a, f"0{self.n}b")

    def parse_element(self, name: str) -> int:
        if len(name) != self.n or set(name) - {"0", "1"}:
            raise InvalidElementError(f"{name!r} is not a {self.n}-bit word")
        return int(name, 2)

    def _coordinate_clear_masks(self) -> list[int]:
        # mask j marks every element whose j-th coordinate is 0
        if self._clear_masks is None:
            masks = []
            for j in range(self.n):
                # 2^j ones then 2^j zeros, doubled until it spans the cube
                m, width = (1 << (1 << j)) - 1, 2 << j
                while width < self.size:
                    m |= m << width
                    width <<= 1
                masks.append(m)
            self._clear_masks = masks
        return self._clear_masks

    def up_closure(self, mask: int) -> int:
        # bit-parallel sweep: one pass per coordinate propagates 0 -> 1
        for j, zeros in enumerate(self._coordinate_clear_masks()):
            mask |= (mask & zeros) << (1 << j)
        return mask

    def shadow(self, mask: int) -> int:
        out = 0
        for j, zeros in enumerate(self._coordinate_clear_masks()):
            out |= (mask & zeros) << (1 << j)
        return out


class ExplicitLattice(Lattice):
    """Lattice given by named elements and covering pairs, fully validated.

    Validation establishes antisymmetry (no cycles), a unique top element
    and a unique least upper bound for every pair; after that the instance
    is immutable and every query reads per-element bit sets: the up-set and
    the upper and lower covers of each element.
    """

    def __init__(
        self,
        names: Sequence[str],
        covers: Iterable[tuple[str, str]],
        source_path: str | None = None,
    ):
        names = tuple(names)
        if not names:
            raise LatticeValidationError("a lattice needs at least one element")
        seen: set[str] = set()
        for nm in names:
            if nm in seen:
                raise LatticeValidationError(f"duplicate element {nm!r}")
            seen.add(nm)
        self.names = names
        self.size = len(names)
        self.source_path = source_path
        self._ids = {nm: i for i, nm in enumerate(names)}

        succ = [0] * self.size  # declared upper neighbours, as bit sets
        pred = [0] * self.size  # declared lower neighbours, as bit sets
        for lo_name, hi_name in covers:
            lo = self._ids.get(lo_name)
            hi = self._ids.get(hi_name)
            if lo is None or hi is None:
                missing = lo_name if lo is None else hi_name
                raise LatticeValidationError(f"cover names unknown element {missing!r}")
            if lo == hi:
                raise LatticeValidationError(f"cover relates {lo_name!r} to itself")
            succ[lo] |= 1 << hi
            pred[hi] |= 1 << lo

        # Kahn sweep, lowest ready id first; it stalls exactly on cycles
        indeg = [p.bit_count() for p in pred]
        ready = [a for a in range(self.size) if not indeg[a]]
        order = []
        while ready:
            u = heapq.heappop(ready)
            order.append(u)
            for v in mask_elements(succ[u]):
                indeg[v] -= 1
                if not indeg[v]:
                    heapq.heappush(ready, v)
        if len(order) < self.size:
            # every left-over element keeps a left-over predecessor, so
            # walking down through them must come back to a visited element
            left = elements_mask(a for a in range(self.size) if indeg[a])
            step: dict[int, int] = {}
            a = (left & -left).bit_length() - 1
            while a not in step:
                below = pred[a] & left
                step[a] = (below & -below).bit_length() - 1
                a = step[a]
            raise LatticeValidationError(
                f"cycle through elements {names[a]!r} and {names[step[a]]!r}"
            )
        self._topo = tuple(order)

        # top-down: an up-set is the element and its successors' up-sets; a
        # declared successor is a cover unless it lies strictly above another
        # declared successor, which drops transitive input edges
        ups = [0] * self.size
        up_covers = [0] * self.size
        for a in reversed(order):
            above = 0
            for b in mask_elements(succ[a]):
                above |= ups[b] ^ (1 << b)
            up_covers[a] = succ[a] & ~above
            ups[a] = 1 << a | succ[a] | above
        self._ups = ups
        self._up_covers = up_covers

        maximal = [a for a in range(self.size) if not succ[a]]
        if len(maximal) != 1:
            a, b = maximal[0], maximal[1]
            raise LatticeValidationError(
                f"elements {names[a]!r} and {names[b]!r} are both maximal, "
                "so the pair has no upper bound"
            )
        self.top = maximal[0]

        preds: list[list[int]] = [[] for _ in range(self.size)]
        down = [0] * self.size  # lower covers, as bit sets
        for a in range(self.size):
            for c in mask_elements(up_covers[a]):
                preds[c].append(a)
                down[c] |= 1 << a
        self._preds = tuple(map(tuple, preds))
        self._down = down

        # a pair has a least upper bound exactly when its common up-set is
        # itself the up-set of one element, which is then the join
        self._by_up = {up: a for a, up in enumerate(ups)}
        for a in range(self.size):
            for b in range(a + 1, self.size):
                common = ups[a] & ups[b]
                if common not in self._by_up:
                    minimal_ubs = [names[c] for c in mask_elements(self.minimal(common))]
                    raise LatticeValidationError(
                        f"elements {names[a]!r} and {names[b]!r} have no unique "
                        f"least upper bound (minimal upper bounds: {minimal_ubs})"
                    )

        # maximal predecessor sum: the best chain below an element depends
        # only on that element, so one sweep in topological order suffices
        best = [0] * self.size
        for a in order:
            if preds[a]:
                best[a] = len(preds[a]) + max(best[b] for b in preds[a])
        self._sigma = best[self.top]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExplicitLattice)
            and other.names == self.names
            and other._ups == self._ups
        )

    def __hash__(self) -> int:
        return hash(("explicit", self.names, tuple(self._ups)))

    def __repr__(self) -> str:
        return f"ExplicitLattice({self.size} elements)"

    def describe(self) -> str:
        return self.source_path or f"explicit:{self.size}"

    def leq(self, a: int, b: int) -> bool:
        self.check_element(a)
        self.check_element(b)
        return bool(self._ups[a] >> b & 1)

    def join(self, a: int, b: int) -> int:
        self.check_element(a)
        self.check_element(b)
        return self._by_up[self._ups[a] & self._ups[b]]

    def immediate_predecessors(self, a: int) -> tuple[int, ...]:
        self.check_element(a)
        return self._preds[a]

    def topo_order(self) -> tuple[int, ...]:
        """Every element after all of its immediate predecessors."""
        return self._topo

    def sigma(self) -> int:
        return self._sigma

    def up_closure(self, mask: int) -> int:
        out = 0
        while mask:
            out |= self._ups[(mask & -mask).bit_length() - 1]
            mask &= ~out  # points already covered add nothing new
        return out

    def shadow(self, mask: int) -> int:
        out = 0
        for a in mask_elements(mask):
            out |= self._up_covers[a]
        return out

    def minimal(self, mask: int, up: int | None = None) -> int:
        # test only the mask's own points: one of them is minimal exactly
        # when none of its lower covers lies in the up-closure
        if up is None:
            up = self.up_closure(mask)
        down = self._down
        out = 0
        for a in mask_elements(mask):
            if not down[a] & up:
                out |= 1 << a
        return out

    def element_name(self, a: int) -> str:
        self.check_element(a)
        return self.names[a]

    def parse_element(self, name: str) -> int:
        try:
            return self._ids[name]
        except KeyError:
            raise InvalidElementError(
                f"{name!r} is not an element of {self.describe()}"
            ) from None


def parse_lattice(text: str, source: str = "<lattice>") -> ExplicitLattice:
    """Parse the one-record-per-line lattice format.

    Header ``lattice v1``, then ``elem <name>`` lines in declaration order,
    then ``cover <lower> <upper>`` lines.  Blank lines and ``#`` comments
    are skipped.  Errors carry the source name and line number.
    """
    names: list[str] = []
    covers: list[tuple[str, str]] = []
    declared: set[str] = set()
    saw_header = False
    saw_cover = False

    def fail(lineno: int, message: str) -> LatticeValidationError:
        return LatticeValidationError(f"{source}:{lineno}: {message}")

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not saw_header:
            if line != "lattice v1":
                raise fail(lineno, f"expected 'lattice v1' header, got {line!r}")
            saw_header = True
            continue
        tokens = line.split()
        if tokens[0] == "elem":
            if len(tokens) != 2:
                raise fail(lineno, "elem takes exactly one name")
            if saw_cover:
                raise fail(lineno, "elem lines must precede cover lines")
            if tokens[1] in declared:
                raise fail(lineno, f"duplicate element {tokens[1]!r}")
            declared.add(tokens[1])
            names.append(tokens[1])
        elif tokens[0] == "cover":
            if len(tokens) != 3:
                raise fail(lineno, "cover takes exactly two names")
            for nm in tokens[1:]:
                if nm not in declared:
                    raise fail(lineno, f"cover names unknown element {nm!r}")
            saw_cover = True
            covers.append((tokens[1], tokens[2]))
        else:
            raise fail(lineno, f"unknown directive {tokens[0]!r}")
    if not saw_header:
        raise LatticeValidationError(f"{source}: empty file, expected 'lattice v1' header")
    try:
        return ExplicitLattice(names, covers, source_path=source)
    except LatticeValidationError as exc:
        raise LatticeValidationError(f"{source}: {exc}") from None


def load_lattice(path: str | Path) -> ExplicitLattice:
    path = Path(path)
    return parse_lattice(path.read_text(), source=str(path))
