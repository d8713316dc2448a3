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

from typing import Iterable, Sequence

from .errors import InvalidElementError, LatticeValidationError

# the CLI's cap on a cube's dimension, which ``--max-n`` moves
DEFAULT_MAX_N = 22


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


def mask_bit(mask: int, i: int) -> int:
    """Bit ``i`` of the non-negative ``mask``, paying for its shorter side.

    ``mask >> i`` copies every bit above i, while ``mask & (1 << i)``
    builds and scans i bits, so a low bit takes the AND and a high bit
    the shift.
    """
    if i << 1 < mask.bit_length():
        return 1 if mask & (1 << i) else 0
    return mask >> i & 1


def elements_mask(elems: Iterable[int]) -> int:
    """Dense indicator of the non-negative ``elems``; inverse of ``mask_elements``."""
    elems = list(elems)
    if len(elems) <= 16:
        # each OR copies the growing mask, while the byte buffer below
        # makes one pass.  Measured on 2^12- to 2^22-bit masks, the ORs win
        # up to 10-48 elements, fewer the wider the mask: past 16, the
        # buffer loses a few µs on narrow masks and saves ms on wide ones
        m = 0
        for a in elems:
            m |= 1 << a
        return m
    buf = bytearray((max(elems) >> 3) + 1)
    for a in elems:
        buf[a >> 3] |= 1 << (a & 7)
    return int.from_bytes(buf, "little")


def is_bit_string(s: str) -> bool:
    """Whether ``s`` holds only 0s and 1s; ``isascii`` first, as a lone surrogate cannot encode."""
    return s.isascii() and not s.encode().translate(None, b"01")


class Lattice:
    """A finite lattice whose elements are the ids ``0 .. size - 1``.

    A new lattice supplies:

    - ``size`` and ``top``;
    - ``id_bits``, the bit length of the largest id, and ``size_text``,
      the size as messages print it, which the cap checks read;
    - the order queries ``leq``, ``join`` and ``immediate_predecessors``,
      and ``sigma``;
    - the subset kernels ``up_closure`` and ``up_and_minimal``;
    - ``element_names``, ``parse_element`` and ``describe``.

    The queries take ids that came from the lattice or that passed
    ``check_element``, and check nothing.  The shared boundary,
    ``check_element`` and ``element_name``, checks the ids it is given.
    """

    size: int
    top: int
    id_bits: int
    size_text: str

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

    def up_and_minimal(self, mask: int) -> tuple[int, int]:
        """The up-closure of ``mask`` and its antichain of minimal elements."""
        raise NotImplementedError

    def element_names(self, elems: Iterable[int]) -> list[str]:
        """Names of ids this lattice issued, with no check per id.

        For writers of ids read from the lattice's own masks or from
        points already checked; ``element_name`` checks its id.
        """
        raise NotImplementedError

    def parse_element(self, name: str) -> int:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    # ---- shared -----------------------------------------------------

    def check_element(self, a: int) -> int:
        if not isinstance(a, int) or not 0 <= a < self.size:
            raise InvalidElementError(f"{a!r} is not an element of {self.describe()}")
        return a

    def element_name(self, a: int) -> str:
        return self.element_names((self.check_element(a),))[0]


class CubeLattice(Lattice):
    """{0,1}^n under the coordinatewise order; join is bitwise OR."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("cube dimension must be at least 1")
        self.n = n
        # 2^n may be too large to build, or to print in decimal
        self.id_bits, self.size_text = n, f"2^{n}"
        self._clear_masks: list[int] | None = None
        self._full = 0  # every element's bit, set beside the clear masks

    # computed on each read, not stored at construction, so that building
    # even a cube too large to hold a table is O(1)
    @property
    def size(self) -> int:
        return 1 << self.n

    @property
    def top(self) -> int:
        return (1 << self.n) - 1

    def __eq__(self, other) -> bool:
        return isinstance(other, CubeLattice) and other.n == self.n

    def __hash__(self) -> int:
        return hash(("cube", self.n))

    def __repr__(self) -> str:
        return f"CubeLattice({self.n})"

    def describe(self) -> str:
        return f"cube:{self.n}"

    def check_element(self, a: int) -> int:
        # tests n rather than building size; a negative a shifts to -1
        if not isinstance(a, int) or a >> self.n:
            raise InvalidElementError(f"{a!r} is not an element of {self.describe()}")
        return a

    def leq(self, a: int, b: int) -> bool:
        return a | b == b

    def join(self, a: int, b: int) -> int:
        return a | b

    def immediate_predecessors(self, a: int) -> tuple[int, ...]:
        # peel set bits high first: clearing a higher bit gives a smaller word;
        # ``> 0`` ends the loop on a negative non-element, whose peels never
        # reach 0
        preds, rest = [], a
        while rest > 0:
            rest ^= (bit := 1 << rest.bit_length() - 1)
            preds.append(a ^ bit)
        return tuple(preds)

    def sigma(self) -> int:
        return self.n * (self.n + 1) // 2

    def element_names(self, elems: Iterable[int]) -> list[str]:
        spec = f"0{self.n}b"
        return [format(a, spec) for a in elems]

    def parse_element(self, name: str) -> int:
        if len(name) != self.n or not is_bit_string(name):
            raise InvalidElementError(f"{name!r} is not a {self.n}-bit word")
        return int(name, 2)

    def _coordinate_clear_masks(self) -> list[int]:
        # mask j marks every element whose j-th coordinate is 0
        if self._clear_masks is None:
            # top-down: mask n-1 is the lower half, and mask j is mask j+1
            # with each of its blocks of 2^(j+1) ones split in two halves,
            # one shift and one XOR each
            m = (1 << (self.size >> 1)) - 1
            masks = [m]
            for j in reversed(range(self.n - 1)):
                m ^= m << (1 << j)
                masks.append(m)
            masks.reverse()
            self._full = (1 << self.size) - 1
            self._clear_masks = masks
        return self._clear_masks

    def up_closure(self, mask: int) -> int:
        a = mask.bit_length() - 1
        if a >= 0 and mask == 1 << a:  # far cheaper than bit_count on a dense mask
            if a.bit_count() <= 5:
                # the up-set of a is every element set wherever a is: the
                # complement of the clear masks of a's set coordinates, one
                # full-width OR per set coordinate
                clear = self._coordinate_clear_masks()
                out = 0
                while a:
                    j = a.bit_length() - 1
                    out |= clear[j]
                    a ^= 1 << j
                return self._full ^ out
            # otherwise the up-set is the subsets of a's clear coordinates,
            # shifted once by a: double element 0 once per clear coordinate,
            # smallest first, so the int only grows to the width of those
            # subsets, and every shift-or before the last is short.  Measured
            # at n = 12-22, this beats the ORs from about 6 set coordinates on
            up, rest = 1, self.top ^ a
            while rest:
                low = rest & -rest
                up |= up << low
                rest ^= low
            return up << a
        # bit-parallel sweep: one pass per coordinate propagates 0 -> 1
        for j, zeros in enumerate(self._coordinate_clear_masks()):
            mask |= (mask & zeros) << (1 << j)
        return mask

    def up_and_minimal(self, mask: int) -> tuple[int, int]:
        # the closure sweep, also collecting what each pass adds: a point
        # reached from below over coordinate j lies strictly above some
        # point of the mask, and every such point is reached so over the
        # highest coordinate where the two differ
        up, above = mask, 0
        for j, zeros in enumerate(self._coordinate_clear_masks()):
            step = (up & zeros) << (1 << j)
            up |= step
            above |= step
        return up, mask & ~above


class ExplicitLattice(Lattice):
    """Lattice given by named elements and covering pairs, fully validated.

    Validation establishes antisymmetry (no cycles), a unique top element
    and a unique least upper bound for every pair; after that the instance
    is immutable and every query reads per-element state: the up-set of
    each element as a bit set and its lower covers as a tuple of ids.
    """

    # absolute path of the file it was loaded from, set by ``load_lattice``;
    # ``source_path`` keeps the path as given, for describe() and records
    resolved_path: str | None = None

    def __init__(
        self,
        names: Sequence[str],
        covers: Iterable[tuple[str, str]],
        source_path: str | None = None,
    ):
        names = tuple(names)
        if not names:
            raise LatticeValidationError("a lattice needs at least one element")
        ids = self._ids = {nm: i for i, nm in enumerate(names)}
        n = self.size = len(names)
        self.id_bits, self.size_text = (n - 1).bit_length(), str(n)
        if len(ids) < n:  # name the first repeat in declaration order
            seen: set[str] = set()
            first = next(nm for nm in names if nm in seen or seen.add(nm))
            raise LatticeValidationError(f"duplicate element {first!r}")
        self.names = names
        self.source_path = source_path

        # declared successors as small lists and in-degrees; a repeated cover
        # line counts on both, so the sweep's in-degrees stay exact
        succ: list[list[int]] = [[] for _ in range(n)]
        indeg = [0] * n
        for lo_name, hi_name in covers:
            lo = ids.get(lo_name)
            hi = ids.get(hi_name)
            if lo is None or hi is None:
                missing = lo_name if lo is None else hi_name
                raise LatticeValidationError(f"cover names unknown element {missing!r}")
            if lo == hi:
                raise LatticeValidationError(f"cover relates {lo_name!r} to itself")
            succ[lo].append(hi)
            indeg[hi] += 1

        # Kahn sweep; it stalls exactly on cycles, whatever the pop order
        roots = [a for a in range(n) if not indeg[a]]
        ready = roots[:]
        order = []
        while ready:
            u = ready.pop()
            order.append(u)
            for v in succ[u]:
                indeg[v] -= 1
                if not indeg[v]:
                    ready.append(v)
        if len(order) < n:
            # every left-over element keeps a left-over predecessor, so
            # walking down through them must come back to a visited element
            pred: list[list[int]] = [[] for _ in range(n)]
            for a, bs in enumerate(succ):
                for b in bs:
                    pred[b].append(a)
            step: dict[int, int] = {}
            a = next(a for a in range(n) if indeg[a])
            while a not in step:
                step[a] = min(b for b in pred[a] if indeg[b])
                a = step[a]
            raise LatticeValidationError(
                f"cycle through elements {names[a]!r} and {names[step[a]]!r}"
            )

        # top-down: an up-set is the element and its successors' up-sets; a
        # declared successor is a cover (once, however often declared)
        # unless it lies strictly above another declared successor, which
        # drops transitive input edges; the covers come out ascending
        ups = [0] * n
        up_covers: list[list[int]] = [[]] * n
        for a in reversed(order):
            full = above = 0
            for b in (s := succ[a]):
                full |= ups[b]
                above |= ups[b] ^ (1 << b)
            up_covers[a] = mask_elements(full & ~above) if len(s) > 1 else s
            ups[a] = full | 1 << a
        self._ups = ups

        maximal = [a for a in range(n) if not succ[a]]
        if len(maximal) != 1:
            a, b = maximal[0], maximal[1]
            raise LatticeValidationError(
                f"elements {names[a]!r} and {names[b]!r} are both maximal, "
                "so the pair has no upper bound"
            )
        self.top = maximal[0]

        preds: list[list[int]] = [[] for _ in range(n)]
        for a, cs in enumerate(up_covers):
            for c in cs:
                preds[c].append(a)
        self._lower_covers = tuple(map(tuple, preds))

        # a pair has a least upper bound exactly when its common up-set is
        # itself the up-set of one element, which is then the join.  Under a
        # top, every pair has one as soon as every two upper covers of a
        # common element do, the implicit bottom included: its upper covers
        # are the elements with no declared predecessor.  An error names the
        # first pair of this sweep that fails
        by_up = self._by_up = {up: a for a, up in enumerate(ups)}
        for group in (roots, *up_covers):
            for i in range(len(group) - 1):
                x = group[i]
                for y in group[i + 1 :]:
                    common = ups[x] & ups[y]
                    if common not in by_up:
                        bounds = [names[c] for c in mask_elements(self.up_and_minimal(common)[1])]
                        raise LatticeValidationError(
                            f"elements {names[x]!r} and {names[y]!r} have no unique "
                            f"least upper bound (minimal upper bounds: {bounds})"
                        )

        # maximal predecessor sum: the best chain below an element depends
        # only on that element, so one sweep in topological order suffices
        best = [0] * n
        for a in order:
            if p := preds[a]:
                best[a] = len(p) + max(map(best.__getitem__, p))
        self._sigma = best[self.top]

    def __eq__(self, other) -> bool:
        return other is self or (
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
        return bool(self._ups[a] >> b & 1)

    def join(self, a: int, b: int) -> int:
        return self._by_up[self._ups[a] & self._ups[b]]

    def immediate_predecessors(self, a: int) -> tuple[int, ...]:
        return self._lower_covers[a]

    def sigma(self) -> int:
        return self._sigma

    def up_closure(self, mask: int) -> int:
        out = 0
        while mask:
            out |= self._ups[(mask & -mask).bit_length() - 1]
            mask &= ~out  # points already covered add nothing new
        return out

    def up_and_minimal(self, mask: int) -> tuple[int, int]:
        # a point of the mask is minimal when none of its lower covers lies
        # in the closure; test only the mask's own points
        up = self.up_closure(mask)
        preds = self._lower_covers
        low = 0
        for a in mask_elements(mask):
            if not any(up >> b & 1 for b in preds[a]):
                low |= 1 << a
        return up, low

    def element_names(self, elems: Iterable[int]) -> list[str]:
        names = self.names
        return [names[a] for a in elems]

    def parse_element(self, name: str) -> int:
        try:
            return self._ids[name]
        except KeyError:
            raise InvalidElementError(
                f"{name!r} is not an element of {self.describe()}"
            ) from None


def parse_lattice(text: str, source: str | None = None) -> ExplicitLattice:
    """Parse the one-record-per-line lattice format.

    Header ``lattice v1``, then ``elem <name>`` lines in declaration order,
    then ``cover <lower> <upper>`` lines.  Blank lines and ``#`` comments
    are skipped.  Errors carry the source name, ``<lattice>`` when there is
    none, and the line number.  ``source`` becomes the lattice's
    ``source_path``, so a lattice parsed without one counts as built in
    memory, and functions over it cannot be written to a file.
    """
    where = source or "<lattice>"
    names: dict[str, None] = {}  # in declaration order
    covers: list[tuple[str, str]] = []
    saw_header = False
    saw_cover = False

    def fail(lineno: int, message: str) -> LatticeValidationError:
        return LatticeValidationError(f"{where}:{lineno}: {message}")

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        # the common line first: a cover after the header
        if len(tokens) == 3 and tokens[0] == "cover" and saw_header:
            _, lo, hi = tokens
            if lo not in names or hi not in names:
                raise fail(lineno, f"cover names unknown element {hi if lo in names else lo!r}")
            saw_cover = True
            covers.append((lo, hi))
        elif not tokens or tokens[0][0] == "#":
            continue
        elif not saw_header:
            if (line := raw.strip()) != "lattice v1":
                raise fail(lineno, f"expected 'lattice v1' header, got {line!r}")
            saw_header = True
        elif tokens[0] == "elem":
            if len(tokens) != 2:
                raise fail(lineno, "elem takes exactly one name")
            if saw_cover:
                raise fail(lineno, "elem lines must precede cover lines")
            if tokens[1] in names:
                raise fail(lineno, f"duplicate element {tokens[1]!r}")
            names[tokens[1]] = None
        elif tokens[0] == "cover":
            raise fail(lineno, "cover takes exactly two names")
        else:
            raise fail(lineno, f"unknown directive {tokens[0]!r}")
    if not saw_header:
        raise LatticeValidationError(f"{where}: empty file, expected 'lattice v1' header")
    try:
        return ExplicitLattice(tuple(names), covers, source_path=source)
    except LatticeValidationError as exc:
        raise LatticeValidationError(f"{where}: {exc}") from None

