"""Function representations over a lattice and the XOR-of-monotone algebra.

Every representation evaluates over in-lattice elements only.  The implicit
bottom evaluates to 0 for every function by convention and is never stored
or queried; the two places where it matters (local minimality at elements
without in-lattice predecessors, the leading 0 in chain alternation counts)
handle it by rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence, Union

from .errors import InternalError, InvalidChainError
from .lattice import DEFAULT_MAX_N, CubeLattice, Lattice, elements_mask, is_bit_string
from .lattice import mask_bit, mask_elements


def _from_mask(cls, lattice: Lattice, mask: int):
    """Trusted constructor from a mask the package computed; it checks nothing.

    The mask is a ``DenseFunction``'s table, or a ``MonotoneDNF``'s antichain
    from ``up_and_minimal`` or an equivalent level.  No other code skips a
    constructor; item assignment costs half of ``dict.update``.
    """
    obj = object.__new__(cls)
    fields = obj.__dict__
    fields["lattice"], fields["mask"] = lattice, mask
    return obj


def _antichain_by_sweep(lattice: Lattice, elems: list[int]) -> bool:
    """Whether ``elems`` pass one ``up_and_minimal`` sweep, where it beats the pairwise scan.

    False sends the caller to the scan: for k <= 8 elements, on a cube past
    the default cap n = ``DEFAULT_MAX_N`` or with k² <= 2^n/16, and when the
    sweep finds the set is no antichain.  Measured on a 2-core x86-64 VM,
    the scan of k(k-1)/2 pairs costs 0.13-0.2 µs a pair on a cube, and
    0.3-1.2 µs on an explicit lattice of 512-20,736 elements.  A sweep costs
    4-7 µs an element of ``elems`` on an explicit lattice, and about 3 ns an
    element of the cube from n = 16 on (12 ms at n = 22).
    """
    k2 = len(elems) ** 2
    cube = isinstance(lattice, CubeLattice)
    if k2 <= 64 or cube and (lattice.n > DEFAULT_MAX_N or k2 <= 1 << lattice.n >> 4):
        return False
    mask = elements_mask(elems)
    return lattice.up_and_minimal(mask)[1] == mask


def _built_once(build):
    """Make ``build`` a ``dense()`` that builds the truth table at most once.

    The table is kept in the instance dict, beside the dataclass fields,
    where equality, hashing and ``repr`` never see it.
    """

    def dense(self) -> DenseFunction:
        table = self.__dict__.get("_dense")
        if table is None:
            table = self.__dict__["_dense"] = build(self)
        return table

    return dense


@dataclass(frozen=True)
class DenseFunction:
    """Explicit truth table: bit i of ``mask`` is the value at element i."""

    lattice: Lattice
    mask: int

    def __post_init__(self):
        if self.mask < 0 or self.mask.bit_length() > self.lattice.size:
            raise ValueError("dense mask does not fit the lattice")

    from_mask = classmethod(_from_mask)

    @classmethod
    def from_bits(cls, lattice: Lattice, bits: str) -> "DenseFunction":
        # ``size`` is read only once the length has the largest id's bit
        # length, so a file naming a huge lattice builds nothing of its size
        k = len(bits)
        if (k - 1).bit_length() != lattice.id_bits or k != lattice.size or not is_bit_string(bits):
            raise ValueError(f"dense payload must be exactly {lattice.size_text} characters of 0/1")
        return cls(lattice, int(bits[::-1], 2))  # character i is bit i

    def bits(self) -> str:
        return format(self.mask, f"0{self.lattice.size}b")[::-1]

    def evaluate(self, x: int) -> int:
        self.lattice.check_element(x)
        return mask_bit(self.mask, x)

    def dense(self) -> "DenseFunction":
        return self


@dataclass(frozen=True)
class MonotoneDNF:
    """Disjunction of the up-sets of an antichain of minimal elements.

    ``size`` is the number of minimal elements.  An empty antichain is the
    constant-0 function.  The antichain has two forms: ``minimals``, its
    elements in ascending order, and ``mask``, its dense indicator (not the
    truth table, which is ``dense().mask``).  An instance keeps the form it
    was built from, a tuple from the constructor or a mask from
    ``from_mask``, and derives the other when first read, so a function
    over a cube too large to hold a mask never builds one, nor a table,
    unless a dense path asks for it.
    """

    lattice: Lattice
    # a factory, not a class attribute, so that ``__getattr__`` sees a
    # ``from_mask`` function whose tuple is not derived yet
    minimals: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self):
        lat = self.lattice
        elems = sorted({lat.check_element(a) for a in self.minimals})
        if not _antichain_by_sweep(lat, elems):
            # the pairwise scan, which names the first comparable pair
            leq = lat.leq
            for i, a in enumerate(elems):
                for b in elems[i + 1 :]:
                    if leq(a, b) or leq(b, a):
                        raise ValueError(
                            "minimals are not an antichain: "
                            f"{lat.element_name(a)} and {lat.element_name(b)} are comparable"
                        )
        object.__setattr__(self, "minimals", tuple(elems))

    from_mask = classmethod(_from_mask)

    def __getattr__(self, name: str):
        # reached only while one antichain form is not derived yet
        fields = self.__dict__
        if name == "minimals" and "mask" in fields:
            value = tuple(mask_elements(fields["mask"]))
        elif name == "mask" and "minimals" in fields:
            value = elements_mask(fields["minimals"])
        else:
            raise AttributeError(name)
        fields[name] = value
        return value

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self.lattice is not other.lattice and self.lattice != other.lattice:
            return False
        mine, theirs = self.__dict__.get("mask"), other.__dict__.get("mask")
        if mine is not None and theirs is not None:
            return mine == theirs
        return self.minimals == other.minimals

    def __hash__(self) -> int:
        # by the tuple, which equal functions share whatever their forms
        return hash((self.lattice, self.minimals))

    @property
    def size(self) -> int:
        mask = self.__dict__.get("mask")
        return len(self.minimals) if mask is None else mask.bit_count()

    def evaluate(self, x: int) -> int:
        self.lattice.check_element(x)
        return int(any(self.lattice.leq(a, x) for a in self.minimals))

    @_built_once
    def dense(self) -> DenseFunction:
        return DenseFunction.from_mask(self.lattice, self.lattice.up_closure(self.mask))


@dataclass(frozen=True)
class XorHypothesis:
    """Parity of an ordered list of monotone levels; no levels means 0."""

    lattice: Lattice
    levels: tuple[MonotoneDNF, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))
        for lv in self.levels:
            if lv.lattice != self.lattice:
                raise ValueError("level defined over a different lattice")

    @property
    def size(self) -> int:
        return sum(lv.size for lv in self.levels)

    def evaluate(self, x: int) -> int:
        self.lattice.check_element(x)
        v = 0
        for lv in self.levels:
            v ^= lv.evaluate(x)
        return v

    @_built_once
    def dense(self) -> DenseFunction:
        m = 0
        for lv in self.levels:
            m ^= lv.dense().mask
        return DenseFunction.from_mask(self.lattice, m)


@dataclass(frozen=True)
class ComposedTarget:
    """Outer truth table applied to monotone inner functions.

    ``outer`` has one bit per inner-value tuple, the first inner function in
    the least significant position.  Evaluation never special-cases the
    all-zero tuple: the bottom convention concerns the implicit bottom only,
    so a real element where every inner function is 0 reads outer bit 0.
    """

    lattice: Lattice
    outer: int
    inner: tuple[MonotoneDNF, ...]

    def __post_init__(self):
        object.__setattr__(self, "inner", tuple(self.inner))
        if not self.inner:
            raise ValueError("a composed target needs at least one inner function")
        for g in self.inner:
            if g.lattice != self.lattice:
                raise ValueError("inner function defined over a different lattice")
        if self.outer < 0 or self.outer >> (1 << self.d):
            raise ValueError(f"outer table must hold exactly {1 << self.d} bits")

    @property
    def d(self) -> int:
        return len(self.inner)

    @property
    def size(self) -> int:
        return sum(g.size for g in self.inner)

    @property
    def outer_at_origin(self) -> int:
        return self.outer & 1

    def evaluate(self, x: int) -> int:
        idx = 0
        for i, g in enumerate(self.inner):
            idx |= g.evaluate(x) << i
        return self.outer >> idx & 1

    @_built_once
    def dense(self) -> DenseFunction:
        """The XOR, over the monomials of ``outer``'s algebraic normal form, of their ANDs.

        The form is one XOR sweep over the d-cube's clear masks.  A monomial
        costs one table-wide AND per index: d for AND, d·2^(d-1) for NOR.
        """
        anf = self.outer
        for i, zeros in enumerate(CubeLattice(self.d)._coordinate_clear_masks()):
            anf ^= (anf & zeros) << (1 << i)
        full = (1 << self.lattice.size) - 1
        gmasks = [self.lattice.up_closure(g.mask) for g in self.inner]
        out = 0
        for mono in mask_elements(anf):
            cell = full
            for i in mask_elements(mono):
                cell &= gmasks[i]
            out ^= cell
        return DenseFunction.from_mask(self.lattice, out)


Representation = Union[DenseFunction, MonotoneDNF, XorHypothesis, ComposedTarget]


def consistent_rounds(lattice: Lattice, points: int, s1: int) -> Iterator[tuple[int, int]]:
    """The rounds on a sample, as a stream of (up-closure, minimal mask) pairs.

    ``points`` is the sample and ``s1 ⊆ points`` its positives, as dense
    masks trusted as given.  Round i takes the up-closure U_i of the
    current positives, and the next positives are the other points of
    U_i, ``s1 ^= points & up`` (s1 lies in U_i), until no positives
    remain.  The minimal elements of U_i are positives of round i, so
    U_1 ⊋ U_2 ⊋ ... (more rounds than elements mean a bug); level i is
    the set of minimal elements of U_i.  A caller keeps what it reads.
    """
    rounds = 0
    while s1:
        if rounds == lattice.size:
            raise InternalError(f"the rounds did not terminate within {lattice.size} levels")
        up, low = lattice.up_and_minimal(s1)
        yield up, low
        rounds += 1
        s1 ^= points & up


def strict_decompose(f: Representation) -> XorHypothesis:
    """The rounds on the sample that labels every element by f.

    Every element is a point, so each round peels: a level, the minimal
    elements of the residue, is kept, and its closure XORed away.  The
    levels XOR to f; consecutive levels strictly shrink and share no
    minimal elements; the level count is the monotonicity degree.
    """
    lat = f.lattice
    rounds = consistent_rounds(lat, (1 << lat.size) - 1, f.dense().mask)
    return XorHypothesis(lat, tuple(MonotoneDNF.from_mask(lat, low) for _, low in rounds))


def chain_alternations(f: Representation, chain: Sequence[int]) -> int:
    """Value changes along 0, f(x1), ..., f(xt) for a strictly ascending chain.

    The leading 0 models the implicit bottom, where every function is 0.
    """
    lat = f.lattice
    xs = [lat.check_element(x) for x in chain]
    for a, b in zip(xs, xs[1:]):
        if a == b or not lat.leq(a, b):
            raise InvalidChainError(
                f"{lat.element_name(a)} followed by {lat.element_name(b)} "
                "is not strictly ascending"
            )
    changes = 0
    prev = 0
    for x in xs:
        v = f.evaluate(x)
        if v != prev:
            changes += 1
            prev = v
    return changes


def nested_disjoint_violation(x: XorHypothesis) -> str | None:
    """Why the levels fail the shrinking, minim-disjoint shape, if they do.

    Returns None when every level implies its predecessor, differs from it,
    and shares no minimal element with it; otherwise a one-line reason.
    """
    for i in range(len(x.levels) - 1):
        lo, hi = x.levels[i], x.levels[i + 1]
        if hi.dense().mask & ~lo.dense().mask:
            return f"level {i + 2} does not imply level {i + 1}"
        if hi == lo:
            return f"levels {i + 1} and {i + 2} are identical"
        if lo.mask & hi.mask:
            return f"levels {i + 1} and {i + 2} share minimal elements"
    return None
