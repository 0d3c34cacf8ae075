"""Segre symbols: computation, canonical form, normal forms, generators.

The Segre symbol of a pencil records the exponents of the elementary
divisors of U - lambda*V, grouping entries that share a root inside round
brackets.  It is computed here without any root finding or factorization,
from the root classes of ``pencil._root_classes``: the Yun parts of the
determinant, each with the partition that the leading principal minor
or exact ranks at its roots give.
Roots that share a partition form one group polynomial, and a group
polynomial of degree g contributes g identical groups, one per (possibly
irrational or complex) root.  A ``SegreSymbol`` holds its groups, and
one born canonical, as ``compute_symbol`` makes it, its exponent
structure too.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from fractions import Fraction

from ._record import Frozen, Record
from .errors import ParseError, PencilError
from .pencil import (
    QuadricPencil,
    RootClass,
    _bareiss,
    _check_size,
    _entry,
    _reduced,
    _selected_classes,
    congruent,
)
from .polynomial import Polynomial, Rational, _cleared, _int_mul, _items, _of, _rational_str

__all__ = [
    "ExplicitRoot",
    "SymbolicRoot",
    "Group",
    "SegreSymbol",
    "canonicalize",
    "compute_symbol",
    "build_normal_form",
    "random_instance",
]


# A few of these records are made for every analysis, so each binds its
# own arguments rather than through ``Record``'s generic constructor.


class ExplicitRoot(Record):
    value: Rational

    def __init__(self, value: Rational):
        self.__dict__["value"] = value

    def describe(self) -> str:
        return _rational_str(self.value)


class SymbolicRoot(Record):
    """Root number ``index`` of a coprime-basis polynomial, never evaluated."""

    poly: Polynomial
    index: int

    def __init__(self, poly: Polynomial, index: int):
        d = self.__dict__
        d["poly"] = poly
        d["index"] = index

    def describe(self) -> str:
        return f"root #{self.index + 1} of {self.poly}"


RootDescriptor = ExplicitRoot | SymbolicRoot | None


# an int exponent this far from 0 has more digits than a refusal quotes
_QUOTED_INT = 10**40


def _quoted(exponents: Sequence) -> str:
    """The exponents written as a tuple, cut to 40 characters.  An int of
    more than 40 digits is written by its bit length, and writing stops
    once the quote is full, so no exponent is ever converted to text past
    the int-str digit limit."""
    parts, size = [], 0
    for e in exponents:
        if size > 40:
            break
        if type(e) is int and not -_QUOTED_INT < e < _QUOTED_INT:
            part = f"{'-' if e < 0 else ''}<int of {e.bit_length()} bits>"
        else:
            part = repr(e)
        parts.append(part)
        size += len(part) + 2
    return f"({', '.join(parts)}{',' if len(exponents) == 1 else ''})"[:40]


class Group(Record):
    """One root group: exponent multiset plus an optional root descriptor.
    Exponents that are not a sequence, none, or one that is not an ``int``
    of at least 1 (a ``bool`` is not) raise ``ParseError``, which quotes
    them as a tuple in at most 40 characters (``_quoted``)."""

    exponents: tuple[int, ...]
    root: RootDescriptor = None

    def __init__(self, exponents: tuple[int, ...], root: RootDescriptor = None):
        if type(exponents) is not tuple and not isinstance(exponents, Sequence):
            raise ParseError(f"group exponents must be a sequence, got {type(exponents).__name__}")
        if not exponents:
            raise ParseError("a group needs at least one exponent")
        for e in exponents:
            if type(e) is not int or e < 1:
                raise ParseError(f"exponents must be positive integers: {_quoted(exponents)}")
        d = self.__dict__
        d["exponents"] = tuple(sorted(exponents, reverse=True))
        d["root"] = root

    @property
    def weight(self) -> int:
        return sum(self.exponents)

    @property
    def bracketed(self) -> bool:
        return len(self.exponents) >= 2

    def sort_key(self):
        return _order(self.exponents)

    def render(self) -> str:
        digits = "".join(str(e) for e in self.exponents)
        return f"({digits})" if self.bracketed else digits


def _order(exponents: tuple[int, ...]):
    """A group's place in canonical order, from its exponents alone:
    descending by (weight, exponent sequence, size)."""
    return (-sum(exponents), tuple(-e for e in exponents), -len(exponents))


_SYMBOL_TOKEN = re.compile(r"\(([1-9]+)\)|([1-9])|(.)")


class SegreSymbol(Frozen):
    """Ordered multiset of root groups.

    Equality and hashing ignore root descriptors: two symbols are equal
    exactly when their canonicalized exponent structures coincide, which
    is what congruence and pencil-basis invariance preserve.  A symbol
    made by ``canonical()`` or by ``compute_symbol`` is born canonical: its
    groups are in canonical order, it holds its exponent structure
    (``_structure``), read in group order when it is made, and it is its
    own canonical form.  Any other symbol holds only its groups, and its
    text and structure are computed on each call.  Groups that are not a
    sequence of ``Group`` values raise ``ParseError``.
    """

    __slots__ = ("groups", "_structure")

    def __init__(self, groups: Sequence[Group]):
        try:
            groups = tuple(groups)
        except TypeError:
            raise ParseError(
                f"symbol groups must be a sequence, got {type(groups).__name__}"
            ) from None
        for g in groups:
            if type(g) is not Group:
                raise ParseError(f"symbol groups must be Group values, got {type(g).__name__}")
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "_structure", None)

    def __reduce__(self):
        return type(self), (self.groups,)

    @classmethod
    def parse(cls, text: str) -> "SegreSymbol":
        """Parse ``[..]`` notation: bare digits are singleton groups,
        parenthesized digit runs are bracketed groups.  Malformed text
        raises ``ParseError``, as does an argument that is not a ``str``."""
        if not isinstance(text, str):
            raise ParseError(f"symbol must be text, got {type(text).__name__}")
        s = text.strip()
        if not (s.startswith("[") and s.endswith("]")):
            raise ParseError(f"symbol must be enclosed in square brackets: {text[:40]!r}")
        groups: list[Group] = []
        for m in _SYMBOL_TOKEN.finditer(s[1:-1]):
            run, digit, bad = m.groups()
            if bad is not None:
                raise ParseError(f"unexpected character {bad!r} in symbol {text[:40]!r}")
            if run is not None:
                groups.append(Group(tuple(int(ch) for ch in run)))
            else:
                groups.append(Group((int(digit),)))
        if not groups:
            raise ParseError(f"empty symbol: {text[:40]!r}")
        return cls(groups)

    @property
    def weight(self) -> int:
        return sum(g.weight for g in self.groups)

    def canonical(self) -> "SegreSymbol":
        if self._structure is not None:  # born canonical
            return self
        return _canonical_symbol(sorted(self.groups, key=Group.sort_key))

    def exponent_structure(self) -> tuple[tuple[int, ...], ...]:
        """The multiset of group exponent multisets, canonically ordered."""
        if self._structure is not None:  # born canonical
            return self._structure
        return tuple(g.exponents for g in sorted(self.groups, key=Group.sort_key))

    def unbracketed_ones(self) -> int:
        return sum(1 for g in self.groups if g.exponents == (1,))

    def render(self) -> str:
        return "[" + "".join(g.render() for g in self.groups) + "]"

    def root_descriptions(self) -> list[str]:
        return [g.root.describe() if g.root is not None else "unspecified" for g in self.groups]

    def __eq__(self, other) -> bool:
        if isinstance(other, str):
            try:
                other = SegreSymbol.parse(other)
            except ParseError:  # malformed text equals no symbol
                return False
        if not isinstance(other, SegreSymbol):
            return NotImplemented
        return self.exponent_structure() == other.exponent_structure()

    def __hash__(self) -> int:
        return hash(self.exponent_structure())

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"SegreSymbol.parse({self.render()!r})"


def _canonical_symbol(groups: Sequence[Group]) -> SegreSymbol:
    """The symbol of ``groups``, which are in canonical order, born canonical:
    it holds its exponent structure, read in group order."""
    s = SegreSymbol(groups)
    object.__setattr__(s, "_structure", tuple([g.exponents for g in s.groups]))
    return s


def canonicalize(s: SegreSymbol | str) -> SegreSymbol:
    """Canonical ordering: exponents descending inside each group, groups
    descending by (weight, exponent sequence, size).  Idempotent."""
    if not isinstance(s, SegreSymbol):
        s = SegreSymbol.parse(s)
    return s.canonical()


# ---------------------------------------------------------------------------
# pencil -> symbol
# ---------------------------------------------------------------------------

def compute_symbol(p: QuadricPencil) -> SegreSymbol:
    """Segre symbol of a pencil.

    The symbol is that of the pencil ``select_nonsingular_member(p)``
    returns, so a root at infinity is never dropped; raises
    ``NoSmoothMemberError`` when every member is singular.
    """
    return _symbol_from_classes(_selected_classes(p)[-1])[0]


def _symbol_from_classes(
    classes: list[RootClass], top: list[int] | None = None
) -> tuple[SegreSymbol, Polynomial | None]:
    """Segre symbol of root classes (``pencil._root_classes``), and the
    monic ``Polynomial`` made for ``top`` when a group's polynomial is
    ``top``, so that its text is rendered once.

    Roots that share a partition share every exponent in the invariant
    factors; the product of their class factors is one group polynomial,
    whose roots are never found.  A linear one gives an explicit root, any
    other one symbolic roots, one group per root.  The symbol is built in
    canonical order: the partitions (descending, so each is its groups'
    exponents) by the order ``Group.sort_key`` gives them, and the groups
    of one partition by root index.  Distinct partitions never tie, so the
    order of ``classes`` never shows, and the one symbol made is its own
    canonical form, with its exponent structure filled in.
    """
    by_partition: dict[tuple[int, ...], list[int]] = {}
    for h, lam in classes:
        b = by_partition.get(lam)
        by_partition[lam] = h if b is None else _int_mul(b, h)
    groups: list[Group] = []
    top_poly = None
    for lam in sorted(by_partition, key=_order):
        b = by_partition[lam]
        if len(b) == 2:
            groups.append(Group(lam, ExplicitRoot(Fraction(-b[0], b[1]))))
        else:
            poly = _of(b, b[-1])
            if b == top:
                top_poly = poly
            groups.extend(Group(lam, SymbolicRoot(poly, i)) for i in range(poly.degree))
    return _canonical_symbol(groups), top_poly


# ---------------------------------------------------------------------------
# symbol -> pencil
# ---------------------------------------------------------------------------

def build_normal_form(
    s: SegreSymbol | str, roots: Sequence[Rational | int]
) -> QuadricPencil:
    """Block-diagonal pencil realizing the symbol with the given roots.

    Takes one rational root per group (in canonical group order); a group
    contributes its root to one block per exponent.  Roots of distinct
    groups must be pairwise distinct, otherwise the groups would merge.
    A symbol of weight above ``pencil.MAX_SIZE`` raises ``SizeLimitError``
    before any block is built; roots that are not a sequence, a root
    ``pencil._entry`` refuses, a wrong number of roots or two equal roots
    raise ``PencilError``.

    Each block is written straight into the integer pair over den, the
    least common denominator of the roots: U has den * root on the block's
    antidiagonal and den just below it, V has den on its antidiagonal.
    """
    s = canonicalize(s)
    size = s.weight
    _check_size(size)
    rs = [_entry(r) for r in _items(roots, "roots")]
    if len(rs) != len(s.groups):
        raise PencilError(f"{s.render()} needs {len(s.groups)} roots, got {len(rs)}")
    if len(set(rs)) != len(rs):
        raise PencilError("roots of distinct groups must be pairwise distinct")
    (ints,), den = _cleared([rs])
    iu = [[0] * size for _ in range(size)]
    iv = [[0] * size for _ in range(size)]
    k = 0  # the first row and column of the next block
    for g, a in zip(s.groups, ints):
        for e in g.exponents:
            for i in range(k, k + e):
                j = 2 * k + e - 1 - i  # (i, j) on the block's antidiagonal
                iu[i][j], iv[i][j] = a, den
                if i > k:
                    iu[i][j + 1] = den
            k += e
    return _reduced(iu, iv, den)


def random_instance(s: SegreSymbol | str, seed: int) -> QuadricPencil:
    """Seeded random pencil with the given symbol.

    Builds a normal form on distinct small integer roots, then applies a
    random rational congruence with entries in -3..3 (resampled until the
    determinant is nonzero).  Bit-identical output for a fixed seed, so a
    seed that is not an ``int`` raises ``PencilError``.  A symbol of weight
    above ``pencil.MAX_SIZE`` raises ``SizeLimitError``.
    """
    import random  # here, not at the top: segre analyze never loads it

    if not isinstance(seed, int):
        raise PencilError(f"seed must be an int, got {type(seed).__name__}")
    s = canonicalize(s)
    _check_size(s.weight)  # before the roots: at most 19 groups can have one
    rng = random.Random(seed)
    roots = rng.sample(range(-9, 10), len(s.groups))
    normal = build_normal_form(s, roots)
    size = normal.size
    while True:
        a = [[rng.randint(-3, 3) for _ in range(size)] for _ in range(size)]
        if _bareiss(a)[1] != 0:
            break
    return congruent(normal, a)
