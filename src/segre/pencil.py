"""Pencil-level exact linear algebra for pairs of symmetric matrices.

A ``QuadricPencil`` holds two symmetric rational matrices (U, V) spanning
the pencil x*U + y*V.  This module computes the determinant polynomial
|U - lambda*V|, the invariant factors of U - lambda*V, selects a
nonsingular member, and reports degeneracy when no member is nonsingular.

Everything runs on the denominator-cleared integer pair.  A pencil's
determinant comes from a division-free Laplace expansion, memoised over
column subsets (``_poly_minor``).  A pair of small entries runs on the
integers u - v*2^B, and the determinant is one big integer whose
balanced base-2^B digits are its coefficients (Kronecker substitution);
a larger pair runs on the entries' values at t = 0..k, one product per
value where a coefficient list takes two per coefficient, and its k + 1
values are interpolated (``_interpolate``).
Each pencil expands its determinant once, on first use, and keeps it
(``_det``): det V, the member sweep, the degeneracy test and the
invariant factors are read off it.  The same expansion's memo holds the
leading principal (size - 1)-minor, which is kept beside it undecoded
and decoded only where a repeated root reads it; no other minor is ever
expanded.
An analysis selects a nonsingular member first and then analyses the
selected pencil.  The invariant factors come from root classes
(``_root_classes``): the Yun parts of the determinant, each with the
partition of its elementary-divisor exponents, read off the leading
minor where it proves one block, and otherwise off one or two exact
ranks at the repeated part (``_part_classes``).  One fraction-free
elimination (``_bareiss``) gives every rank, and its echelon rows a
kernel basis (``_kernel``); one product (``_conj``) gives every A^T M A.
Only the finished invariant factors become monic ``Polynomial`` values,
which makes the integer scaling invisible.

A pencil holds its cleared pair from construction on, with the least common
denominator, and builds its rational matrices each time they are read.
Outside rationals enter through ``QuadricPencil`` and ``pencil_from_json``,
which share ``_init``; every pencil the package derives from others (a
congruence, a basis change, a selected member, a normal form, an unpickled
copy) is built on its integer pair by ``_reduced``.

Pencils are at most ``MAX_SIZE`` x ``MAX_SIZE`` = 5 x 5, quadrics in P^4,
where Segre quartic surfaces live; a larger or an empty pair raises
``SizeLimitError``.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction

from ._record import Frozen, Record
from .errors import (
    DegeneratePencilError,
    InternalConsistencyError,
    NoSmoothMemberError,
    PencilError,
    SizeLimitError,
)
from .polynomial import (  # _entry: forms, cli, symbol and the tests import it from here
    Polynomial,
    Rational,
    _EXACT,
    _cleared,
    _entry,
    _int_digits,
    _int_divide,
    _int_eval,
    _int_mul,
    _int_primitive,
    _int_squarefree_decomposition,
    _int_trim,
    _items,
    _of,
)

Matrix = tuple[tuple[Fraction, ...], ...]
IntMatrix = tuple[tuple[int, ...], ...]
IntRows = Sequence[Sequence[int]]

# the largest pencil: a Segre quartic surface lives in P^4
MAX_SIZE = 5

# the widest packing of det(U - t*V) into one integer (``_poly_minor``)
_PACK_BITS = 660

# _EXTRAPOLATE[j][i] = (-1)^(j - i) * C(j + 1, i): p(j + 1) is the sum over
# i of _EXTRAPOLATE[j][i] * p(i) for a polynomial p of degree at most j,
# as its (j + 1)-th forward difference vanishes
_EXTRAPOLATE = tuple(
    tuple((-1) ** (j - i) * math.comb(j + 1, i) for i in range(j + 1)) for j in range(MAX_SIZE)
)

__all__ = [
    "MAX_SIZE",
    "Matrix",
    "QuadricPencil",
    "InvariantFactors",
    "DegeneracyReport",
    "as_matrix",
    "identity",
    "diagonal",
    "congruent",
    "change_basis",
    "det_poly",
    "invariant_factors",
    "select_nonsingular_member",
    "degeneracy_report",
]


# ---------------------------------------------------------------------------
# small exact matrix helpers
# ---------------------------------------------------------------------------

def _listed(x: object) -> list:
    """A matrix's or a row's items as a list, or ``PencilError``."""
    try:
        return x if type(x) is list else _items(x, "matrix")
    except PencilError:
        raise PencilError("matrix must be a sequence of rows") from None


def _exact(rows: list) -> list[list[int | Fraction]]:
    """``as_matrix`` of ``_listed`` rows, with no ``Fraction`` for an ``int``.  A row of
    text with no ``_`` is read by ``int(c, 10)`` (a ``str`` subclass by its text); any
    other row, or one where that fails, by ``_entry``, which reads such text by ``int``."""
    out = []
    for row in [_listed(row) for row in rows]:
        try:
            ints = "_" not in "".join(row) and [int(c, 10) for c in row]
        except (TypeError, ValueError):  # not all text, or not all integers
            ints = None
        out.append(ints or [c if type(c) in _EXACT else _entry(c) for c in row])
    if any(len(row) != len(out) for row in out):
        raise PencilError("matrix must be square")
    return out


def as_matrix(rows: Iterable[Iterable[Rational | int | str]]) -> Matrix:
    """The square matrix of ``Fraction`` entries read from ``rows``; an empty
    matrix, or one of more than ``MAX_SIZE`` rows, raises ``SizeLimitError``
    before any row is read."""
    rows = _listed(rows)
    _check_size(len(rows))
    return tuple(tuple(c if type(c) is Fraction else Fraction(c) for c in row) for row in _exact(rows))


def _check_symmetric(m: Sequence[Sequence[object]], name: str = "matrix") -> None:
    """For a matrix ``_exact`` has already read, so square."""
    if list(zip(*m)) != list(map(tuple, m)):
        raise PencilError(f"{name} is not symmetric")


def identity(size: int) -> Matrix:
    """The size x size identity; a size that is not an ``int`` raises
    ``PencilError``, one outside 1..``MAX_SIZE`` ``SizeLimitError``."""
    _check_size(size)
    return diagonal([1] * size)


def diagonal(entries: Sequence[Rational | int]) -> Matrix:
    """The diagonal matrix of 1..``MAX_SIZE`` entries; other counts raise ``SizeLimitError``."""
    es = _items(entries, "diagonal")
    _check_size(len(es))
    return as_matrix([[es[i] if i == j else 0 for j in range(len(es))] for i in range(len(es))])


def _bareiss(m: Sequence[Sequence[int]]) -> tuple[list[int], int, list[list[int]]]:
    """Fraction-free (Bareiss) elimination of an integer matrix of any shape.

    Returns ``(pivots, det, rows)``: the pivot column of each pivot row,
    so the rank over the rationals is ``len(pivots)``; det, 0 unless the
    matrix is square and nonsingular; and the echelon rows, of which only
    pivot row i's entries from column pivots[i] on are current.  A column
    with no nonzero entry at or below the current row is skipped, so every
    division stays exact (Sylvester's identity).
    """
    a = [list(row) for row in m]
    rows = len(a)
    cols = len(a[0]) if a else 0
    sign = 1
    prev = 1
    pivots: list[int] = []
    for c in range(cols):
        rank = len(pivots)
        if rank == rows:
            break
        pivot = next((i for i in range(rank, rows) if a[i][c] != 0), None)
        if pivot is None:
            continue
        if pivot != rank:
            a[rank], a[pivot] = a[pivot], a[rank]
            sign = -sign
        pr = a[rank]
        pc = pr[c]
        for i in range(rank + 1, rows):
            row = a[i]
            f = row[c]
            for j in range(c + 1, cols):
                row[j] = (row[j] * pc - f * pr[j]) // prev
        prev = pc
        pivots.append(c)
    det = sign * prev if len(pivots) == rows == cols else 0
    return pivots, det, a


# ---------------------------------------------------------------------------
# pencil type
# ---------------------------------------------------------------------------

def _check_size(size: int) -> None:
    if not isinstance(size, int):
        raise PencilError(f"size must be an int, got {type(size).__name__}")
    if size < 1:
        raise SizeLimitError("pencils are at least 1 x 1")
    if size > MAX_SIZE:
        raise SizeLimitError(f"pencils are at most {MAX_SIZE} x {MAX_SIZE}, got {size} x {size}")


class QuadricPencil(Frozen):
    """Pair of symmetric rational matrices spanning a pencil of quadrics.

    The matrices are ``size`` x ``size``, with 1 <= ``size`` <= ``MAX_SIZE``,
    so the quadrics lie in CP^(size - 1); an empty or a larger pair raises
    ``SizeLimitError``.  Values are immutable; every operation
    on pencils is a pure function, so concurrent use needs no coordination.

    The pencil holds the denominator-cleared integer pair (mult * U,
    mult * V) with ``mult`` the least common denominator of the entries, so
    equal pencils hold equal pairs.  The rational matrices ``u`` and ``v``
    are built from it on each read; its determinant expansion (``_det``,
    the determinant and the undecoded leading principal minor), which every
    analysis reads twice, is kept from its first use.
    """

    __slots__ = ("_iu", "_iv", "_mult", "_det", "__weakref__")
    __match_args__ = ("u", "v")

    def __init__(
        self,
        u: Iterable[Iterable[Rational | int | str]],
        v: Iterable[Iterable[Rational | int | str]],
    ):
        u, v = _listed(u), _listed(v)  # sized before any entry is read
        if len(u) != len(v):
            raise PencilError("U and V must have the same size")
        _check_size(len(u))
        _init(self, _exact(u), _exact(v))

    def _values(self) -> tuple:  # equal pencils hold equal pairs
        return self._mult, self._iu, self._iv

    def __reduce__(self):
        return _reduced, (self._iu, self._iv, self._mult)

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(u={self.u!r}, v={self.v!r})"

    @property
    def u(self) -> Matrix:
        return _rational(self._iu, self._mult)

    @property
    def v(self) -> Matrix:
        return _rational(self._iv, self._mult)

    @property
    def size(self) -> int:
        return len(self._iu)

    @property
    def det_v(self) -> Fraction:
        """det V, read off the determinant expansion (``_det``): f leads
        with det(-mult * V) t^size, or has lower degree when det V = 0."""
        f, size = _det(self)[0], self.size
        return Fraction((-1) ** size * f[size] if len(f) > size else 0, self._mult ** size)

    def member(self, x: Rational | int, y: Rational | int) -> Matrix:
        """The matrix x*U + y*V."""
        x, y = _entry(x), _entry(y)
        return tuple(tuple(x * a + y * b for a, b in zip(ru, rv)) for ru, rv in zip(self.u, self.v))


def _check_pencil(p: object) -> None:
    """The one check of every public function that takes a pencil."""
    if not isinstance(p, QuadricPencil):
        raise PencilError(f"expected a QuadricPencil, got {type(p).__name__}")


def _init(p: QuadricPencil, u: list, v: list) -> QuadricPencil:
    """``p`` built on U and V as ``_exact`` read them, of one size in 1..``MAX_SIZE``."""
    both, mult = _cleared(u + v)
    iu, iv = both[: len(u)], both[len(u) :]
    _check_symmetric(iu, "U")
    _check_symmetric(iv, "V")
    return _store(p, iu, iv, mult)


def _store(p: QuadricPencil, iu: IntMatrix, iv: IntMatrix, mult: int) -> QuadricPencil:
    for name, value in (("_iu", iu), ("_iv", iv), ("_mult", mult), ("_det", None)):
        object.__setattr__(p, name, value)
    return p


def _reduced(iu: IntRows, iv: IntRows, den: int) -> QuadricPencil:
    """The pencil (iu / den, iv / den), for symmetric integer matrices of
    one size and ``den`` > 0, over its least common denominator: den over
    the gcd of den and every entry c."""
    _check_size(len(iu))
    g = math.gcd(den, *(c for m in (iu, iv) for row in m for c in row))
    return _store(
        object.__new__(QuadricPencil),
        tuple(tuple(c // g for c in row) for row in iu),
        tuple(tuple(c // g for c in row) for row in iv),
        den // g,
    )


def _rational(im: IntMatrix, mult: int) -> Matrix:
    return tuple(tuple(Fraction(c, mult) for c in row) for row in im)


def _lin(iu: IntRows, iv: IntRows, x: int, y: int) -> list[list[int]]:
    """x*U + y*V on integer matrices."""
    return [[x * a + y * b for a, b in zip(ru, rv)] for ru, rv in zip(iu, iv)]


def _conj(m: IntRows, cols: Sequence[Sequence[int]]) -> list[list[int]]:
    """A^T M A for a symmetric integer M and the integer A with columns ``cols``."""
    at_m = [[sum(map(operator.mul, ac, row)) for row in m] for ac in cols]
    return [[sum(map(operator.mul, row, ac)) for ac in cols] for row in at_m]


def congruent(p: QuadricPencil, a: Iterable[Iterable[Rational | int | str]]) -> QuadricPencil:
    """Apply the congruence (U, V) -> (A^T U A, A^T V A); an A of another
    size than ``p.size`` raises ``PencilError`` (``SizeLimitError`` if no
    pencil has that size).  The products run on the denominator-cleared
    integer matrices; the result is the integer pair over one denominator.
    """
    _check_pencil(p)
    ea = _listed(a)
    _check_size(len(ea))  # before any entry is read
    ea = _exact(ea)
    if len(ea) != p.size:
        raise PencilError(f"congruence must be {p.size} x {p.size}, got {len(ea)} x {len(ea)}")
    ia, ma = _cleared(ea)
    cols = list(zip(*ia))
    return _reduced(_conj(p._iu, cols), _conj(p._iv, cols), p._mult * ma * ma)


def change_basis(
    p: QuadricPencil,
    a: Rational | int,
    b: Rational | int,
    c: Rational | int,
    d: Rational | int,
) -> QuadricPencil:
    """Replace (U, V) by (a*U + b*V, c*U + d*V); requires ad - bc != 0.
    The scalars are read as entries are (``_entry``) and cleared over their
    least common denominator m: the pair is built over mult * m."""
    _check_pencil(p)
    ((a, b, c, d),), m = _cleared([[_entry(e) for e in (a, b, c, d)]])
    if a * d - b * c == 0:
        raise PencilError("pencil basis change must be invertible")
    return _reduced(_lin(p._iu, p._iv, a, b), _lin(p._iu, p._iv, c, d), p._mult * m)


# ---------------------------------------------------------------------------
# the determinant by division-free Laplace expansion
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=MAX_SIZE)
def _laplace_table(k: int) -> tuple[tuple[int, int, tuple[tuple[int, int, int], ...]], ...]:
    """The steps of a memoised k x k Laplace expansion: for each nonempty
    column mask, in increasing order, the mask, its row (one less than its
    number of columns), and a (column, sign, sub-mask) per column in it.
    The sign is -1 to the number of the mask's columns after the column."""
    table = []
    for mask in range(1, 1 << k):
        cs = [c for c in range(k) if mask >> c & 1]
        terms = tuple((c, (-1) ** (len(cs) - 1 - j), mask ^ 1 << c) for j, c in enumerate(cs))
        table.append((mask, len(cs) - 1, terms))
    return tuple(table)


def _interpolate(vals: Sequence[int]) -> list[int]:
    """Trimmed integer coefficients of the integer polynomial of degree
    below ``len(vals)`` (at least 1) with the values ``vals`` at
    t = 0, 1, ...: Newton's forward differences, each division by j exact
    as the j-th difference of an integer polynomial is divisible by j!,
    then Horner in the falling-factorial basis t(t - 1)...(t - i + 1)."""
    d = list(vals)
    n = len(d)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            d[i] = (d[i] - d[i - 1]) // j
    c = [d[-1]]
    for i in range(n - 2, -1, -1):  # c <- c*(t - i) + d[i]
        c = [d[i] - i * c[0]] + [a - i * b for a, b in zip(c, c[1:])] + [c[-1]]
    return _int_trim(c)


def _poly_minor(iu: IntRows, iv: IntRows) -> tuple[list[int], Callable[[], list[int]]]:
    """Integer coefficients of det(U - t*V), for square integer U and V,
    and a call that decodes those of its leading principal minor on the
    first k - 1 rows and columns, so that only a reader of it pays.

    Laplace expansion along the rows in order, memoised over column
    subsets: the minor on the first j rows and the j columns of a mask is
    the signed sum, over the mask's columns c, of the entry of row j at c
    times the minor on the mask without c.  Zero entries are skipped.
    Only integer products and sums, no division, over 2^k column subsets,
    k <= MAX_SIZE.  The leading minor is the memo's entry at the mask of
    the first k - 1 columns, so it costs no product of its own; the call
    keeps that entry, packed or as values, and decodes it as below.

    Small pairs run packed (Kronecker substitution): every coefficient of
    the determinant is below 2^(B-2) in absolute value, with B the bit
    length of the product over the rows of the row sums of |u| + |v|, plus
    2.  When B <= ``_PACK_BITS``, the expansion runs on the integers
    u - v*2^B, one multiply per term, and the determinant at t = 2^B is
    read back into its coefficients by ``_int_digits``.  So is the leading
    minor, whose coefficients are below the product over its k - 1 rows:
    within the same bound unless the last row is zero, and then the
    determinant vanishes and the minor is never read (``_det``).

    Larger pairs run on values: a minor on j rows, of degree at most j,
    is held as its values at t = 0..j, and row j's entries as theirs at
    t = 0..j + 1, so a term costs j + 2 big products where coefficient
    lists take 2(j + 1).  A minor gains its value at t = j + 1 once, before
    its use one row down, from the small integer weights ``_EXTRAPOLATE``;
    the determinant's k + 1 values give its coefficients, and the leading
    minor's first k values its own (``_interpolate``).
    """
    k = len(iu)
    lead = (1 << k - 1) - 1  # the mask of the leading principal minor's columns
    bound = 1
    for ru, rv in zip(iu, iv):
        bound *= sum(map(abs, ru)) + sum(map(abs, rv))
    bits = bound.bit_length() + 2
    if bits <= _PACK_BITS:
        rows = [[u - (v << bits) for u, v in zip(ru, rv)] for ru, rv in zip(iu, iv)]
        packed = [1] * (1 << k)
        for mask, r, terms in _laplace_table(k):
            row = rows[r]
            acc = 0
            for c, sign, sub in terms:
                e = row[c]
                if e:
                    if sign > 0:
                        acc += e * packed[sub]
                    else:
                        acc -= e * packed[sub]
            packed[mask] = acc
        base = 1 << bits
        return _int_digits(packed[-1], base), functools.partial(_int_digits, packed[lead], base)
    vals = [
        [[u - t * v for t in range(r + 2)] if u or v else None for u, v in zip(ru, rv)]
        for r, (ru, rv) in enumerate(zip(iu, iv))
    ]
    minors = [[1, 1]] * (1 << k)
    for mask, r, terms in _laplace_table(k):
        row = vals[r]
        acc = [0] * (r + 2)
        for c, sign, sub in terms:
            e = row[c]
            if e:
                op = operator.add if sign > 0 else operator.sub
                acc = list(map(op, acc, map(operator.mul, e, minors[sub])))
        if r + 1 < k:
            acc.append(sum(map(operator.mul, _EXTRAPOLATE[r + 1], acc)))
        minors[mask] = acc
    return _interpolate(minors[-1]), functools.partial(_interpolate, minors[lead][:k])


def _det(p: QuadricPencil) -> tuple[tuple[int, ...], Callable[[], list[int]]]:
    """mult^size * det(U - t*V), as integer coefficients, lowest degree
    first, and the call that decodes mult^(size - 1) times its leading
    principal (size - 1)-minor: ``_poly_minor`` on the cleared pair,
    expanded on first use and kept in the pencil.  The minor is decoded
    only where the determinant has a repeated root, by the root classes
    (``_root_classes``).  Two threads may both expand it on a first read;
    either result serves."""
    fd = p._det
    if fd is None:
        f, lead = _poly_minor(p._iu, p._iv)
        fd = tuple(f), lead
        object.__setattr__(p, "_det", fd)
    return fd


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def det_poly(p: QuadricPencil) -> Polynomial:
    """The determinant |U - lambda*V|, exact and unnormalized.

    Degree is at most n+1, with equality exactly when det V != 0.  Read
    off the pencil's one expansion (``_det``).
    """
    _check_pencil(p)
    return _of(_det(p)[0], p._mult ** p.size)


class InvariantFactors(Record):
    """Divisibility chain d_1 | d_2 | ... | d_{n+1} of U - lambda*V.

    Each d_i is monic (constants allowed); d_i = D_i / D_{i-1} where D_i
    is the monic gcd of all i x i minors.
    """

    factors: tuple[Polynomial, ...]

    @property
    def nontrivial(self) -> tuple[Polynomial, ...]:
        return tuple(f for f in self.factors if f.degree > 0)


# a root class: a primitive integer factor and the exponents, descending, of
# the elementary divisors at each of its roots
RootClass = tuple[list[int], tuple[int, ...]]


def _kernel(rows: list[list[int]], pivots: list[int]) -> list[list[int]]:
    """Integer basis of the kernel of an integer matrix, by back-substitution
    in the echelon ``rows`` and ``pivots`` that ``_bareiss`` returns for it.

    A free column f gives the vector x with x_f = d, the last pivot, and
    zero at the other free columns; from the bottom pivot row up,
    x_p = -sum(row[j] * x_j for j > p) / row[p] at the row's pivot column
    p.  d is the minor on the pivot rows and columns, so each x_p is a
    minor (Cramer's rule) and every division is exact.
    """
    cols = len(rows[0])
    top = rows[:len(pivots)]
    d = top[-1][pivots[-1]] if pivots else 1
    out = []
    for f in range(cols):
        if f not in pivots:
            x = [0] * cols
            x[f] = d
            for row, p in zip(reversed(top), reversed(pivots)):
                x[p] = -sum(row[j] * x[j] for j in range(p + 1, cols)) // row[p]
            out.append(x)
    return out


def _partition(m: int, at_least: Sequence[int]) -> tuple[int, ...] | None:
    """Block sizes at a root of algebraic multiplicity m, descending, from
    at_least[j - 1], the number of blocks of size j or more, known for
    j = 1..J; None when those counts leave the sizes open.

    Exactly at_least[j - 1] - at_least[j] blocks have size j < J, and the
    at_least[J - 1] blocks of size J or more take the rest of m.  The rest
    fixes them when there is one such block, or when it leaves room for at
    most one block above J.  A staircase that is not decreasing, that ends
    below zero, that overshoots m or that cannot reach it raises
    ``InternalConsistencyError``.
    """
    counts = list(at_least)
    depth = len(counts)
    sizes = [j for j in range(depth - 1, 0, -1) for _ in range(counts[j - 1] - counts[j])]
    rest = m - sum(sizes)
    last = counts[-1]
    falls = all(a >= b for a, b in zip(counts, counts[1:] + [0]))
    if counts[0] < 1 or not falls or rest < depth * last or (rest and not last):
        raise InternalConsistencyError(
            f"rank staircase {counts} does not fit a root of multiplicity {m}"
        )
    if last == 1:
        big = [rest]
    elif rest <= depth * last + 1:
        big = [depth + 1] * (rest - depth * last) + [depth] * (last - rest + depth * last)
    else:
        return None
    return tuple(big + sizes)


def _root_classes(
    iu: IntRows, iv: IntRows, f: Sequence[int], lead: Callable[[], Sequence[int]]
) -> list[RootClass]:
    """The roots of f = det(U - t*V) (nonzero, up to a constant) as classes
    (primitive integer factor, partition): every root of the factor has
    elementary divisors of U - t*V with those exponents, descending.  Each
    Yun part of f gives its classes by ``_part_classes``, which reads the
    leading principal (n - 1)-minor of U - t*V up to a nonzero constant
    (empty, it proves nothing).  ``lead()`` decodes it, once, and only
    when some part has multiplicity two or more: a squarefree f, as in
    general position, decodes nothing."""
    parts = _int_squarefree_decomposition(f)
    minor = lead() if any(m > 1 for m, _ in parts) else ()
    return [c for m, h in parts for c in _part_classes(iu, iv, m, h, minor)]


def _part_classes(iu: IntRows, iv: IntRows, m: int, h: list[int], lead: Sequence[int]) -> list[RootClass]:
    """The root classes of h, a primitive squarefree factor of the
    determinant whose roots have multiplicity m, from the leading minor
    ``lead`` or from one or two exact ranks (after Van Dooren 1979).

    Simple roots have partition (1,), and a quadratic h with rational
    roots is split into its two linear factors.  As d*m <= ``MAX_SIZE``
    = 5, with d the degree of h, a part of degree 3 or more is simple,
    and one of degree 2 left unsplit is irreducible with m = 2: its
    conjugate roots share (2) or (11), one block or two.  So h is
    irreducible from here on, and it divides ``lead`` exactly when
    ``lead`` vanishes at one, and so at every, root of h.

    Where ``lead`` does not vanish at a root r, U - r*V has rank n - 1,
    one less than n as the determinant vanishes there, so r has one
    elementary divisor, and the partition is (m,) with no elimination.
    That covers every pencil in general position: for a symmetric A of
    rank n - 1 with kernel vector k, adj A = l*k*k^T with l != 0, so the
    leading minor adj(A)[n][n] = l*k_n^2 vanishes only when k_n = 0, as
    for a block-diagonal normal form or a root with two or more blocks.

    Otherwise, with c the leading coefficient of h and C its companion
    matrix, A = c*(U x I_d) - V x (c*C) is the direct sum of c*(U - r*V)
    over the roots r of h, so its nullity over d counts the blocks at
    each root.  Where that count leaves a linear root's partition open,
    nullity(A) - rank(K^T V K), K an integer kernel basis of
    A = c*U + h(0)*V read off the echelon rows of A's one elimination
    (``_kernel``), counts the blocks of size two or more (x in ker A
    starts a chain of length two or more when V*x lies in the image of A,
    orthogonal to ker A as A is symmetric); at m <= 5 those are one
    block, (2, 2) or (3, 2).  Counts that leave it open raise
    ``InternalConsistencyError``.
    """
    if m == 1:
        return [(h, (1,))]
    d = len(h) - 1
    if d == 2:
        c0, c1, c2 = h
        disc = c1 * c1 - 4 * c2 * c0  # nonzero: the part is squarefree
        s = math.isqrt(disc) if disc > 0 else 0
        if s * s == disc:  # rational roots
            lins = (_int_primitive([c1 - s, 2 * c2]), _int_primitive([c1 + s, 2 * c2]))
            return [c for lin in lins for c in _part_classes(iu, iv, m, lin, lead)]
    if _int_divide(lead, h) is None:  # the leading minor is nonzero at the roots
        return [(h, (m,))]
    c = h[-1]
    if d == 1:  # c*U + h[0]*V: the form below, built directly on the hot path
        a = _lin(iu, iv, c, h[0])
    else:
        cc = [[c * (k == l + 1) - h[k] * (l == d - 1) for l in range(d)] for k in range(d)]
        a = [
            [c * x * (k == l) - y * cc[k][l] for x, y in zip(ru, rv) for l in range(d)]
            for ru, rv in zip(iu, iv) for k in range(d)
        ]
    pivots, _, rows = _bareiss(a)
    counts = [(len(a) - len(pivots)) // d]
    lam = _partition(m, counts)
    if lam is None and d == 1:
        gram = _conj(iv, _kernel(rows, pivots))
        counts.append(counts[0] - len(_bareiss(gram)[0]))
        lam = _partition(m, counts)
    if lam is None:
        raise InternalConsistencyError(f"rank counts {counts} leave a partition of {m} open")
    return [(h, lam)]


def _chain(classes: list[RootClass], size: int) -> list[list[int]]:
    """Primitive integer invariant factors d_1, ..., d_size of the classes:
    d_(size + 1 - i) is the product of each factor to the i-th largest
    exponent of its partition."""
    chain = []
    for i in range(size - 1, -1, -1):
        d = [1]
        for h, lam in classes:
            for _ in range(lam[i] if i < len(lam) else 0):
                d = _int_mul(d, h)
        chain.append(d)
    return chain


def invariant_factors(p: QuadricPencil) -> InvariantFactors:
    """Invariant factors of U - lambda*V, read off exact ranks at each
    repeated root of the determinant (see ``_root_classes``).

    Raises ``DegeneratePencilError`` when |U - lambda*V| vanishes
    identically; callers route that case to degeneracy classification.
    """
    _check_pencil(p)
    f, lead = _det(p)
    if not f:
        raise DegeneratePencilError("determinant of the pencil vanishes identically")
    chain = _chain(_root_classes(p._iu, p._iv, f, lead), p.size)
    return InvariantFactors(tuple(_of(d, d[-1]) for d in chain))


def _sweep_value(f: Sequence[int], size: int) -> int:
    """The first t of 0, 1, -1, 2, -2, ... (``size`` values) with
    det(U + t*V) != 0, read off f, a nonzero multiple of det(U - t*V).

    With det V = 0, f has degree below ``size``, so it vanishes at all
    ``size`` values only when it is identically zero: then no member is
    nonsingular and ``NoSmoothMemberError`` is raised.
    """
    for i in range(size):
        t = (i + 1) // 2 if i % 2 else -(i // 2)
        if _int_eval(f, -t):
            return t
    raise NoSmoothMemberError("no member of the pencil is nonsingular")


def select_nonsingular_member(p: QuadricPencil) -> QuadricPencil:
    """An equivalent pencil (U', V') spanning the same quadrics with det V' != 0.

    ``p`` itself when det V != 0, read off the determinant expansion as
    its degree; else (V, U + t0*V) with t0 the first sweep value
    (``_sweep_value``) of t = 0, 1, -1, 2, -2, ...  With det V = 0 the
    polynomial det(U + t*V) has degree at most n, so n+1 singular sweep
    values certify that the binary determinant form vanishes
    identically, and ``NoSmoothMemberError`` is raised.
    """
    _check_pencil(p)
    f, size = _det(p)[0], p.size
    if len(f) > size:
        return p
    t0 = _sweep_value(f, size)
    return _reduced(p._iv, _lin(p._iu, p._iv, 1, t0), p._mult)


def _selected_classes(p: QuadricPencil) -> tuple[Sequence[int], int, list[RootClass]]:
    """det(U' - t*V'), as integer coefficients and their common
    denominator, and the root classes (``_root_classes``) of the pencil
    (U', V') that ``select_nonsingular_member`` returns; raises
    ``NoSmoothMemberError`` when no member is nonsingular."""
    s = select_nonsingular_member(p)
    f, lead = _det(s)
    return f, s._mult ** s.size, _root_classes(s._iu, s._iv, f, lead)


class DegeneracyReport(Record):
    """What can be said once no nonsingular member exists.

    ``common_kernel_dim`` is dim(ker U intersect ker V); a positive value
    means the base locus is a cone.  Kronecker minimal indices are not
    computed: detection is all the classification downstream needs.
    """

    common_kernel_dim: int
    is_cone: bool
    verdict: str = "not a Segre quartic surface"


def degeneracy_report(p: QuadricPencil) -> DegeneracyReport:
    """The common kernel of a pencil with no nonsingular member, that is
    with det(U - t*V) identically zero (see ``_sweep_value``); a pencil
    with a nonsingular member raises ``PencilError``."""
    _check_pencil(p)
    if _det(p)[0]:
        raise PencilError("pencil has a nonsingular member; nothing to report")
    r0 = p.size - len(_bareiss(p._iu + p._iv)[0])
    return DegeneracyReport(common_kernel_dim=r0, is_cone=r0 > 0)
