"""Pencil-level exact linear algebra for pairs of symmetric matrices.

A ``QuadricPencil`` holds two symmetric rational matrices (U, V) spanning
the pencil x*U + y*V.  This module computes the determinant polynomial
|U - lambda*V|, the invariant factors of U - lambda*V via gcds of minors,
selects a nonsingular member, and reports degeneracy when no member is
nonsingular.

Internally all polynomial determinants run on denominator-cleared integer
matrices: each minor is evaluated at small integer points and recovered by
interpolation.  The minor gcds and their quotients stay primitive integer
coefficient lists; only the finished invariant factors become monic
``Polynomial`` values, which makes the integer scaling invisible.  For a
full analysis the determinant is interpolated once: det V, the member
sweep and the selected pencil's determinant are all read off it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .errors import DegeneratePencilError, InternalConsistencyError, NoSmoothMemberError
from .polynomial import (
    Polynomial,
    Rational,
    _int_derivative,
    _int_exact_div,
    _int_gcd,
    _int_primitive,
    _int_pseudo_rem,
    _int_squarefree_decomposition,
    _int_trim,
    _monic_poly,
)

Matrix = tuple[tuple[Fraction, ...], ...]

__all__ = [
    "Matrix",
    "QuadricPencil",
    "InvariantFactors",
    "DegeneracyReport",
    "as_matrix",
    "identity",
    "diagonal",
    "congruent",
    "change_basis",
    "rational_det",
    "det_poly",
    "invariant_factors",
    "select_nonsingular_member",
    "degeneracy_report",
]


# ---------------------------------------------------------------------------
# small exact matrix helpers
# ---------------------------------------------------------------------------

def as_matrix(rows: Iterable[Iterable[Rational | int | str]]) -> Matrix:
    out = tuple(tuple(c if type(c) is Fraction else Fraction(c) for c in row) for row in rows)
    if any(len(row) != len(out) for row in out):
        raise ValueError("matrix must be square")
    return out


def identity(size: int) -> Matrix:
    return tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(size)) for i in range(size)
    )


def diagonal(entries: Sequence[Rational | int]) -> Matrix:
    es = [Fraction(e) for e in entries]
    return tuple(
        tuple(es[i] if i == j else Fraction(0) for j in range(len(es)))
        for i in range(len(es))
    )


def _mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _mat_scale(a: Matrix, c: Fraction) -> Matrix:
    return tuple(tuple(c * x for x in row) for row in a)


def _bareiss(m: Sequence[Sequence[int]]) -> tuple[int, int]:
    """Fraction-free (Bareiss) elimination of an integer matrix of any shape.

    Returns ``(rank, det)``; ``det`` is 0 unless the matrix is square and
    nonsingular.  A column with no nonzero entry at or below the current
    row is skipped, so every division stays exact (Sylvester's identity)
    and the rank is the rank over the rationals.
    """
    a = [list(row) for row in m]
    rows = len(a)
    cols = len(a[0]) if a else 0
    sign = 1
    prev = 1
    rank = 0
    for c in range(cols):
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
        rank += 1
    det = sign * prev if rank == rows == cols else 0
    return rank, det


def _cleared(m: Matrix) -> tuple[list[list[int]], int]:
    """The integer matrix mult * m and the least such ``mult``."""
    mult = math.lcm(*(c.denominator for row in m for c in row))
    return [[c.numerator * (mult // c.denominator) for c in row] for row in m], mult


def rational_det(m: Matrix) -> Fraction:
    im, mult = _cleared(m)
    return Fraction(_bareiss(im)[1], mult ** len(m))


# ---------------------------------------------------------------------------
# pencil type
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadricPencil:
    """Pair of symmetric rational matrices spanning a pencil of quadrics.

    ``n`` is the ambient projective dimension: the matrices are
    (n+1) x (n+1).  Values are immutable; every operation on pencils is a
    pure function, so concurrent use needs no coordination.
    """

    u: Matrix
    v: Matrix

    def __post_init__(self):
        u = as_matrix(self.u)
        v = as_matrix(self.v)
        if len(u) != len(v):
            raise ValueError("U and V must have the same size")
        for name, m in (("U", u), ("V", v)):
            for i in range(len(m)):
                for j in range(i):
                    if m[i][j] != m[j][i]:
                        raise ValueError(f"{name} is not symmetric")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @property
    def size(self) -> int:
        return len(self.u)

    @property
    def n(self) -> int:
        return self.size - 1

    def member(self, x: Rational | int, y: Rational | int) -> Matrix:
        """The matrix x*U + y*V."""
        return _mat_add(_mat_scale(self.u, Fraction(x)), _mat_scale(self.v, Fraction(y)))


def congruent(p: QuadricPencil, a: Matrix) -> QuadricPencil:
    """Apply the congruence (U, V) -> (A^T U A, A^T V A).

    The products run on the denominator-cleared integer matrices; the
    ``Fraction`` entries are built once, for the result.
    """
    ia, ma = _cleared(as_matrix(a))
    iu, iv, mult = _cleared_int_pair(p)
    den = mult * ma * ma
    a_cols = list(zip(*ia))

    def conj(m: list[list[int]]) -> Matrix:
        at_m = [[sum(x * y for x, y in zip(ac, mc)) for mc in zip(*m)] for ac in a_cols]
        return tuple(
            tuple(Fraction(sum(x * y for x, y in zip(row, ac)), den) for ac in a_cols)
            for row in at_m
        )

    return QuadricPencil(conj(iu), conj(iv))


def change_basis(
    p: QuadricPencil,
    a: Rational | int,
    b: Rational | int,
    c: Rational | int,
    d: Rational | int,
) -> QuadricPencil:
    """Replace (U, V) by (a*U + b*V, c*U + d*V); requires ad - bc != 0."""
    if Fraction(a) * Fraction(d) - Fraction(b) * Fraction(c) == 0:
        raise ValueError("pencil basis change must be invertible")
    return QuadricPencil(p.member(a, b), p.member(c, d))


# ---------------------------------------------------------------------------
# polynomial minors by evaluation and interpolation
# ---------------------------------------------------------------------------

def _cleared_int_pair(p: QuadricPencil) -> tuple[list[list[int]], list[list[int]], int]:
    both, mult = _cleared(p.u + p.v)
    return both[: p.size], both[p.size :], mult


def _poly_minor(
    iu: list[list[int]],
    iv: list[list[int]],
    rows: Sequence[int],
    cols: Sequence[int],
) -> list[int]:
    """Integer coefficients of det(U - t*V) restricted to rows x cols.

    The minor has degree at most k = len(rows); it is evaluated at
    t = 0..k and recovered by Newton interpolation.  Divided differences
    of an integer polynomial at consecutive integers are integers, so
    every division is exact and no fractions arise.
    """
    k = len(rows)
    dd = [
        _bareiss([[iu[r][c] - t * iv[r][c] for c in cols] for r in rows])[1]
        for t in range(k + 1)
    ]
    for j in range(1, k + 1):
        for i in range(k, j - 1, -1):
            q, rem = divmod(dd[i] - dd[i - 1], j)
            if rem:  # determinant of an integer matrix pencil
                raise InternalConsistencyError("minor interpolation produced a non-integer")
            dd[i] = q
    # Newton form sum_i dd[i] * t(t-1)...(t-i+1) to coefficients, by Horner
    coeffs = [dd[k]]
    for i in range(k - 1, -1, -1):
        shifted = [0] + coeffs
        for d, c in enumerate(coeffs):
            shifted[d] -= i * c
        shifted[0] += dd[i]
        coeffs = shifted
    return _int_trim(coeffs)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def _det_coeffs(iu: list[list[int]], iv: list[list[int]]) -> list[int]:
    idx = list(range(len(iu)))
    return _poly_minor(iu, iv, idx, idx)


def det_poly(p: QuadricPencil) -> Polynomial:
    """The determinant |U - lambda*V|, exact and unnormalized.

    Degree is at most n+1, with equality exactly when det V != 0.
    Computed by evaluating the determinant at n+2 integer points and
    interpolating, which avoids symbolic cofactor blowup.
    """
    iu, iv, mult = _cleared_int_pair(p)
    den = mult ** p.size
    return Polynomial([Fraction(c, den) for c in _det_coeffs(iu, iv)])


@dataclass(frozen=True)
class InvariantFactors:
    """Divisibility chain d_1 | d_2 | ... | d_{n+1} of U - lambda*V.

    Each d_i is monic (constants allowed); d_i = D_i / D_{i-1} where D_i
    is the monic gcd of all i x i minors.
    """

    factors: tuple[Polynomial, ...]

    @property
    def nontrivial(self) -> tuple[Polynomial, ...]:
        return tuple(f for f in self.factors if f.degree > 0)


def _minor_gcd(
    iu: list[list[int]], iv: list[list[int]], k: int, start: list[int], floor: int
) -> list[int]:
    """Primitive gcd of ``start`` and the k x k minors of U - t*V.

    U and V are symmetric, so minor(rows, cols) = minor(cols, rows) and
    only pairs with cols at or after rows are evaluated.  The sweep stops
    once the gcd has degree ``floor``, a known lower bound on its degree.
    """
    subsets = list(combinations(range(len(iu)), k))
    g = start
    for i, rows in enumerate(subsets):
        for cols in subsets[i:]:
            g = _int_gcd(g, _poly_minor(iu, iv, rows, cols))
            if len(g) - 1 == floor:
                return g
    return g


def _int_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _repeated_rational_roots(f: list[int]) -> list[list[int]]:
    """Primitive linear factors [-p, q] of the rational roots p/q of f of
    multiplicity two or more.

    A Yun part of multiplicity m >= 2 has degree at most deg f / m.  Linear
    parts are roots; a quadratic part has rational roots exactly when its
    discriminant is a square.  For deg f <= 5 there are no other parts,
    so every rational repeated root is found; for larger degree the roots
    of cubic and higher parts are missed, which only weakens the floor
    they feed.
    """
    out: list[list[int]] = []
    for m, part in _int_squarefree_decomposition(f):
        if m == 1:
            continue
        if len(part) == 2:
            out.append(part)
        elif len(part) == 3:
            c, b, a = part
            disc = b * b - 4 * a * c  # nonzero: the part is squarefree
            if disc > 0 and math.isqrt(disc) ** 2 == disc:
                s = math.isqrt(disc)
                out += [_int_primitive([b - s, 2 * a]), _int_primitive([b + s, 2 * a])]
    return out


def _factor_chain(iu: list[list[int]], iv: list[list[int]], full: list[int]) -> list[list[int]]:
    """Primitive integer invariant factors d_1, ..., d_size of U - t*V.

    ``full`` is a nonzero multiple of det(U - t*V).  D_k, the gcd of the
    k x k minors, is found for k = n, n-1, ..., 1 between an upper and a
    lower bound, and k x k minors are evaluated only while the two differ
    in degree:

    - Upper: D_k divides gcd(D_{k+1}, D_{k+1}'), since a root of D_k is a
      root of d_k | d_{k+1} and so has a larger multiplicity in D_{k+1}.
      The sweep starts from that gcd; for a squarefree determinant it is
      constant and no minor beyond the determinant is needed.
    - Lower: the lcm of two divisors of D_k.  Since d_{k+1} divides
      d_{k+2}, D_{k+1} / gcd(D_{k+1}, d_{k+2}) divides D_k.  And for each
      rational root alpha of the determinant of multiplicity two or more,
      g = size - rank(U - alpha*V) of the invariant factors, the top g,
      vanish at alpha, so (t - alpha)^(g + k - size) divides D_k.

    The sweep stops as soon as the running gcd has the lower bound's
    degree.  For a 5 x 5 pencil every root of geometric multiplicity two
    or more is rational, except a conjugate pair of (11) groups.  That
    pair, and the groups (22), (32) and (221), where the lower bound sits
    below the true degree, are where a sweep still runs through all its
    minors; elsewhere the lower bound is exact, and a sweep ends at the
    first minors that bring the gcd down to it.

    Every route to invariant factors or a symbol ends here, so the chain
    d_1 | d_2 | ... is checked here, once, by pseudo-remainders; a break
    raises ``InternalConsistencyError``.
    """
    size = len(iu)
    upper = _int_primitive(full)  # D_{k+1}
    start = _int_gcd(upper, _int_derivative(upper))  # D_k divides it
    roots = []  # (t - alpha as [-p, q], geometric multiplicity of alpha)
    if len(start) > 1:  # the determinant has a repeated root
        for lin in _repeated_rational_roots(upper):
            member = [[lin[1] * a + lin[0] * b for a, b in zip(ru, rv)] for ru, rv in zip(iu, iv)]
            roots.append((lin, size - _bareiss(member)[0]))
    above: list[int] = []  # d_{k+2}; zero above the top, which every d_{k+1} divides
    factors: list[list[int]] = []
    for k in range(size - 1, 0, -1):
        floor = _int_exact_div(upper, _int_gcd(upper, above))
        rank_floor = [1]
        for lin, g in roots:
            for _ in range(g + k - size):
                rank_floor = _int_mul(rank_floor, lin)
        floor_deg = len(floor) + len(rank_floor) - len(_int_gcd(floor, rank_floor)) - 1
        lower = _minor_gcd(iu, iv, k, start, floor_deg) if len(start) - 1 > floor_deg else start
        above = _int_exact_div(upper, lower)
        factors.append(above)
        upper = lower
        start = _int_gcd(upper, _int_derivative(upper))
    factors.append(upper)
    factors.reverse()
    for a, b in zip(factors, factors[1:]):
        if _int_pseudo_rem(b, a):
            raise InternalConsistencyError(
                "invariant factors fail the divisibility chain: "
                f"{_monic_poly(a)} | {_monic_poly(b)}"
            )
    return factors


def invariant_factors(p: QuadricPencil) -> InvariantFactors:
    """Invariant factors of U - lambda*V by gcds of minors.

    The minor-gcd sweep is bounded from the determinant (see
    ``_factor_chain``), so most pencils need few minors beyond it.

    Raises ``DegeneratePencilError`` when |U - lambda*V| vanishes
    identically; callers route that case to degeneracy classification.
    """
    iu, iv, _ = _cleared_int_pair(p)
    full = _det_coeffs(iu, iv)
    if not full:
        raise DegeneratePencilError("determinant of the pencil vanishes identically")
    return InvariantFactors(tuple(_monic_poly(d) for d in _factor_chain(iu, iv, full)))


def _sweep_value(f: list[int], size: int) -> int:
    """The first t of 0, 1, -1, 2, -2, ... (``size`` values) with
    det(U + t*V) != 0, read off f, a nonzero multiple of det(U - t*V).

    With det V = 0, f has degree below ``size``, so it vanishes at all
    ``size`` values only when it is identically zero: then no member is
    nonsingular and ``NoSmoothMemberError`` is raised.
    """
    for i in range(size):
        t = (i + 1) // 2 if i % 2 else -(i // 2)
        value = 0
        for c in reversed(f):  # f(-t) by Horner
            value = value * -t + c
        if value:
            return t
    raise NoSmoothMemberError("no member of the pencil is nonsingular")


def _selected_invariants(p: QuadricPencil) -> tuple[list[int], int, list[list[int]]]:
    """det(U' - t*V'), as integer coefficients and their common
    denominator, and the primitive integer invariant factors of the pencil
    (U', V') that ``select_nonsingular_member`` returns.

    det(U - t*V) is interpolated once, on the cleared pair (iu, iv) with
    f = mult^size * det(U - t*V).  When det V = 0 (deg f < size) the
    selected pencil is (V, U + t0*V), whose cleared pair at the same scale
    is (iv, iu + t0*iv), and whose determinant is
    det(V - s*(U + t0*V)) = (-1)^size F(s, 1 - t0*s) with F(x, y) =
    det(x*U - y*V), f homogenised to degree size.  Raises
    ``NoSmoothMemberError`` when no member is nonsingular.
    """
    iu, iv, mult = _cleared_int_pair(p)
    size = p.size
    f = _det_coeffs(iu, iv)
    if len(f) <= size:  # det V = 0
        t0 = _sweep_value(f, size)
        sign = (-1) ** size
        g = [0] * (size + 1)
        power = [sign]  # (-1)^size (1 - t0*s)^i
        for i, c in enumerate(f):
            for j, b in enumerate(power):
                g[size - i + j] += c * b
            power = _int_mul(power, [1, -t0])
        f = _int_trim(g)
        iu, iv = iv, [[a + t0 * b for a, b in zip(ru, rv)] for ru, rv in zip(iu, iv)]
    return f, mult ** size, _factor_chain(iu, iv, f)


def select_nonsingular_member(p: QuadricPencil) -> QuadricPencil:
    """An equivalent pencil (U', V') spanning the same quadrics with det V' != 0.

    Sweeps the candidates V' = U + t*V over t = 0, 1, -1, 2, -2, ... after
    first trying V itself.  With det V = 0 the polynomial det(U + t*V) has
    degree at most n, so n+1 singular sweep values certify that the binary
    determinant form vanishes identically, and ``NoSmoothMemberError`` is
    raised.
    """
    if rational_det(p.v) != 0:
        return p
    iu, iv, _ = _cleared_int_pair(p)
    t = _sweep_value(_det_coeffs(iu, iv), p.size)
    return QuadricPencil(p.v, p.member(1, t))


@dataclass(frozen=True)
class DegeneracyReport:
    """What can be said once no nonsingular member exists.

    ``common_kernel_dim`` is dim(ker U intersect ker V); a positive value
    means the base locus is a cone.  Kronecker minimal indices are not
    computed: detection is all the classification downstream needs.
    """

    common_kernel_dim: int
    is_cone: bool
    verdict: str = "not a Segre quartic surface"


def degeneracy_report(p: QuadricPencil) -> DegeneracyReport:
    try:
        select_nonsingular_member(p)
    except NoSmoothMemberError:
        pass
    else:
        raise ValueError("pencil has a nonsingular member; nothing to report")
    return _common_kernel_report(p)


def _common_kernel_report(p: QuadricPencil) -> DegeneracyReport:
    """``degeneracy_report`` for a pencil already known to have no
    nonsingular member."""
    iu, iv, _ = _cleared_int_pair(p)
    r0 = p.size - _bareiss(iu + iv)[0]
    return DegeneracyReport(common_kernel_dim=r0, is_cone=r0 > 0)
