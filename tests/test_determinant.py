"""The determinant polynomial det(U - t*V) against three oracles:
cofactor expansion on sympy's dense lists over QQ, sympy's ``Matrix.det``,
and the six-point Bareiss evaluation with Newton interpolation that the
division-free expansion replaced.  Both routes of the expansion are
checked at the width cutoff between them: the packed (Kronecker-
substituted) one with its balanced-digit reader, and the wide one, which
expands on the entries' values at t = 0..k because a value costs one big
product where a coefficient list takes two per coefficient, with its
extrapolation weights and its interpolation to coefficients.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import segre.pencil
from segre.errors import SegreError, SizeLimitError
from segre.pencil import (
    _EXTRAPOLATE,
    _PACK_BITS,
    MAX_SIZE,
    QuadricPencil,
    _interpolate,
    _laplace_table,
    _poly_minor,
    det_poly,
    invariant_factors,
)
from segre.polynomial import _int_digits, _int_eval
from segre.symbol import random_instance
from test_pencil import cofactor_det, to_dup


def bareiss_det(m):
    """Determinant of a square integer matrix by fraction-free elimination."""
    a = [list(row) for row in m]
    n, sign, prev = len(a), 1, 1
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k]), None)
        if p is None:
            return 0
        if p != k:
            a[k], a[p] = a[p], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * prev


def forward_differences(vals):
    """Newton's divided forward differences of integer values at
    t = 0, 1, ..., each division by j checked to leave no remainder."""
    d = list(vals)
    for j in range(1, len(d)):
        for i in range(len(d) - 1, j - 1, -1):
            d[i], rem = divmod(d[i] - d[i - 1], j)
            assert rem == 0, (j, i)
    return d


def interpolated_minor(iu, iv, rows, cols):
    """det(U - t*V) on rows x cols evaluated at t = 0..k by Bareiss and
    recovered by integer Newton interpolation."""
    k = len(rows)
    dd = forward_differences(
        bareiss_det([[iu[r][c] - t * iv[r][c] for c in cols] for r in rows])
        for t in range(k + 1)
    )
    coeffs = [dd[k]]
    for i in range(k - 1, -1, -1):
        shifted = [0] + coeffs
        for d, c in enumerate(coeffs):
            shifted[d] -= i * c
        shifted[0] += dd[i]
        coeffs = shifted
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def cofactor_minor(iu, iv, rows, cols):
    mat = [[to_dup([iu[r][c], -iv[r][c]]) for c in cols] for r in rows]
    return [int(c) for c in reversed(cofactor_det(mat))]


def sympy_minor(iu, iv, rows, cols):
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    m = sympy.Matrix([[iu[r][c] - t * iv[r][c] for c in cols] for r in rows])
    det = m.det(method="domain-ge")
    return [int(c) for c in reversed(sympy.Poly(det, t).all_coeffs())] if det != 0 else []


def random_pair(size, digits, seed):
    rng = random.Random(1000 * size + digits + seed)
    bound = 10**digits

    def m():
        return [[rng.randint(-bound, bound) for _ in range(size)] for _ in range(size)]

    return m(), m()


def square_cases(size, digits):
    """(name, iu, iv) at one size: random entries, a zero row of the
    pencil, a zero column of V, det V = 0 by a repeated row of V, and the
    all-zero pencil."""
    iu, iv = random_pair(size, digits, 0)
    yield "random", iu, iv
    zu, zv = random_pair(size, digits, 1)
    zu[size // 2] = [0] * size
    zv[size // 2] = [0] * size
    yield "zero row", zu, zv
    cu, cv = random_pair(size, digits, 2)
    for row in cv:
        row[0] = 0
    yield "zero column of V", cu, cv
    su, sv = random_pair(size, digits, 3)
    sv[-1] = list(sv[0])
    yield "det V = 0", su, sv
    yield "zero pencil", [[0] * size for _ in range(size)], [[0] * size for _ in range(size)]


def check_square(oracle, size, digits):
    idx = list(range(size))
    for name, iu, iv in square_cases(size, digits):
        got = _poly_minor(iu, iv)
        assert got == oracle(iu, iv, idx, idx), name
        assert len(got) <= size + 1 and (not got or got[-1] != 0), name
        if name in ("zero pencil", "zero row"):
            assert got == [], name
        if name in ("zero column of V", "det V = 0") and size > 1:
            assert len(got) <= size, name


SIZES = range(1, MAX_SIZE + 1)
DIGITS = (1, 10, 1000)


@pytest.mark.parametrize("digits", DIGITS)
@pytest.mark.parametrize("size", SIZES)
def test_against_interpolation(size, digits):
    check_square(interpolated_minor, size, digits)


@pytest.mark.parametrize("digits", DIGITS)
@pytest.mark.parametrize("size", SIZES)
def test_against_cofactor(size, digits):
    check_square(cofactor_minor, size, digits)


@pytest.mark.parametrize("digits", DIGITS)
@pytest.mark.parametrize("size", SIZES)
def test_against_sympy(size, digits):
    check_square(sympy_minor, size, digits)


def subsets(size, k, rng, count):
    """Sorted k-subsets of range(size), the first two fixed to the evens
    and the odds where they have k elements."""
    out = [tuple(range(0, size, 2))[:k], tuple(range(1, size, 2))[:k]]
    out = [s for s in out if len(s) == k]
    while len(out) < count:
        out.append(tuple(sorted(rng.sample(range(size), k))))
    return out


@pytest.mark.parametrize("digits", DIGITS)
def test_non_contiguous_minors_sympy(digits):
    """Square submatrices rows x cols of symmetric pencils, rows != cols
    and both non-contiguous: the expansion takes any square integer pair,
    symmetric or not."""
    rng = random.Random(digits)
    bound = 10**digits
    size = 7
    pair = []
    for _ in range(2):
        m = [[0] * size for _ in range(size)]
        for i in range(size):
            for j in range(i, size):
                m[i][j] = m[j][i] = rng.randint(-bound, bound)
        pair.append(m)
    iu, iv = pair
    for k in range(1, 6):
        for rows, cols in zip(subsets(size, k, rng, 3), reversed(subsets(size, k, rng, 3))):
            got = _poly_minor(*([[m[r][c] for c in cols] for r in rows] for m in (iu, iv)))
            assert got == interpolated_minor(iu, iv, rows, cols), (rows, cols)
            assert got == cofactor_minor(iu, iv, rows, cols), (rows, cols)
            if digits < 1000 or k <= 3:
                assert got == sympy_minor(iu, iv, rows, cols), (rows, cols)


def row_bound(iu, iv):
    """The product over the rows of the row sums of |u| + |v|: the packing
    width B of ``_poly_minor`` is its bit length plus 2."""
    bound = 1
    for ru, rv in zip(iu, iv):
        bound *= sum(map(abs, ru)) + sum(map(abs, rv))
    return bound


def pair_of_width(size, width, seed):
    """A seeded size x size pair whose packing width is exactly ``width``:
    random rows below the first, and a first row whose sum of |u| + |v|
    puts the product at bit length width - 2."""
    rng = random.Random(width * 10 + seed)
    iu, iv = random_pair(size, 3, seed)
    rest = row_bound(iu[1:], iv[1:])
    lo, hi = -(-(1 << (width - 3)) // rest), ((1 << (width - 2)) - 1) // rest
    iu[0][0] = 0
    iu[0][0] = rng.choice((1, -1)) * (rng.randint(lo, hi) - row_bound(iu[:1], iv[:1]))
    assert row_bound(iu, iv).bit_length() + 2 == width
    return iu, iv


def record_routes(monkeypatch):
    """Lists that fill as ``_poly_minor`` takes its routes: the base of
    each packed read, and the number of values of each interpolation."""
    reads, interpolations = [], []
    monkeypatch.setattr(segre.pencil, "_int_digits", lambda n, x: reads.append(x) or _int_digits(n, x))
    monkeypatch.setattr(
        segre.pencil, "_interpolate", lambda v: interpolations.append(len(v)) or _interpolate(v)
    )
    return reads, interpolations


@pytest.mark.parametrize("width", [_PACK_BITS - 1, _PACK_BITS, _PACK_BITS + 1])
@pytest.mark.parametrize("seed", range(3))
def test_packed_expansion_at_the_cutoff(monkeypatch, width, seed):
    # the widest packing, one bit narrower and one bit too wide (the
    # values at t = 0..size); every coefficient is below 2^(B - 2)
    reads, interpolations = record_routes(monkeypatch)
    iu, iv = pair_of_width(MAX_SIZE, width, seed)
    idx = list(range(MAX_SIZE))
    got = _poly_minor(iu, iv)
    assert got == sympy_minor(iu, iv, idx, idx)
    assert len(got) == MAX_SIZE + 1 and all(abs(c) < 1 << (width - 2) for c in got)
    packed = width <= _PACK_BITS
    assert reads == ([1 << width] if packed else [])
    assert interpolations == ([] if packed else [MAX_SIZE + 1])


@pytest.mark.parametrize("size", SIZES)
def test_wide_expansion_of_vanishing_determinants(monkeypatch, size):
    # two equal rows of 1000-digit entries (from size 2 on), det = 0, and
    # det V = 0 by two equal rows of V (V = 0 at size 1), degree below
    # size; a zero row would pack, at B = 2
    reads, interpolations = record_routes(monkeypatch)
    idx = list(range(size))
    iu, iv = random_pair(size, 1000, 4)
    su, sv = random_pair(size, 1000, 5)
    sv[-1] = list(sv[0]) if size > 1 else [0]
    got = _poly_minor(su, sv)
    assert got == sympy_minor(su, sv, idx, idx) and 0 < len(got) <= size
    if size > 1:
        iu[-1], iv[-1] = list(iu[0]), list(iv[0])
        assert _poly_minor(iu, iv) == [] == sympy_minor(iu, iv, idx, idx)
    assert reads == [] and interpolations == [size + 1] * (1 + (size > 1))


def test_packed_expansion_of_vanishing_determinants(monkeypatch):
    reads, interpolations = record_routes(monkeypatch)
    iu, iv = random_pair(4, 6, 0)
    iu[2], iv[2] = list(iu[0]), list(iv[0])  # two equal rows of U - t*V: det = 0
    assert _poly_minor(iu, iv) == [] == sympy_minor(iu, iv, range(4), range(4))
    iu[2] = iv[2] = [0] * 4  # a zero row
    assert _poly_minor(iu, iv) == []
    assert len(reads) == 2 and interpolations == []


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-(2**17000), 2**17000), max_size=MAX_SIZE + 1), st.data())
def test_interpolation_and_extrapolation_weights(c, data):
    # an integer polynomial of degree <= MAX_SIZE comes back from its
    # values at t = 0..n - 1, n > degree, with every division exact; the
    # weights give p(j + 1) from p(0..j) at every j >= degree
    trimmed = list(c)
    while trimmed and not trimmed[-1]:
        trimmed.pop()
    n = data.draw(st.integers(max(len(c), 1), MAX_SIZE + 1))
    vals = [_int_eval(c, t) for t in range(n)]
    forward_differences(vals)
    assert _interpolate(vals) == trimmed
    assert len(_EXTRAPOLATE) == MAX_SIZE
    for j in range(max(len(trimmed) - 1, 0), MAX_SIZE):
        p = [_int_eval(c, t) for t in range(j + 1)]
        assert sum(w * x for w, x in zip(_EXTRAPOLATE[j], p, strict=True)) == _int_eval(c, j + 1)


@settings(max_examples=200, deadline=None)
@given(st.integers(3, 2**80), st.data())
def test_balanced_digits_invert_horner(x, data):
    # trimmed coefficients in (-x/2, x/2] come back from their value at x,
    # and any integer has such digits
    digit = st.integers(-((x - 1) // 2), x // 2)
    c = data.draw(st.lists(digit, max_size=8))
    while c and not c[-1]:
        c.pop()
    assert _int_digits(_int_eval(c, x), x) == c
    n = data.draw(st.integers(-(x**9), x**9))
    d = _int_digits(n, x)
    assert _int_eval(d, x) == n and all(-x < 2 * a <= x for a in d) and (not d or d[-1])


def test_determinant_makes_no_bareiss_call(monkeypatch):
    calls = []
    real = segre.pencil._bareiss

    def counted(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(segre.pencil, "_bareiss", counted)
    p = random_instance("[(21)2]", 0)
    assert len(_poly_minor(p._iu, p._iv)) == p.size + 1
    det_poly(p)
    assert calls == []


def test_pencils_past_the_size_limit_are_refused():
    # pencils are capped at the 5 x 5 of quadrics in P^4
    big = [[int(i == j) for j in range(MAX_SIZE + 1)] for i in range(MAX_SIZE + 1)]
    with pytest.raises(SizeLimitError, match=f"at most {MAX_SIZE} x {MAX_SIZE}"):
        QuadricPencil(big, big)
    with pytest.raises(SizeLimitError):
        random_instance("[" + "1" * (MAX_SIZE + 1) + "]", 0)
    with pytest.raises(SizeLimitError, match="got 20 x 20"):
        random_instance("[" + "1" * 20 + "]", 0)  # 20 groups, 19 candidate roots
    # refused before a weight-90,000 block matrix is built
    with pytest.raises(SizeLimitError, match="got 90000 x 90000"):
        random_instance("[(" + "9" * 10000 + ")]", 0)
    assert issubclass(SizeLimitError, SegreError) and issubclass(SizeLimitError, ValueError)
    # the largest pencil runs; the expansion tables stay one per size
    p = random_instance("[" + "1" * (MAX_SIZE - 2) + "2]", 0)
    assert len(det_poly(p).coeffs) == MAX_SIZE + 1
    assert len(invariant_factors(p).factors) == MAX_SIZE
    assert _laplace_table.cache_info().maxsize == MAX_SIZE
    assert _laplace_table.cache_info().currsize <= MAX_SIZE
