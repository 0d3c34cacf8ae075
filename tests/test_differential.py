"""Differential tests: the exact path against sympy and against the minor
gcds of ``brute_invariant_factors``, and the floating-point oracle against
sympy, on pencils built outside the normal forms the other suites use.

The sympy oracle works on M = V'^-1 U' of the selected member over QQ.  For
each irreducible factor h of its characteristic polynomial (sympy's
``factor_list``), dim ker h(M)^j = deg(h) * sum_i min(j, lambda_i), where
lambda is the block-size partition at each root of h; so the ranks of the
powers h(M)^j give the partition, with (M - alpha)^j as the linear case.
"""

import random
from fractions import Fraction

import pytest

import segre.pencil
from segre.acceptance import _degenerate_pairs
from segre.errors import IllConditionedError
from segre.numeric import numeric_exponent_partitions
from segre.pencil import (
    QuadricPencil,
    _bareiss,
    as_matrix,
    change_basis,
    congruent,
    degeneracy_report,
    diagonal,
    invariant_factors,
    select_nonsingular_member,
)
from segre.polynomial import Polynomial
from segre.symbol import Group, SegreSymbol, build_normal_form, compute_symbol
from test_pencil import brute_invariant_factors, product as poly_product


def sympy_partitions(p: QuadricPencil) -> list[tuple[Polynomial, list[int]]]:
    """(monic irreducible factor h, partition at each root of h) for the
    pencil ``select_nonsingular_member(p)``, from ranks over QQ."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    qq = sympy.QQ
    s = select_nonsingular_member(p)
    n = s.size

    def dm(m):
        rows = [[qq(c.numerator, c.denominator) for c in row] for row in m]
        return DomainMatrix(rows, (n, n), qq)

    m = dm(s.v).inv() * dm(s.u)
    eye = DomainMatrix.eye(n, qq)
    x = sympy.Symbol("x")
    out = []
    for h, mult in sympy.factor_list(sympy.Poly(m.charpoly(), x, domain=qq))[1]:
        h = h.monic()
        hm = eye * qq(0)
        for c in h.all_coeffs():  # Horner
            hm = hm * m + eye * qq.from_sympy(c)
        power, nullity = eye, [0]
        while nullity[-1] < h.degree() * mult:
            power = power * hm
            nullity.append(n - power.rank())
        at_least = [(b - a) // h.degree() for a, b in zip(nullity, nullity[1:])] + [0]
        partition = [
            j for j in range(len(at_least) - 1, 0, -1) for _ in range(at_least[j - 1] - at_least[j])
        ]
        coeffs = [Fraction(int(c.numerator), int(c.denominator)) for c in reversed(h.all_coeffs())]
        out.append((Polynomial(coeffs), partition))
    return out


def oracle_structure(classes) -> tuple:
    return SegreSymbol(
        [Group(tuple(lam)) for h, lam in classes for _ in range(h.degree)]
    ).exponent_structure()


def oracle_factors(classes, size: int) -> tuple[Polynomial, ...]:
    """d_(size + 1 - i) = product of h^(lambda_i)."""
    return tuple(
        poly_product([h for h, lam in classes if i <= len(lam) for _ in range(lam[i - 1])])
        for i in range(size, 0, -1)
    )


def wide_congruence(p: QuadricPencil, seed: int) -> QuadricPencil:
    """p under a seeded congruence with entries in -50..50."""
    rng = random.Random(seed)
    while True:
        a = [[rng.randint(-50, 50) for _ in range(p.size)] for _ in range(p.size)]
        if _bareiss(a)[1]:
            return congruent(p, as_matrix(a))


def block_diag(*pairs) -> QuadricPencil:
    size = sum(len(u) for u, _ in pairs)
    u = [[0] * size for _ in range(size)]
    v = [[0] * size for _ in range(size)]
    at = 0
    for bu, bv in pairs:
        for i in range(len(bu)):
            for j in range(len(bu)):
                u[at + i][at + j] = bu[i][j]
                v[at + i][at + j] = bv[i][j]
        at += len(bu)
    return QuadricPencil(as_matrix(u), as_matrix(v))


def jordan_two(su, sv):
    """The pair [[0, Su], [Su, Sv]], [[0, Sv], [Sv, 0]]: V^-1 U is
    [[M, I], [0, M]] with M = Sv^-1 Su, so every simple eigenvalue of M
    gets one 2 x 2 block."""
    k = len(su)
    zero = [[0] * k for _ in range(k)]
    u = [zs + list(r) for zs, r in zip(zero, su)] + [list(r) + list(s) for r, s in zip(su, sv)]
    v = [zs + list(r) for zs, r in zip(zero, sv)] + [list(r) + zs for r, zs in zip(sv, zero)]
    return u, v


# symmetric pairs (Su, Sv) whose Sv^-1 Su has an irreducible characteristic
# polynomial x^2 - d, for d = 2, 5, 7
QUADRATIC = {
    2: ([[1, 1], [1, -1]], [[1, 0], [0, 1]]),
    5: ([[1, 2], [2, -1]], [[1, 0], [0, 1]]),
    7: ([[0, 7], [7, 0]], [[1, 0], [0, 7]]),
}
ONE = ([[3]], [[1]])


def conjugate_cases():
    """name -> (pencil, a rational root or None)."""
    out = {}
    for d, pair in QUADRATIC.items():
        out[f"(11)(11) x^2-{d}"] = (block_diag(pair, pair), None)
        out[f"(2)(2) x^2-{d}"] = (block_diag(jordan_two(*pair)), None)
        out[f"(11)(11)1 x^2-{d}"] = (block_diag(pair, pair, ONE), 3)
        out[f"(2)(2)1 x^2-{d}"] = (block_diag(jordan_two(*pair), ONE), 3)
    return out


# normal forms on non-integer rational roots, sizes 2 to 5
RATIONAL = {
    "[2]": [Fraction(1, 3)],
    "[(11)]": [Fraction(-5, 2)],
    "[(21)]": [Fraction(7, 4)],
    "[3]": [Fraction(-2, 9)],
    "[(31)]": [Fraction(1, 2)],
    "[(22)]": [Fraction(-3, 5)],
    "[(21)2]": [Fraction(1, 3), Fraction(-5, 2)],
    "[(32)]": [Fraction(7, 4)],
    "[(311)]": [Fraction(-2, 3)],
    "[(22)1]": [Fraction(5, 6), Fraction(-1, 7)],
    "[(221)]": [Fraction(3, 8)],
    "[(41)]": [Fraction(3, 5)],
    "[(11)(11)1]": [Fraction(1, 2), Fraction(-3, 4), Fraction(2, 3)],
}
CASES = {
    **conjugate_cases(),
    **{
        f"{sym} at {', '.join(map(str, roots))}": (build_normal_form(sym, roots), roots[0])
        for sym, roots in RATIONAL.items()
    },
}
# no root of any case: s in (U - s*V, U - r*V)
NON_ROOT = 11


def case(name: str) -> QuadricPencil:
    return wide_congruence(CASES[name][0], seed=list(CASES).index(name))


@pytest.mark.parametrize("name", list(CASES))
def test_sympy_oracle(name, monkeypatch):
    p = case(name)
    sizes = []
    real = segre.pencil._poly_minor

    def counted(iu, iv):
        sizes.append(len(iu))
        return real(iu, iv)

    monkeypatch.setattr(segre.pencil, "_poly_minor", counted)
    classes = sympy_partitions(p)
    assert compute_symbol(p).exponent_structure() == oracle_structure(classes)
    assert invariant_factors(p).factors == oracle_factors(classes, p.size)
    # one determinant per pencil, which the oracle's member selection and
    # both routes read, and ranks for the rest
    assert sizes == [p.size]
    assert invariant_factors(p).factors == brute_invariant_factors(p)


@pytest.mark.parametrize("name", [name for name, (_, root) in CASES.items() if root is not None])
def test_sympy_oracle_singular_v(name):
    """(U - s*V, U - r*V) at a root r spans the same pencil with det V = 0."""
    r = CASES[name][1]
    q = change_basis(case(name), 1, -NON_ROOT, 1, -r)
    assert q.det_v == 0
    classes = sympy_partitions(q)
    assert compute_symbol(q).exponent_structure() == oracle_structure(classes)
    selected = select_nonsingular_member(q)
    assert invariant_factors(selected).factors == oracle_factors(classes, q.size)
    assert invariant_factors(q).factors == brute_invariant_factors(q)


@pytest.mark.parametrize("name", list(CASES))
def test_sympy_oracle_numeric_leg(name):
    """The floating-point oracle on the selected member either refuses or
    gives sympy's exponent structure."""
    p = case(name)
    expected = oracle_structure(sympy_partitions(p))
    try:
        numeric = numeric_exponent_partitions(select_nonsingular_member(p))
    except IllConditionedError:
        return
    assert numeric.exponent_structure() == expected


# pencils with no nonsingular member: the four normal pairs, with a trivial
# common kernel, and two cones
DEGENERATE = {
    **_degenerate_pairs(),
    "cone, kernel 1": QuadricPencil(diagonal([1, 2, 3, 4, 0]), diagonal([5, 1, 2, 7, 0])),
    "cone, kernel 2": QuadricPencil(diagonal([1, 2, 3, 0, 0]), diagonal([1, 1, 1, 0, 0])),
}


@pytest.mark.parametrize("name", list(DEGENERATE))
@pytest.mark.parametrize("seed", range(3))
def test_common_kernel_sympy(name, seed):
    """``degeneracy_report``'s common kernel of U and V against the
    dimension of sympy's nullspace of [U; V]."""
    sympy = pytest.importorskip("sympy")
    p = wide_congruence(DEGENERATE[name], seed)
    stacked = sympy.Matrix([[sympy.Rational(c.numerator, c.denominator) for c in row] for row in p.u + p.v])
    assert degeneracy_report(p).common_kernel_dim == len(stacked.nullspace())
