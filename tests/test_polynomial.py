"""The integer polynomial engine and the ``Polynomial`` wrappers over it,
checked against sympy's dense routines over QQ."""

import copy
import math
import pickle
import random
from contextlib import contextmanager
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from sympy import QQ, ZZ
from sympy.polys.densetools import dup_content, dup_diff, dup_monic
from sympy.polys.euclidtools import dup_gcd, dup_inner_gcd
from sympy.polys.sqfreetools import dup_sqf_list, dup_sqf_part

import segre.polynomial
from segre.catalog import CATALOG_ORDER
from segre.pencil import _bareiss, _det, congruent, det_poly
from segre.polynomial import (
    Polynomial,
    _int_derivative,
    _int_divide,
    _int_exact_div,
    _int_gcd,
    _int_gcd_cofactors,
    _int_mul,
    _int_primitive,
    _int_squarefree_decomposition,
    _int_trim,
    _of,
    coprime_basis,
    squarefree_decomposition,
)
from segre.reporting import analyze_pencil
from segre.symbol import build_normal_form, canonicalize, random_instance
from test_pencil import from_dup, monic, product, to_dup


def P(*coeffs):
    return Polynomial(coeffs)


def linear(root):
    return Polynomial([-Fraction(root), 1])


def power(p, k):
    return product([p] * k)


def divides(b: Polynomial, p: Polynomial) -> bool:
    return dup_gcd(to_dup(b.coeffs), to_dup(p.coeffs), QQ) == to_dup(monic(b).coeffs)


def coprime(a: Polynomial, b: Polynomial) -> bool:
    return dup_gcd(to_dup(a.coeffs), to_dup(b.coeffs), QQ) == [QQ(1)]


class TestArithmetic:
    def test_degree_and_zero(self):
        assert Polynomial().is_zero
        assert Polynomial().degree == -1
        assert P(0, 0, 0).is_zero
        assert P(1, 2).degree == 1

    def test_mul_and_call(self):
        assert _int_mul([-2, 1], [-3, 1]) == [6, -5, 1]
        assert _int_mul([0, 2], [3]) == [0, 6]

    def test_divmod_exact(self):
        p = [-4, 8, -5, 1]  # (t - 1)(t - 2)^2
        assert _int_divide(p, [-2, 1]) == [2, -3, 1]
        assert _int_divide(p, [-5, 1]) is None
        assert _int_divide(p, [-1, 2]) is None  # not in Z[t]: t - 1/2 is no factor
        assert _int_divide([], [-2, 1]) == []
        assert _int_divide([3], [-2, 1]) is None
        with pytest.raises(ValueError):
            _int_exact_div(p, [-5, 1])

    def test_monic(self):
        # _of(b, b[-1]) is the monic polynomial of an integer list b
        assert _of([2, 4, 2], 2) == P(1, 2, 1)
        assert _of([1, -2], -2) == P(Fraction(-1, 2), 1)
        assert _of([], 1) == _of([], -5) == Polynomial()

    def test_derivative(self):
        assert _int_derivative([5, 3, 2]) == [3, 4]
        assert _int_derivative([7]) == []

    def test_str(self):
        assert str(P(-2, 0, 1)) == "t^2 - 2"
        assert str(Polynomial()) == "0"
        assert str(P(Fraction(1, 2))) == "1/2"

    def test_no_arithmetic_on_the_value(self):
        p = P(1, 1)
        for op in (lambda: p + p, lambda: p * 2, lambda: divmod(p, p), lambda: p(1)):
            with pytest.raises(TypeError):
                op()


class TestGcd:
    def test_gcd_with_zero(self):
        assert _int_gcd([2, 2], []) == [1, 1]
        assert _int_gcd([], [2, 2]) == [1, 1]
        assert _int_gcd([], [-3, -6]) == [1, 2]

    def test_common_factor(self):
        a = [2, -3, 1]  # (t - 1)(t - 2)
        b = [3, -4, 1]  # (t - 1)(t - 3)
        assert _int_gcd(a, b) == [-1, 1]

    def test_coprime(self):
        assert _int_gcd([-1, 1], [-2, 1]) == [1]

    def test_fractional_coefficients(self):
        # 2/7 (t - 1/2)(t - 3) and 5/3 (t - 1/2): content and rational
        # coefficients clear to the primitive 2t - 1
        a = P(Fraction(3, 7), Fraction(-1), Fraction(2, 7))
        b = P(Fraction(-5, 6), Fraction(5, 3))
        assert a == _of([3, -7, 2], 7) and b == _of([-10, 20], 12)
        assert (a._c, a._den, b._c, b._den) == ((3, -7, 2), 7, (-5, 10), 6)
        assert _int_primitive(a._c) == [3, -7, 2] and _int_primitive(b._c) == [-1, 2]
        assert _int_gcd(a._c, b._c) == [-1, 2]

    def test_content_and_negative_leading_coefficient(self):
        # the gcd is primitive with a positive leading coefficient
        assert _int_gcd([6, 6], [-4, -4]) == [1, 1]
        assert _int_gcd([-12, 18, -6], [8, -4]) == [-2, 1]
        assert _int_gcd([4], [6, 9]) == [1]


def sqf_part(p: Polynomial) -> Polynomial:
    """The monic squarefree part as the product of the Yun parts."""
    return product([f for _, f in squarefree_decomposition(p)])


class TestSquarefree:
    def test_repeated_factor_collapses(self):
        p = product([linear(1), linear(1), linear(2)])
        assert squarefree_decomposition(p) == [(1, linear(2)), (2, linear(1))]

    def test_pure_power(self):
        assert squarefree_decomposition(P(0, 0, 0, 1)) == [(3, P(0, 1))]

    def test_already_squarefree(self):
        p = product([P(1, 0, 1), linear(3), P(-2)])  # -2 (t^2+1)(t-3)
        assert squarefree_decomposition(p) == [(1, monic(p))]

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            squarefree_decomposition(Polynomial())

    def test_idempotent(self):
        p = product([linear(2), linear(2), linear(5), P(Fraction(-3, 4))])
        once = sqf_part(p)
        assert once == product([linear(2), linear(5)])
        assert squarefree_decomposition(once) == [(1, once)]

    def test_decomposition(self):
        p = product([power(linear(1), 3), power(linear(2), 2), linear(4)])
        dec = squarefree_decomposition(p)
        assert dec == [(1, linear(4)), (2, linear(2)), (3, linear(1))]
        assert product([power(f, k) for k, f in dec]) == monic(p)


class TestCoprimeBasis:
    def test_splits_shared_factor(self):
        a = product([linear(1), linear(2)])
        b = linear(1)
        # sorted by (degree, coefficients from the leading term down)
        assert coprime_basis([a, b]) == [linear(2), linear(1)]

    def test_singleton(self):
        p = product([linear(1), linear(7)])
        assert coprime_basis([p]) == [p]

    def test_never_factors_irreducible_piece(self):
        quad = P(1, 0, 1)  # t^2 + 1
        a = product([quad, linear(3)])
        assert coprime_basis([a, quad]) == [linear(3), quad]

    def test_rejects_constant(self):
        with pytest.raises(ValueError):
            coprime_basis([P(1)])

    def test_rejects_non_monic(self):
        with pytest.raises(ValueError):
            coprime_basis([P(2, 2)])

    def test_rejects_non_squarefree(self):
        with pytest.raises(ValueError):
            coprime_basis([product([linear(1), linear(1)])])

    def test_reconstruction(self):
        inputs = [
            product([linear(1), linear(2), linear(3)]),
            product([linear(2), linear(4)]),
            product([linear(3), linear(4)]),
            product([P(1, 0, 1), linear(2)]),
            product([P(2, 0, 1), P(1, 0, 1)]),
        ]
        # the squarefree checks and the splits all take the heuristic gcd
        with prs_calls() as calls:
            basis = coprime_basis(inputs)
        assert calls == []
        check_coprime_basis(inputs, basis)


def check_coprime_basis(inputs, basis):
    """The basis is pairwise coprime and each input is the product of the
    basis elements dividing it."""
    for i, b1 in enumerate(basis):
        for b2 in basis[i + 1 :]:
            assert coprime(b1, b2)
    for p in inputs:
        assert product([b for b in basis if divides(b, p)]) == p


small_polys = st.lists(st.integers(-6, 6), min_size=1, max_size=6).map(Polynomial)
nonzero_polys = small_polys.filter(lambda p: not p.is_zero)


@settings(max_examples=60, deadline=None)
@given(nonzero_polys, nonzero_polys)
def test_gcd_divides_both_and_is_monic(p, q):
    g = _int_gcd(p._c, q._c)
    assert g[-1] > 0
    assert _of(g, g[-1]) == from_dup(dup_gcd(to_dup(p.coeffs), to_dup(q.coeffs), QQ))


@settings(max_examples=60, deadline=None)
@given(nonzero_polys)
def test_squarefree_idempotent(p):
    once = sqf_part(p)
    assert once == from_dup(dup_monic(dup_sqf_part(to_dup(p.coeffs), QQ), QQ))
    assert once.is_constant or squarefree_decomposition(once) == [(1, once)]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sets(st.integers(-5, 5), min_size=1, max_size=3), min_size=1, max_size=4))
def test_coprime_basis_reconstructs_products_of_linears(root_sets):
    inputs = [product(map(linear, sorted(s))) for s in root_sets]
    check_coprime_basis(inputs, coprime_basis(inputs))


# irreducible factors over Q: linear t - r/d, and quadratics with negative discriminant
linear_factors = st.builds(
    lambda r, d: Polynomial([Fraction(-r, d), 1]), st.integers(-6, 6), st.integers(1, 3)
)
quadratic_factors = st.tuples(st.integers(-4, 4), st.integers(1, 9)).filter(
    lambda ab: ab[0] ** 2 < 4 * ab[1]
).map(lambda ab: Polynomial([ab[1], ab[0], 1]))
irreducible_factors = st.lists(
    st.one_of(linear_factors, quadratic_factors), min_size=1, max_size=4, unique=True
)


@settings(max_examples=60, deadline=None)
@given(irreducible_factors, st.data())
def test_squarefree_decomposition_recovers_multiplicities(factors, data):
    mults = data.draw(st.lists(st.integers(1, 3), min_size=len(factors), max_size=len(factors)))
    scale = data.draw(st.fractions(min_value=-5, max_value=5).filter(bool))
    p = product([P(scale)] + [power(f, m) for f, m in zip(factors, mults)])
    want = {
        m: product([f for f, k in zip(factors, mults) if k == m]) for m in set(mults)
    }
    dec = squarefree_decomposition(p)
    assert dict(dec) == want
    assert product([power(f, k) for k, f in dec]) == monic(p)


@settings(max_examples=60, deadline=None)
@given(irreducible_factors, st.data())
def test_coprime_basis_of_products_of_irreducibles(factors, data):
    subsets = data.draw(st.lists(
        st.sets(st.sampled_from(range(len(factors))), min_size=1), min_size=1, max_size=4
    ))
    inputs = [product([factors[i] for i in sorted(subset)]) for subset in subsets]
    check_coprime_basis(inputs, coprime_basis(inputs))


# ---------------------------------------------------------------------------
# the integer engine's Yun decomposition on the heuristic gcd
# ---------------------------------------------------------------------------

def sympy_sqf(f: list[int]) -> list[tuple[int, list[int]]]:
    """sympy's squarefree decomposition of f over ZZ, in the engine's form:
    (k, primitive factor with a positive leading coefficient), lowest
    degree first, by increasing k."""
    _, parts = dup_sqf_list([ZZ(c) for c in reversed(f)], ZZ)
    out = []
    for g, k in parts:
        g = [int(c) for c in reversed(g)]
        out.append((k, g if g[-1] > 0 else [-c for c in g]))
    return sorted(out)


def to_zz(c: list[int]) -> list:
    """sympy's dense list over ZZ, leading term first."""
    return [ZZ(x) for x in reversed(c)]


def from_zz(f) -> list[int]:
    return [int(x) for x in reversed(f)]


def has_repeated_factor(a: list[int]) -> bool:
    return len(dup_gcd(to_zz(a), dup_diff(to_zz(a), 1, ZZ), ZZ)) > 1


def int_product(factors, content: int = 1) -> list[int]:
    f = [content]
    for g, k in factors:
        for _ in range(k):
            f = _int_mul(f, g)
    return f


# integer factors of degree 1 to 3 with small, large and huge coefficients,
# each with a multiplicity, and a content of up to 40 digits
int_factors = st.lists(
    st.tuples(
        st.sampled_from([9, 10**6, 10**12]).flatmap(
            lambda b: st.lists(st.integers(-b, b), min_size=2, max_size=4).filter(lambda c: c[-1])
        ),
        st.integers(1, 3),
    ),
    min_size=1,
    max_size=3,
)
contents = st.integers(-(10**40), 10**40).filter(bool)

# repeated factors, most with coefficients near 10^30
N = 10**30
NEAR_BOUND = {
    "(t - N)^2 (t + 1)": [([-N, 1], 2), ([1, 1], 1)],
    "(t - N)^2 (t^2 + 1)": [([-N, 1], 2), ([1, 0, 1], 1)],
    "(t - N)^2 (t^3 - 2)": [([-N, 1], 2), ([-2, 0, 0, 1], 1)],
    "(t - N)^2 (N t - 1)": [([-N, 1], 2), ([-1, N], 1)],
    "(t^2 - N t + 1)^2": [([1, -N, 1], 2)],
    "(t^2 - N t + 1)^2 (t - 1)": [([1, -N, 1], 2), ([-1, 1], 1)],
    "(t^2 - N t + 1)^3 (t^2 + N t + 1)": [([1, -N, 1], 3), ([1, N, 1], 1)],
    "(t + 1)^7": [([1, 1], 7)],
    "(t^2 + t + 1)^2 (t - 1)^2": [([1, 1, 1], 2), ([-1, 1], 2)],
    "(2 t - 1)^2 (3 t + 1)": [([-1, 2], 2), ([1, 3], 1)],
}


@contextmanager
def prs_calls():
    """The calls to the PRS gcd ``_int_gcd`` made inside the block; a
    context manager rather than monkeypatch, so hypothesis tests can use it."""
    calls = []
    real = segre.polynomial._int_gcd

    def counted(a, b):
        calls.append((a, b))
        return real(a, b)

    segre.polynomial._int_gcd = counted
    try:
        yield calls
    finally:
        segre.polynomial._int_gcd = real


@settings(max_examples=80, deadline=None)
@given(int_factors, contents)
def test_int_squarefree_decomposition_matches_sympy(factors, content):
    f = int_product(factors, content)
    with prs_calls() as calls:
        assert _int_squarefree_decomposition(f) == sympy_sqf(f)
    # a squarefree input takes one heuristic gcd and no PRS gcd
    if not has_repeated_factor(_int_primitive(f)):
        assert calls == []


@pytest.mark.parametrize("factors", NEAR_BOUND.values(), ids=NEAR_BOUND)
@pytest.mark.parametrize("content", [1, -(10**25)])
def test_repeated_factors_near_the_bound(factors, content):
    f = int_product(factors, content)
    a = _int_primitive(f)
    assert has_repeated_factor(a)
    assert len(_int_gcd_cofactors(a, _int_derivative(a))[0]) > 1
    assert _int_squarefree_decomposition(f) == sympy_sqf(f)


@pytest.mark.parametrize("factors", [
    [([-N, 1], 1), ([-N - 1, 1], 1), ([1, 1], 1)],
    [([1, -N, 1], 1), ([1, N, 1], 1)],
    [([-3, 1], 1), ([-5, 0, 2], 1), ([7, 1, 0, 4], 1)],
], ids=["near roots", "quadratics", "mixed degrees"])
def test_squarefree_polynomials_are_certified(factors):
    f = int_product(factors, -(10**25))
    a = _int_primitive(f)
    with prs_calls() as calls:
        assert _int_gcd_cofactors(a, _int_derivative(a)) == ([1], a, _int_derivative(a))
        assert _int_squarefree_decomposition(f) == [(1, a)] == sympy_sqf(f)
    assert calls == []


small_int_polys = st.lists(st.integers(-(10**6), 10**6), min_size=1, max_size=4).map(_int_trim)


@settings(max_examples=80, deadline=None)
@given(
    small_int_polys.filter(bool),
    small_int_polys.filter(bool),
    small_int_polys,
    st.integers(-(10**20), 10**20).filter(bool),
)
def test_int_gcd_cofactors_match_sympy(shared, p, q, scale):
    # products with a shared factor, and q = 0 for b = 0
    a, b = _int_mul(shared, p), _int_mul([scale], _int_mul(shared, q)) if q else []
    h, cfa, cfb = dup_inner_gcd(to_zz(a), to_zz(b), ZZ)
    cont = int(dup_content(h, ZZ))
    with prs_calls() as calls:
        g, qa, qb = _int_gcd_cofactors(a, b)
    assert g == [c // cont for c in from_zz(h)]
    assert qa == [cont * c for c in from_zz(cfa)] and qb == [cont * c for c in from_zz(cfb)]
    assert calls == []


def test_failed_tries_fall_back_to_the_prs_gcd(monkeypatch):
    # a digit reader that never gives a divisor: with a nontrivial gcd every
    # try reads digits and fails, and the PRS gcd gives the same answers
    cases = [int_product(factors, -(10**25)) for factors in NEAR_BOUND.values()]
    square = cases[0]  # (t - N)^2 (t + 1)
    pairs = [([2, -3, 1], [3, -4, 1]), ([6, 6], [-4, -4]), (square, _int_derivative(square))]
    want = [_int_gcd_cofactors(*ab) for ab in pairs], [_int_squarefree_decomposition(f) for f in cases]
    digits = []
    monkeypatch.setattr(segre.polynomial, "_int_digits", lambda n, x: digits.append(x) or [1] * 12)
    with prs_calls() as calls:
        assert [_int_gcd_cofactors(*ab) for ab in pairs] == want[0]
    assert len(calls) == len(pairs) and len(digits) == 6 * len(pairs)
    assert digits[:6] == sorted(digits[:6]) and len(set(digits[:6])) == 6
    with prs_calls() as calls:
        assert [_int_squarefree_decomposition(f) for f in cases] == want[1]
    assert calls


def test_constant_and_zero_inputs_keep_their_results():
    for c in ([1], [-7], [10**40], [5, 0, 0]):
        assert _int_squarefree_decomposition(c) == []
    assert squarefree_decomposition(P(Fraction(-3, 4))) == []
    with pytest.raises(IndexError):  # callers never pass the zero list
        _int_squarefree_decomposition([])
    with pytest.raises(ValueError, match="zero polynomial"):
        squarefree_decomposition(Polynomial())


# ---------------------------------------------------------------------------
# rendering: one integer renderer behind every polynomial's text
# ---------------------------------------------------------------------------

def reference_str(p) -> str:
    """``Polynomial.__str__`` as it read on Fraction coefficients, before it
    delegated to the integer renderer; kept as the reference.  It reads
    only ``p.coeffs``, with ``str`` of a ``Fraction`` for each one."""
    if not p.coeffs:
        return "0"
    parts: list[str] = []
    for i in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeffs[i]
        if c == 0:
            continue
        if i == 0:
            mono = ""
        elif i == 1:
            mono = "t"
        else:
            mono = f"t^{i}"
        mag = abs(c)
        if mag == 1 and mono:
            body = mono
        elif mono:
            body = f"{mag}*{mono}"
        else:
            body = str(mag)
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def decimal_reference(c, den) -> str:
    """The text of the polynomial c[i] / den, each coefficient a ``Fraction``
    in lowest terms whose numerator and denominator are written one by one
    with ``str(Decimal(n))``; it converts no int to text, so it holds at any
    int->str digit limit."""
    parts: list[str] = []
    for i in range(len(c) - 1, -1, -1):
        q = Fraction(c[i], den)
        if not q:
            continue
        mono = "" if i == 0 else "t" if i == 1 else f"t^{i}"
        n, d = abs(q.numerator), q.denominator
        if n == d == 1 and mono:
            body = mono
        else:
            body = str(Decimal(n)) if d == 1 else f"{Decimal(n)}/{Decimal(d)}"
            if mono:
                body = f"{body}*{mono}"
        sign = ("" if q > 0 else "-") if not parts else ("+ " if q > 0 else "- ")
        parts.append(sign + body)
    return " ".join(parts) if parts else "0"


def _random_int(rng) -> int:
    kind = rng.randrange(6)
    if kind == 0:
        return 0
    if kind == 1:
        return rng.choice((1, -1))
    if kind == 2:  # past _PLAIN_STR_BITS, rendered through decimal
        return rng.choice((1, -1)) * rng.getrandbits(rng.randrange(2000, 2200))
    return rng.randint(-50, 50)


class TestRendering:
    def test_matches_fraction_reference_on_random_polynomials(self):
        from segre.polynomial import _PLAIN_STR_BITS, _poly_str

        rng = random.Random(7)
        big = 0
        for _ in range(1500):
            ints = [_random_int(rng) for _ in range(rng.randrange(0, 7))]
            den = rng.choice((1, 1, 2, 3, 6, 12, 35, rng.getrandbits(2100) | 1))
            p = Polynomial([Fraction(a, den) for a in ints])
            want = reference_str(p)
            assert str(p) == want
            assert _poly_str(ints, den) == want
            big += any(abs(a).bit_length() >= _PLAIN_STR_BITS for a in ints)
        assert big > 100

    def test_common_factor_route_matches_per_coefficient_decimal(self):
        """k * p with k of 2,000 to 20,000 bits: every long numerator is
        written through the common factor, against each written alone."""
        from segre.polynomial import _PLAIN_STR_BITS, _poly_str

        rng = random.Random(2929)
        cofactors = (
            lambda: 0,
            lambda: rng.choice((1, -1)),
            lambda: rng.randint(-2000, 2000),
            lambda: rng.choice((1, -1)) * rng.getrandbits(rng.randrange(1, 3000)),  # a big cofactor
        )
        routed = 0
        for _ in range(120):
            k = rng.getrandbits(rng.randrange(2000, 20001)) | 1
            k *= rng.choice((1, 2, 6, 35, 2**40 * 3**5))
            p = [rng.choice(cofactors)() for _ in range(rng.randrange(1, 7))]
            if rng.random() < 0.3:  # a negative lead
                p[-1] = -abs(p[-1]) or -1
            c = [k * a for a in p]
            den = rng.choice((
                1,
                rng.choice((3, 7, 12, 35)),
                math.gcd(k, 2**40 * 3**5 * 5 * 7) * rng.randint(1, 9),  # sharing primes with k
                rng.getrandbits(rng.randrange(2000, 2400)) | 1,  # past the limit
                k * rng.randint(2, 9),
            ))
            assert _poly_str(c, den) == decimal_reference(c, den)
            routed += any(abs(a) // math.gcd(a, den) >= 1 << _PLAIN_STR_BITS for a in c)
        assert routed > 80

    def test_common_factor_route_on_a_report_determinant(self):
        """A catalog normal form under a congruence A with 500-digit entries:
        det(A)^2 * det(U0 - t*V0) is the report's determinant, and its text
        is each coefficient written alone."""
        from segre.pencil import _selected_classes
        from segre.polynomial import _PLAIN_STR_BITS

        rng = random.Random(29)
        for text in ("[11111]", "[2111]", "[(11)(21)]", "[5]"):
            s = canonicalize(text)
            normal = build_normal_form(s, [Fraction(3, 2), -1, 0, 7, -9][: len(s.groups)])
            a = [[rng.choice((1, -1)) * rng.getrandbits(1661) for _ in range(5)] for _ in range(5)]
            p = congruent(normal, a)
            det, den, _ = _selected_classes(p)
            d_a = _bareiss(a)[1]
            small = [Fraction(x, normal._mult**5) for x in _det(normal)[0]]
            assert [Fraction(x, den) for x in det] == [d_a**2 * q for q in small]
            assert max(abs(x) for x in det).bit_length() > 8 * _PLAIN_STR_BITS
            assert analyze_pencil(p).determinant == decimal_reference(det, den)

    @pytest.mark.parametrize("coeffs,text", [
        ((), "0"),
        ((0, 0), "0"),
        ((5,), "5"),
        ((-1,), "-1"),
        ((0, 1), "t"),
        ((0, -1), "-t"),
        ((1, -1, 0, -2), "-2*t^3 - t + 1"),
        ((Fraction(-1, 2), 0, Fraction(3, 4)), "3/4*t^2 - 1/2"),
        ((Fraction(2, 3), Fraction(-5, 3), 3), "3*t^2 - 5/3*t + 2/3"),
    ])
    def test_fixed_texts(self, coeffs, text):
        assert str(Polynomial(coeffs)) == text == reference_str(Polynomial(coeffs))

    def test_non_primitive_lists_render_in_lowest_terms(self):
        from segre.polynomial import _poly_str

        assert _poly_str([4, -6, 2], 2) == "t^2 - 3*t + 2"
        assert _poly_str([3, 0, 9], 6) == "3/2*t^2 + 1/2"
        assert _poly_str([], 7) == "0"

    def test_text_is_made_once_and_kept(self, monkeypatch):
        import segre.polynomial

        calls = []
        real = segre.polynomial._poly_str
        monkeypatch.setattr(
            segre.polynomial, "_poly_str", lambda c, den=1: calls.append(den) or real(c, den)
        )
        p = Polynomial([Fraction(1, 3), 0, 2])
        assert str(p) == "2*t^2 + 1/3" and repr(p) == "Polynomial(2*t^2 + 1/3)"
        assert str(p) is str(p)
        assert calls == [3]


# ---------------------------------------------------------------------------
# the value: an integer tuple over one denominator, against Fraction tuples
# ---------------------------------------------------------------------------

class FractionPoly:
    """The reference value: the trimmed tuple of ``Fraction`` coefficients
    that ``Polynomial`` held before it kept integers over one denominator."""

    def __init__(self, cs):
        cs = [Fraction(c) for c in cs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)


# ints and fractions with mixed denominators, negative ones given as such,
# and zeros, trailing ones too
rationals = st.one_of(
    st.integers(-50, 50),
    st.builds(Fraction, st.integers(-(10**6), 10**6), st.sampled_from([2, -3, 4, -6, 35, -36, 2**70])),
    st.just(0),
)


def same_value(p: Polynomial, q: Polynomial) -> None:
    assert p == q and hash(p) == hash(q)
    assert (p.coeffs, p.degree, p.is_zero, p.is_constant, str(p), bool(p)) == (
        q.coeffs, q.degree, q.is_zero, q.is_constant, str(q), bool(q)
    )


@settings(max_examples=150, deadline=None)
@given(st.lists(rationals, max_size=7))
def test_value_matches_the_fraction_reference(cs):
    ref = FractionPoly(cs)
    p = Polynomial(cs)
    assert p.coeffs == ref.coeffs and all(type(c) is Fraction for c in p.coeffs)
    assert p.degree == len(ref.coeffs) - 1 and p.is_zero == (not ref.coeffs)
    assert str(p) == reference_str(ref)
    assert p._den > 0 and math.gcd(p._den, *p._c) == 1 and (not p._c or p._c[-1])
    # the same value from any integer list over any denominator, untrimmed
    den = math.lcm(*(Fraction(c).denominator for c in cs))
    ints = [int(Fraction(c) * den) for c in cs]
    for k in (1, -1, 6, -6):
        same_value(_of([k * a for a in ints], k * den), p)
    for q in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
        assert type(q) is Polynomial
        same_value(q, p)


# a leading coefficient: a unit, a long numerator (past _PLAIN_STR_BITS, so
# written through the common factor) or a fraction, of either sign
leads = st.one_of(
    st.sampled_from([1, -1]),
    st.integers(2**2000, 2**2600).map(lambda n: n * 3),
    st.builds(Fraction, st.integers(1, 10**6), st.sampled_from([7, 36, 2**70])),
).flatmap(lambda c: st.sampled_from([c, -c]))


@settings(max_examples=150, deadline=None)
@given(st.integers(7, 40), st.data())
def test_high_degree_text_matches_the_fraction_reference(degree, data):
    """Degrees past those of a pencil's determinant: two-digit exponents
    such as t^10, with long numerators and negative leading coefficients."""
    cs = data.draw(st.lists(st.one_of(rationals, leads), min_size=degree, max_size=degree))
    p = Polynomial([*cs, data.draw(leads)])
    assert p.degree == degree
    assert str(p) == reference_str(p)
    assert f"t^{degree}" in str(p).split(" ")[0]


def test_high_degree_fixed_texts():
    assert str(Polynomial([0] * 10 + [1])) == "t^10"
    assert str(Polynomial([1] + [0] * 39 + [-1])) == "-t^40 + 1"
    long = 3 * 2**2100
    p = Polynomial([Fraction(1, 2), -1] + [0] * 9 + [-long] + [0] * 27 + [long])
    assert str(p) == reference_str(p)
    assert str(p) == f"{long}*t^39 - {long}*t^11 - t + 1/2"


# pickles of Polynomial([-1/2, 0, 3, 0]), Polynomial() and
# Polynomial([2/3, -5/3, 3]) as the Fraction-tuple value wrote them,
# (Polynomial, (coeffs,)): they load as the integer value
OLD_PICKLES = {
    b"\x80\x04\x95a\x00\x00\x00\x00\x00\x00\x00\x8c\x10segre.polynomial\x94\x8c\nPolynomial"
    b"\x94\x93\x94\x8c\tfractions\x94\x8c\x08Fraction\x94\x93\x94J\xff\xff\xff\xffK\x02\x86"
    b"\x94R\x94h\x05K\x00K\x01\x86\x94R\x94h\x05K\x03K\x01\x86\x94R\x94\x87\x94\x85\x94R\x94.": (
        _of([-1, 0, 6], 2)
    ),
    b"\x80\x04\x95(\x00\x00\x00\x00\x00\x00\x00\x8c\x10segre.polynomial\x94\x8c\nPolynomial"
    b"\x94\x93\x94)\x85\x94R\x94.": Polynomial(),
    b"\x80\x04\x95a\x00\x00\x00\x00\x00\x00\x00\x8c\x10segre.polynomial\x94\x8c\nPolynomial"
    b"\x94\x93\x94\x8c\tfractions\x94\x8c\x08Fraction\x94\x93\x94K\x02K\x03\x86\x94R\x94h"
    b"\x05J\xfb\xff\xff\xffK\x03\x86\x94R\x94h\x05K\x03K\x01\x86\x94R\x94\x87\x94\x85\x94R\x94.": (
        _of([2, -5, 9], 3)
    ),
}


def test_pickles_of_the_fraction_value_still_load():
    for data, want in OLD_PICKLES.items():
        got = pickle.loads(data)
        same_value(got, want)
        assert pickle.loads(pickle.dumps(got)) == want


def det_cases():
    """Catalog instances, and normal forms and congruences over rational
    denominators so that the pencil's denominator is not 1."""
    # a nonsingular A = (I + v 1^T) diag(1/2, ..., 1/6), det(I + v 1^T) = 11
    a = [[Fraction(r + (r == c), c + 2) for c in range(5)] for r in range(5)]
    for i, sym in enumerate(CATALOG_ORDER):
        roots = [Fraction(j - 2, j % 3 + 2) for j in range(len(canonicalize(sym).groups))]
        nf = build_normal_form(sym, roots)
        yield from (random_instance(sym, i), nf, congruent(nf, a))


def test_det_poly_is_the_expansion_over_its_denominator():
    dens = set()
    for p in det_cases():
        den = p._mult ** p.size
        assert det_poly(p).coeffs == tuple(Fraction(c, den) for c in _det(p)[0])
        dens.add(den)
    assert len(dens) > 2
