import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from segre.polynomial import (
    Polynomial,
    coprime_basis,
    poly_gcd,
    squarefree_decomposition,
    squarefree_part,
)


def P(*coeffs):
    return Polynomial(coeffs)


def linear(root):
    return Polynomial([-Fraction(root), 1])


class TestArithmetic:
    def test_degree_and_zero(self):
        assert Polynomial().is_zero
        assert Polynomial().degree == -1
        assert P(0, 0, 0).is_zero
        assert P(1, 2).degree == 1

    def test_mul_and_call(self):
        p = linear(2) * linear(3)
        assert p == P(6, -5, 1)
        assert p(2) == 0 and p(3) == 0 and p(0) == 6

    def test_divmod_exact(self):
        p = linear(1) * linear(2) * linear(2)
        q, r = divmod(p, linear(2))
        assert r.is_zero
        assert q == linear(1) * linear(2)
        with pytest.raises(ValueError):
            p.exact_div(linear(5))

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divmod(P(1, 1), Polynomial())

    def test_monic(self):
        p = P(2, 4, 2)
        assert p.monic() == P(1, 2, 1)
        assert p.monic().monic() == p.monic()

    def test_derivative(self):
        assert P(5, 3, 2).derivative() == P(3, 4)

    def test_str(self):
        assert str(P(-2, 0, 1)) == "t^2 - 2"
        assert str(Polynomial()) == "0"
        assert str(P(Fraction(1, 2))) == "1/2"


class TestGcd:
    def test_gcd_with_zero(self):
        p = P(2, 2)
        assert poly_gcd(p, Polynomial()) == p.monic()
        assert poly_gcd(Polynomial(), p) == p.monic()

    def test_common_factor(self):
        a = linear(1) * linear(2)
        b = linear(1) * linear(3)
        assert poly_gcd(a, b) == linear(1)

    def test_coprime(self):
        assert poly_gcd(linear(1), linear(2)) == P(1)

    def test_fractional_coefficients(self):
        a = (linear(Fraction(1, 2)) * linear(3)) * Fraction(2, 7)
        b = linear(Fraction(1, 2)) * Fraction(5, 3)
        assert poly_gcd(a, b) == linear(Fraction(1, 2))


class TestSquarefree:
    def test_repeated_factor_collapses(self):
        p = linear(1) * linear(1) * linear(2)
        assert squarefree_part(p) == linear(1) * linear(2)

    def test_pure_power(self):
        assert squarefree_part(P(0, 0, 0, 1)) == P(0, 1)

    def test_already_squarefree(self):
        p = P(1, 0, 1) * linear(3)  # (t^2+1)(t-3), gcd with derivative is 1
        assert squarefree_part(p) == p.monic()

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            squarefree_part(Polynomial())

    def test_idempotent(self):
        p = linear(2) * linear(2) * linear(5)
        once = squarefree_part(p)
        assert squarefree_part(once) == once

    def test_decomposition(self):
        p = linear(1) ** 3 * linear(2) ** 2 * linear(4)
        dec = squarefree_decomposition(p)
        assert dec == [(1, linear(4)), (2, linear(2)), (3, linear(1))]
        rebuilt = Polynomial([1])
        for k, f in dec:
            rebuilt = rebuilt * f**k
        assert rebuilt == p.monic()


class TestCoprimeBasis:
    def test_splits_shared_factor(self):
        a = linear(1) * linear(2)
        b = linear(1)
        # sorted by (degree, coefficients from the leading term down)
        assert coprime_basis([a, b]) == [linear(2), linear(1)]

    def test_singleton(self):
        p = linear(1) * linear(7)
        assert coprime_basis([p]) == [p]

    def test_never_factors_irreducible_piece(self):
        quad = P(1, 0, 1)  # t^2 + 1
        a = quad * linear(3)
        assert coprime_basis([a, quad]) == [linear(3), quad]

    def test_rejects_constant(self):
        with pytest.raises(ValueError):
            coprime_basis([P(1)])

    def test_rejects_non_monic(self):
        with pytest.raises(ValueError):
            coprime_basis([P(2, 2)])

    def test_rejects_non_squarefree(self):
        with pytest.raises(ValueError):
            coprime_basis([linear(1) * linear(1)])

    def test_reconstruction(self):
        inputs = [
            linear(1) * linear(2) * linear(3),
            linear(2) * linear(4),
            linear(3) * linear(4),
        ]
        basis = coprime_basis(inputs)
        for i, b1 in enumerate(basis):
            for b2 in basis[i + 1 :]:
                assert poly_gcd(b1, b2) == P(1)
        for p in inputs:
            rebuilt = Polynomial([1])
            for b in basis:
                if b.divides(p):
                    rebuilt = rebuilt * b
            assert rebuilt == p.monic()


small_polys = st.lists(st.integers(-6, 6), min_size=1, max_size=6).map(Polynomial)
nonzero_polys = small_polys.filter(lambda p: not p.is_zero)


@settings(max_examples=60, deadline=None)
@given(nonzero_polys, nonzero_polys)
def test_gcd_divides_both_and_is_monic(p, q):
    g = poly_gcd(p, q)
    assert g.divides(p) and g.divides(q)
    assert g.leading == 1


@settings(max_examples=60, deadline=None)
@given(nonzero_polys)
def test_squarefree_idempotent(p):
    once = squarefree_part(p)
    assert squarefree_part(once) == once
    # same roots: the squarefree part divides a power of p
    assert poly_gcd(once, p.monic()) == once


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sets(st.integers(-5, 5), min_size=1, max_size=3), min_size=1, max_size=4))
def test_coprime_basis_reconstructs_products_of_linears(root_sets):
    inputs = [math.prod(map(linear, sorted(s)), start=Polynomial([1])) for s in root_sets]
    basis = coprime_basis(inputs)
    for i, b1 in enumerate(basis):
        for b2 in basis[i + 1 :]:
            assert poly_gcd(b1, b2).degree == 0
    for p in inputs:
        rebuilt = Polynomial([1])
        for b in basis:
            if b.divides(p):
                rebuilt = rebuilt * b
        assert rebuilt == p


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
    p = Polynomial([scale])
    want: dict[int, Polynomial] = {}
    for f, m in zip(factors, mults):
        p = p * f**m
        want[m] = want.get(m, Polynomial([1])) * f
    dec = squarefree_decomposition(p)
    assert dict(dec) == want
    rebuilt = Polynomial([1])
    for k, f in dec:
        rebuilt = rebuilt * f**k
    assert rebuilt == p.monic()


@settings(max_examples=60, deadline=None)
@given(irreducible_factors, st.data())
def test_coprime_basis_of_products_of_irreducibles(factors, data):
    subsets = data.draw(st.lists(
        st.sets(st.sampled_from(range(len(factors))), min_size=1), min_size=1, max_size=4
    ))
    inputs = []
    for subset in subsets:
        p = Polynomial([1])
        for i in sorted(subset):
            p = p * factors[i]
        inputs.append(p)
    basis = coprime_basis(inputs)
    for i, b1 in enumerate(basis):
        for b2 in basis[i + 1 :]:
            assert poly_gcd(b1, b2) == P(1)
    for p in inputs:
        rebuilt = Polynomial([1])
        for b in basis:
            if b.divides(p):
                rebuilt = rebuilt * b
        assert rebuilt == p


# ---------------------------------------------------------------------------
# rendering: one integer renderer behind every polynomial's text
# ---------------------------------------------------------------------------

def reference_str(p: Polynomial) -> str:
    """``Polynomial.__str__`` as it read on Fraction coefficients, before it
    delegated to the integer renderer; kept as the reference."""
    from segre.polynomial import _rational_str

    if p.is_zero:
        return "0"
    parts: list[str] = []
    for i in range(p.degree, -1, -1):
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
            body = f"{_rational_str(mag)}*{mono}"
        else:
            body = _rational_str(mag)
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


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
