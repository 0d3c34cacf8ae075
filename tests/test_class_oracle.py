"""An exact oracle for the paper's main number: the class of a Segre quartic
surface X (the degree of its dual variety) and its singular points,
computed from the pencil with sympy alone.

For a hyperplane h, P_h(lambda) = -det [[U - lambda*V, h], [h^T, 0]]
= h^T adj(U - lambda*V) h.  h is tangent to X at a smooth point exactly
when P_h has a repeated root that is not a root of det(U - lambda*V).  On
a line of hyperplanes h(s) = h0 + s*h1, D(s) = disc_lambda P_h(s) then
vanishes once at each of the class-many tangent hyperplanes, and, by
Teissier's polar formula (Teissier 1973; Kleiman 1986, "Tangency and
duality"), to order e = mu + mu' at each hyperplane through a singular
point of X.  So the degree of the multiplicity-1 Yun part of D is the
class, and each other Yun part (m, g) stands for deg g singular points of
Euler number m.  For the off-catalog symbols, whose base locus is no
Segre surface, D vanishes identically.

Lines with small entries can pass through two singular points at once
and add their Euler numbers, so the lines here are seeded with entries in
+-10^6, and every symbol is checked on several lines that must agree.
Only ``p.u`` and ``p.v`` of a pencil are read.
"""

import math
import random
from fractions import Fraction

import pytest
from sympy import ZZ, symbols
from sympy.polys.matrices import DomainMatrix

from segre.catalog import CATALOG, CATALOG_ORDER
from segre.classify import classify_symbol
from segre.pencil import as_matrix, congruent
from segre.symbol import random_instance
from test_pencil import OFF_CATALOG

_RING = ZZ[symbols("lam s")]


def tangency_discriminant(u, v, h0, h1):
    """D(s) = disc_lambda P_h(s) for h(s) = h0 + s*h1, as an element of
    ZZ[s], up to a positive constant: the rational pair (u, v) of any size
    is scaled to integers first."""
    lam, s = _RING.gens
    n = len(u)
    mult = math.lcm(*(Fraction(c).denominator for m in (u, v) for row in m for c in row))
    h = [_RING(a) + s * b for a, b in zip(h0, h1)]
    rows = [
        [_RING(int(a * mult)) - lam * int(b * mult) for a, b in zip(ru, rv)] + [hi]
        for ru, rv, hi in zip(u, v, h)
    ]
    rows.append(h + [_RING(0)])
    bordered = -DomainMatrix(rows, (n + 1, n + 1), _RING).det()
    return bordered.discriminant()  # in lambda, the first generator


def class_and_eulers(d) -> tuple[int, tuple[int, ...]]:
    """The class and the sorted Euler numbers of the singular points that
    the Yun parts of D give; D must not vanish."""
    assert d, "D vanishes identically"
    parts = d.sqf_list()[1]
    klass = sum(g.degree() for g, m in parts if m == 1)
    return klass, tuple(sorted(m for g, m in parts if m > 1 for _ in range(g.degree())))


def lines(seed: int, size: int, count: int = 2):
    """``count`` seeded lines (h0, h1) of hyperplanes, entries in +-10^6."""
    rng = random.Random(seed)
    return [
        tuple([rng.randint(-10**6, 10**6) for _ in range(size)] for _ in range(2))
        for _ in range(count)
    ]


# a congruence with rational entries and determinant -3089/210
RATIONAL = as_matrix([
    [1, Fraction(1, 2), 0, -1, 2],
    [0, Fraction(2, 3), 1, 0, -1],
    [3, 0, 1, Fraction(-1, 5), 0],
    [0, 1, 0, 1, Fraction(1, 7)],
    [1, 0, -2, 0, 1],
])


def pencils(symbol: str):
    """A seeded instance and a rational congruence of another one."""
    return [random_instance(symbol, 3), congruent(random_instance(symbol, 4), RATIONAL)]


@pytest.mark.parametrize("symbol", CATALOG_ORDER)
def test_class_and_singularities_from_the_pencil(symbol):
    report = classify_symbol(symbol)
    want = (report.class_degree, tuple(sorted(s.euler for s in report.singularities)))
    for k, p in enumerate(pencils(symbol)):
        got = [class_and_eulers(tangency_discriminant(p.u, p.v, *h)) for h in lines(k, p.size)]
        assert got == [want, want], (symbol, k)


def test_2111_class_is_ten():
    # the catalog keeps 10, not the printed 8, for [2111]
    p = random_instance("[2111]", 11)
    got = {class_and_eulers(tangency_discriminant(p.u, p.v, *h)) for h in lines(7, 5, 3)}
    assert got == {(10, (2,))}
    assert CATALOG["[2111]"].class_degree == 10
    assert CATALOG["[2111]"].printed_class_discrepancy == 8


@pytest.mark.parametrize("symbol", OFF_CATALOG)
def test_discriminant_vanishes_off_the_catalog(symbol):
    assert classify_symbol(symbol).is_segre is False
    p = random_instance(symbol, 3)
    assert all(not tangency_discriminant(p.u, p.v, *h) for h in lines(0, p.size))

