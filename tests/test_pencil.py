import math
import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st
from sympy import QQ, ZZ, Matrix
from sympy.polys.densearith import dup_add, dup_exquo, dup_mul, dup_sub
from sympy.polys.densebasic import dup_convert, dup_strip
from sympy.polys.densetools import dup_eval, dup_monic
from sympy.polys.euclidtools import dup_gcd
from sympy.polys.sqfreetools import dup_sqf_p

import segre.pencil
import segre.reporting
import segre.symbol
from segre.acceptance import _degenerate_pairs
from segre.catalog import CATALOG_ORDER
from segre.errors import DegeneratePencilError, InternalConsistencyError, NoSmoothMemberError
from segre.pencil import (
    MAX_SIZE,
    QuadricPencil,
    _bareiss,
    _partition,
    _poly_minor,
    as_matrix,
    change_basis,
    congruent,
    degeneracy_report,
    det_poly,
    diagonal,
    identity,
    invariant_factors,
    select_nonsingular_member,
)
from segre.polynomial import Polynomial, _int_eval
from segre.reporting import analyze_pencil
from segre.symbol import build_normal_form, canonicalize, compute_symbol, random_instance


def linear(root):
    return Polynomial([-Fraction(root), 1])


# Reference arithmetic runs on sympy's dense lists over QQ, highest degree
# first; ``Polynomial`` (lowest degree first) is only compared with.

def to_dup(coeffs):
    """sympy's dense list over QQ of coefficients given lowest degree first."""
    return dup_strip([QQ(c.numerator, c.denominator) for c in reversed(coeffs)])


def from_dup(f) -> Polynomial:
    return Polynomial([Fraction(int(c.numerator), int(c.denominator)) for c in reversed(f)])


def product(factors) -> Polynomial:
    out = [QQ(1)]
    for f in factors:
        out = dup_mul(out, to_dup(f.coeffs), QQ)
    return from_dup(out)


def monic(p: Polynomial) -> Polynomial:
    return from_dup(dup_monic(to_dup(p.coeffs), QQ))


def cofactor_det(mat):
    """Independent determinant oracle: recursive cofactor expansion of a
    matrix of dense sympy lists over QQ; the empty matrix's is 1."""
    n = len(mat)
    if n == 0:
        return [QQ(1)]
    if n == 1:
        return mat[0][0]
    total = []
    for j in range(n):
        if not mat[0][j]:
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in mat[1:]]
        term = dup_mul(mat[0][j], cofactor_det(minor), QQ)
        total = (dup_add if j % 2 == 0 else dup_sub)(total, term, QQ)
    return total


def poly_matrix(p: QuadricPencil):
    """U - t*V as dense sympy lists over QQ."""
    return [
        [to_dup([u, -v]) for u, v in zip(urow, vrow)] for urow, vrow in zip(p.u, p.v)
    ]


def brute_invariant_factors(p: QuadricPencil):
    """Test oracle: gcds of every k x k minor, no early exit.

    Minors of U - t*V come from cofactor expansion along the first row, on
    integer coefficient lists of the denominator-cleared pencil (which
    scales D_k but not its monic form), shared between sizes so that all
    C(n, k)^2 of them stay cheap.  sympy takes the gcds over ZZ, and the
    exact quotients d_k = D_k / D_(k-1) of their monic forms over QQ.
    """
    mult = math.lcm(*(c.denominator for m in (p.u, p.v) for row in m for c in row))
    u = [[int(c * mult) for c in row] for row in p.u]
    v = [[int(c * mult) for c in row] for row in p.v]
    idx = tuple(range(p.size))

    @lru_cache(maxsize=None)
    def minor(rows, cols):
        if not rows:
            return (1,)
        out = [0] * (len(rows) + 1)
        r = rows[0]
        for j, c in enumerate(cols):
            sign = 1 if j % 2 == 0 else -1
            for d, x in enumerate(minor(rows[1:], cols[:j] + cols[j + 1 :])):
                out[d] += sign * u[r][c] * x
                out[d + 1] -= sign * v[r][c] * x
        return tuple(out)

    big = [[QQ(1)]]
    for k in idx:
        g = []
        for rows in combinations(idx, k + 1):
            for cols in combinations(idx, k + 1):
                g = dup_gcd(g, dup_strip([ZZ(c) for c in reversed(minor(rows, cols))]), ZZ)
        big.append(dup_monic(dup_convert(g, ZZ, QQ), QQ))
    return tuple(from_dup(dup_exquo(big[k], big[k - 1], QQ)) for k in range(1, len(big)))


# the eleven weight-5 symbols outside the catalog
OFF_CATALOG = (
    "[(111)11]", "[(22)1]", "[(211)1]", "[(1111)1]", "[(111)2]", "[(111)(11)]",
    "[(32)]", "[(311)]", "[(221)]", "[(2111)]", "[(11111)]",
)
# a normal form with a root at 0: its U is singular
ROOT_AT_ZERO = build_normal_form("[(21)2]", [0, 5])
# a fixed congruence with det 1 (unit upper triangular)
SHEAR = as_matrix([
    [1, 2, -1, 0, 3], [0, 1, 1, -2, 0], [0, 0, 1, 1, -1], [0, 0, 0, 1, 2], [0, 0, 0, 0, 1],
])
# [(11)(11)1] with roots +-sqrt(2): the repeated part t^2 - 2 has no rational root
SQRT2_PAIR = QuadricPencil(
    as_matrix([
        [1, 1, 0, 0, 0], [1, -1, 0, 0, 0], [0, 0, 1, 1, 0], [0, 0, 1, -1, 0], [0, 0, 0, 0, 3],
    ]),
    identity(5),
)
# pencils at the edges of the rank path, each also under SHEAR
BOUND_CASES = {
    # conjugate roots: the companion pair of the quadratic part
    "sqrt2 [(11)(11)1]": SQRT2_PAIR,
    # repeated part (t - 1/2)(t + 3/4): a square discriminant
    "[(11)(11)1] at 1/2, -3/4": build_normal_form(
        "[(11)(11)1]", [Fraction(1, 2), Fraction(-3, 4), 2]
    ),
    # rank of q*U - p*V at the root 1/3
    "[(21)11] at 1/3": build_normal_form("[(21)11]", [Fraction(1, 3), -1, 4]),
    # block counts that need the Gram matrix of the kernel
    "[(22)1]": build_normal_form("[(22)1]", [Fraction(-2, 3), 1]),
    "[(32)]": build_normal_form("[(32)]", [Fraction(5, 4)]),
    "[(221)]": build_normal_form("[(221)]", [Fraction(7, 2)]),
}


class TestDetPoly:
    def test_diagonal(self):
        p = QuadricPencil(diagonal([1, 2, 3, 4, 5]), identity(5))
        expected = product([Polynomial([a, -1]) for a in (1, 2, 3, 4, 5)])
        assert det_poly(p) == expected

    def test_2111_normal_pair(self):
        # block determinant -(a1-t)^2 times the three diagonal factors
        p = build_normal_form("[2111]", [2, 3, 4, 5])
        expected = product(
            [Polynomial([-1]), Polynomial([2, -1]), Polynomial([2, -1])]
            + [Polynomial([a, -1]) for a in (3, 4, 5)]
        )
        assert det_poly(p) == expected

    def test_32_normal_pair(self):
        # block determinants -a^3 and -a^2 multiply to (2-t)^3 (3-t)^2
        p = build_normal_form("[32]", [2, 3])
        expected = product([Polynomial([2, -1])] * 3 + [Polynomial([3, -1])] * 2)
        assert det_poly(p) == expected

    def test_degree_drops_when_v_singular(self):
        p = QuadricPencil(diagonal([1, 2, 3, 4, 5]), diagonal([1, 1, 1, 1, 0]))
        assert det_poly(p).degree == 4

    def test_against_cofactor_oracle(self):
        rng = random.Random(3)
        for _ in range(5):
            m = [[rng.randint(-4, 4) for _ in range(5)] for _ in range(5)]
            u = as_matrix([[m[i][j] + m[j][i] for j in range(5)] for i in range(5)])
            n = [[rng.randint(-4, 4) for _ in range(5)] for _ in range(5)]
            v = as_matrix([[n[i][j] + n[j][i] for j in range(5)] for i in range(5)])
            p = QuadricPencil(u, v)
            assert det_poly(p) == from_dup(cofactor_det(poly_matrix(p)))

    def test_degree_full_iff_v_nonsingular(self):
        rng = random.Random(17)
        for _ in range(10):
            m = [[rng.randint(-3, 3) for _ in range(5)] for _ in range(5)]
            u = as_matrix([[m[i][j] + m[j][i] for j in range(5)] for i in range(5)])
            n = [[rng.randint(-2, 2) for _ in range(5)] for _ in range(5)]
            vr = [[n[i][j] + n[j][i] for j in range(5)] for i in range(5)]
            if rng.random() < 0.5:  # force det V = 0 half the time
                for k in range(5):
                    vr[0][k] = vr[k][0] = 0
            p = QuadricPencil(u, as_matrix(vr))
            assert (det_poly(p).degree == 5) == (Matrix(vr).det() != 0)


def low_rank_matrix(rng, rows, cols, rank, zero_rows=()):
    """A sum of ``rank`` random integer outer products, some rows zeroed."""
    m = [[0] * cols for _ in range(rows)]
    for _ in range(rank):
        x = [rng.randint(-9, 9) for _ in range(rows)]
        y = [rng.randint(-9, 9) for _ in range(cols)]
        m = [[e + xi * yj for e, yj in zip(row, y)] for row, xi in zip(m, x)]
    for i in zero_rows:
        m[i] = [0] * cols
    return m


def check_kernel(m):
    """``_kernel`` off ``_bareiss``'s echelon form of m is an integer basis
    of ker m: cols - rank independent integer vectors that m annihilates,
    with the ranks from sympy."""
    pivots, _, rows = _bareiss(m)
    k = segre.pencil._kernel(rows, pivots)
    rank = Matrix(m).rank()
    assert len(pivots) == rank
    assert len(k) == len(m[0]) - rank
    assert all(type(e) is int for x in k for e in x)
    assert all(sum(a * b for a, b in zip(row, x)) == 0 for row in m for x in k)
    assert not k or Matrix(k).rank() == len(k)


class TestBareiss:
    @pytest.mark.parametrize("shape", [(5, 5), (10, 5)])
    def test_rank_and_det_match_sympy(self, shape):
        sympy = pytest.importorskip("sympy")
        rows, cols = shape
        rng = random.Random(23)
        for trial in range(40):
            rank = trial % (cols + 1)
            zero_rows = rng.sample(range(rows), trial % 3)
            m = low_rank_matrix(rng, rows, cols, rank, zero_rows)
            pivots, got_det, _ = _bareiss(m)
            ref = sympy.Matrix(m)
            assert len(pivots) == ref.rank()
            assert got_det == (ref.det() if rows == cols else 0)

    def test_empty_matrix(self):
        assert _bareiss([]) == ([], 1, [])

    # (10, 10) is the size of A for an irreducible quadratic part
    @pytest.mark.parametrize("shape", [(5, 5), (10, 5), (3, 6), (10, 10)])
    def test_kernel_is_an_integer_basis(self, shape):
        rows, cols = shape
        rng = random.Random(29)
        for trial in range(40):
            rank = trial % (min(shape) + 1)
            check_kernel(low_rank_matrix(rng, rows, cols, rank, rng.sample(range(rows), trial % 3)))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 10), st.integers(1, 10), st.integers(0, 10), st.randoms(use_true_random=False))
    def test_kernel_of_bigcoeff_entries(self, rows, cols, rank, rng):
        # entries near 10^300, the bigcoeff benchmark's largest
        big = [[rng.randint(-10**300, 10**300) for _ in range(cols)] for _ in range(min(rank, rows))]
        mix = [[rng.randint(-3, 3) for _ in big] for _ in range(rows)]
        check_kernel([[sum(c * b[j] for c, b in zip(mr, big)) for j in range(cols)] for mr in mix])

    @pytest.mark.parametrize("pencil", [
        random_instance("[(21)2]", 0),
        QuadricPencil(
            as_matrix([[Fraction(i + j, 1 + (i * j) % 3) for j in range(5)] for i in range(5)]),
            diagonal([1, Fraction(1, 2), 0, 3, -1]),
        ),
    ])
    def test_every_minor_against_cofactor_oracle(self, pencil):
        iu, iv, mult = pencil._iu, pencil._iv, pencil._mult
        mat = poly_matrix(pencil)
        for k in range(1, 6):
            for rows in combinations(range(5), k):
                for cols in combinations(range(5), k):
                    sub = [[mat[r][c] for c in cols] for r in rows]
                    want = dup_mul(cofactor_det(sub), [QQ(mult**k)], QQ)
                    got, lead = _poly_minor(*([[m[r][c] for c in cols] for r in rows] for m in (iu, iv)))
                    assert to_dup(got) == want
                    sub = [row[:-1] for row in sub[:-1]]  # the leading principal minor
                    assert to_dup(lead()) == dup_mul(cofactor_det(sub), [QQ(mult ** (k - 1))], QQ)


class TestInvariantFactors:
    def test_repeated_diagonal_eigenvalue(self):
        p = QuadricPencil(diagonal([1, 1, 2, 3, 4]), identity(5))
        inv = invariant_factors(p)
        assert inv.factors[:3] == (Polynomial([1]),) * 3
        assert inv.factors[3] == linear(1)
        assert inv.factors[4] == product([linear(a) for a in (1, 2, 3, 4)])

    def test_2111_single_nontrivial_factor(self):
        p = build_normal_form("[2111]", [2, 3, 4, 5])
        inv = invariant_factors(p)
        assert inv.factors[:4] == (Polynomial([1]),) * 4
        assert inv.factors[4] == product(
            [linear(2), linear(2), linear(3), linear(4), linear(5)]
        )

    def test_scalar_pencil(self):
        p = QuadricPencil(diagonal([2] * 5), identity(5))
        inv = invariant_factors(p)
        assert all(f == linear(2) for f in inv.factors)

    def test_product_is_monic_determinant(self):
        p = build_normal_form("[(21)2]", [2, 5])
        inv = invariant_factors(p)
        assert product(inv.factors) == monic(det_poly(p))

    def test_congruence_invariance(self):
        rng = random.Random(11)
        base = build_normal_form("[(31)1]", [1, 4])
        want = invariant_factors(base).factors
        for _ in range(5):
            while True:
                a = [[rng.randint(-3, 3) for _ in range(5)] for _ in range(5)]
                if _bareiss(a)[1] != 0:
                    break
            moved = congruent(base, as_matrix(a))
            assert invariant_factors(moved).factors == want

    def test_degenerate_raises(self):
        zero = diagonal([0] * 5)
        p = QuadricPencil(diagonal([1, 0, 0, 0, 0]), zero)
        with pytest.raises(DegeneratePencilError):
            invariant_factors(p)

    @pytest.mark.parametrize(
        "symbol, roots, degrees",
        [("[2111]", [2, 3, 4, 5], [5]), ("[11111]", [0, 1, 2, 3, 4], [5]), ("[(11)(11)1]", [1, 2, 3], [2, 3])],
    )
    def test_nontrivial_drops_the_constant_factors_in_order(self, symbol, roots, degrees):
        p = build_normal_form(symbol, roots)
        inv = invariant_factors(p)
        constants = 5 - len(degrees)
        assert inv.factors[:constants] == (Polynomial([1]),) * constants
        assert inv.nontrivial == inv.factors[constants:]
        assert [f.degree for f in inv.nontrivial] == degrees
        assert product(inv.nontrivial) == monic(det_poly(p))


def count_minors(monkeypatch, p, *routes):
    """The sizes of the determinants that the routes, run on p in turn,
    expand; ``invariant_factors`` alone by default."""
    real = segre.pencil._poly_minor
    calls = []

    def counting(iu, iv):
        calls.append(len(iu))
        return real(iu, iv)

    monkeypatch.setattr(segre.pencil, "_poly_minor", counting)
    for route in routes or (invariant_factors,):
        route(p)
    monkeypatch.setattr(segre.pencil, "_poly_minor", real)
    return calls


class TestAgainstBruteForce:
    @pytest.mark.parametrize("symbol", CATALOG_ORDER + OFF_CATALOG)
    def test_weight_five_symbols(self, symbol):
        for seed in range(3):
            p = random_instance(symbol, seed)
            assert invariant_factors(p).factors == brute_invariant_factors(p)

    @pytest.mark.parametrize("pencil", [
        QuadricPencil(diagonal([2] * 5), identity(5)),
        QuadricPencil(diagonal([1, 2, 3, 4, 5]), diagonal([1, 1, 1, 1, 0])),
        QuadricPencil(diagonal([1, 1, 2, 3, 3]), diagonal([1, 1, 1, 0, 0])),
        QuadricPencil(ROOT_AT_ZERO.v, ROOT_AT_ZERO.u),
    ])
    def test_scalar_and_singular_v(self, pencil):
        assert invariant_factors(pencil).factors == brute_invariant_factors(pencil)

    @pytest.mark.parametrize("name", list(BOUND_CASES))
    @pytest.mark.parametrize("moved", [False, True])
    def test_bound_cases(self, name, moved):
        p = BOUND_CASES[name]
        if moved:
            p = congruent(p, SHEAR)
        assert invariant_factors(p).factors == brute_invariant_factors(p)

    @settings(max_examples=25, deadline=None)
    @given(
        st.sampled_from(CATALOG_ORDER + OFF_CATALOG),
        st.lists(
            st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4)),
            min_size=5, max_size=5, unique=True,
        ),
        st.lists(st.integers(-3, 3), min_size=25, max_size=25),
    )
    def test_random_congruence(self, symbol, roots, entries):
        rows = [entries[5 * i : 5 * i + 5] for i in range(5)]
        assume(_bareiss(rows)[1] != 0)
        a = as_matrix(rows)
        normal = build_normal_form(symbol, roots[: len(canonicalize(symbol).groups)])
        p = congruent(normal, a)
        assert invariant_factors(p).factors == brute_invariant_factors(p)

    def test_scalar_pencil_minor_count(self, monkeypatch):
        # the determinant only: rank(U - a*V) = 0 gives the partition (11111)
        for seed in range(4):
            calls = count_minors(monkeypatch, random_instance("[(11111)]", seed))
            assert calls == [5]

    def test_squarefree_determinant(self, monkeypatch):
        rng = random.Random(5)
        m = [[rng.randint(-999, 999) for _ in range(5)] for _ in range(5)]
        n = [[rng.randint(-999, 999) for _ in range(5)] for _ in range(5)]
        p = QuadricPencil(
            as_matrix([[m[i][j] + m[j][i] for j in range(5)] for i in range(5)]),
            as_matrix([[n[i][j] + n[j][i] for j in range(5)] for i in range(5)]),
        )
        # det_poly expands the determinant; invariant_factors reads it
        assert len(count_minors(monkeypatch, p, det_poly, invariant_factors)) == 1
        assert dup_sqf_p(to_dup(det_poly(p).coeffs), QQ)

    def test_weight_five_minor_total(self, monkeypatch):
        # ranks at the repeated roots replace every smaller minor, and the
        # member selection's expansion is the one invariant_factors reads
        for symbol in CATALOG_ORDER + OFF_CATALOG:
            p = random_instance(symbol, 7)
            calls = count_minors(monkeypatch, p, select_nonsingular_member, invariant_factors)
            assert calls == [5], symbol


class TestSelectNonsingularMember:
    def test_nonsingular_v_unchanged(self):
        p = QuadricPencil(diagonal([1, 2, 3, 4, 5]), identity(5))
        assert select_nonsingular_member(p) is p

    def test_swap_when_only_u_nonsingular(self):
        p = QuadricPencil(identity(5), diagonal([1, 1, 1, 1, 0]))
        sel = select_nonsingular_member(p)
        assert sel.u == p.v and sel.v == p.u

    def test_sweep_hits_u_plus_v(self):
        u = diagonal([1, 1, 1, 1, 0])
        v = diagonal([0, 1, 1, 1, 1])
        p = QuadricPencil(u, v)
        sel = select_nonsingular_member(p)
        assert sel.u == v
        assert sel.v == p.member(1, 1)
        assert sel.det_v != 0

    def test_no_smooth_member(self):
        # both forms miss X4 entirely: common kernel vector e4
        u = diagonal([1, 2, 3, 4, 0])
        v = diagonal([5, 1, 2, 7, 0])
        with pytest.raises(NoSmoothMemberError):
            select_nonsingular_member(QuadricPencil(u, v))


class TestDegeneracyReport:
    def test_common_kernel_is_cone(self):
        u = diagonal([1, 2, 3, 4, 0])
        v = diagonal([5, 1, 2, 7, 0])
        rep = degeneracy_report(QuadricPencil(u, v))
        assert rep.common_kernel_dim == 1
        assert rep.is_cone
        assert rep.verdict == "not a Segre quartic surface"

    @pytest.mark.parametrize("name", ["[2;1]", "[11;1]", "[(11);1]", "[;2]"])
    def test_normal_pairs_have_trivial_common_kernel(self, name):
        rep = degeneracy_report(_degenerate_pairs()[name])
        assert rep.common_kernel_dim == 0
        assert not rep.is_cone

    def test_two_dimensional_common_kernel(self):
        p = QuadricPencil(diagonal([1, 2, 3, 0, 0]), diagonal([1, 1, 1, 0, 0]))
        rep = degeneracy_report(p)
        assert rep.common_kernel_dim == 2
        assert rep.is_cone

    def test_rejects_pencil_with_smooth_member(self):
        p = QuadricPencil(diagonal([1, 2, 3, 4, 5]), identity(5))
        with pytest.raises(ValueError):
            degeneracy_report(p)


def counting(monkeypatch, module, name, keep=lambda *a: True):
    """Record the calls to ``module.name`` whose arguments pass ``keep``."""
    calls = []
    real = getattr(module, name)

    def counted(*args):
        if keep(*args):
            calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestAnalyzeWork:
    @pytest.mark.parametrize("pencil", [
        random_instance("[(21)2]", 0),
        QuadricPencil(diagonal([1, 2, 3, 4, 5]), diagonal([1, 1, 1, 1, 0])),
        _degenerate_pairs()["[2;1]"],
    ])
    def test_full_minor_interpolated_once(self, monkeypatch, pencil):
        # the given pair, and with det V = 0 the selected pencil (V, U + t0*V)
        full = counting(monkeypatch, segre.pencil, "_poly_minor")
        dets = counting(monkeypatch, segre.pencil, "_bareiss", keep=lambda m: m is pencil._iv)
        outcome = analyze_pencil(pencil)
        selected = [] if outcome.is_degenerate or pencil.det_v else [select_nonsingular_member(pencil)]
        assert full == [(pencil._iu, pencil._iv)] + [(s._iu, s._iv) for s in selected]
        assert dets == []

    @pytest.mark.parametrize("pencil", [
        random_instance("[(21)2]", 0),
        QuadricPencil(diagonal([1, 2, 3, 4, 5]), diagonal([1, 1, 1, 1, 0])),
    ])
    def test_compute_symbol_interpolates_once(self, monkeypatch, pencil):
        # compute_symbol takes analyze_pencil's route: no member selection
        # of its own, and det V read off the determinant expansion; with
        # det V = 0 the selected pair (V, U + t0*V) is expanded too
        full = counting(monkeypatch, segre.pencil, "_poly_minor")
        dets = counting(monkeypatch, segre.pencil, "_bareiss", keep=lambda m: m is pencil._iv)
        compute_symbol(pencil)
        assert full[0] == (pencil._iu, pencil._iv)
        assert len(full) == (2 if pencil.det_v == 0 else 1)
        assert dets == []

    @pytest.mark.parametrize("seed", range(3))
    def test_squarefree_determinant_takes_no_polynomial_gcd(self, monkeypatch, seed):
        # a [11111] determinant is proved squarefree by one heuristic gcd, one
        # integer gcd; a repeated root runs Yun's chain on heuristic gcds too,
        # and neither reaches the PRS gcd
        gcds = counting(monkeypatch, segre.polynomial, "_int_gcd")
        heuristic = counting(monkeypatch, segre.polynomial, "_int_gcd_cofactors")
        analyze_pencil(random_instance("[11111]", seed))
        assert len(heuristic) == 1
        analyze_pencil(random_instance("[2111]", seed))
        assert len(heuristic) > 2
        assert gcds == []

    def test_det_v_computed_once(self, monkeypatch):
        # det V is the leading coefficient of the expanded determinant,
        # read before or after an analysis, and never by eliminating V
        pencils = [random_instance("[(21)2]", seed) for seed in range(4)]
        want = [Fraction(_bareiss(p._iv)[1], p._mult ** p.size) for p in pencils]
        calls = counting(
            monkeypatch, segre.pencil, "_bareiss", keep=lambda m: any(m is p._iv for p in pencils)
        )
        for k, (p, det_v) in enumerate(zip(pencils, want)):
            if k % 2:
                assert p.det_v == det_v
            analyze_pencil(p)
            assert p.det_v == det_v
        assert calls == []

    def test_det_v_once_per_pencil(self, monkeypatch):
        # select_nonsingular_member, which the numeric oracle runs again,
        # and det V read the pencil's one expansion: no elimination at all
        from segre.numeric import numeric_exponent_partitions

        p = random_instance("[(21)2]", 1)
        full = counting(monkeypatch, segre.pencil, "_poly_minor")
        calls = counting(monkeypatch, segre.pencil, "_bareiss")
        numeric_exponent_partitions(select_nonsingular_member(p))
        assert p.det_v != 0
        assert len(full) == 1
        assert calls == []
        assert p == random_instance("[(21)2]", 1)
        assert hash(p) == hash(random_instance("[(21)2]", 1))
        assert "det_v" not in repr(p)

    @pytest.mark.parametrize("pencil", [
        random_instance("[(21)2]", 0),  # det V != 0
        congruent(random_instance("[113]", 1), diagonal([Fraction(1, 3), 1, Fraction(2, 5), 1, 7])),
        QuadricPencil(diagonal([1, 2, 3, 4, 5]), diagonal([1, 1, 1, 1, 0])),  # det V = 0
        QuadricPencil(diagonal([1, Fraction(1, 2), 3, 4, 5]), diagonal([Fraction(1, 2), 1, 0, 1, Fraction(2, 3)])),
        *_degenerate_pairs().values(),
    ])
    def test_analysis_stores_det_v(self, monkeypatch, pencil):
        # det V is read off the expanded determinant, so the analysis never
        # eliminates V, and neither det V nor the generic benchmark op's
        # member selection and oracle run a Bareiss elimination after it
        from segre.numeric import numeric_exponent_partitions

        iu, iv, mult = pencil._iu, pencil._iv, pencil._mult
        want = Fraction(_bareiss(iv)[1], mult ** pencil.size)
        v_elims = counting(monkeypatch, segre.pencil, "_bareiss", keep=lambda m: m is iv)
        analyze_pencil(pencil)
        calls = counting(monkeypatch, segre.pencil, "_bareiss")
        assert pencil.det_v == want
        if want:
            numeric_exponent_partitions(select_nonsingular_member(pencil))
        assert calls == []
        assert v_elims == []

    @pytest.mark.parametrize("pencil", [
        random_instance("[(21)2]", 2),
        congruent(random_instance("[113]", 1), diagonal([Fraction(1, 3), 1, Fraction(2, 5), 1, 7])),
        random_instance("[11111]", 3),
    ])
    def test_one_expansion_per_pencil(self, monkeypatch, pencil):
        # every determinant fact of a det V != 0 pencil is read off its one
        # expansion, whichever route asks first
        from segre.numeric import numeric_exponent_partitions

        routes = [
            analyze_pencil, compute_symbol, select_nonsingular_member, lambda p: p.det_v,
            det_poly, invariant_factors, numeric_exponent_partitions,
        ]
        for k in range(len(routes)):
            p = QuadricPencil(pencil.u, pencil.v)  # fresh: nothing expanded yet
            full = counting(monkeypatch, segre.pencil, "_poly_minor")
            v_elims = counting(monkeypatch, segre.pencil, "_bareiss", keep=lambda m: m is p._iv)
            for route in routes[k:] + routes[:k]:
                route(p)
            assert full == [(p._iu, p._iv)]
            assert v_elims == []
            monkeypatch.undo()

    @pytest.mark.parametrize("name", list(_degenerate_pairs()))
    def test_degenerate_pair_expands_once(self, monkeypatch, name):
        p = _degenerate_pairs()[name]
        full = counting(monkeypatch, segre.pencil, "_poly_minor")
        assert analyze_pencil(p).degeneracy == degeneracy_report(p)
        assert full == [(p._iu, p._iv)]

    @pytest.mark.parametrize("u, t", [
        # det(U + tV) = t (t - 1) (t + 2) (t + 3), and so on: det V = 0 and the
        # sweep 0, 1, -1, 2, -2 stops at t
        ([1, 0, -1, 2, 3], -1),
        ([1, 0, -1, 1, 3], 2),
        ([1, 0, -1, 1, -2], -2),
    ])
    def test_sweep_past_singular_members(self, u, t):
        p = QuadricPencil(diagonal(u), diagonal([0, 1, 1, 1, 1]))
        selected = select_nonsingular_member(p)
        assert selected.v == p.member(1, t)
        outcome = analyze_pencil(p)
        assert outcome.invariant_factors == tuple(str(f) for f in invariant_factors(selected).factors)
        assert outcome.determinant == str(det_poly(selected))

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(CATALOG_ORDER + OFF_CATALOG),
        st.integers(0, 2**16),
        st.integers(0, 4),
        st.integers(-9, 9),
        st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(-2, 3)]),
    )
    def test_singular_v_matches_selected_member(self, symbol, seed, pick, s, scale):
        """With det V = 0, the reported factors and determinant are those of
        the member that select_nonsingular_member picks."""
        p = random_instance(symbol, seed)
        d = det_poly(p)
        roots = [t for t in range(-9, 10) if not dup_eval(to_dup(d.coeffs), QQ(t), QQ)]
        r = roots[pick % len(roots)]
        assume(s != r)
        # V' = scale * (U - r*V) is singular; U' = U - s*V is singular when s is a root
        q = change_basis(p, 1, -s, scale, -scale * r)
        assert q.det_v == 0
        selected = select_nonsingular_member(q)
        outcome = analyze_pencil(q)
        assert outcome.invariant_factors == tuple(str(f) for f in invariant_factors(selected).factors)
        assert outcome.determinant == str(det_poly(selected))


def _weight_five_pencils():
    """For each weight-5 symbol and seed 0..2: the random instance, the
    normal form on its roots, and (V, U - r*V) of each, whose det V' = 0
    at r, the first of those roots."""
    for symbol in CATALOG_ORDER + OFF_CATALOG:
        for seed in range(3):
            p = random_instance(symbol, seed)
            roots = random.Random(seed).sample(range(-9, 10), len(canonicalize(symbol).groups))
            normal = build_normal_form(symbol, roots)
            for q in (p, normal):
                yield symbol, q
                yield symbol, change_basis(q, 0, 1, 1, -roots[0])


class TestLeadingMinor:
    def test_weight_five_symbols_take_the_same_classes_without_it(self, monkeypatch):
        # an empty leading minor proves nothing, so every repeated part
        # is eliminated; the classes must not change, and the minor must
        # spare some eliminations
        from segre.pencil import _det, _root_classes

        checked = set()
        calls = counting(monkeypatch, segre.pencil, "_bareiss")
        spared = 0
        for symbol, p in _weight_five_pencils():
            f, lead = _det(p)
            start = len(calls)
            want = _root_classes(p._iu, p._iv, f, lambda: ())
            middle = len(calls)
            assert _root_classes(p._iu, p._iv, f, lead) == want, (symbol, p)
            assert len(calls) - middle <= middle - start
            spared += (middle - start) - (len(calls) - middle)
            checked.add(symbol)
        assert len(checked) == 27 and spared > 0

    @pytest.mark.parametrize("seed", range(3))
    def test_one_block_at_each_root_takes_no_elimination(self, monkeypatch, seed):
        # the random congruence leaves the leading minor nonzero at the
        # double root of [2111]; the double root of [(11)111] has two
        # blocks, so the minor vanishes there and one elimination counts them
        calls = counting(monkeypatch, segre.pencil, "_bareiss")
        assert analyze_pencil(random_instance("[2111]", seed)).symbol.render() == "[2111]"
        assert calls == []
        assert analyze_pencil(random_instance("[(11)111]", seed)).symbol.render() == "[(11)111]"
        assert len(calls) == 1

    def test_a_normal_form_eliminates_where_its_minor_vanishes(self, monkeypatch):
        # the normal form's 2 x 2 block sits in its first rows, its kernel
        # vector at the root has a zero last entry, and so the leading
        # minor vanishes there: one elimination reads the one block
        from segre.pencil import _det

        p = build_normal_form("[2111]", [1, 2, 3, 4])
        f, lead = _det(p)
        assert _int_eval(lead(), 1) == 0 != _int_eval(lead(), 4)
        calls = counting(monkeypatch, segre.pencil, "_bareiss")
        assert analyze_pencil(p).symbol.render() == "[2111]"
        assert len(calls) == 1

    @pytest.mark.parametrize("seed", range(3))
    def test_a_squarefree_determinant_decodes_no_minor(self, monkeypatch, seed):
        # a pencil in general position, packed or on values, decodes its
        # determinant and not the leading minor; a double root decodes both
        reads = counting(monkeypatch, segre.pencil, "_int_digits")
        interpolations = counting(monkeypatch, segre.pencil, "_interpolate")
        assert analyze_pencil(random_instance("[11111]", seed)).symbol.render() == "[11111]"
        assert len(reads) == 1 and interpolations == []
        wide = congruent(random_instance("[11111]", seed), diagonal([10**200, 1, 1, 1, 1]))
        assert analyze_pencil(wide).symbol.render() == "[11111]"
        assert len(reads) == 1 and len(interpolations) == 1
        reads.clear()
        assert analyze_pencil(random_instance("[2111]", seed)).symbol.render() == "[2111]"
        assert len(reads) == 2


class TestChainCheck:
    @pytest.mark.parametrize("route", [invariant_factors, compute_symbol, analyze_pencil])
    def test_broken_chain_raises(self, monkeypatch, route):
        # [(221)] has three blocks at its root, so the staircase needs the
        # kernel's Gram matrix; three zero kernel vectors make all three
        # blocks of size two or more, 6 > 5 = the root's multiplicity
        monkeypatch.setattr(segre.pencil, "_kernel", lambda rows, pivots: [[0] * len(rows[0])] * 3)
        with pytest.raises(
            InternalConsistencyError,
            match=r"rank staircase \[3, 3\] does not fit a root of multiplicity 5$",
        ):
            route(build_normal_form("[(221)]", [Fraction(7, 2)]))

    @pytest.mark.parametrize("route", [invariant_factors, compute_symbol, analyze_pencil])
    def test_open_partition_raises(self, monkeypatch, route):
        # with every partition held open, the root of [(221)] takes both ranks
        monkeypatch.setattr(segre.pencil, "_partition", lambda m, counts: None)
        with pytest.raises(
            InternalConsistencyError,
            match=r"rank counts \[3, 2\] leave a partition of 5 open$",
        ):
            route(build_normal_form("[(221)]", [Fraction(7, 2)]))

    def test_two_counts_fix_every_partition_up_to_max_size(self):
        """What ``_part_classes`` relies on: at a linear root of
        multiplicity m <= MAX_SIZE the number of blocks, or that and the
        number of blocks of size two or more, give the partition; for an
        irreducible quadratic part (m = 2) the number of blocks does."""
        checked = 0
        for m in range(1, MAX_SIZE + 1):
            for lam in partitions(m):
                first = _partition(m, [len(lam)])
                got = first or _partition(m, [len(lam), sum(x >= 2 for x in lam)])
                assert got == lam, (m, lam, first)
                checked += 1
        assert checked == 18  # 1 + 2 + 3 + 5 + 7 partitions
        assert _partition(2, [1]) == (2,) and _partition(2, [2]) == (1, 1)


def partitions(m: int, top: int | None = None):
    """The partitions of m, descending, with parts at most ``top``."""
    if m == 0:
        yield ()
    for first in range(min(m, top or m), 0, -1):
        for rest in partitions(m - first, first):
            yield (first, *rest)


def fraction_congruent(p: QuadricPencil, a):
    """Reference: A^T U A and A^T V A by ``Fraction`` matrix products."""

    def mul(x, y):
        return tuple(tuple(sum(r * c for r, c in zip(row, col)) for col in zip(*y)) for row in x)

    at = tuple(zip(*a))
    return QuadricPencil(mul(at, mul(p.u, a)), mul(at, mul(p.v, a)))


class TestCongruent:
    def test_non_integer_matrices(self):
        p = QuadricPencil(
            as_matrix([[Fraction(i + j, 1 + (i * j) % 3) for j in range(5)] for i in range(5)]),
            diagonal([1, Fraction(1, 2), 0, 3, Fraction(-7, 5)]),
        )
        a = as_matrix([[Fraction(i - 2 * j, 1 + (i + j) % 4) for j in range(5)] for i in range(5)])
        got = congruent(p, a)
        want = fraction_congruent(p, a)
        assert (got.u, got.v) == (want.u, want.v)

    def test_random_instance_matches_fraction_formula(self, monkeypatch):
        keys = [(s, seed) for s in CATALOG_ORDER + OFF_CATALOG for seed in range(3)]
        got = {key: random_instance(*key) for key in keys}
        monkeypatch.setattr(segre.symbol, "congruent", fraction_congruent)
        for (s, seed), p in got.items():
            want = random_instance(s, seed)
            assert (p.u, p.v) == (want.u, want.v)


class TestChangeBasis:
    def test_requires_invertible(self):
        p = QuadricPencil(diagonal([1, 2, 3, 4, 5]), identity(5))
        with pytest.raises(ValueError):
            change_basis(p, 1, 2, 2, 4)

    def test_spans_same_pencil(self):
        p = QuadricPencil(diagonal([1, 2, 3, 4, 5]), identity(5))
        q = change_basis(p, 1, 1, 0, 1)
        assert q.u == p.member(1, 1)
        assert q.v == p.v


class TestValidation:
    def test_rejects_asymmetric(self):
        m = [[0, 1, 0, 0, 0]] + [[0] * 5 for _ in range(4)]
        with pytest.raises(ValueError):
            QuadricPencil(as_matrix(m), identity(5))

    def test_rejects_size_mismatch(self):
        with pytest.raises(ValueError):
            QuadricPencil(identity(4), identity(5))
