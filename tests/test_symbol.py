import random
from decimal import Decimal
from fractions import Fraction

import pytest

from segre.catalog import CATALOG_ORDER
from segre.errors import NoSmoothMemberError, ParseError
from segre.reporting import analyze_pencil
from segre.pencil import QuadricPencil, _bareiss, as_matrix, congruent, diagonal, identity, select_nonsingular_member
from segre.symbol import (
    ExplicitRoot,
    Group,
    SegreSymbol,
    SymbolicRoot,
    build_normal_form,
    canonicalize,
    compute_symbol,
    random_instance,
)


class TestParseRender:
    @pytest.mark.parametrize(
        "text,groups",
        [
            ("[11111]", [(1,), (1,), (1,), (1,), (1,)]),
            ("[2111]", [(2,), (1,), (1,), (1,)]),
            ("[(11)3]", [(1, 1), (3,)]),
            ("[(12)(11)]", [(2, 1), (1, 1)]),
        ],
    )
    def test_parse(self, text, groups):
        s = SegreSymbol.parse(text)
        assert [g.exponents for g in s.groups] == groups

    @pytest.mark.parametrize("bad", ["2111", "[21a1]", "[]", "[(0)]", "[10]", "[(]"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            SegreSymbol.parse(bad)

    @pytest.mark.parametrize("bad", [
        "[" + "0" * 10**4 + "]", "1" * 10**4, "[" + " " * 10**4 + "]", "[(" + "1" * 10**4 + "]",
    ], ids=["zeros", "no-brackets", "empty", "open-bracket"])
    def test_parse_error_quotes_at_most_40_characters(self, bad):
        with pytest.raises(ValueError) as info:
            SegreSymbol.parse(bad)
        assert type(info.value) is ParseError
        assert len(str(info.value)) < 100

    def test_round_trip_through_parser(self):
        for text in CATALOG_ORDER:
            s = canonicalize(text)
            assert SegreSymbol.parse(s.render()) == s
            assert s.render() == text  # catalog keys are stored canonically

    @pytest.mark.parametrize("exponents,message", [
        ((), "a group needs at least one exponent"),
        ((0, 1), "exponents must be positive integers: (0, 1)"),
        # these raised TypeError, and a bool was taken for an exponent
        (5, "group exponents must be a sequence, got int"),
        (None, "group exponents must be a sequence, got NoneType"),
        ({2, 1}, "group exponents must be a sequence, got set"),
        ((True,), "exponents must be positive integers: (True,)"),
        ((2, 1.0), "exponents must be positive integers: (2, 1.0)"),
        ((2, "1"), "exponents must be positive integers: (2, '1')"),
        ((1,) * 30 + (0,), "exponents must be positive integers: (1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, "),
        ([0, 1], "exponents must be positive integers: (0, 1)"),
        # these raised the int-str ValueError, not ParseError: the quote
        # converted every exponent to text
        ((10**5000, 0), "exponents must be positive integers: (<int of 16610 bits>, 0)"),
        ((-(10**5000),), "exponents must be positive integers: (-<int of 16610 bits>,)"),
        ((2, 10**40, 0), "exponents must be positive integers: (2, <int of 133 bits>, 0)"),
        ((2, 10**40 - 1, 0), "exponents must be positive integers: (2, " + "9" * 36),
        ((0,) + (10**5000,) * 10**5, "exponents must be positive integers: (0, <int of 16610 bits>, <int of 16610 b"),
    ])
    def test_group_validation(self, exponents, message):
        with pytest.raises(ParseError) as info:
            Group(exponents)
        assert isinstance(info.value, ValueError)
        assert str(info.value) == message

    def test_a_group_takes_any_sequence_of_exponents(self):
        assert Group([1, 2]) == Group(range(2, 0, -1)) == Group((2, 1))


class TestCanonicalize:
    def test_reordering(self):
        assert canonicalize("[12(11)]").render() == "[2(11)1]"
        assert SegreSymbol.parse("[12(11)]") == SegreSymbol.parse("[(11)12]")
        assert SegreSymbol.parse("[12(11)]") == SegreSymbol.parse("[(11)21]")

    def test_already_canonical(self):
        assert canonicalize("[(11)(11)1]").render() == "[(11)(11)1]"

    def test_identity(self):
        assert canonicalize("[11111]").render() == "[11111]"

    def test_idempotent(self):
        for text in CATALOG_ORDER:
            once = canonicalize(text)
            assert canonicalize(once).render() == once.render()

    def test_exponents_sorted_inside_group(self):
        assert canonicalize("[(13)1]").render() == "[(31)1]"
        assert SegreSymbol.parse("[(13)1]") == SegreSymbol.parse("[1(13)]")

    @pytest.mark.parametrize("symbol", ["[11111]", "[(11)111]", "[2111]", "[(21)2]", "[(111)11]"])
    def test_one_report_canonicalizes_twice(self, monkeypatch, symbol):
        # compute_symbol builds its symbol in canonical order, marked as its
        # own canonical form, so classify_symbol's canonicalize is the one
        # call and returns it; the text and the exponent structure are kept
        # per symbol, so the report reuses them.  The name keeps the count
        # of 2 from before the symbol was built in order, and before the
        # text and structure were kept the count was 4 (3 off the catalog).
        from segre.reporting import outcome_to_dict

        p = random_instance(symbol, 0)
        outcome_to_dict(analyze_pencil(p))  # fill the per-structure caches
        calls = []
        real = SegreSymbol.canonical

        def counted(self):
            calls.append(self)
            return real(self)

        monkeypatch.setattr(SegreSymbol, "canonical", counted)
        doc = outcome_to_dict(analyze_pencil(p))
        assert len(calls) == 1
        assert doc["symbol"] == canonicalize(symbol).render()

    def test_parsed_text_and_structure_are_computed_not_stored(self):
        # a symbol stores its structure only when born canonical
        s = SegreSymbol.parse("[1(11)2]")
        assert s.render() == s.render() == "[1(11)2]"
        assert s.exponent_structure() == s.exponent_structure() == ((2,), (1, 1), (1,))
        assert s._structure is None
        born = s.canonical()
        assert born is not s and born.canonical() is born
        assert born.exponent_structure() is born._structure
        assert born.exponent_structure() is born.exponent_structure() == s.exponent_structure()


class TestComputeSymbol:
    def test_symbolic_roots_share_one_rendering(self, monkeypatch):
        import segre.polynomial
        from segre.reporting import outcome_to_dict

        u = as_matrix([
            [2, 1, 0, 0, 3], [1, 0, 1, 0, 0], [0, 1, -1, 1, 0], [0, 0, 1, 1, 1], [3, 0, 0, 1, 0],
        ])
        quintic = "t^5 - 2*t^4 - 14*t^3 + 8*t^2 + 31*t - 16"
        calls = []
        real = segre.polynomial._poly_str
        monkeypatch.setattr(
            segre.polynomial, "_poly_str", lambda c, den=1: calls.append(den) or real(c, den)
        )
        doc = outcome_to_dict(analyze_pencil(QuadricPencil(u, identity(5))))
        assert doc["roots"] == [f"root #{i} of {quintic}" for i in range(1, 6)]
        assert doc["invariant_factors"] == ["1", "1", "1", "1", quintic]
        assert len(calls) == 1  # one Polynomial text for the five descriptors

    def test_irreducible_quintic_rendered_once(self, monkeypatch):
        # d_5 is the polynomial of the root descriptors: the factor's text is
        # theirs, and the constant d_1..d_4 are written "1" with no call, so
        # a [11111] op renders the determinant and the quintic once each
        # (before constants were written as they are, the count was 6)
        import segre.polynomial
        import segre.reporting
        from segre.reporting import outcome_to_dict

        u = as_matrix([
            [2, 1, 0, 0, 3], [1, 0, 1, 0, 0], [0, 1, -1, 1, 0], [0, 0, 1, 1, 1], [3, 0, 0, 1, 0],
        ])
        texts = []
        real = segre.polynomial._poly_str

        def counted(c, den=1):
            texts.append(real(c, den))
            return texts[-1]

        monkeypatch.setattr(segre.polynomial, "_poly_str", counted)
        monkeypatch.setattr(segre.reporting, "_poly_str", counted)
        doc = outcome_to_dict(analyze_pencil(QuadricPencil(u, identity(5))))
        assert len(texts) == 2
        assert texts.count(doc["invariant_factors"][-1]) == 1

    def test_five_distinct_eigenvalues(self):
        p = QuadricPencil(diagonal([1, 2, 3, 4, 5]), identity(5))
        assert compute_symbol(p) == "[11111]"

    def test_repeated_eigenvalue_gives_bracket(self):
        p = QuadricPencil(diagonal([1, 1, 2, 3, 4]), identity(5))
        assert compute_symbol(p) == "[(11)111]"

    def test_2111_normal_pair(self):
        assert compute_symbol(build_normal_form("[2111]", [2, 3, 4, 5])) == "[2111]"

    def test_32_merges_to_bracket_on_equal_roots(self):
        # the [(32)] pair is the [32] pair with both roots equal
        assert compute_symbol(build_normal_form("[(32)]", [2])) == "[(32)]"

    def test_scalar_pencil(self):
        p = QuadricPencil(diagonal([2] * 5), identity(5))
        assert compute_symbol(p) == "[(11111)]"

    def test_singular_v_keeps_root_at_infinity(self):
        p = QuadricPencil(diagonal([1, 2, 3, 4, 5]), diagonal([1, 1, 1, 1, 0]))
        sym = compute_symbol(p)
        assert sym == "[11111]"
        assert sym.weight == 5
        assert sym == analyze_pencil(p).symbol

    def test_pencil_without_smooth_member_raises(self):
        p = QuadricPencil(diagonal([1, 2, 3, 4, 0]), diagonal([5, 1, 2, 7, 0]))
        with pytest.raises(NoSmoothMemberError):
            compute_symbol(p)

    def test_simple_irrational_spectrum_is_one_basis_element(self):
        # leading 2x2 block [[1,1],[1,-1]] has eigenvalues +-sqrt(2); with
        # five simple roots nothing forces a split, so one quintic carries
        # all five symbolic root descriptors
        w = [[Fraction(0)] * 5 for _ in range(5)]
        w[0][0], w[0][1], w[1][0], w[1][1] = (Fraction(c) for c in (1, 1, 1, -1))
        for k, c in enumerate((3, 4, 5), start=2):
            w[k][k] = Fraction(c)
        sym = compute_symbol(QuadricPencil(as_matrix(w), identity(5)))
        assert sym == "[11111]"
        assert all(isinstance(g.root, SymbolicRoot) for g in sym.groups)
        assert {g.root.poly.degree for g in sym.groups} == {5}
        assert sorted(g.root.index for g in sym.groups) == [0, 1, 2, 3, 4]

    def test_forced_split_keeps_irrational_pair_whole(self):
        # double eigenvalue 3 forces (t-3) out of the basis; the pair
        # +-sqrt(2) stays inside an unfactored cubic with root 4
        w = [[Fraction(0)] * 5 for _ in range(5)]
        w[0][0], w[0][1], w[1][0], w[1][1] = (Fraction(c) for c in (1, 1, 1, -1))
        w[2][2] = w[3][3] = Fraction(3)
        w[4][4] = Fraction(4)
        sym = compute_symbol(QuadricPencil(as_matrix(w), identity(5)))
        assert sym == "[(11)111]"
        explicit = [g for g in sym.groups if isinstance(g.root, ExplicitRoot)]
        assert [(g.exponents, g.root.value) for g in explicit] == [((1, 1), 3)]
        symbolic = [g for g in sym.groups if isinstance(g.root, SymbolicRoot)]
        assert len(symbolic) == 3
        assert {g.root.poly.degree for g in symbolic} == {3}

    def test_order_of_the_root_classes_never_shows(self):
        from itertools import permutations

        from segre.pencil import _selected_classes
        from segre.symbol import _symbol_from_classes

        weight5 = [s for s in _symbols_up_to(5) if s.weight == 5]
        assert len(weight5) == 27
        for seed, s in enumerate(weight5):
            classes = _selected_classes(random_instance(s, seed))[-1]
            want = _symbol_from_classes(classes)[0]
            assert want.render() == s.render()
            for order in permutations(classes):
                got = _symbol_from_classes(list(order))[0]
                assert got.render() == want.render()
                assert got.root_descriptions() == want.root_descriptions()

    def test_symbol_is_born_canonical(self):
        # the symbol compute_symbol and analyze_pencil build in canonical
        # order is the one the public constructor and canonical() give for
        # its groups
        from test_differential import CASES, ONE, block_diag, case, jordan_two

        weight5 = [s for s in _symbols_up_to(5) if s.weight == 5]
        pencils = [random_instance(s, seed) for s in weight5 for seed in range(3)]
        pencils += [case(name) for name in CASES]  # irrational roots
        imaginary = ([[0, 1], [1, 0]], [[1, 0], [0, -1]])  # V^-1 U has t^2 + 1
        pencils += [
            block_diag(imaginary, imaginary, ONE),
            block_diag(jordan_two(*imaginary), ONE),
            block_diag(imaginary, ONE, ONE, ([[5]], [[1]])),
        ]
        for p in pencils:
            sym = compute_symbol(p)
            rebuilt = SegreSymbol(list(sym.groups)).canonical()
            assert sym.canonical() is sym
            assert [(g.exponents, g.root) for g in sym.groups] == [
                (g.exponents, g.root) for g in rebuilt.groups
            ]
            assert sym.render() == rebuilt.render()
            assert sym.exponent_structure() == rebuilt.exponent_structure()
            assert sym.root_descriptions() == rebuilt.root_descriptions()
            # the groups of one polynomial come in root-index order
            for poly in {g.root.poly for g in sym.groups if isinstance(g.root, SymbolicRoot)}:
                indices = [g.root.index for g in sym.groups
                           if isinstance(g.root, SymbolicRoot) and g.root.poly == poly]
                assert indices == list(range(poly.degree))


class TestNormalForm:
    def test_block_shapes(self):
        p = build_normal_form("[3]", [7])
        assert p.u == as_matrix([[0, 0, 7], [0, 7, 1], [7, 1, 0]])
        assert p.v == as_matrix([[0, 0, 1], [0, 1, 0], [1, 0, 0]])

    def test_single_block_symbol(self):
        p = build_normal_form("[5]", [1])
        assert p.size == 5
        assert compute_symbol(p) == "[5]"

    def test_requires_one_root_per_group(self):
        with pytest.raises(ValueError):
            build_normal_form("[2111]", [2, 3])

    def test_rejects_duplicate_roots(self):
        with pytest.raises(ValueError):
            build_normal_form("[2111]", [2, 2, 4, 5])

    def test_round_trip_all_catalog_symbols(self):
        for text in CATALOG_ORDER:
            sym = canonicalize(text)
            roots = list(range(1, len(sym.groups) + 1))
            assert compute_symbol(build_normal_form(sym, roots)) == sym


def _partitions(n, most=None):
    """The partitions of n, each descending."""
    if n == 0:
        yield ()
    for k in range(min(n, most or n), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


def _symbols_up_to(weight):
    """Every Segre symbol of weight 1..weight, canonical, once each."""
    found = {}

    def extend(groups, left):
        if groups:
            s = SegreSymbol([Group(g) for g in groups]).canonical()
            found.setdefault(s.render(), s)
        for k in range(1, left + 1):
            for lam in _partitions(k):
                extend(groups + [lam], left - k)

    extend([], weight)
    return list(found.values())


def _fraction_normal_form(s, roots):
    """The Fraction construction of a normal form: each block by loops,
    checked against the normal form of [e], placed on the diagonal, read by
    QuadricPencil."""
    ublocks, vblocks = [], []
    for g, r in zip(s.groups, roots):
        for e in g.exponents:
            bu = [[Fraction(0)] * e for _ in range(e)]
            bv = [[Fraction(0)] * e for _ in range(e)]
            for i in range(e):
                for j in range(e):
                    if i + j == e - 1:
                        bu[i][j] = Fraction(r)
                        bv[i][j] = Fraction(1)
                    elif i + j == e:
                        bu[i][j] = Fraction(1)
            block = build_normal_form(SegreSymbol([Group((e,))]), [r])
            assert (block.u, block.v) == (as_matrix(bu), as_matrix(bv))
            ublocks.append(bu)
            vblocks.append(bv)

    def placed(blocks):
        size = sum(map(len, blocks))
        out = [[Fraction(0)] * size for _ in range(size)]
        offset = 0
        for b in blocks:
            for i, row in enumerate(b):
                out[offset + i][offset : offset + len(row)] = row
            offset += len(b)
        return out

    return QuadricPencil(placed(ublocks), placed(vblocks))


NORMAL_FORM_ROOTS = {
    "integers": [3, -1, 0, 7, -9],
    "mixed denominators": [Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7), 3, Fraction(-1, 4)],
    "a Decimal": [Decimal("0.25"), 7, Fraction(-3, 5), 0, Fraction(2, 9)],
}


@pytest.mark.parametrize("roots", NORMAL_FORM_ROOTS.values(), ids=NORMAL_FORM_ROOTS)
def test_normal_forms_match_the_fraction_construction(roots):
    symbols = _symbols_up_to(5)
    assert len(symbols) == 1 + 3 + 6 + 14 + 27
    for s in symbols:
        rs = roots[: len(s.groups)]
        p, want = build_normal_form(s, rs), _fraction_normal_form(s, rs)
        assert (p._mult, p._iu, p._iv) == (want._mult, want._iu, want._iv)
        assert (p.u, p.v) == (want.u, want.v)


class TestRandomInstance:
    def test_deterministic(self):
        a = random_instance("[11111]", 7)
        b = random_instance("[11111]", 7)
        assert a.u == b.u and a.v == b.v

    def test_round_trip(self):
        assert compute_symbol(random_instance("[11111]", 7)) == "[11111]"
        assert compute_symbol(random_instance("[(14)]", 0)) == "[(41)]"

    def test_congruence_invariance(self):
        rng = random.Random(5)
        base = random_instance("[(21)11]", 3)
        want = compute_symbol(base)
        for _ in range(5):
            while True:
                a = [[rng.randint(-3, 3) for _ in range(5)] for _ in range(5)]
                if _bareiss(a)[1] != 0:
                    break
            assert compute_symbol(congruent(base, as_matrix(a))) == want

    def test_pencil_basis_invariance(self):
        base = random_instance("[311]", 9)
        want = compute_symbol(base).exponent_structure()
        moved = QuadricPencil(base.member(2, 3), base.member(1, 2))
        sel = select_nonsingular_member(moved)
        assert compute_symbol(sel).exponent_structure() == want

    def test_weight_invariant(self):
        for text in CATALOG_ORDER:
            assert compute_symbol(random_instance(text, 1)).weight == 5
