from fractions import Fraction
from itertools import product

import pytest

import segre.classify
from segre.catalog import (
    CATALOG,
    CATALOG_ORDER,
    TABLE1_ORDER,
    TABLE2_ROWS,
    TABLE3_ORDER,
    AutE,
    SingularityType,
    catalog_row,
    class_degree,
    transitions,
)
from segre.classify import _structure_report, classify_symbol
from segre.covers import covers_of
from segre.errors import InternalConsistencyError, NotInCatalogError, ParseError, SizeLimitError
from segre.reporting import analyze_pencil
from segre.symbol import ExplicitRoot, Group, SegreSymbol, canonicalize, random_instance


def sings(text):
    return tuple(SingularityType.parse(p) for p in text.split("+")) if text else ()


class TestSingularityType:
    def test_euler_numbers(self):
        assert SingularityType("A", 1).euler == 2
        assert SingularityType("A", 4).euler == 5
        assert SingularityType("D", 4).euler == 6
        assert SingularityType("D", 5).euler == 7

    def test_validation(self):
        with pytest.raises(ValueError):
            SingularityType("A", 0)
        with pytest.raises(ValueError):
            SingularityType("D", 3)
        with pytest.raises(ValueError):
            SingularityType("E", 6)

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: SingularityType.parse(""), "bad singularity type ''"),
            (lambda: SingularityType.parse("A"), "bad singularity type 'A'"),
            (lambda: SingularityType.parse("A-1"), "bad singularity type 'A-1'"),
            (lambda: SingularityType.parse("A" + "9" * 5000), f"bad singularity type {'A' + '9' * 39!r}"),
            (lambda: SingularityType.parse(None), "singularity type must be text, got NoneType"),
            (lambda: SingularityType("A", "x"), "singularity index must be an int, got str"),
            (lambda: SingularityType("A", True), "singularity index must be an int, got bool"),
            (lambda: SingularityType("Q", 1), "unknown singularity family 'Q'"),
            (lambda: SingularityType("Q" * 100, 1), f"unknown singularity family {'Q' * 40!r}"),
            (lambda: SingularityType(None, 1), "unknown singularity family of type NoneType"),
            (lambda: SingularityType("A", 0), "A_n needs n >= 1, got 0"),
            (lambda: SingularityType("A", -(10**5000)), "A_n needs n >= 1, got an int of 16610 bits"),
            (lambda: SingularityType("A", 10**40), "A_n needs n < 10^40, got an int of 133 bits"),
            (lambda: SingularityType("A", 10**5000), "A_n needs n < 10^40, got an int of 16610 bits"),
            (lambda: SingularityType("D", 6), "D_n supported for n in 4..5, got 6"),
        ],
    )
    def test_bad_input_is_a_parse_error(self, make, message):
        with pytest.raises(ParseError) as info:
            make()
        assert str(info.value) == message and isinstance(info.value, ValueError)

    def test_the_largest_index_is_the_largest_parse_reads(self):
        # every index the constructor takes has at most 40 digits, so its
        # text never reaches the int-str limit
        top = SingularityType("A", 10**40 - 1)
        assert top == SingularityType.parse("A" + "9" * 40)
        assert str(top) == "A" + "9" * 40
        assert repr(top) == f"SingularityType(family='A', index={'9' * 40})"


class TestClassDegree:
    def test_smooth(self):
        assert class_degree([]) == 12

    def test_one_node(self):
        assert class_degree(sings("A1")) == 10

    def test_table_row_with_three_points(self):
        assert class_degree(sings("A1+A1+A2")) == 5

    def test_d5(self):
        assert class_degree(sings("D5")) == 5

    def test_rejects_overflow(self):
        with pytest.raises(ValueError):
            class_degree(sings("D5+D5"))

    @pytest.mark.parametrize(
        "points, total",
        [("A12", "13"), ("D5+D5", "14"), ("A11+A1", "14")],
    )
    def test_an_euler_sum_past_12_is_a_size_limit_error(self, points, total):
        with pytest.raises(SizeLimitError, match=f"^euler numbers sum to {total} > 12$") as info:
            class_degree(sings(points))
        assert isinstance(info.value, ValueError)

    def test_a_huge_euler_sum_is_not_written_out(self):
        with pytest.raises(SizeLimitError, match="^euler numbers sum to an int of 134 bits > 12$"):
            class_degree([SingularityType("A", 10**40 - 1)] * 2)


class TestCatalogData:
    def test_sixteen_symbols(self):
        assert len(CATALOG) == 16
        assert set(CATALOG_ORDER) == set(CATALOG)

    def test_keys_are_canonical(self):
        for key in CATALOG:
            assert canonicalize(key).render() == key

    def test_tables_cover_catalog(self):
        t1 = set(TABLE1_ORDER)
        t2 = {r.symbol for r in TABLE2_ROWS}
        t3 = set(TABLE3_ORDER)
        assert t1 | t2 | t3 == set(CATALOG)
        assert len(TABLE1_ORDER) == 10 and len(TABLE2_ROWS) == 10 and len(TABLE3_ORDER) == 2
        # a symbol sits in the first table exactly when it has a bare 1
        for key in CATALOG:
            has_bare_one = SegreSymbol.parse(key).unbracketed_ones() > 0
            assert (key in t1) == has_bare_one
        # and in the second exactly when a bracketed group contains a 1
        for key in CATALOG:
            bracketed_one = any(
                1 in g.exponents and g.bracketed for g in SegreSymbol.parse(key).groups
            )
            assert (key in t2) == bracketed_one

    def test_planes_never_exceed_lines(self):
        for row in CATALOG.values():
            assert row.planes_in_dual <= row.lines_total

    def test_cone_covered_rows_have_no_planes(self):
        for r in TABLE2_ROWS:
            assert CATALOG[r.symbol].planes_in_dual == 0

    def test_flagged_discrepancy(self):
        assert CATALOG["[2111]"].printed_class_discrepancy == 8
        assert CATALOG["[2111]"].class_degree == 10
        others = [r for r in CATALOG.values() if r.symbol != "[2111]"]
        assert all(r.printed_class_discrepancy is None for r in others)

    def test_ambiguous_aut_rows(self):
        assert CATALOG["[(31)1]"].aut_e is AutE.C_STAR_OR_TRIVIAL
        assert CATALOG["[(41)]"].aut_e is AutE.C_STAR_OR_TRIVIAL

def partitions(n, largest=None):
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest or n), 0, -1):
        for rest in partitions(n - k, k):
            yield (k,) + rest


# every weight-5 exponent structure: a multiset of groups, each a partition
WEIGHT_FIVE = sorted({
    SegreSymbol([Group(e) for e in groups]).exponent_structure()
    for weights in partitions(5)
    for groups in product(*(list(partitions(w)) for w in weights))
})


def with_roots(structure, roots):
    return SegreSymbol([Group(e, ExplicitRoot(r)) for e, r in zip(structure, roots)])


class TestClassify:
    def test_smooth_row(self):
        r = classify_symbol("[11111]")
        assert r.is_segre
        assert r.class_degree == 12
        assert r.lines_total == 16
        assert r.planes_in_dual == 16
        assert r.q_star_count == 5
        assert r.genus == 1 and r.embedding_degree == 4

    def test_cone_rejection(self):
        r = classify_symbol("[(32)]")
        assert not r.is_segre
        assert r.reason == "cone"

    def test_reducible_rejection(self):
        r = classify_symbol("[(111)11]")
        assert not r.is_segre
        assert r.reason == "reducible"

    def test_no_cover_row(self):
        r = classify_symbol("[23]")
        assert r.is_segre
        assert r.singularities == sings("A1+A2")
        assert r.class_degree == 7
        assert r.lines_total == 6
        assert r.planes_in_dual == 3
        assert r.covers == ()

    def test_order_insensitive(self):
        r = classify_symbol("[1112]")
        assert r.symbol.render() == "[2111]"
        assert r.class_degree == 10
        assert r.singularities == sings("A1")

    def test_rejects_wrong_weight(self):
        with pytest.raises(ValueError):
            classify_symbol("[1111]")

    def test_a_long_symbol_is_quoted_to_40_characters(self):
        long = SegreSymbol.parse("[" + "1" * 100_000 + "]")
        shown = "[" + "1" * 39
        with pytest.raises(SizeLimitError) as info:
            classify_symbol(long)
        assert str(info.value) == f"classification needs a weight-5 symbol, got {shown}"
        for lookup in (covers_of, transitions, catalog_row):
            with pytest.raises(NotInCatalogError) as info:
                lookup(long)
            assert str(info.value) == f"{shown} is not one of the 16 catalog symbols"

    @pytest.mark.parametrize("size", [4, 6])
    def test_analyze_refuses_a_pencil_not_five_by_five(self, size):
        # a SegreError, still a ValueError: a 4 x 4 pencil with
        # classify_symbol's message, and a 6 x 6 one before it is built
        symbol = "[" + "1" * size + "]"
        if size > 5:
            with pytest.raises(SizeLimitError, match="^pencils are at most 5 x 5, got 6 x 6$"):
                random_instance(symbol, 0)
        else:
            with pytest.raises(SizeLimitError, match="^classification needs a weight-5 symbol, got "):
                analyze_pencil(random_instance(symbol, 0))
        assert issubclass(SizeLimitError, ValueError)

    def test_discrepancy_note_present(self):
        r = classify_symbol("[2111]")
        assert any("8" in n and "10" in n for n in r.notes)

    @pytest.mark.parametrize("structure", WEIGHT_FIVE)
    def test_memoised_report_equals_uncached(self, structure):
        for roots in (range(1, 6), (Fraction(-1, 2), 7, Fraction(3, 4), -2, 0)):
            sym = with_roots(structure, [Fraction(r) for r in roots])
            got = classify_symbol(sym)
            assert got == _structure_report.__wrapped__(structure).replace(symbol=sym)
            assert got.symbol.root_descriptions() == sym.root_descriptions()

    def test_covers_built_once_per_structure(self, monkeypatch):
        calls = []
        real = segre.classify.covers_of

        def counting(s):
            calls.append(s.exponent_structure())
            return real(s)

        monkeypatch.setattr(segre.classify, "covers_of", counting)
        _structure_report.cache_clear()
        try:
            for roots in ((1, 2, 3, 4, 5), (5, 4, 3, 2, 1), (0, -1, -2, -3, -4)):
                for structure in WEIGHT_FIVE:
                    classify_symbol(with_roots(structure, roots))
        finally:
            _structure_report.cache_clear()
        assert len(WEIGHT_FIVE) == 27
        assert sorted(calls) == sorted(canonicalize(s).exponent_structure() for s in CATALOG_ORDER)

    def test_errors_are_not_cached(self, monkeypatch):
        def broken(s):
            raise InternalConsistencyError("covers unavailable")

        _structure_report.cache_clear()
        monkeypatch.setattr(segre.classify, "covers_of", broken)
        with pytest.raises(InternalConsistencyError):
            classify_symbol("[2111]")
        monkeypatch.undo()
        assert classify_symbol("[2111]").class_degree == 10


class TestTransitions:
    def test_smooth_degenerates_to_one_node(self):
        assert [t.render() for t in transitions("[11111]")] == ["[2111]"]

    def test_line_cubic_transition(self):
        assert [t.render() for t in transitions("[221]")] == ["[41]"]

    def test_no_listed_transition(self):
        assert transitions("[5]") == []

    def test_rejects_non_catalog(self):
        with pytest.raises(ValueError):
            transitions("[(32)]")

    def test_edges_stay_in_catalog_and_class_monotone(self):
        for src in CATALOG_ORDER:
            for dst in transitions(src):
                key = dst.render()
                assert key in CATALOG
                delta = CATALOG[key].class_degree - CATALOG[src].class_degree
                if (src, key) == ("[3(11)]", "[(31)1]"):
                    assert delta == 1  # the one class increase
                else:
                    assert delta <= 0
