import pytest

from segre import covers
from segre.catalog import CATALOG, CATALOG_ORDER, TABLE1_ORDER
from segre.covers import (
    BRANCH_STRUCTURES,
    BaseKind,
    SectionComponent,
    VertexPosition,
    covers_of,
)
from segre.errors import InternalConsistencyError
from segre.symbol import SegreSymbol


def covers_by_base(symbol, base):
    return [c for c in covers_of(symbol) if c.base is base]


class TestCoversOf:
    def test_2111_has_three_quadric_covers(self):
        cs = covers_of("[1112]")
        assert len(cs) == 3
        assert all(c.base is BaseKind.SMOOTH_QUADRIC for c in cs)
        assert all(c.branch_symbol == "[112]" for c in cs)
        assert all(
            c.branch_structure.configuration == "rational curve with one node" for c in cs
        )

    def test_mixed_symbol_has_both_cover_kinds(self):
        quadric = covers_by_base("[12(11)]", BaseKind.SMOOTH_QUADRIC)
        cone = covers_by_base("[12(11)]", BaseKind.QUADRATIC_CONE)
        assert len(quadric) == 1
        assert quadric[0].branch_symbol == "[2(11)]"
        assert len(cone) == 2  # one per 1 inside the bracket
        assert all(c.branch_symbol == "[112]" for c in cone)
        assert all(c.vertex_on_branch is VertexPosition.OFF_BRANCH for c in cone)

    def test_no_covers_without_ones(self):
        assert covers_of("[5]") == []
        assert covers_of("[23]") == []

    def test_14_cone_cover_vertex_is_singular_locus(self):
        cs = covers_of("[(14)]")
        assert len(cs) == 1
        c = cs[0]
        assert c.base is BaseKind.QUADRATIC_CONE
        assert c.branch_symbol == "[4]"
        assert c.vertex_on_branch is VertexPosition.IS_SINGULAR_LOCUS

    def test_double_bracket_symbol_lists_both_projections(self):
        cone = covers_by_base("[(12)(11)]", BaseKind.QUADRATIC_CONE)
        by_group = {c.source_group: c for c in cone}
        node_cover = by_group[(2, 1)]
        assert node_cover.branch_symbol == "[2(11)]"
        assert node_cover.vertex_on_branch is VertexPosition.NODE
        off_covers = [c for c in cone if c.source_group == (1, 1)]
        assert len(off_covers) == 2
        assert all(c.branch_symbol == "[(21)1]" for c in off_covers)
        assert all(c.vertex_on_branch is VertexPosition.OFF_BRANCH for c in off_covers)

    def test_quadric_cover_count_equals_q_star(self):
        for sym in CATALOG_ORDER:
            got = len(covers_by_base(sym, BaseKind.SMOOTH_QUADRIC))
            assert got == SegreSymbol.parse(sym).unbracketed_ones()

    def test_rejects_non_catalog(self):
        with pytest.raises(ValueError):
            covers_of("[(32)]")

    def test_branch_weight_is_four(self):
        for sym in CATALOG_ORDER:
            for c in covers_of(sym):
                assert c.branch_symbol.weight == 4


class TestBranchDualDegree:
    @pytest.mark.parametrize(
        "branch,expected",
        [
            ("[1111]", 8),
            ("[11(11)]", 4),
            ("[22]", 4),
            ("[(11)(11)]", 0),
            ("[31]", 5),
            ("[4]", 4),
            ("[2(11)]", 2),
        ],
    )
    def test_component_sums(self, branch, expected):
        key = SegreSymbol.parse(branch).canonical().render()
        assert BRANCH_STRUCTURES[key].dual_degree == expected

    def test_self_intersection_counts(self):
        assert BRANCH_STRUCTURES["[1111]"].dual_double_conics == 4
        assert BRANCH_STRUCTURES["[211]"].dual_double_conics == 2
        assert BRANCH_STRUCTURES["[31]"].dual_double_conics == 1
        assert BRANCH_STRUCTURES["[22]"].dual_double_conics is None


class TestDualSection:
    def test_quadric_section(self):
        s = covers_by_base("[1112]", BaseKind.SMOOTH_QUADRIC)[0].section
        assert s.render() == "2*Q*(deg 2) + B*(deg 6)"
        assert s.total_degree == 10

    def test_cone_off_branch_section(self):
        s = covers_by_base("[(11)111]", BaseKind.QUADRATIC_CONE)[0].section
        assert s.render() == "B*(deg 8)"
        assert s.total_degree == 8

    def test_cone_node_section(self):
        s = covers_by_base("[(12)2]", BaseKind.QUADRATIC_CONE)[0].section
        assert s.render() == "B*(deg 4) + 2*v*(deg 1)"
        assert s.total_degree == 6

    def test_cone_singular_locus_section(self):
        s = covers_by_base("[(14)]", BaseKind.QUADRATIC_CONE)[0].section
        assert s.render() == "B*(deg 4) + v*(deg 1)"
        assert s.total_degree == 5

    def test_every_section_sums_to_class(self):
        for sym in CATALOG_ORDER:
            cls = CATALOG[sym].class_degree
            for c in covers_of(sym):
                assert c.section.total_degree == cls

    # a branch table entry of the wrong dual degree, 6 for [1111] where it
    # is 8, breaks the bookkeeping: each check names the symbol and numbers
    def test_a_section_off_the_class_is_refused(self, monkeypatch):
        monkeypatch.setitem(covers.BRANCH_STRUCTURES, "[1111]", BRANCH_STRUCTURES["[211]"])
        with pytest.raises(InternalConsistencyError) as info:
            covers_of("[11111]")
        assert str(info.value) == "section of [11111] sums to 10, class is 12"

    def test_a_cone_vertex_off_its_multiplicity_is_refused(self, monkeypatch):
        monkeypatch.setitem(covers.BRANCH_STRUCTURES, "[1111]", BRANCH_STRUCTURES["[211]"])
        with pytest.raises(InternalConsistencyError) as info:
            covers_of("[(11)111]")
        assert str(info.value) == "cone cover of [(11)111]: vertex multiplicity 2, expected 0"

    def test_sections_contain_only_known_components(self):
        # branch nodes away from the vertex never add a plane term
        allowed = {SectionComponent.Q_STAR, SectionComponent.B_STAR, SectionComponent.V_STAR}
        for sym in CATALOG_ORDER:
            for c in covers_of(sym):
                assert {t.component for t in c.section.terms} <= allowed

    def test_smooth_quadric_identity_all_rows(self):
        for sym in TABLE1_ORDER:
            cls = CATALOG[sym].class_degree
            for c in covers_by_base(sym, BaseKind.SMOOTH_QUADRIC):
                assert cls == 4 + c.branch_structure.dual_degree
