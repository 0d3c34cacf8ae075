"""The public names of the ``segre`` package, frozen: a name added or
removed here is an API change and belongs in README and CHANGES.md."""

import pytest

import segre
from segre.catalog import catalog_row
from segre.errors import NotInCatalogError, ParseError, SegreError

PUBLIC = [
    "AutE",
    "BaseKind",
    "BranchStructure",
    "CATALOG",
    "CATALOG_ORDER",
    "CatalogRow",
    "CoverReport",
    "DegeneracyReport",
    "DegeneratePencilError",
    "DegreeError",
    "IllConditionedError",
    "InternalConsistencyError",
    "InvariantFactors",
    "MAX_SIZE",
    "NoSmoothMemberError",
    "NotInCatalogError",
    "NumericPartition",
    "ParseError",
    "ParsedForm",
    "Polynomial",
    "QuadricPencil",
    "Rational",
    "SectionDivisor",
    "SegreError",
    "SegreSymbol",
    "SingularityType",
    "SizeLimitError",
    "SurfaceReport",
    "VertexPosition",
    "ZeroFormError",
    "analyze_pencil",
    "build_normal_form",
    "canonicalize",
    "class_degree",
    "classify_symbol",
    "compute_symbol",
    "coprime_basis",
    "covers_of",
    "degeneracy_report",
    "det_poly",
    "dual_section",
    "invariant_factors",
    "numeric_exponent_partitions",
    "parse_quadratic_form",
    "random_instance",
    "render_form",
    "select_nonsingular_member",
    "transitions",
]


def test_public_names_are_frozen():
    assert sorted(segre.__all__) == PUBLIC


def test_every_public_name_resolves():
    # NumericPartition and numeric_exponent_partitions load on first read
    assert [name for name in PUBLIC if getattr(segre, name, None) is None] == []


@pytest.mark.parametrize("name", ["poly_gcd", "squarefree_part"])
def test_removed_names_are_gone(name):
    with pytest.raises(AttributeError):
        getattr(segre, name)


# every public callable that takes symbol text, and malformed texts for it
SYMBOL_CALLABLES = {
    "classify_symbol": segre.classify_symbol,
    "canonicalize": segre.canonicalize,
    "transitions": segre.transitions,
    "covers_of": segre.covers_of,
    "random_instance": lambda s: segre.random_instance(s, 0),
    "build_normal_form": lambda s: segre.build_normal_form(s, [1]),
}
MALFORMED_SYMBOLS = ["", "[", "[]", "[0]", "[x1]", "11"]


@pytest.mark.parametrize("text", MALFORMED_SYMBOLS)
@pytest.mark.parametrize("name", sorted(SYMBOL_CALLABLES))
def test_malformed_symbol_text_raises_parse_error(name, text):
    with pytest.raises(ParseError) as direct:
        segre.SegreSymbol.parse(text)
    with pytest.raises(SegreError) as info:
        SYMBOL_CALLABLES[name](text)
    assert type(info.value) is ParseError and isinstance(info.value, ValueError)
    assert str(info.value) == str(direct.value)


# every public lookup that needs a catalog row, and well-formed symbols off it
CATALOG_CALLABLES = {
    "transitions": segre.transitions,
    "covers_of": segre.covers_of,
    "catalog.catalog_row": catalog_row,
}


@pytest.mark.parametrize("text", ["[(111)11]", "[11]"])
@pytest.mark.parametrize("name", sorted(CATALOG_CALLABLES))
def test_symbol_off_the_catalog_raises_not_in_catalog_error(name, text):
    with pytest.raises(SegreError) as info:
        CATALOG_CALLABLES[name](text)
    assert type(info.value) is NotInCatalogError and isinstance(info.value, ValueError)
    assert str(info.value) == f"{text} is not one of the 16 catalog symbols"


def test_symbol_compares_unequal_to_malformed_text():
    sym = segre.SegreSymbol.parse("[1]")
    assert (sym == "abc") is False
    assert ("abc" in [sym]) is False
    assert (sym != "abc") is True
    assert sym == "[1]"
