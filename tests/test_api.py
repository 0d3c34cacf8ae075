"""The public names of the ``segre`` package, frozen: a name added or
removed here is an API change and belongs in README and CHANGES.md."""

import pytest

import segre

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
