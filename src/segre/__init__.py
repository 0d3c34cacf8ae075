"""Exact analysis of pencils of quadrics in CP4.

The package computes Segre symbols of rational quadric pencils without
root finding, decides whether the base locus is a quartic surface of the
sixteen-symbol catalog, and derives the surface's dual-variety report:
singularities, class degree, double covers with branch curves, divisors
at infinity and degeneration transitions.  A floating-point oracle
cross-validates the exact path.
"""

from .catalog import (
    CATALOG,
    CATALOG_ORDER,
    AutE,
    CatalogRow,
    SingularityType,
    class_degree,
    transitions,
)
from .classify import SurfaceReport, classify_symbol
from .covers import (
    BaseKind,
    BranchStructure,
    CoverReport,
    SectionDivisor,
    VertexPosition,
    covers_of,
)
from .errors import (
    DegeneratePencilError,
    DegreeError,
    IllConditionedError,
    InternalConsistencyError,
    NoSmoothMemberError,
    NotInCatalogError,
    ParseError,
    PencilError,
    SegreError,
    SizeLimitError,
    ZeroFormError,
)
from .forms import ParsedForm, parse_quadratic_form, render_form
from .pencil import (
    MAX_SIZE,
    DegeneracyReport,
    InvariantFactors,
    QuadricPencil,
    degeneracy_report,
    det_poly,
    invariant_factors,
    select_nonsingular_member,
)
from .polynomial import Polynomial, Rational, coprime_basis
from .reporting import analyze_pencil
from .symbol import (
    SegreSymbol,
    build_normal_form,
    canonicalize,
    compute_symbol,
    random_instance,
)

__version__ = "0.1.0"


def __getattr__(name: str):
    # the numeric oracle is imported on first use: segre analyze never needs it
    if name == "numeric_exponent_partitions":
        from . import numeric

        value = globals()[name] = getattr(numeric, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
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
    "ParseError",
    "ParsedForm",
    "PencilError",
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
    "invariant_factors",
    "numeric_exponent_partitions",
    "parse_quadratic_form",
    "random_instance",
    "render_form",
    "select_nonsingular_member",
    "transitions",
]
