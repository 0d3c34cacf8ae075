"""Double covers of catalog surfaces and sections of their dual varieties.

Every '1' entry of a catalog symbol induces a projection realizing the
surface as a finite double cover of a quadric in CP3: an unbracketed 1
gives a smooth quadric base, a bracketed 1 gives the cone over a conic.
The branch curve is again a complete intersection of two quadrics, whose
symbol follows by removing the 1 (and, for the cone case, unbracketing
what is left of its group).  Branch curves are classified by a weight-4
structural table; their dual-variety degrees combine with the class
formula into exact identities that this module asserts rather than trusts.
"""

from __future__ import annotations

from enum import Enum

from ._record import Record
from .catalog import VertexPosition, catalog_row
from .errors import InternalConsistencyError
from .symbol import Group, SegreSymbol, canonicalize

__all__ = [
    "BaseKind",
    "VertexPosition",
    "ComponentKind",
    "BranchStructure",
    "BRANCH_STRUCTURES",
    "SectionComponent",
    "SectionTerm",
    "SectionDivisor",
    "CoverReport",
    "covers_of",
]


class BaseKind(Enum):
    SMOOTH_QUADRIC = "smooth quadric"
    QUADRATIC_CONE = "quadratic cone"


class ComponentKind(Enum):
    """Irreducible component of a branch quartic, with its dual degree.

    Lines contribute nothing to the dual variety by convention; a rational
    normal cubic in CP3 has dual degree 4, a conic 2, and the three
    irreducible quartics (smooth elliptic, 1-nodal, 1-cuspidal) have 8, 6
    and 5 respectively.
    """

    ELLIPTIC = ("elliptic quartic", 8)
    NODAL_RATIONAL = ("1-nodal rational quartic", 6)
    CUSPIDAL_RATIONAL = ("1-cuspidal rational quartic", 5)
    CONIC = ("conic", 2)
    LINE = ("line", 0)
    RATIONAL_NORMAL_CUBIC = ("twisted cubic", 4)

    def __init__(self, label: str, dual_degree: int):
        self.label = label
        self.dual_degree = dual_degree


class BranchStructure(Record):
    """Component list plus how the components meet.

    ``dual_double_conics`` counts the conics along which the dual of an
    irreducible branch quartic intersects itself (4, 2 or 1 for the
    elliptic, nodal and cuspidal curves); None for reducible branches.
    """

    components: tuple[ComponentKind, ...]
    configuration: str
    dual_double_conics: int | None = None

    @property
    def dual_degree(self) -> int:
        return sum(c.dual_degree for c in self.components)


_K = ComponentKind

# Weight-4 symbols of branch curves, canonical rendering -> structure.
# The same table serves smooth-quadric and cone bases: the component
# structure of a quartic pencil intersection in CP3 depends only on its
# symbol, not on which quadric of its pencil the curve is projected to.
BRANCH_STRUCTURES: dict[str, BranchStructure] = {
    "[1111]": BranchStructure((_K.ELLIPTIC,), "smooth elliptic curve", 4),
    "[211]": BranchStructure((_K.NODAL_RATIONAL,), "rational curve with one node", 2),
    "[31]": BranchStructure((_K.CUSPIDAL_RATIONAL,), "rational curve with one cusp", 1),
    "[(11)11]": BranchStructure(
        (_K.CONIC, _K.CONIC), "two conics meeting transversally at two points"
    ),
    "[(21)1]": BranchStructure((_K.CONIC, _K.CONIC), "two conics touching at one point"),
    "[22]": BranchStructure(
        (_K.LINE, _K.RATIONAL_NORMAL_CUBIC),
        "line and twisted cubic meeting transversally at two points",
    ),
    "[4]": BranchStructure(
        (_K.LINE, _K.RATIONAL_NORMAL_CUBIC), "line and twisted cubic touching at one point"
    ),
    "[2(11)]": BranchStructure(
        (_K.LINE, _K.LINE, _K.CONIC), "two lines and a conic forming a triangle"
    ),
    "[(31)]": BranchStructure(
        (_K.LINE, _K.LINE, _K.CONIC), "two lines and a conic through one common point"
    ),
    "[(11)(11)]": BranchStructure((_K.LINE,) * 4, "four lines forming a quadrilateral"),
}


class SectionComponent(Enum):
    Q_STAR = "Q*"  # dual of the smooth quadric base
    B_STAR = "B*"  # dual of the branch curve
    V_STAR = "v*"  # dual 2-plane of the cone vertex


class SectionTerm(Record):
    component: SectionComponent
    multiplicity: int
    degree: int


class SectionDivisor(Record):
    """The hyperplane section of the dual variety cut by the projection
    center's dual hyperplane, as a divisor."""

    terms: tuple[SectionTerm, ...]

    @property
    def total_degree(self) -> int:
        return sum(t.multiplicity * t.degree for t in self.terms)

    def render(self) -> str:
        parts = []
        for t in self.terms:
            head = f"{t.multiplicity}*" if t.multiplicity != 1 else ""
            parts.append(f"{head}{t.component.value}(deg {t.degree})")
        return " + ".join(parts)


class CoverReport(Record):
    """One double-cover structure of a catalog surface."""

    base: BaseKind
    source_entry: int  # flat index of the removed 1 in the canonical symbol
    source_group: tuple[int, ...]
    branch_symbol: SegreSymbol
    branch_structure: BranchStructure
    vertex_on_branch: VertexPosition
    section: SectionDivisor | None = None


# A bracketed group less its 1 -> where the cone vertex lies on the branch,
# and the multiplicity m that its dual plane v* is forced to take in the section.
_CONE_VERTEX = {
    (1,): (VertexPosition.OFF_BRANCH, 0),
    (2,): (VertexPosition.NODE, 2),
    (3,): (VertexPosition.CUSP, 1),
    (4,): (VertexPosition.IS_SINGULAR_LOCUS, 1),
}


def covers_of(s: SegreSymbol | str) -> list[CoverReport]:
    """One cover per '1' entry of a catalog symbol, sections attached.

    Entries are scanned in canonical symbol order; equal-root unbracketed
    1s give symbol-identical covers and are still listed once per entry.
    [32] and [5] contain no 1 and admit no cover.  The symbol's catalog
    row is read once, and each cover is built once, with its section.

    The section is the dual-variety divisor cut by the cover's hyperplane.
    Smooth-quadric base: 2Q* + B* (the dual variety has ordinary double
    points along Q*).  Cone base: B* + m*v* (B* alone when m = 0), where
    m = class - deg B* is forced by the vertex: 0 off the branch, 2 at a
    node, 1 at a cusp or the branch's unique singular point.  Nodes of the
    branch away from the vertex never contribute a plane.
    """
    sym = canonicalize(s)
    cls = catalog_row(sym).class_degree  # NotInCatalogError for non-catalog symbols
    reports: list[CoverReport] = []
    entry = 0
    for gi, group in enumerate(sym.groups):
        for e in group.exponents:
            if e == 1:
                others = [g for gj, g in enumerate(sym.groups) if gj != gi]
                if not group.bracketed:
                    branch = SegreSymbol(others).canonical()
                    base = BaseKind.SMOOTH_QUADRIC
                    vertex, forced = VertexPosition.NOT_APPLICABLE, None
                else:
                    rest = list(group.exponents)
                    rest.remove(1)
                    branch = SegreSymbol(others + [Group(tuple(rest))]).canonical()
                    base = BaseKind.QUADRATIC_CONE
                    cone = _CONE_VERTEX.get(tuple(rest))
                    if cone is None:
                        raise InternalConsistencyError(
                            f"unexpected bracketed group {group.exponents} in {sym.render()}"
                        )
                    vertex, forced = cone
                structure = BRANCH_STRUCTURES.get(branch.render())
                if structure is None:
                    raise InternalConsistencyError(
                        f"no structural table entry for branch {branch.render()}"
                    )
                reports.append(
                    CoverReport(
                        base=base,
                        source_entry=entry,
                        source_group=group.exponents,
                        branch_symbol=branch,
                        branch_structure=structure,
                        vertex_on_branch=vertex,
                        section=_section(sym, cls, structure, forced),
                    )
                )
            entry += 1
    return reports


def _section(
    sym: SegreSymbol, cls: int, branch: BranchStructure, forced: int | None
) -> SectionDivisor:
    """The section of a cover of the canonical catalog symbol ``sym``, of
    class ``cls``, with this branch: over a smooth quadric when ``forced``
    is None, else over a cone whose v* multiplicity must be ``forced``."""
    bdd = branch.dual_degree
    if forced is None:
        terms = (
            SectionTerm(SectionComponent.Q_STAR, 2, 2),
            SectionTerm(SectionComponent.B_STAR, 1, bdd),
        )
    else:
        m = cls - bdd
        if m != forced:
            raise InternalConsistencyError(
                f"cone cover of {sym.render()}: vertex multiplicity {m}, expected {forced}"
            )
        terms = (SectionTerm(SectionComponent.B_STAR, 1, bdd),)
        if m:
            terms += (SectionTerm(SectionComponent.V_STAR, m, 1),)
    section = SectionDivisor(terms)
    if section.total_degree != cls:
        raise InternalConsistencyError(
            f"section of {sym.render()} sums to {section.total_degree}, class is {cls}"
        )
    return section
