"""The quartic-surface catalog: 16 admissible symbols and their data.

A weight-5 Segre symbol describes a quartic surface exactly when every
bracketed group has two exponents one of which is 1; the sixteen such
symbols are tabulated here with their singularities, line counts, dual
2-plane counts and automorphism data.  The class degree (the degree of the
projective dual variety) is never stored: it is recomputed from the
singularity list through the elliptic-fibration Euler-number formula

    class = 12 - sum of euler numbers,   e(A_n) = n+1, e(D_n) = n+2,

which cross-checks every tabulated row.  One tabulated value disagrees
with this formula ([2111], printed as 8 where the formula and the
degeneration narrative give 10); the row carries the printed value as a
flagged discrepancy and the catalog stores 10.
"""

from __future__ import annotations

from enum import Enum

from ._record import Record
from .errors import NotInCatalogError, ParseError, SizeLimitError
from .symbol import SegreSymbol, canonicalize

__all__ = [
    "SingularityType",
    "AutE",
    "CatalogRow",
    "Table2Row",
    "VertexPosition",
    "class_degree",
    "CATALOG",
    "CATALOG_ORDER",
    "TABLE1_ORDER",
    "TABLE2_ROWS",
    "TABLE3_ORDER",
    "catalog_row",
    "transitions",
    "TRANSITIONS",
]


class SingularityType(Record):
    """A rational double point of type A_n (1 <= n < 10^40, the indices
    ``parse`` reads) or D_n (n in {4, 5}).  Any other family or index
    raises ``ParseError``."""

    family: str
    index: int

    def __post_init__(self):
        family, index = self.family, self.index
        if not isinstance(family, str) or family not in ("A", "D"):
            shown = repr(family[:40]) if isinstance(family, str) else f"of type {type(family).__name__}"
            raise ParseError(f"unknown singularity family {shown}")
        if type(index) is not int:
            raise ParseError(f"singularity index must be an int, got {type(index).__name__}")
        if family == "A" and index < 1:
            raise ParseError(f"A_n needs n >= 1, got {_shown(index)}")
        if family == "A" and index >= 10**40:  # str() of it could pass the int-str limit
            raise ParseError(f"A_n needs n < 10^40, got {_shown(index)}")
        if family == "D" and index not in (4, 5):
            raise ParseError(f"D_n supported for n in 4..5, got {_shown(index)}")

    @property
    def euler(self) -> int:
        """Euler number of the extended-Dynkin elliptic fiber over the point."""
        return self.index + 1 if self.family == "A" else self.index + 2

    @classmethod
    def parse(cls, text: str) -> "SingularityType":
        """``A1``, ``D4``: a family letter and its index in ASCII digits;
        other text raises ``ParseError``."""
        if not isinstance(text, str):
            raise ParseError(f"singularity type must be text, got {type(text).__name__}")
        digits = text[1:]
        if not (digits.isascii() and digits.isdigit()) or len(digits) > 40:
            raise ParseError(f"bad singularity type {text[:40]!r}")
        return cls(text[0], int(digits))

    def __str__(self) -> str:
        return f"{self.family}{self.index}"


def _shown(n: int) -> str:
    """``n`` as a message writes it: in full below 10^40, else by its bit length."""
    return str(n) if -10**40 < n < 10**40 else f"an int of {n.bit_length()} bits"


def _A(n: int) -> SingularityType:
    return SingularityType("A", n)


def _D(n: int) -> SingularityType:
    return SingularityType("D", n)


class AutE(Enum):
    """Identity component of the automorphism group, as tabulated."""

    TRIVIAL = "{id}"
    C_STAR = "C*"
    C_STAR_SQUARED = "C*xC*"
    C_STAR_OR_TRIVIAL = "C* or {id}"


def class_degree(singularities: tuple[SingularityType, ...] | list[SingularityType]) -> int:
    """Degree of the dual variety: 12 minus the fiber Euler numbers.  An
    item that is not a ``SingularityType`` raises ``ParseError``, and Euler
    numbers that sum past 12 ``SizeLimitError``."""
    for s in singularities if isinstance(singularities, (tuple, list)) else (singularities,):
        if type(s) is not SingularityType:
            raise ParseError(f"singularities must be SingularityType values, got {type(s).__name__}")
    total = sum(s.euler for s in singularities)
    if total > 12:
        raise SizeLimitError(f"euler numbers sum to {_shown(total)} > 12")
    return 12 - total


class CatalogRow(Record):
    symbol: str
    singularities: tuple[SingularityType, ...]
    lines_total: int
    planes_in_dual: int
    aut_e: AutE
    # value printed in the source table when it contradicts the class formula
    printed_class_discrepancy: int | None = None

    @property
    def class_degree(self) -> int:
        return class_degree(self.singularities)


CATALOG: dict[str, CatalogRow] = {
    row.symbol: row
    for row in (
        CatalogRow("[11111]", (), 16, 16, AutE.TRIVIAL),
        CatalogRow("[2111]", (_A(1),), 12, 8, AutE.TRIVIAL, printed_class_discrepancy=8),
        CatalogRow("[(11)111]", (_A(1), _A(1)), 8, 0, AutE.C_STAR),
        CatalogRow("[311]", (_A(2),), 8, 4, AutE.TRIVIAL),
        CatalogRow("[221]", (_A(1), _A(1)), 9, 4, AutE.TRIVIAL),
        CatalogRow("[2(11)1]", (_A(1), _A(1), _A(1)), 6, 0, AutE.C_STAR),
        CatalogRow("[(21)11]", (_A(3),), 4, 0, AutE.TRIVIAL),
        CatalogRow("[(11)(11)1]", (_A(1), _A(1), _A(1), _A(1)), 4, 0, AutE.C_STAR_SQUARED),
        CatalogRow("[41]", (_A(3),), 5, 2, AutE.C_STAR),
        CatalogRow("[(31)1]", (_D(4),), 2, 0, AutE.C_STAR_OR_TRIVIAL),
        CatalogRow("[3(11)]", (_A(1), _A(1), _A(2)), 4, 0, AutE.C_STAR_SQUARED),
        CatalogRow("[32]", (_A(1), _A(2)), 6, 3, AutE.C_STAR),
        CatalogRow("[(21)2]", (_A(1), _A(3)), 3, 0, AutE.C_STAR),
        CatalogRow("[(21)(11)]", (_A(1), _A(1), _A(3)), 2, 0, AutE.C_STAR_SQUARED),
        CatalogRow("[5]", (_A(4),), 3, 1, AutE.C_STAR),
        CatalogRow("[(41)]", (_D(5),), 1, 0, AutE.C_STAR_OR_TRIVIAL),
    )
}

CATALOG_ORDER: tuple[str, ...] = tuple(CATALOG)

# Rows realizable as a double cover over a smooth quadric, in table order.
TABLE1_ORDER: tuple[str, ...] = (
    "[11111]",
    "[2111]",
    "[(11)111]",
    "[2(11)1]",
    "[(11)(11)1]",
    "[311]",
    "[221]",
    "[(21)11]",
    "[41]",
    "[(31)1]",
)


class VertexPosition(Enum):
    """Position of the cone vertex relative to the branch curve."""

    NOT_APPLICABLE = "n/a"
    OFF_BRANCH = "off branch"
    NODE = "node of branch"
    CUSP = "cusp of branch"
    IS_SINGULAR_LOCUS = "the singular point of branch"


class Table2Row(Record):
    """One cone-cover row: the bracketed group supplying the removed 1
    identifies the projection when a symbol admits more than one."""

    symbol: str
    source_group: tuple[int, ...]
    vertex: VertexPosition


# Rows realizable as a double cover over a quadratic cone, in table order.
# [(21)(11)] appears twice: the two bracketed-1 choices give different
# projections of the same surface.
TABLE2_ROWS: tuple[Table2Row, ...] = (
    Table2Row("[(11)111]", (1, 1), VertexPosition.OFF_BRANCH),
    Table2Row("[(21)11]", (2, 1), VertexPosition.NODE),
    Table2Row("[2(11)1]", (1, 1), VertexPosition.OFF_BRANCH),
    Table2Row("[(11)(11)1]", (1, 1), VertexPosition.OFF_BRANCH),
    Table2Row("[3(11)]", (1, 1), VertexPosition.OFF_BRANCH),
    Table2Row("[(31)1]", (3, 1), VertexPosition.CUSP),
    Table2Row("[(21)2]", (2, 1), VertexPosition.NODE),
    Table2Row("[(21)(11)]", (2, 1), VertexPosition.NODE),
    Table2Row("[(21)(11)]", (1, 1), VertexPosition.OFF_BRANCH),
    Table2Row("[(41)]", (4, 1), VertexPosition.IS_SINGULAR_LOCUS),
)

# Rows with no double-cover structure at all.
TABLE3_ORDER: tuple[str, ...] = ("[32]", "[5]")


def catalog_row(s: SegreSymbol | str) -> CatalogRow:
    key = canonicalize(s).render()
    row = CATALOG.get(key)
    if row is None:
        raise NotInCatalogError(f"{key[:40]} is not one of the 16 catalog symbols")
    return row


# Degeneration edges: class drops along every edge except [3(11)] -> [(31)1],
# where it rises from 5 to 6.
TRANSITIONS: dict[str, tuple[str, ...]] = {
    "[11111]": ("[2111]",),
    "[2111]": ("[311]", "[(11)111]"),
    "[(11)111]": ("[2(11)1]",),
    "[2(11)1]": ("[(11)(11)1]",),
    "[221]": ("[41]",),
    "[3(11)]": ("[(31)1]",),
    "[(21)2]": ("[(41)]",),
}


def transitions(s: SegreSymbol | str) -> list[SegreSymbol]:
    """Adjacent degenerations of a catalog symbol (may be empty); a symbol
    off the catalog raises ``NotInCatalogError``, as in ``catalog_row``."""
    return [SegreSymbol.parse(t) for t in TRANSITIONS.get(catalog_row(s).symbol, ())]
