"""Full classification reports for weight-5 Segre symbols."""

from __future__ import annotations

from functools import cache

from ._record import Record
from .catalog import CATALOG, AutE, SingularityType, transitions
from .covers import BaseKind, CoverReport, covers_of
from .errors import SizeLimitError
from .symbol import Group, SegreSymbol, _canonical_symbol, canonicalize

__all__ = ["SurfaceReport", "classify_symbol"]


class SurfaceReport(Record):
    """Everything the catalog knows about one symbol.

    ``genus`` and ``embedding_degree`` record the surface's life as a
    genus-one minitwistor space: hyperplane sections are anticanonical and
    the embedding degree is 2 + 2*genus = 4.
    """

    symbol: SegreSymbol
    is_segre: bool
    reason: str | None = None
    singularities: tuple[SingularityType, ...] = ()
    class_degree: int | None = None
    q_star_count: int = 0
    lines_total: int | None = None
    planes_in_dual: int | None = None
    aut_e: AutE | None = None
    covers: tuple[CoverReport, ...] = ()
    transitions: tuple[SegreSymbol, ...] = ()
    genus: int = 1
    embedding_degree: int = 4
    notes: tuple[str, ...] = ()


def _rejection_reason(s: SegreSymbol) -> str:
    # every bracketed group of a catalog symbol has two exponents, one a 1
    if any(len(g.exponents) >= 3 for g in s.groups):
        return "reducible"
    return "cone"


def classify_symbol(s: SegreSymbol | str) -> SurfaceReport:
    """Report for a weight-5 symbol; is_segre is False off the catalog.

    Catalog rows carry the tabulated singularities, counts and covers,
    with the class degree recomputed from the singularity list.  Off the
    catalog the reason distinguishes a cone over a quartic curve (a
    bracketed group with no 1 in it) from a reducible intersection (a
    bracketed group of three or more entries).

    The report depends only on the exponent structure, so it is built once
    per structure (at most 27 of weight 5) and handed out with the
    caller's symbol, root descriptors included: a new report that takes
    the cached one's fields as they are, with no second pass through the
    constructor.
    """
    sym = canonicalize(s)
    structure = sym.exponent_structure()
    if sum(map(sum, structure)) != 5:  # the weight
        raise SizeLimitError(f"classification needs a weight-5 symbol, got {sym.render()[:40]}")
    r = object.__new__(SurfaceReport)
    vars(r).update(vars(_structure_report(structure)), symbol=sym)
    return r


@cache
def _structure_report(structure: tuple[tuple[int, ...], ...]) -> SurfaceReport:
    """The report of one exponent structure, in canonical order.  Its
    symbol is made canonical, so the covers and transitions never sort or
    render it again, and its catalog row is read once."""
    sym = _canonical_symbol([Group(exps) for exps in structure])
    row = CATALOG.get(sym.render())
    if row is None:
        return SurfaceReport(symbol=sym, is_segre=False, reason=_rejection_reason(sym))

    notes: list[str] = []
    if row.printed_class_discrepancy is not None:
        notes.append(
            f"tabulated class {row.printed_class_discrepancy} disagrees with the "
            f"class formula; {row.class_degree} is stored (the degeneration "
            f"narrative confirms it)"
        )
    covers = tuple(covers_of(sym))
    if any(c.base is BaseKind.QUADRATIC_CONE for c in covers):
        notes.append(
            "cone-cover branch structures come from the weight-4 structural table"
        )
    return SurfaceReport(
        symbol=sym,
        is_segre=True,
        singularities=row.singularities,
        class_degree=row.class_degree,
        q_star_count=sym.unbracketed_ones(),
        lines_total=row.lines_total,
        planes_in_dual=row.planes_in_dual,
        aut_e=row.aut_e,
        covers=covers,
        transitions=tuple(transitions(sym)),
        notes=tuple(notes),
    )
