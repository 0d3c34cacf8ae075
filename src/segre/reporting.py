"""Orchestration of the full analysis pipeline and report serialization.

Reports are plain dicts with a fixed key order so that identical inputs
always serialize to byte-identical JSON.
"""

from __future__ import annotations

import marshal
from functools import cache
from operator import itemgetter

from ._record import Record
from .classify import SurfaceReport, _structure_report, classify_symbol
from .covers import CoverReport
from .errors import NoSmoothMemberError, ParseError
from .pencil import (
    DegeneracyReport,
    QuadricPencil,
    _chain,
    _selected_classes,
    degeneracy_report,
)
from .polynomial import _poly_str
from .symbol import SegreSymbol, _symbol_from_classes

__all__ = ["AnalysisOutcome", "analyze_pencil", "outcome_to_dict", "render_pretty"]


class AnalysisOutcome(Record):
    """Either a surface report or a degeneracy report, never both."""

    surface: SurfaceReport | None = None
    degeneracy: DegeneracyReport | None = None
    symbol: SegreSymbol | None = None
    invariant_factors: tuple[str, ...] = ()
    determinant: str | None = None

    @property
    def is_degenerate(self) -> bool:
        return self.degeneracy is not None

    @property
    def is_segre(self) -> bool:
        return self.surface is not None and self.surface.is_segre


def analyze_pencil(p: QuadricPencil) -> AnalysisOutcome:
    """Member selection, invariant factors, symbol, catalog report.

    The determinant and the invariant factors are those of the pencil
    ``select_nonsingular_member(p)`` returns; both come from that
    pencil's one expansion of det(U - t*V), and both stay integer lists
    until they are rendered into the report.  A constant factor is written
    "1" as it is.  When the polynomial of the symbol's one group is the
    last invariant factor, as for an irreducible determinant, the factor's
    text is the root descriptors' text.
    """
    try:
        det, den, classes = _selected_classes(p)
    except NoSmoothMemberError:
        return AnalysisOutcome(degeneracy=degeneracy_report(p))
    chain = _chain(classes, p.size)
    sym, top = _symbol_from_classes(classes, chain[-1])
    texts = [_poly_str(d, d[-1]) if len(d) > 1 else "1" for d in chain[:-1]]
    texts.append(str(top) if top is not None else _poly_str(chain[-1], chain[-1][-1]))
    return AnalysisOutcome(
        surface=classify_symbol(sym),
        symbol=sym,
        invariant_factors=tuple(texts),
        determinant=_poly_str(det, den),
    )


def _cover_to_dict(c: CoverReport) -> dict:
    return {
        "base": c.base.value,
        "source_entry": c.source_entry,
        "branch_symbol": c.branch_symbol.render(),
        "branch_components": [comp.label for comp in c.branch_structure.components],
        "branch_configuration": c.branch_structure.configuration,
        "branch_dual_degree": c.branch_structure.dual_degree,
        "dual_double_conics": c.branch_structure.dual_double_conics,
        "vertex": c.vertex_on_branch.value,
        "section": c.section.render() if c.section else None,
    }


def _report_body(r: SurfaceReport) -> dict:
    """Every key of a Segre surface's report but ``symbol``, in order."""
    return {
        "is_segre": True,
        "verdict": "Segre quartic surface",
        "singularities": [str(s) for s in r.singularities],
        "class_degree": r.class_degree,
        "q_star_count": r.q_star_count,
        "lines_total": r.lines_total,
        "planes_in_dual": r.planes_in_dual,
        "aut_e": r.aut_e.value,
        "minitwistor": {
            "genus": r.genus,
            "embedding_degree": r.embedding_degree,
            "hyperplane_class": "anticanonical",
        },
        "covers": [_cover_to_dict(c) for c in r.covers],
        "transitions": [t.render() for t in r.transitions],
        "notes": list(r.notes),
    }


# every field of a SurfaceReport but the symbol, its first, as one tuple
_fields = itemgetter(*SurfaceReport.__match_args__[1:])


@cache
def _catalog_body(structure: tuple[tuple[int, ...], ...]) -> tuple[tuple, bytes | None]:
    """The fields but the symbol of the report ``classify_symbol`` caches
    for one structure and, for a Segre surface, its body as marshal bytes:
    loading them is a deep copy at C speed."""
    r = _structure_report(structure)
    return _fields(vars(r)), marshal.dumps(_report_body(r)) if r.is_segre else None


def surface_report_to_dict(r: SurfaceReport) -> dict:
    """The report dict of ``r``; the caller may mutate it.

    ``classify_symbol`` hands out one report per exponent structure, with
    the caller's symbol, so a report whose every field but the symbol is
    the cached report's, or equal to it (one tuple comparison), gets the
    body rendered once per structure, as a fresh copy for each caller.
    Any other report is rendered as it is.  An ``r`` that is not a
    ``SurfaceReport``, or whose symbol is not a ``SegreSymbol``, raises
    ``ParseError``.
    """
    if not isinstance(r, SurfaceReport):
        raise ParseError(f"report must be a SurfaceReport, got {type(r).__name__}")
    if not isinstance(r.symbol, SegreSymbol):
        raise ParseError(f"report symbol must be a SegreSymbol, got {type(r.symbol).__name__}")
    symbol = r.symbol.render()
    if not r.is_segre:
        return {
            "symbol": symbol,
            "is_segre": False,
            "reason": r.reason,
            "verdict": "not a Segre quartic surface",
        }
    fields, body = _catalog_body(r.symbol.exponent_structure())
    if _fields(vars(r)) == fields:
        return {"symbol": symbol, **marshal.loads(body)}
    return {"symbol": symbol, **_report_body(r)}


def outcome_to_dict(o: AnalysisOutcome) -> dict:
    """The report dict of an outcome; the caller may mutate it.  An ``o``
    that is not an ``AnalysisOutcome``, one that holds neither report, or
    one with a field of the wrong type raises ``ParseError``."""
    if not isinstance(o, AnalysisOutcome):
        raise ParseError(f"outcome must be an AnalysisOutcome, got {type(o).__name__}")
    if o.is_degenerate:
        d = o.degeneracy
        if not isinstance(d, DegeneracyReport):
            raise _wrong_field("degeneracy", "a DegeneracyReport", d)
        return {
            "is_segre": False,
            "degenerate_pencil": True,
            "common_kernel_dim": d.common_kernel_dim,
            "cone": d.is_cone,
            "verdict": d.verdict,
        }
    doc = surface_report_to_dict(o.surface)
    symbol, factors, det = o.symbol, o.invariant_factors, o.determinant
    if symbol is not None:
        if not isinstance(symbol, SegreSymbol):
            raise _wrong_field("symbol", "a SegreSymbol", symbol)
        doc["roots"] = symbol.root_descriptions()
    if not isinstance(factors, (tuple, list)):
        raise _wrong_field("invariant_factors", "a tuple of str", factors)
    for f in factors:
        if type(f) is not str:
            raise _wrong_field("invariant_factors item", "a str", f)
    if det is not None and type(det) is not str:
        raise _wrong_field("determinant", "a str", det)
    doc["invariant_factors"] = list(factors)
    doc["determinant"] = det
    return doc


def _wrong_field(field: str, wanted: str, got) -> ParseError:
    return ParseError(f"outcome {field} must be {wanted}, got {type(got).__name__}")


def render_pretty(doc: dict) -> str:
    """Human-oriented rendering of a report dict; a ``doc`` that is not a
    ``dict`` raises ``ParseError``."""
    if not isinstance(doc, dict):
        raise ParseError(f"report must be a dict, got {type(doc).__name__}")
    lines: list[str] = []

    def emit(key: str, value, indent: int = 0):
        pad = "  " * indent
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            for k, v in value.items():
                emit(k, v, indent + 1)
        elif isinstance(value, list) and value and all(isinstance(v, dict) for v in value):
            lines.append(f"{pad}{key}:")
            for i, v in enumerate(value):
                lines.append(f"{pad}  - #{i}")
                for k, vv in v.items():
                    emit(k, vv, indent + 2)
        else:
            if isinstance(value, list):
                value = ", ".join(str(v) for v in value) if value else "none"
            lines.append(f"{pad}{key}: {value}")

    for k, v in doc.items():
        emit(k, v)
    return "\n".join(lines)
