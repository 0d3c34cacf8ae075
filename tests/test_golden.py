"""Byte-identical reports: a pinned digest over a fixed set of pencils.

The digest covers the 16 catalog symbols at three seeds, the four normal
pairs with no nonsingular member, and one pencil with det V = 0 whose
analysis has to re-select a member.  Any change to a report's text, key
order or values changes the digest.  A second digest covers the exact
text written outside reports: each such pencil's JSON document, its two
equations and its determinant, and the ``segre normal-form`` document of
every catalog symbol at rational roots.  A third covers the reports
``classify_symbol`` builds for all 27 weight-5 exponent structures, off
the catalog too, and two more the ``segre catalog`` output.
"""

import contextlib
import copy
import hashlib
import io
import json
import pickle

import pytest

import segre.reporting
from segre.acceptance import _degenerate_pairs
from segre.catalog import CATALOG_ORDER, AutE, SingularityType
from segre.classify import SurfaceReport, _structure_report, classify_symbol
from segre.cli import main
from segre.forms import pencil_from_json, pencil_to_json, render_form
from segre.pencil import QuadricPencil, det_poly, diagonal
from segre.reporting import (
    _catalog_body,
    _report_body,
    analyze_pencil,
    outcome_to_dict,
    surface_report_to_dict,
)
from segre.symbol import Group, SegreSymbol, canonicalize, random_instance
from test_catalog import WEIGHT_FIVE

GOLDEN_SHA256 = "1e78350d14bb15695c614263fd5e7296db125fc2e1ba69f1747c3960ca71e78b"
DOCUMENTS_SHA256 = "150a76690316ab984b8186ed04d44e1613e51418cdfdf183ce7b8afb2c225649"
STRUCTURES_SHA256 = "63d6441951ae7b48e29a1b8f0040f9c182ccce143a879376ebe6f730d9fcf0b2"
CATALOG_SHA256 = {
    (): "66de6291b73b4386dc22e0cee41fd0446b0013e22f0a7583c657d8a733e10598",
    ("--pretty",): "ce865535b5f99ed5c6362d879f23c60e7f932bc44c224184166ca60b67835ce8",
}

# one rational root per group, as many as a symbol of weight 5 can have
ROOTS = "1/2,-3,7,11/3,5"


def golden_pencils():
    for sym in CATALOG_ORDER:
        for seed in range(3):
            yield random_instance(sym, seed)
    yield from _degenerate_pairs().values()
    yield QuadricPencil(diagonal([1, 2, 3, 4, 5]), diagonal([1, 1, 1, 1, 0]))


def golden_digest(pencils=None) -> str:
    h = hashlib.sha256()
    for p in golden_pencils() if pencils is None else pencils:
        h.update(json.dumps(outcome_to_dict(analyze_pencil(p)), indent=2).encode())
        h.update(b"\n")
    return h.hexdigest()


def test_reports_match_pinned_digest():
    assert golden_digest() == GOLDEN_SHA256


def normal_form_document(sym: str) -> str:
    roots = ",".join(ROOTS.split(",")[: len(canonicalize(sym).groups)])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["normal-form", sym, "--roots", roots]) == 0
    return out.getvalue()


def documents_digest() -> str:
    h = hashlib.sha256()
    for p in golden_pencils():
        texts = [pencil_to_json(p), render_form(p.u), render_form(p.v)]
        det = det_poly(p)
        if det:
            texts.append(str(det))
        for text in texts:
            h.update(text.encode())
            h.update(b"\n")
    for sym in CATALOG_ORDER:
        h.update(normal_form_document(sym).encode())
    return h.hexdigest()


def test_documents_match_pinned_digest():
    assert documents_digest() == DOCUMENTS_SHA256


def structures_digest() -> str:
    h = hashlib.sha256()
    for structure in WEIGHT_FIVE:
        r = classify_symbol(SegreSymbol([Group(e) for e in structure]))
        h.update(json.dumps(surface_report_to_dict(r), indent=2).encode())
        h.update(b"\n")
    return h.hexdigest()


def test_structure_reports_match_pinned_digest():
    # built afresh: neither the report nor its rendered body is cached
    _structure_report.cache_clear()
    _catalog_body.cache_clear()
    assert len(WEIGHT_FIVE) == 27
    assert structures_digest() == STRUCTURES_SHA256


@pytest.mark.parametrize("flags", list(CATALOG_SHA256))
def test_catalog_output_matches_pinned_digest(flags):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["catalog", *flags]) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == CATALOG_SHA256[flags]


def test_pencils_read_back_from_json_match_pinned_digest():
    # the same digest through the JSON writer and reader
    pencils = [pencil_from_json(pencil_to_json(p)) for p in golden_pencils()]
    assert pencils == list(golden_pencils())
    assert golden_digest(pencils) == GOLDEN_SHA256


def test_mutating_a_report_leaves_the_next_one_alone():
    # report dicts share a rendering per symbol; each caller gets its own copy
    p = random_instance("[11111]", 0)
    first = outcome_to_dict(analyze_pencil(p))
    want = json.dumps(first, indent=2)
    first["covers"][0]["branch_components"].append("x")
    first["covers"][1]["base"] = "x"
    first["covers"].pop()
    first["transitions"].clear()
    first["minitwistor"]["genus"] = 0
    assert json.dumps(outcome_to_dict(analyze_pencil(p)), indent=2) == want


def test_a_report_changed_past_its_symbol_is_rendered_as_it_is():
    # only reports as classify_symbol hands them out share a rendering
    r = classify_symbol("[2111]")
    doc = surface_report_to_dict(r.replace(notes=("changed",), transitions=()))
    assert doc["notes"] == ["changed"] and doc["transitions"] == []
    assert surface_report_to_dict(r)["transitions"] != []
    assert surface_report_to_dict(r)["notes"] == list(r.notes)


# one changed value for each field of a catalog report but its symbol
CHANGED = {
    "is_segre": False,
    "reason": "changed",
    "singularities": (SingularityType("A", 2),),
    "class_degree": 9,
    "q_star_count": 2,
    "lines_total": 7,
    "planes_in_dual": 3,
    "aut_e": AutE.C_STAR,
    "covers": (),
    "transitions": (),
    "genus": 2,
    "embedding_degree": 6,
    "notes": ("changed",),
}


def test_every_field_but_the_symbol_is_changed_once():
    assert list(CHANGED) == list(SurfaceReport.__match_args__[1:])


@pytest.mark.parametrize("field", list(CHANGED))
def test_a_report_changed_in_one_field_is_rendered_as_it_is(field):
    r = classify_symbol("[2111]")
    surface_report_to_dict(r)  # the shared body of [2111] is rendered
    changed = r.replace(**{field: CHANGED[field]})
    assert getattr(changed, field) != getattr(r, field)
    if field == "is_segre":
        want = {"symbol": "[2111]", "is_segre": False, "reason": None,
                "verdict": "not a Segre quartic surface"}
    else:
        want = {"symbol": "[2111]", **_report_body(changed)}
    assert json.dumps(surface_report_to_dict(changed), indent=2) == json.dumps(want, indent=2)


def test_a_report_built_equal_by_hand_shares_the_body(monkeypatch):
    r = classify_symbol("[2111]")
    want = json.dumps(surface_report_to_dict(r), indent=2)
    # equal fields that are not the same objects, given in reverse order
    hand = SurfaceReport(**{n: copy.deepcopy(v) for n, v in reversed(vars(r).items())})
    assert hand == r and hand.covers is not r.covers

    def rendered(report):
        raise AssertionError("a report equal to the catalog's was rendered again")

    monkeypatch.setattr(segre.reporting, "_report_body", rendered)
    assert json.dumps(surface_report_to_dict(hand), indent=2) == want


def test_outcomes_pickle_and_copy_to_the_same_report():
    # outcomes can be sent to worker processes and copied whole
    for p in golden_pencils():
        outcome = analyze_pencil(p)
        want = json.dumps(outcome_to_dict(outcome), indent=2)
        for copied in (pickle.loads(pickle.dumps(outcome)), copy.deepcopy(outcome)):
            assert copied == outcome
            assert json.dumps(outcome_to_dict(copied), indent=2) == want
            if copied.symbol is not None:
                assert copied.symbol.root_descriptions() == outcome.symbol.root_descriptions()
