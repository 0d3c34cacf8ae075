"""Byte-identical reports: a pinned digest over a fixed set of pencils.

The digest covers the 16 catalog symbols at three seeds, the four normal
pairs with no nonsingular member, and one pencil with det V = 0 whose
analysis has to re-select a member.  Any change to a report's text, key
order or values changes the digest.  A second digest covers the exact
text written outside reports: each such pencil's JSON document, its two
equations and its determinant, and the ``segre normal-form`` document of
every catalog symbol at rational roots.
"""

import contextlib
import copy
import hashlib
import io
import json
import pickle

from segre.acceptance import _degenerate_pairs
from segre.catalog import CATALOG_ORDER
from segre.classify import classify_symbol
from segre.cli import main
from segre.forms import pencil_from_json, pencil_to_json, render_form
from segre.pencil import QuadricPencil, det_poly, diagonal
from segre.reporting import analyze_pencil, outcome_to_dict, surface_report_to_dict
from segre.symbol import canonicalize, random_instance

GOLDEN_SHA256 = "1e78350d14bb15695c614263fd5e7296db125fc2e1ba69f1747c3960ca71e78b"
DOCUMENTS_SHA256 = "150a76690316ab984b8186ed04d44e1613e51418cdfdf183ce7b8afb2c225649"

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
