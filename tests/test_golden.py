"""Byte-identical reports: a pinned digest over a fixed set of pencils.

The digest covers the 16 catalog symbols at three seeds, the four normal
pairs with no nonsingular member, and one pencil with det V = 0 whose
analysis has to re-select a member.  Any change to a report's text, key
order or values changes the digest.
"""

import copy
import hashlib
import json
import pickle

from segre.acceptance import _degenerate_pairs
from segre.catalog import CATALOG_ORDER
from segre.classify import classify_symbol
from segre.forms import pencil_from_json, pencil_to_json
from segre.pencil import QuadricPencil, diagonal
from segre.reporting import analyze_pencil, outcome_to_dict, surface_report_to_dict
from segre.symbol import random_instance

GOLDEN_SHA256 = "1e78350d14bb15695c614263fd5e7296db125fc2e1ba69f1747c3960ca71e78b"


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
