"""Byte-identical reports: a pinned digest over a fixed set of pencils.

The digest covers the 16 catalog symbols at three seeds, the four normal
pairs with no nonsingular member, and one pencil with det V = 0 whose
analysis has to re-select a member.  Any change to a report's text, key
order or values changes the digest.
"""

import hashlib
import json

from segre.acceptance import _degenerate_pairs
from segre.catalog import CATALOG_ORDER
from segre.pencil import QuadricPencil, diagonal
from segre.reporting import analyze_pencil, outcome_to_dict
from segre.symbol import random_instance

GOLDEN_SHA256 = "1e78350d14bb15695c614263fd5e7296db125fc2e1ba69f1747c3960ca71e78b"


def golden_pencils():
    for sym in CATALOG_ORDER:
        for seed in range(3):
            yield random_instance(sym, seed)
    yield from _degenerate_pairs().values()
    yield QuadricPencil(diagonal([1, 2, 3, 4, 5]), diagonal([1, 1, 1, 1, 0]))


def golden_digest() -> str:
    h = hashlib.sha256()
    for p in golden_pencils():
        h.update(json.dumps(outcome_to_dict(analyze_pencil(p)), indent=2).encode())
        h.update(b"\n")
    return h.hexdigest()


def test_reports_match_pinned_digest():
    assert golden_digest() == GOLDEN_SHA256
