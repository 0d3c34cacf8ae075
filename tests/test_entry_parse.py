"""Every entry text reads alike as a JSON entry and as a library entry,
and as ``Fraction(text)`` reads it.

``pencil._entry`` is the one reader of an outside rational: it reads
plain integer text with ``int`` and leaves every other text to
``Fraction``.  For each text below, ``pencil_from_json`` (the text as an
entry of a 5 x 5 document) and ``QuadricPencil([[text]], [[1]])`` must
give the value ``Fraction(text)`` gives, or, where ``Fraction`` raises,
the ``ParseError`` that wraps its message and the ``PencilError`` with
that message.  ``int`` and ``Fraction`` differ between Python versions
(``Fraction("1_000")`` raises on 3.10 only), so the file needs neither
pytest nor numpy and runs as a plain script too::

    PYTHONPATH=src python tests/test_entry_parse.py
"""

import json
import sys
from fractions import Fraction

from segre.errors import ParseError, PencilError
from segre.forms import pencil_from_json
from segre.pencil import QuadricPencil

_LIMIT = sys.get_int_max_str_digits()
_BAD = "bad rational entry in matrix: "

INTEGER_LIKE = [
    # signs
    "7", "-7", "+7", "--7", "+-7", "-+7", "-", "+", "- 7", "7-", "0", "-0", "+0",
    # inner and outer whitespace
    " 7", "7 ", " \t-7\n", "\u00a07", "\u20027", "7\u3000", "\x1c7", "7\x85",
    "", " ", "1 2", "- 12 ", "\u200b7",  # a zero-width space is not whitespace
    # leading zeros
    "007", "-007", "+000", "0" * 50 + "1", "00",
    # underscores, valid and invalid positions
    "1_000", "-1_000", " 1_000 ", "1_0_0", "0_0", "1__000", "_1", "1_", "_", "-_1",
    "1_000_", "+_1",
    # non-ASCII digits
    "\u0663", "-\u0663\u0664", "\uff11\uff12", "3\u0663", "\u07c1", "\U0001d7d9",
    "\u00b2", "1\u00b2", "\u2460", "\u0f2a",
    # the int->str digit limit and one past it
    "9" * _LIMIT, "-" + "9" * _LIMIT, " " + "9" * _LIMIT + " ",
    "9" * (_LIMIT + 1), "-" + "9" * (_LIMIT + 1), "0" * (_LIMIT + 1), "1" + "0" * _LIMIT,
]

# texts that do not take the integer reader, for contrast
OTHER = ["1/2", " -3/4 ", "1/0", "1.5", "2e3", "1/-2", "0x10", "1e", "abc", "nan", "inf"]


def _expected(text: str):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        return f"{_BAD}{exc}"


def read_both(text: str):
    """The value of ``text`` read as U[0][0] of a JSON document and as the
    entry of a 1 x 1 library pencil, or the JSON reader's message; the two
    readings must agree."""
    u = [[text if i == j == 0 else str(int(i == j)) for j in range(5)] for i in range(5)]
    try:
        from_json = pencil_from_json(json.dumps({"U": u, "V": u})).u[0][0]
    except ParseError as exc:
        from_json = str(exc)
    try:
        from_library = QuadricPencil([[text]], [[1]]).u[0][0]
    except PencilError as exc:
        from_library = f"{_BAD}{exc}"
    assert type(from_json) is type(from_library) and from_json == from_library, (
        text[:40], from_json, from_library
    )
    return from_json


def test_integer_like_entries_parse_like_fraction():
    for text in INTEGER_LIKE + OTHER:
        want, got = _expected(text), read_both(text)
        assert type(got) is type(want) and got == want, (text[:40], want, got)


def test_cases_cover_both_outcomes_and_the_limit():
    outcomes = {isinstance(_expected(t), Fraction) for t in INTEGER_LIKE}
    assert outcomes == {True, False}
    assert isinstance(_expected("9" * _LIMIT), Fraction)
    assert not isinstance(_expected("9" * (_LIMIT + 1)), Fraction)


if __name__ == "__main__":
    test_integer_like_entries_parse_like_fraction()
    test_cases_cover_both_outcomes_and_the_limit()
    print(f"{len(INTEGER_LIKE) + len(OTHER)} entry texts parse like Fraction on Python "
          f"{sys.version.split()[0]}")
