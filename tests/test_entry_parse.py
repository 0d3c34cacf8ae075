"""Pencil entries that look like integers parse exactly as ``Fraction(text)`` does.

``forms._entry`` reads plain integer text with ``int`` and leaves every
other text to ``Fraction``.  For each text below, ``forms._entry_rows``
must give the value ``Fraction(text)`` gives, or, where ``Fraction``
raises, the ``ParseError`` that wraps its message.  ``int`` and
``Fraction`` differ between Python versions (``Fraction("1_000")`` raises
on 3.10 only), so the file needs neither pytest nor numpy and runs as a
plain script too::

    PYTHONPATH=src python tests/test_entry_parse.py
"""

import sys
from fractions import Fraction

from segre.errors import ParseError
from segre.forms import _entry_rows

_LIMIT = sys.get_int_max_str_digits()

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
        return f"bad rational entry in matrix: {exc}"


def _got(text: str):
    try:
        return Fraction(_entry_rows([[text]])[0][0])
    except ParseError as exc:
        return str(exc)


def test_integer_like_entries_parse_like_fraction():
    for text in INTEGER_LIKE + OTHER:
        want, got = _expected(text), _got(text)
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
