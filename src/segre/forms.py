"""Quadratic-form expression parsing and rendering.

Grammar::

    form  := ('+'|'-')? term (('+'|'-') term)*
    term  := coeff ('*'? monom)? | monom
    monom := var ('^' exp)? ('*'? var)?
    var   := 'X' digit            (one digit, 0..4)
    coeff := int | int '/' int
    int   := digit+
    exp   := int                  (of value 1 or 2)

A digit is a decimal digit, as ``int`` reads it (``²`` is not one), and
whitespace may sit only between tokens.  Every term must be of degree
exactly two.  A form is stored as the symmetric matrix M with
q(X) = X^T M X, so a cross term c*Xi*Xj lands as M[i][j] = M[j][i] = c/2
while a square term c*Xi^2 lands as M[i][i] = c.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from ._record import Record
from .errors import DegreeError, ParseError, ZeroFormError
from .pencil import (
    MAX_SIZE, Matrix, QuadricPencil, _check_pencil, _check_size, _check_symmetric, _exact,
    _init, _listed,
)
from .polynomial import _cleared, _terms_str

__all__ = [
    "ParsedForm",
    "parse_quadratic_form",
    "render_form",
    "pencil_from_json",
    "pencil_to_json",
]


class ParsedForm(Record):
    matrix: Matrix
    source: str

    def render(self) -> str:
        return render_form(self.matrix)


# one token: an integer, a variable, an operator, or any other character
_TOKEN = re.compile(r"\s*(?:(\d+)|X(\d?)|([-+*/^])|(\S))")
# one signed term of the grammar in the module docstring, matched on the
# token kinds: 'n' an integer, 'x' a variable, an operator itself; each
# group starts at the index of its token
_TERM = re.compile(r"([-+]?)(?:(n)(?:/(n))?(?:\*(?=x))?)?(?:(x)(?:\^(n))?(?:\*?(x))?)?")


def _tokens(text: str) -> tuple[str, list[object]]:
    """The token kinds of ``text``, one character per token, and their
    values; the whole text is scanned before any term is read."""
    kinds, values = [], []
    for m in _TOKEN.finditer(text):
        num, var, op, bad = m.groups()
        if bad is not None:
            raise ParseError(f"unexpected character {bad!r} at position {m.start(4)}")
        if var == "":
            raise ParseError(f"variable name expected after 'X' at position {m.start(2) - 1}")
        if var and int(var) >= MAX_SIZE:
            raise ParseError(f"unknown variable X{int(var)}; only X0..X4 are allowed")
        try:
            values.append(op or int(num or var))
        except ValueError as exc:  # past Python's int->str digit limit
            at = m.start(1)
            raise ParseError(f"integer at position {at} has too many digits ({len(num)})") from exc
        kinds.append(op or ("n" if num else "x"))
    return "".join(kinds), values


def _terms(text: str) -> list[tuple[Fraction, list[int]]]:
    """(coefficient, variable indices with multiplicity) for each term."""
    kinds, values = _tokens(text)
    terms, pos = [], 0
    while True:
        m = _TERM.match(kinds, pos)
        sign, num, den, var, exp, var2 = m.groups()
        if pos and not sign:
            raise ParseError(f"expected '+' or '-' at token {pos} in {text[:40]!r}")
        if not (num or var):
            raise ParseError(f"term expected at token {m.end()} in {text[:40]!r}")
        q = values[m.start(3)] if den else 1
        if q == 0:
            raise ParseError("zero denominator in coefficient")
        c = Fraction(values[m.start(2)] if num else 1, q)
        vs = []
        if var:
            e = values[m.start(5)] if exp else 1
            if e not in (1, 2):
                shown = str(e) if e < 10**40 else f"{str(e)[:40]}..."
                raise DegreeError(f"exponent must be 1 or 2, got {shown}")
            vs = [values[m.start(4)]] * e + ([values[m.start(6)]] if var2 else [])
        terms.append((-c if sign == "-" else c, vs))
        pos = m.end()
        if pos == len(kinds):
            return terms


def parse_quadratic_form(text: str) -> ParsedForm:
    """Parse, expand and validate a homogeneous quadratic in X0..X4."""
    if not isinstance(text, str):
        raise ParseError(f"form must be text, got {type(text).__name__}")
    m = [[Fraction(0)] * MAX_SIZE for _ in range(MAX_SIZE)]
    for coeff, vs in _terms(text):
        if len(vs) != 2:
            raise DegreeError(
                f"term of degree {len(vs)} in {text[:40]!r}; every term must be quadratic"
            )
        i, j = vs
        if i == j:
            m[i][i] += coeff
        else:
            m[i][j] += coeff / 2
            m[j][i] += coeff / 2
    if all(c == 0 for row in m for c in row):
        raise ZeroFormError(f"form is identically zero: {text[:40]!r}")
    return ParsedForm(tuple(map(tuple, m)), text)


def render_form(matrix: Matrix) -> str:
    """Canonical text for X^T M X, written by ``polynomial._terms_str`` over one
    denominator: the terms c*Xi^2 and 2c*Xi*Xj (i < j) of the upper triangle
    row by row.  Reparsing returns the identical matrix, padded to 5 x 5.  The matrix is read as ``QuadricPencil`` reads one:
    one not square and symmetric raises ``PencilError``, an empty or a larger
    one than ``MAX_SIZE`` x ``MAX_SIZE`` ``SizeLimitError``."""
    matrix = _listed(matrix)
    _check_size(len(matrix))  # before any entry is read
    matrix = _exact(matrix)
    _check_symmetric(matrix)
    im, den = _cleared(matrix)
    n = len(im)  # the terms from the last written to the first, as _terms_str reads them
    ijs = [(i, j) for i in reversed(range(n)) for j in reversed(range(i, n))]
    names = [f"X{i}^2" if i == j else f"X{i}*X{j}" for i, j in ijs]
    return _terms_str([im[i][j] if i == j else 2 * im[i][j] for i, j in ijs], den, names)


# -- pencil file format -------------------------------------------------------

def pencil_from_json(text: str) -> QuadricPencil:
    """Load a pencil from a JSON document with 5x5 string matrices U and V.

    Each matrix is read once by ``pencil._exact``, from its entries' text
    (a JSON number as ``str`` of it, so 0.1 is 1/10): an integer document
    becomes the pencil's integer pair in one pass, with no ``Fraction``
    made and no least common denominator taken.  A document the JSON
    reader refuses, also for nesting too deep to recurse into, an integer
    past Python's int<->str digit limit or a document that is not text or
    bytes, raises ``ParseError``.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError, TypeError) as exc:  # JSONDecodeError is a ValueError
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "U" not in doc or "V" not in doc:
        raise ParseError('pencil file must be a JSON object with keys "U" and "V"')
    mats = []
    for rows in (doc["U"], doc["V"]):
        if not isinstance(rows, (list, tuple)) or not all(isinstance(r, (list, tuple)) for r in rows):
            raise ParseError("a matrix must be a list of rows, each a list of entries")
        try:
            mats.append(_exact([list(map(str, row)) for row in rows]))
        except ValueError as exc:
            raise ParseError(f"bad rational entry in matrix: {exc}") from exc
    u, v = mats
    if len(u) != MAX_SIZE or len(v) != MAX_SIZE:
        raise ParseError(f"matrices must be {MAX_SIZE}x{MAX_SIZE}")
    try:
        return _init(object.__new__(QuadricPencil), u, v)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _matrices_doc(p: QuadricPencil) -> dict[str, list[list[str]]]:
    """U and V as rows of entry text from the pencil's integer pair: ``str`` of
    each ``Fraction``, also past the int->str digit limit."""
    return {name: [[_terms_str((c,), p._mult, ("",)) for c in row] for row in m]
            for name, m in (("U", p._iu), ("V", p._iv))}


def pencil_to_json(p: QuadricPencil, extra: dict | None = None) -> str:
    """The pencil's document: ``U`` and ``V`` written by ``polynomial._terms_str``
    (``_matrices_doc``), then the keys of ``extra``.  ``pencil_from_json`` reads
    back the document of a 5 x 5 pencil and refuses any other size with
    ``ParseError``."""
    _check_pencil(p)
    return json.dumps({**_matrices_doc(p), **(extra or {})}, indent=2)
