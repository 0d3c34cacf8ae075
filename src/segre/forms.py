"""Quadratic-form expression parsing and rendering.

Grammar (whitespace insignificant)::

    form  := term (('+'|'-') term)*
    term  := coeff ('*'? monom)? | monom
    monom := var ('^' exp)? ('*'? var)?
    var   := 'X' digit
    coeff := int | int '/' int
    exp   := '1' | '2'

Every term must be of degree exactly two.  A form is stored as the
symmetric matrix M with q(X) = X^T M X, so a cross term c*Xi*Xj lands as
M[i][j] = M[j][i] = c/2 while a square term c*Xi^2 lands as M[i][i] = c.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction

from ._record import Record
from .errors import DegreeError, ParseError, ZeroFormError
from .pencil import Matrix, QuadricPencil, _check_square, _fraction, as_matrix
from .polynomial import _rational_str

__all__ = [
    "ParsedForm",
    "parse_quadratic_form",
    "render_form",
    "pencil_from_json",
    "pencil_to_json",
]

_NVARS = 5  # X0..X4


class ParsedForm(Record):
    matrix: Matrix
    source: str

    def render(self) -> str:
        return render_form(self.matrix)


# -- lexer ------------------------------------------------------------------

def _tokenize(text: str) -> list[tuple[str, object]]:
    tokens: list[tuple[str, object]] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            try:
                tokens.append(("int", int(text[i:j])))
            except ValueError as exc:  # past Python's int->str digit limit
                raise ParseError(f"integer at position {i} has too many digits ({j - i})") from exc
            i = j
        elif ch == "X":
            if i + 1 >= len(text) or not text[i + 1].isdigit():
                raise ParseError(f"variable name expected after 'X' at position {i}")
            idx = int(text[i + 1])
            if idx >= _NVARS:
                raise ParseError(f"unknown variable X{idx}; only X0..X4 are allowed")
            tokens.append(("var", idx))
            i += 2
        elif ch in "+-*/^":
            tokens.append((ch, ch))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r} at position {i}")
    return tokens


# -- parser -----------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: list[tuple[str, object]], source: str):
        self.tokens = tokens
        self.pos = 0
        self.source = source

    def peek(self) -> str | None:
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def take(self, kind: str) -> object:
        if self.peek() != kind:
            raise ParseError(f"expected {kind!r} at token {self.pos} in {self.source[:40]!r}")
        val = self.tokens[self.pos][1]
        self.pos += 1
        return val

    def parse_coeff(self) -> Fraction:
        num = self.take("int")
        if self.peek() == "/":
            self.take("/")
            den = self.take("int")
            if den == 0:
                raise ParseError("zero denominator in coefficient")
            return Fraction(num, den)
        return Fraction(num)

    def parse_monom(self) -> list[int]:
        """Variable indices with multiplicity (one entry per degree)."""
        vs = [self.take("var")]
        if self.peek() == "^":
            self.take("^")
            exp = self.take("int")
            if exp not in (1, 2):
                shown = str(exp) if exp < 10**40 else f"{str(exp)[:40]}..."
                raise DegreeError(f"exponent must be 1 or 2, got {shown}")
            vs *= exp
        if self.peek() == "*":
            nxt = self.tokens[self.pos + 1][0] if self.pos + 1 < len(self.tokens) else None
            if nxt == "var":
                self.take("*")
                vs.append(self.take("var"))
        elif self.peek() == "var":
            vs.append(self.take("var"))
        return vs

    def parse_term(self) -> tuple[Fraction, list[int]]:
        if self.peek() == "int":
            c = self.parse_coeff()
            if self.peek() == "*":
                self.take("*")
                return c, self.parse_monom()
            if self.peek() == "var":
                return c, self.parse_monom()
            return c, []
        if self.peek() == "var":
            return Fraction(1), self.parse_monom()
        raise ParseError(f"term expected at token {self.pos} in {self.source[:40]!r}")

    def parse_form(self) -> list[tuple[Fraction, list[int]]]:
        terms = []
        sign = Fraction(1)
        if self.peek() in ("+", "-"):  # tolerated leading sign
            sign = Fraction(-1) if self.take(self.peek()) == "-" else Fraction(1)
        c, vs = self.parse_term()
        terms.append((sign * c, vs))
        while self.peek() is not None:
            op = self.peek()
            if op not in ("+", "-"):
                raise ParseError(f"expected '+' or '-' at token {self.pos} in {self.source[:40]!r}")
            self.take(op)
            c, vs = self.parse_term()
            terms.append((c if op == "+" else -c, vs))
        return terms


def parse_quadratic_form(text: str) -> ParsedForm:
    """Parse, expand and validate a homogeneous quadratic in X0..X4."""
    terms = _Parser(_tokenize(text), text).parse_form()
    m = [[Fraction(0)] * _NVARS for _ in range(_NVARS)]
    for coeff, vs in terms:
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
    return ParsedForm(as_matrix(m), text)


def render_form(matrix: Matrix) -> str:
    """Canonical text for X^T M X; reparsing returns the identical matrix."""
    parts: list[tuple[Fraction, str]] = []
    for i in range(len(matrix)):
        c = matrix[i][i]
        if c != 0:
            parts.append((c, f"X{i}^2"))
        for j in range(i + 1, len(matrix)):
            c = 2 * matrix[i][j]
            if c != 0:
                parts.append((c, f"X{i}*X{j}"))
    if not parts:
        return "0"
    chunks: list[str] = []
    for c, mono in parts:
        mag = abs(c)
        body = mono if mag == 1 else f"{_rational_str(mag)}*{mono}"
        if not chunks:
            chunks.append(body if c > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(chunks)


# -- pencil file format -------------------------------------------------------

_EXPONENT = re.compile(r"[eE]([-+]?[0-9_]+)\s*$")


def _entry(text: str, limit: int) -> int | Fraction:
    """One matrix entry, read like ``Fraction(text)``; plain integer text
    gives an ``int`` of the same value.

    As with integers in the form grammar, a numerator or denominator with
    more digits than ``limit``, Python's int<->str limit, is refused (no
    check when the limit is switched off).  Without a decimal point or an
    exponent, ``Fraction`` parses both with ``int``, which applies the
    limit itself.  An exponent past limit + len(text) is refused before
    the power of ten is built: with any nonzero mantissa it gives more
    digits than the limit.  Plain integer text is read with ``int`` alone;
    text with ``_`` is not, as ``Fraction`` refuses it on Python 3.10.
    """
    if "_" not in text:
        try:
            return int(text)
        except ValueError:  # not an integer, or past the limit: Fraction says which
            pass
    if not limit or ("." not in text and "e" not in text and "E" not in text):
        return _fraction(text)
    exp = _EXPONENT.search(text)
    if exp and abs(int(exp.group(1).replace("_", ""))) > limit + len(text):
        raise ParseError(f"exponent of {text[:40]!r} is out of range")
    q = _fraction(text)
    for n in (q.numerator, q.denominator):
        if n.bit_length() > 3 * limit and abs(n) >= 10**limit:  # 2^(3 limit) < 10^limit
            raise ParseError(f"entry {text[:40]!r} has more than {limit} digits")
    return q


def _entry_rows(rows: list[list[str]]) -> list[list[int | Fraction]]:
    """The entries of a square matrix document, each read by ``_entry``."""
    if not isinstance(rows, (list, tuple)) or not all(isinstance(r, (list, tuple)) for r in rows):
        raise ParseError("a matrix must be a list of rows, each a list of entries")
    limit = sys.get_int_max_str_digits()
    try:
        out = [[_entry(str(c), limit) for c in row] for row in rows]
        _check_square(out)
    except ValueError as exc:
        raise ParseError(f"bad rational entry in matrix: {exc}") from exc
    return out


def pencil_from_json(text: str) -> QuadricPencil:
    """Load a pencil from a JSON document with 5x5 string matrices U and V.

    Plain integer entries stay ``int``s, so an integer document becomes the
    pencil's integer pair with no ``Fraction`` made; any other entry is
    read by ``Fraction`` and the pair is cleared once.  A document the
    JSON reader refuses, also for nesting too deep to recurse into or an
    integer past Python's int<->str digit limit, raises ``ParseError``.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "U" not in doc or "V" not in doc:
        raise ParseError('pencil file must be a JSON object with keys "U" and "V"')
    u = _entry_rows(doc["U"])
    v = _entry_rows(doc["V"])
    if len(u) != _NVARS or len(v) != _NVARS:
        raise ParseError(f"matrices must be {_NVARS}x{_NVARS}")
    try:
        return QuadricPencil(u, v)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def pencil_to_json(p: QuadricPencil, extra: dict | None = None) -> str:
    doc: dict = {
        "U": [[_rational_str(c) for c in row] for row in p.u],
        "V": [[_rational_str(c) for c in row] for row in p.v],
    }
    if extra:
        doc.update(extra)
    return json.dumps(doc, indent=2)
