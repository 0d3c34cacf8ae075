"""Exact univariate polynomials over the rationals.

All arithmetic runs on one engine of integer coefficient lists, lowest
degree first: greatest common divisors, exact division, Yun
decomposition and the coprime basis.  Yun runs on the primitive part,
and every one of its gcds, with the cofactors, is a heuristic gcd (Char,
Geddes and Gonnet 1989; ``_int_gcd_cofactors``): the gcd of the two
polynomials' values at one integer point, read back into a polynomial
by its balanced digits (``_int_digits``) and proved by exact division.
A squarefree determinant, such as a generic pencil's, is one integer
gcd.  The coprime basis takes its gcds from the same heuristic.  A
primitive pseudo-remainder sequence (``_int_gcd``), which keeps
coefficients small at the degrees, at most seven, this package cares
about, answers when the heuristic gives up.
``Polynomial`` is the value that leaves the engine, with no arithmetic
of its own: integer coefficients over one denominator (``_of``), with
``Fraction`` coefficients (``Rational``) built on read; ``_cleared``
takes the package's one lcm.  Exact text has one writer, ``_terms_str``:
integers over a denominator times named monomials.  Polynomials
(``_poly_str``; reports write the exact chain's lists, ``Polynomial``
its pair once, keeping the text), rationals, quadratic forms and pencil
documents go through it; only section divisors (``SectionDivisor.render``,
its own rule for multiplicities) and ``--pretty`` layout do not.  ``_entry``
is the one reader of an outside rational, ``_items`` of a sequence of them.
"""

from __future__ import annotations

import decimal
import math
import re
import sys
from collections.abc import Iterable, Sequence
from fractions import Fraction

from ._record import Frozen
from .errors import PencilError

Rational = Fraction

__all__ = [
    "Rational",
    "Polynomial",
    "squarefree_decomposition",
    "coprime_basis",
]


# ---------------------------------------------------------------------------
# integer engine: coefficient lists, lowest degree first
# ---------------------------------------------------------------------------

def _int_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _int_content(c: Sequence[int]) -> int:
    g = 0
    for a in c:
        g = math.gcd(g, a)
        if g == 1:
            break
    return g


def _int_primitive(c: Sequence[int]) -> list[int]:
    """Divide out the content; normalize the leading coefficient positive."""
    c = _int_trim(list(c))
    if not c:
        return []
    g = _int_content(c)
    if c[-1] < 0:
        g = -g
    return [a // g for a in c]


def _int_pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder of a by b: lc(b)^(deg a - deg b + 1) * a mod b."""
    r = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(r) - 1 >= db and r:
        dr = len(r) - 1
        lead = r[-1]
        r = [x * lb for x in r]
        shift = dr - db
        for i, bi in enumerate(b):
            r[shift + i] -= lead * bi
        r = _int_trim(r)
    return r


def _int_gcd(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Primitive gcd of integer polynomials (positive leading coefficient)."""
    a = _int_primitive(a)
    b = _int_primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _int_pseudo_rem(a, b)
        a, b = b, _int_primitive(r)
    return a


def _int_sub(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] -= c
    return _int_trim(out)


def _int_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _int_derivative(c: Sequence[int]) -> list[int]:
    return [i * a for i, a in enumerate(c)][1:]


def _int_divide(a: Sequence[int], b: Sequence[int]) -> list[int] | None:
    """Quotient a / b in Z[t], or None when b does not divide a there.

    For primitive b this is divisibility over the rationals too (Gauss's
    lemma), so the test needs no fractions.
    """
    db, lb = len(b) - 1, b[-1]
    r = list(a)
    if len(r) <= db:
        return [] if not r else None
    q = [0] * (len(r) - db)
    for k in range(len(q) - 1, -1, -1):
        c, rem = divmod(r[k + db], lb)
        if rem:
            return None
        q[k] = c
        if c:
            for i, bi in enumerate(b):
                r[k + i] -= c * bi
    return q if not any(r[:db]) else None


def _int_exact_div(a: Sequence[int], b: Sequence[int]) -> list[int]:
    q = _int_divide(a, b)
    if q is None:
        raise ValueError(f"{b} does not divide {a}")
    return q


def _int_eval(c: Sequence[int], x: int) -> int:
    v = 0
    for a in reversed(c):
        v = v * x + a
    return v


def _int_digits(n: int, x: int) -> list[int]:
    """The balanced base-x digits of n, lowest first, each in
    (-x/2, x/2]: the coefficients of the one polynomial with such
    coefficients that takes the value n at x, trimmed, so that n = 0
    gives [].  Packed polynomials are read back with it.  x >= 3: base 2
    has no negative digit."""
    out: list[int] = []
    half = x >> 1
    while n:
        n, d = divmod(n, x)
        if d > half:
            d -= x
            n += 1
        out.append(d)
    return out


# failed tries of the heuristic gcd before the PRS gcd answers
_HEU_TRIES = 6


def _int_gcd_cofactors(a: Sequence[int], b: Sequence[int]) -> tuple[list[int], list[int], list[int]]:
    """(g, a / g, b / g) with g the primitive gcd of a and b (positive
    leading coefficient), a nonzero: the heuristic gcd of Char, Geddes
    and Gonnet (1989), on the integers a(xi) and b(xi).

    With M the smaller of the largest absolute coefficients of a and b
    and xi = 2*M + 2, G is the balanced base-xi expansion of
    gcd(a(xi), b(xi)) (``_int_digits``) and g its primitive part.  Once g
    divides a and b (``_int_divide``, which gives the cofactors), it is
    the gcd: g divides gcd(a, b) = g*c, and a nonconstant c would have
    |c(xi)| > (xi/2)^deg(c) >= xi/2, as every root of c is a root of a
    and of b and so below M + 1 = xi/2 in absolute value (Cauchy's root
    bound), yet c(xi) divides gcd(a(xi), b(xi)) / g(xi) = cont(G), which
    is at most xi/2.  A gcd(a(xi), b(xi)) of at most xi/2 is G itself, and
    g = 1 needs no division, so a coprime pair usually costs one integer
    gcd.  When a division fails, xi grows by about e; after
    ``_HEU_TRIES`` failed tries the PRS gcd (``_int_gcd``) answers.
    """
    if not b:
        g = _int_primitive(a)
        return g, _int_exact_div(a, g), []
    xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 2
    for _ in range(_HEU_TRIES):
        gamma = math.gcd(_int_eval(a, xi), _int_eval(b, xi))
        if 2 * gamma <= xi:  # G = [gamma]: g = 1
            return [1], list(a), list(b)
        g = _int_primitive(_int_digits(gamma, xi))
        qa = _int_divide(a, g)
        if qa is not None:
            qb = _int_divide(b, g)
            if qb is not None:
                return g, qa, qb
        xi = xi * 73794 // 27011
    g = _int_gcd(a, b)
    return g, _int_exact_div(a, g), _int_exact_div(b, g)


def _int_squarefree_decomposition(f: Sequence[int]) -> list[tuple[int, list[int]]]:
    """Yun decomposition of a nonzero integer polynomial.

    Pairs (k, h) with h primitive, squarefree and pairwise coprime, and f
    a rational multiple of the product of the h**k.  Everything runs on
    the primitive part a of f, and every gcd with its cofactors comes from
    ``_int_gcd_cofactors``: a nonconstant a coprime to a', such as the
    determinant of a generic pencil, gives [(1, a)] after one integer gcd.
    v and w carry the same integer scale throughout, so w - v' is the Yun
    difference up to that scale and every cofactor is exact in Z[t].
    """
    a = _int_primitive(f)
    u, v, w = _int_gcd_cofactors(a, _int_derivative(a))
    if u == [1] and len(a) > 1:
        return [(1, a)]
    out: list[tuple[int, list[int]]] = []
    k = 1
    while len(v) > 1:
        h, v, w = _int_gcd_cofactors(v, _int_sub(w, _int_derivative(v)))
        if len(h) > 1:
            out.append((k, h))
        k += 1
    return out


def _int_coprime_basis(ps: Sequence[Sequence[int]]) -> list[list[int]]:
    """Pairwise-coprime primitive polynomials multiplying out to the inputs.

    Inputs are primitive, squarefree and nonconstant.  Repeated pairwise
    gcd splitting, each gcd with its cofactors from ``_int_gcd_cofactors``;
    sorted by the monic (degree, coefficients from the leading term down),
    so equal inputs always give the identical basis.
    """
    basis: list[list[int]] = []
    queue = [list(p) for p in ps]
    while queue:
        p = queue.pop()
        for i, b in enumerate(basis):
            g, q, r = _int_gcd_cofactors(p, b)
            if len(g) > 1:
                if len(r) > 1:
                    basis[i] = g
                    queue.append(r)
                if len(q) > 1:
                    queue.append(q)
                break
        else:
            basis.append(p)
    return sorted(basis, key=_basis_key)


def _basis_key(b: list[int]):
    """Order of a coprime basis: monic (degree, coefficients from the
    leading term down)."""
    return (len(b), tuple(Fraction(c, b[-1]) for c in reversed(b)))


# ---------------------------------------------------------------------------
# reading and rendering of exact numbers
# ---------------------------------------------------------------------------

_EXACT = {int, Fraction}

# an exponent at the end of decimal text, as ``Fraction`` reads it
_EXPONENT = re.compile(r"[eE]([-+]?[0-9_]+)\s*$")


def _entry(c: object) -> int | Fraction:
    """One rational read from outside: every matrix entry, scalar, root and
    ``Polynomial`` coefficient.

    An ``int`` or a ``Fraction`` passes through unchanged, and plain
    integer text is read by ``int`` (text with ``_`` is not, as
    ``Fraction`` refuses it on Python 3.10).  Anything else is read as
    ``Fraction(c)`` reads it, so a float gives its exact binary value
    (0.1 is 3602879701896397/2^55); ``pencil_from_json`` hands every JSON
    number over as its text, so 0.1 in a file is 1/10, and a
    ``decimal.Decimal`` is read from its text too.

    Text keeps within Python's int<->str limit, read at the call (no check
    when it is switched off): a numerator or denominator with more digits
    is refused.  Without a decimal point or an exponent, ``int`` and
    ``Fraction`` apply the limit themselves.  An exponent past limit +
    len(c) is refused before its power of ten is built: with any nonzero
    mantissa it gives more digits than the limit.  A refused entry raises
    ``PencilError`` with ``Fraction``'s message, quoting at most 40
    characters of a longer text (``Fraction`` quotes all of it, and its
    zero-denominator message all the digits).
    """
    text = type(c) is str
    if not text and isinstance(c, decimal.Decimal):  # its text takes the checks below
        c, text = str(c), True
    if text:
        if "_" not in c:
            try:
                return int(c)
            except ValueError:  # not an integer, or past the limit: Fraction says which
                pass
    elif type(c) in _EXACT:
        return c
    limit = sys.get_int_max_str_digits() if text and ("." in c or "e" in c or "E" in c) else 0
    try:
        exp = _EXPONENT.search(c) if limit else None
        # in the try: int refuses an exponent that has more digits than the
        # limit, as Fraction would, and the refusal below gets its message too
        if exp and abs(int(exp.group(1).replace("_", ""))) > limit + len(c):
            raise OverflowError(f"exponent of {c[:40]!r} is out of range")
        q = Fraction(c)
    except (ValueError, TypeError, ZeroDivisionError, OverflowError) as exc:
        msg = str(exc)
        if text and len(c) > 40:
            if isinstance(exc, ZeroDivisionError):
                msg = f"zero denominator in {c.strip()[:40]!r}"
            else:
                msg = msg.replace(repr(c), repr(c[:40]))
        raise PencilError(msg) from None
    # 2^(3 limit) < 10^limit, so the power of ten is built only when needed
    if limit and any(n.bit_length() > 3 * limit and abs(n) >= 10**limit for n in q.as_integer_ratio()):
        raise PencilError(f"entry {c[:40]!r} has more than {limit} digits")
    return q


def _items(x: object, what: str) -> list:
    """``list(x)`` for a sequence read from outside; text, bytes ('12' would
    be 1 and 2) and a value that cannot be iterated raise ``PencilError``."""
    if not isinstance(x, (str, bytes, bytearray)):
        try:
            return list(x)
        except TypeError:
            pass
    raise PencilError(f"{what} must be a sequence, got {type(x).__name__}")


def _cleared(m: Sequence[Sequence[int | Fraction]]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The integer rows mult * m and the least such ``mult``, the least
    common denominator of the entries; a list takes one row (over 1 if no entry is a ``Fraction``)."""
    if all(type(c) is int for row in m for c in row):
        return tuple(map(tuple, m)), 1
    mult = math.lcm(*(c.denominator for row in m for c in row))
    return tuple(tuple(c.numerator * (mult // c.denominator) for c in row) for row in m), mult


# Python refuses int -> str past a digit limit (4300 by default, 640 at
# the least); decimal.Decimal converts exactly with no limit, and in this
# context multiplies two of its integers with no rounding.
_PLAIN_STR_BITS = 2000
_UNROUNDED = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)


# the monomials 1, t, t^2, ... of degrees up to seven, as ``_terms_str`` names them
_POWERS = ("", "t", *(f"t^{i}" for i in range(2, 8)))


def _rational_str(q: Rational | int) -> str:
    """``str(q)``, also for numerators past the int->str limit."""
    return _terms_str((q.numerator,), q.denominator, ("",))


def _poly_str(c: Sequence[int], den: int = 1) -> str:
    """The ``str`` of every ``Polynomial``: the sum of c[i] / den * t^i (den > 0)."""
    names = _POWERS if len(c) <= 8 else (*_POWERS, *(f"t^{i}" for i in range(8, len(c))))
    return _terms_str(c, den, names)


def _terms_str(c: Sequence[int], den: int, names: Sequence[str]) -> str:
    """The one writer of exact text: the sum of c[i] / den * names[i] (den > 0,
    "" the name of a constant) from the last i down, each coefficient in lowest
    terms and a unit one of a monomial left out, joined by ``+ ``/``- ``, or 0.

    A numerator of ``_PLAIN_STR_BITS`` or more is written through the
    numerators' common factor k = gcd(c) / gcd(gcd(c), den), which divides
    every numerator in lowest terms: k goes to ``Decimal`` once, and each
    such numerator is the exact product of k and its small cofactor, so a
    determinant det(A)^2 * det(U0 - t*V0) costs one long conversion, not
    one per coefficient.  A denominator that long goes to ``Decimal`` alone.
    """
    parts: list[str] = []
    k = dk = None  # the common factor and its Decimal, made on the first long numerator
    for i in range(len(c) - 1, -1, -1):
        a = c[i]
        if not a:
            continue
        m = names[i]
        g = math.gcd(a, den)
        num, d = abs(a) // g, den // g
        if num == d == 1 and m:
            body = m
        else:
            if num.bit_length() < _PLAIN_STR_BITS:
                body = str(num)
            else:
                if k is None:
                    k = _int_content(c)
                    k //= math.gcd(k, den)
                    dk = decimal.Decimal(k)
                body = str(_UNROUNDED.multiply(dk, decimal.Decimal(num // k)))
            if d != 1:
                body = f"{body}/{d if d.bit_length() < _PLAIN_STR_BITS else decimal.Decimal(d)}"
            if m:
                body = f"{body}*{m}"
        if not parts:
            parts.append(body if a > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if a > 0 else f"- {body}")
    return " ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# public polynomial type
# ---------------------------------------------------------------------------

class Polynomial(Frozen):
    """Dense univariate polynomial, as the engine hands it out: integers
    ``_c`` over one denominator ``_den`` (``_of``), a value to compare,
    hash, pickle and print, whose ``coeffs`` are built on first read.

    Immutable; the zero polynomial has an empty coefficient tuple and
    degree -1.  Each coefficient is read by ``_entry``, so one it refuses
    raises ``PencilError``, as do coefficients that are not a sequence.
    """

    __slots__ = ("_c", "_den", "_coeffs", "_text")

    def __new__(cls, coeffs: Iterable[Rational | int] = ()):
        (c,), den = _cleared([[_entry(q) for q in _items(coeffs, "coefficients")]])
        return _of(c, den)

    # -- basic queries --------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Rational, ...]:
        if self._coeffs is None:
            object.__setattr__(self, "_coeffs", tuple(Fraction(a, self._den) for a in self._c))
        return self._coeffs

    @property
    def degree(self) -> int:
        return len(self._c) - 1

    @property
    def is_zero(self) -> bool:
        return not self._c

    @property
    def is_constant(self) -> bool:
        return len(self._c) <= 1

    def _values(self) -> tuple:
        return self._c, self._den

    def __reduce__(self):
        return _of, (self._c, self._den)

    def __bool__(self) -> bool:
        return bool(self._c)

    # -- rendering ------------------------------------------------------------

    def __repr__(self) -> str:
        return f"Polynomial({self})"

    def __str__(self) -> str:
        if self._text is None:
            object.__setattr__(self, "_text", _poly_str(self._c, self._den))
        return self._text


def _of(c: Sequence[int], den: int) -> Polynomial:
    """The ``Polynomial`` c[i] / den (den != 0), ``_c`` trimmed and ``_den`` > 0
    in lowest terms; ``_of(b, b[-1])`` is the monic one of an integer list b."""
    g = -math.gcd(den, *c) if den < 0 else math.gcd(den, *c)
    p = object.__new__(Polynomial)
    for name, value in zip(p.__slots__, (tuple(_int_trim([a // g for a in c])), den // g, None, None)):
        object.__setattr__(p, name, value)  # _coeffs and _text: built on first read
    return p


# ---------------------------------------------------------------------------
# Yun decomposition and coprime basis: Polynomial wrappers over the engine
# ---------------------------------------------------------------------------

def _check_poly(p: object) -> None:
    if not isinstance(p, Polynomial):
        raise PencilError(f"expected a Polynomial, got {type(p).__name__}")


def squarefree_decomposition(p: Polynomial) -> list[tuple[int, Polynomial]]:
    """Yun decomposition: pairs (k, f) with monic(p) = product of f**k.

    The factors f are monic, squarefree and pairwise coprime, so every
    root of a factor tagged k has multiplicity exactly k in p.  An
    argument that is not a ``Polynomial``, or the zero polynomial, raises
    ``PencilError``.
    """
    _check_poly(p)
    if p.is_zero:
        raise PencilError("squarefree decomposition of the zero polynomial is undefined")
    return [(k, _of(f, f[-1])) for k, f in _int_squarefree_decomposition(p._c)]


def coprime_basis(ps: Sequence[Polynomial]) -> list[Polynomial]:
    """Pairwise-coprime monic polynomials multiplying out to the inputs.

    Every input must be monic, squarefree and nonconstant; every input is
    then a product of a subset of the returned basis, with each basis
    element appearing at most once.  Computed by repeated pairwise gcd
    splitting; no irreducible factorization is performed.  The result is
    sorted by (degree, coefficients from the leading term down) so that
    equal inputs always produce the identical basis.  Inputs that are not
    a sequence of such ``Polynomial`` values raise ``PencilError``.
    """
    cs: list[Sequence[int]] = []
    for p in _items(ps, "polynomials"):
        _check_poly(p)
        if p.is_constant:
            raise PencilError(f"coprime_basis requires nonconstant inputs, got {p}")
        c = p._c
        if c[-1] != p._den:
            raise PencilError(f"coprime_basis requires monic inputs, got {p}")
        if len(_int_gcd_cofactors(c, _int_derivative(c))[0]) > 1:
            raise PencilError(f"coprime_basis requires squarefree inputs, got {p}")
        cs.append(c)
    return [_of(b, b[-1]) for b in _int_coprime_basis(cs)]
