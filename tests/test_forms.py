import json
import math
import random
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import segre.pencil
from segre.errors import DegreeError, ParseError, PencilError, ZeroFormError
from segre.forms import (
    parse_quadratic_form,
    pencil_from_json,
    pencil_to_json,
    render_form,
)
from segre.pencil import QuadricPencil, _check_size, _entry, diagonal, identity
from segre.symbol import build_normal_form
from test_entry_parse import read_both


class TestParse:
    def test_integer_past_int_str_limit_is_parse_error(self):
        with pytest.raises(ParseError):
            parse_quadratic_form("7" * 4400 + "*X0^2")

    def test_cross_and_square_terms(self):
        f = parse_quadratic_form("2*X0*X1 + X2^2 + X3^2 + X4^2")
        m = f.matrix
        assert m[0][1] == m[1][0] == 1
        assert m[2][2] == m[3][3] == m[4][4] == 1
        assert m[0][0] == 0 and m[1][1] == 0

    def test_fractional_coefficient_and_halving(self):
        f = parse_quadratic_form("3/2*X3^2 - X0*X4")
        m = f.matrix
        assert m[3][3] == Fraction(3, 2)
        assert m[0][4] == m[4][0] == Fraction(-1, 2)

    def test_implicit_multiplication(self):
        a = parse_quadratic_form("2X0X1 + X2^2")
        b = parse_quadratic_form("2*X0*X1 + X2^2")
        assert a.matrix == b.matrix

    @pytest.mark.parametrize("text", ["X0^2 + 1/2*X1*X2 - 3*X4^2", "2X0X1 + X2^2", "-X3*X4 + 7/3*X0^2"])
    def test_render_is_render_form_and_reparses_to_the_matrix(self, text):
        f = parse_quadratic_form(text)
        assert f.render() == render_form(f.matrix)
        assert parse_quadratic_form(f.render()).matrix == f.matrix

    def test_collects_repeated_monomials(self):
        f = parse_quadratic_form("X0*X1 + X1*X0 + X0^2 - X0^2")
        assert f.matrix[0][1] == 1
        assert f.matrix[0][0] == 0

    def test_degree_errors(self):
        with pytest.raises(DegreeError):
            parse_quadratic_form("X0^3")
        with pytest.raises(DegreeError):
            parse_quadratic_form("X0")
        with pytest.raises(DegreeError):
            parse_quadratic_form("X0^2 + 5")
        with pytest.raises(DegreeError):
            parse_quadratic_form("X0^2*X1")

    def test_unknown_variable(self):
        with pytest.raises(ParseError):
            parse_quadratic_form("X5^2")
        with pytest.raises(ParseError):
            parse_quadratic_form("Y0^2")

    def test_zero_form(self):
        with pytest.raises(ZeroFormError):
            parse_quadratic_form("X0^2 - X0^2")

    def test_syntax_errors(self):
        for bad in ("", "X0^2 +", "* X0^2", "X0^2 X1^2", "1/0*X0^2"):
            with pytest.raises(ParseError):
                parse_quadratic_form(bad)

    @pytest.mark.parametrize("form, error", [
        ("X0^2 X1^2" + " + X0*X1" * 1250, ParseError),  # expected '+' or '-'
        ("X0^2 + " + "X1^2 + " * 1428 + "*", ParseError),  # term expected
        ("X0^2 + X0^2*X1" + " + X1^2" * 1427, DegreeError),  # a cubic term
        ("0*X0^2" + " + 0*X1^2" * 1111, ZeroFormError),
        ("X0^" + "9" * 4000 + " + X1^2" * 857, DegreeError),  # a huge exponent
    ], ids=["sign", "term", "degree", "zero", "exponent"])
    def test_long_form_errors_quote_40_characters(self, form, error):
        assert len(form) >= 9998
        with pytest.raises(error) as info:
            parse_quadratic_form(form)
        assert len(str(info.value)) < 100
        if error is not DegreeError or "^9" not in form:
            assert form[:40] in str(info.value) and form[:41] not in str(info.value)


# the grammar's accept/refuse set at its edges: the exception class, or the
# diagonal and the (0, 1) entry of the parsed matrix
GRAMMAR_EDGES = [
    ("2*", ParseError),  # a '*' after a coefficient needs a variable
    ("X0^", ParseError),
    ("2/", ParseError),
    ("2/X0^", ParseError),
    ("--X0^2", ParseError),  # one leading sign at most
    ("+X0^2", ([1, 0, 0, 0, 0], 0)),
    ("X0^2X1", DegreeError),  # a square times a variable is cubic
    ("X0X1X2", ParseError),  # a monomial has at most two variables
    ("2 3X0^2", ParseError),
    ("X0^02", ([1, 0, 0, 0, 0], 0)),
    ("X0^0", DegreeError),
    ("X 0^2", ParseError),  # whitespace only between tokens
    ("X12", ParseError),  # X takes one digit: X1 times 2 is not a term
    ("X0^2 +", ParseError),
    ("1/0*X0^2", ParseError),
    ("2X0X1", ([0, 0, 0, 0, 0], 1)),
    ("X0*X1*X2", ParseError),
    ("X0^2 - X0^2", ZeroFormError),
    ("X0^1X1", ([0, 0, 0, 0, 0], Fraction(1, 2))),
    ("X0X1^2", ParseError),  # the second variable takes no exponent
    ("٣*X3^2", ([0, 0, 0, 3, 0], 0)),  # a decimal digit, as int reads it
    ("X²^2", ParseError),  # a superscript digit is no digit
    ("²*X0^2", ParseError),
    ("X①^2", ParseError),
]


@pytest.mark.parametrize("text, expected", GRAMMAR_EDGES)
def test_grammar_edges(text, expected):
    if isinstance(expected, tuple):
        m = parse_quadratic_form(text).matrix
        assert ([m[i][i] for i in range(5)], m[0][1]) == expected
    else:
        with pytest.raises(ParseError) as info:
            parse_quadratic_form(text)
        assert type(info.value) is expected


PIECES = [
    "X0", "X1", "X2", "X3", "X4", "X5", "X9", "X", "0", "1", "2", "3", "12", "007",
    "+", "-", "*", "/", "^", " ", "\t", "Y", "X0^2", "X1*X2", "2*", "3/2", "²", "٣", "X٣", "X²",
]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(PIECES), min_size=1, max_size=12).map("".join))
@example("X²^2")
@example("²*X0^2")
@example("X①^2")
def test_any_text_parses_and_round_trips_or_raises_parse_error(text):
    try:
        m = parse_quadratic_form(text).matrix
    except ParseError:
        return
    assert parse_quadratic_form(render_form(m)).matrix == m


ENTRIES = st.one_of(
    st.just(Fraction(0)),
    st.integers(-9, 9).map(Fraction),
    st.fractions(max_denominator=50),
    st.integers(2**64, 2**200).map(lambda n: Fraction(-n, 3)),
    st.integers(2**64, 2**200).map(Fraction),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(ENTRIES, min_size=15, max_size=15))
def test_symmetric_rational_matrices_round_trip(upper):
    assume(any(upper))
    entries = iter(upper)
    m = [[Fraction(0)] * 5 for _ in range(5)]
    for i in range(5):
        for j in range(i, 5):
            m[i][j] = m[j][i] = next(entries)
    rendered = render_form(m)
    assert parse_quadratic_form(rendered).matrix == tuple(map(tuple, m))


class TestRenderRoundTrip:
    def test_round_trip_examples(self):
        for text in (
            "2*X0*X1 + X2^2 + X3^2 + X4^2",
            "3/2*X3^2 - X0*X4",
            "4*X0*X2 + 2*X1^2 + 2*X1*X2 + 6*X3*X4 + X4^2",
        ):
            m = parse_quadratic_form(text).matrix
            rendered = render_form(m)
            assert parse_quadratic_form(rendered).matrix == m

    def test_normal_form_equations(self):
        p = build_normal_form("[2111]", [2, 3, 4, 5])
        assert render_form(p.u) == "4*X0*X1 + X1^2 + 3*X2^2 + 4*X3^2 + 5*X4^2"
        assert render_form(p.v) == "2*X0*X1 + X2^2 + X3^2 + X4^2"


class TestPencilJson:
    def test_round_trip(self):
        p = QuadricPencil(diagonal([1, 2, 3, 4, 5]), identity(5))
        text = pencil_to_json(p)
        q = pencil_from_json(text)
        assert q.u == p.u and q.v == p.v
        assert pencil_from_json(text.encode()) == q  # bytes are read as the JSON reader reads them

    def test_rational_strings(self):
        p = QuadricPencil(diagonal([Fraction(1, 2), 2, 3, 4, 5]), identity(5))
        q = pencil_from_json(pencil_to_json(p))
        assert q.u[0][0] == Fraction(1, 2)

    def test_entries_past_int_str_limit_render(self):
        # the int->str limit would refuse str() of 10^4400
        doc = json.loads(pencil_to_json(build_normal_form("[5]", [10**4400])))
        entries = [c for row in doc["U"] for c in row]
        assert entries.count("1" + "0" * 4400) == 5
        assert doc["V"][0][4] == "1"

    def test_rejects_bad_documents(self):
        with pytest.raises(ParseError):
            pencil_from_json("not json")
        with pytest.raises(ParseError):
            pencil_from_json('{"U": [["1"]]}')
        with pytest.raises(ParseError):
            pencil_from_json('{"U": [["1"]], "V": [["1"]]}')

    @pytest.mark.parametrize("text", [
        "[" * 200_000,  # deeper than the JSON reader recurses
        '{"U": ' + "1" * 5001 + ', "V": 1}',  # past the int<->str digit limit
    ], ids=["deep", "long-integer"])
    def test_json_reader_errors_are_parse_errors(self, text):
        with pytest.raises(ParseError, match="^invalid JSON: "):
            pencil_from_json(text)

    @pytest.mark.parametrize("doc", [
        '{"U": 5, "V": 5}',
        '{"U": [1, 2, 3, 4, 5], "V": [1, 2, 3, 4, 5]}',
        '{"U": null, "V": "12345"}',
        '{"U": [["1"], 2], "V": [["1"]]}',
    ])
    def test_rejects_matrices_that_are_not_lists_of_rows(self, doc):
        with pytest.raises(ParseError):
            pencil_from_json(doc)

    # each entry is read as a JSON entry and as a library entry, which agree
    @pytest.mark.parametrize("entry", ["1e5000", "1e-5000", "1e4300", "3/1e4300", "0e999999999"])
    def test_entry_past_int_str_limit_is_parse_error(self, entry):
        assert read_both(entry).startswith("bad rational entry in matrix: ")

    @pytest.mark.parametrize(
        "entry",
        ["1/" + "x" * 9998, "x" * 10000, "1" * 4000 + "/0" + " " * 5998],
        ids=["slash", "letters", "zero-denominator"],
    )
    def test_long_bad_entry_quotes_40_characters(self, entry):
        message = read_both(entry)
        assert isinstance(message, str) and len(message) < 200
        assert entry[:40] in message and entry[:41] not in message

    def test_decimal_past_int_str_limit_is_parse_error(self):
        # each side of the point is within the limit, the value's numerator is not
        assert read_both("1" * 3000 + "." + "1" * 3000).startswith("bad rational entry in matrix: ")

    def test_exponent_entries_within_limit(self):
        assert [read_both(t) for t in ("1e3", "-2.5E-2", "1e4299", "0e5")] == [
            Fraction(1000), Fraction(-1, 40), Fraction(10**4299), Fraction(0),
        ]


# -- the one-pass reader against the per-entry reference ----------------------
# ``pencil._exact`` reads a row of integer text in one pass; these tests read
# the same matrices one entry at a time with ``_entry`` and want the same
# pencil or the same error.  Under ``python -X int_max_str_digits=640`` the
# 1000-digit entry fails ``int`` too, so its row takes the per-entry route.


class _Text(str):
    """A ``str`` subclass whose ``int`` differs from its text."""

    def __int__(self):
        return 7


_INTEGER_TEXT = st.one_of(
    st.integers(-10**30, 10**30).map(str),
    st.sampled_from([" 7 ", "+3", "-0", "\t-4\n", "\u0663", "\u0661\u0662", "9" * 1000]),
)
_OTHER_TEXT = st.one_of(
    st.sampled_from(["1_000", "-1_0", "1__0", "1/2", "0.1", "1e3", "-2.5E-2", "", "abc", "1/0"]),
    # past the int<->str digit limit in force (one digit when it is off)
    st.builds(lambda: "9" * (sys.get_int_max_str_digits() + 1)),
)
_JSON_VALUES = st.one_of(st.integers(-10**6, 10**6), st.floats(), st.booleans(), st.none())
_PYTHON_VALUES = st.one_of(
    st.sampled_from([Decimal("0.1"), Decimal("12"), Decimal("1E+3"), b"5", Fraction(1, 3), 0.5, True, None]),
    st.sampled_from(["12", " -7 ", "1/2", "x"]).map(_Text),
)


def _entries(extra):
    """Integer text only, integer text with other text, or with ``extra`` too."""
    return st.sampled_from([
        _INTEGER_TEXT,
        st.one_of(_INTEGER_TEXT, _OTHER_TEXT),
        st.one_of(_INTEGER_TEXT, _OTHER_TEXT, extra),
    ])


@st.composite
def _pairs(draw, sizes, extra):
    """U and V of one drawn size, symmetric, then perhaps made non-square,
    asymmetric or of another size."""
    size, entries = draw(sizes), draw(_entries(extra))

    def symmetric():
        m = [[None] * size for _ in range(size)]
        for i in range(size):
            for j in range(i, size):
                m[i][j] = m[j][i] = draw(entries)
        return m

    u, v = symmetric(), symmetric()
    target = draw(st.sampled_from([u, v]))
    fault = draw(st.sampled_from(["none", "none", "short row", "long row", "asymmetric", "extra row"]))
    if fault == "short row":
        target[draw(st.integers(0, size - 1))].pop()
    elif fault == "long row":
        target[draw(st.integers(0, size - 1))].append(draw(entries))
    elif fault == "asymmetric" and size > 1:
        target[0][1] = draw(entries)
    elif fault == "extra row":
        target.append(list(target[0]))
    return u, v


def _check_square(m):
    if any(len(row) != len(m) for row in m):
        raise PencilError("matrix must be square")


def _outcome(call, *args):
    """What ``call(*args)`` returns, or the type and message of its error."""
    try:
        return call(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _per_entry_json(text):
    """``pencil_from_json`` reading each entry by ``_entry(str(c))``."""
    doc = json.loads(text)
    mats = []
    for rows in (doc["U"], doc["V"]):
        try:
            mats.append([[_entry(str(c)) for c in row] for row in rows])
            _check_square(mats[-1])
        except ValueError as exc:
            raise ParseError(f"bad rational entry in matrix: {exc}") from exc
    if any(len(m) != 5 for m in mats):
        raise ParseError("matrices must be 5x5")
    try:
        return QuadricPencil(*mats)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _per_entry_pencil(u, v):
    """``QuadricPencil(u, v)`` reading each entry by ``_entry(c)``: the
    sizes are checked before any entry is read."""
    if len(u) != len(v):
        raise PencilError("U and V must have the same size")
    _check_size(len(u))
    mats = []
    for m in (u, v):
        mats.append([[_entry(c) for c in row] for row in m])
        _check_square(mats[-1])
    return QuadricPencil(*mats)


@settings(max_examples=300, deadline=None)
@given(_pairs(st.sampled_from([5, 5, 5, 4, 6]), _JSON_VALUES))
def test_one_pass_reader_matches_the_per_entry_reference_on_documents(pair):
    u, v = pair
    text = json.dumps({"U": u, "V": v})
    assert _outcome(pencil_from_json, text) == _outcome(_per_entry_json, text)


@settings(max_examples=300, deadline=None)
@given(_pairs(st.integers(1, 6), _PYTHON_VALUES))
def test_one_pass_reader_matches_the_per_entry_reference_on_rows(pair):
    u, v = pair
    assert _outcome(QuadricPencil, u, v) == _outcome(_per_entry_pencil, u, v)


def test_one_pass_reader_reads_an_integer_document_with_no_entry_call(monkeypatch):
    calls = []
    monkeypatch.setattr(segre.pencil, "_entry", lambda c: calls.append(c) or _entry(c))
    u = [[str(10 * i + j if i <= j else 10 * j + i) for j in range(5)] for i in range(5)]
    v = [[str(int(i == j)) for j in range(5)] for i in range(5)]
    p = pencil_from_json(json.dumps({"U": u, "V": v}))
    assert calls == [] and p == QuadricPencil([[int(c) for c in row] for row in u], identity(5))
    # a row with one entry that is not integer text is read entry by entry
    u[2][2] = "1/2"
    assert pencil_from_json(json.dumps({"U": u, "V": v})).u[2][2] == Fraction(1, 2)
    assert calls == u[2]


# -- the writer's common-factor route on forms and documents -------------------

def _decimal_text(q: Fraction) -> str:
    """``str(q)`` with the numerator and the denominator each written by
    ``str(Decimal(n))``; it converts no int to text, so it holds at any
    int->str digit limit."""
    n, d = abs(q.numerator), q.denominator
    text = str(Decimal(n)) if d == 1 else f"{Decimal(n)}/{Decimal(d)}"
    return f"-{text}" if q < 0 else text


def _reference_form(m) -> str:
    """X^T M X term by term: each coefficient written alone by ``_decimal_text``."""
    parts = []
    for i in range(len(m)):
        for j in range(i, len(m)):
            c = m[i][j] if i == j else 2 * m[i][j]
            if not c:
                continue
            mono = f"X{i}^2" if i == j else f"X{i}*X{j}"
            body = mono if abs(c) == 1 else f"{_decimal_text(abs(c))}*{mono}"
            parts.append(("" if c > 0 else "-") if not parts else ("+ " if c > 0 else "- "))
            parts[-1] += body
    return " ".join(parts) if parts else "0"


def _shared_factor_matrix(rng, n: int, k: int):
    """A symmetric n x n matrix of entries k * a / d: mixed denominators,
    some sharing primes with k and some past the int->str limit, negative
    entries, zeros and units, on and off the diagonal."""
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            kind = rng.randrange(6)
            if kind == 0:
                c = Fraction(0)
            elif kind == 1:
                c = Fraction(rng.choice((1, -1)), 1 if i == j else 2)  # a unit term
            else:
                d = rng.choice((
                    1, 3, 12, 35,
                    math.gcd(k, 2**40 * 3**5 * 5 * 7) * rng.randint(1, 9),
                    rng.getrandbits(rng.randrange(2000, 2400)) | 1,
                ))
                c = Fraction(k * rng.choice((1, -1)) * rng.randint(1, 10**6), d)
            m[i][j] = m[j][i] = c
    return m


def test_shared_long_factor_matches_the_per_entry_reference():
    """Matrices whose entries share a factor of 2,000 to 8,000 bits: each
    form and each JSON entry equals the text of every coefficient written
    alone, on and off the diagonal, over mixed denominators."""
    from segre.polynomial import _PLAIN_STR_BITS

    rng = random.Random(30)
    routed = 0
    for _ in range(60):
        k = (rng.getrandbits(rng.randrange(2000, 8001)) | 1) * rng.choice((1, 2, 6, 35, 2**40 * 3**5))
        n = rng.randint(1, 5)
        u, v = (_shared_factor_matrix(rng, n, k) for _ in range(2))
        assert render_form(u) == _reference_form(u)
        p = QuadricPencil(u, v)
        assert [render_form(p.u), render_form(p.v)] == [_reference_form(u), _reference_form(v)]
        doc = json.loads(pencil_to_json(p))
        assert doc == {name: [[_decimal_text(c) for c in row] for row in m] for name, m in (("U", u), ("V", v))}
        routed += any(abs(c.numerator) >> _PLAIN_STR_BITS for row in u for c in row)
    assert routed > 40
