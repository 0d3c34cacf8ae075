import json
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from segre.errors import DegreeError, ParseError, ZeroFormError
from segre.forms import (
    parse_quadratic_form,
    pencil_from_json,
    pencil_to_json,
    render_form,
)
from segre.pencil import QuadricPencil, diagonal, identity
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
