"""The public names of the ``segre`` package, frozen: a name added or
removed here is an API change and belongs in README and CHANGES.md."""

from decimal import Decimal
from fractions import Fraction
from functools import reduce

import pytest

import segre
import segre.forms
import segre.reporting
import segre.symbol
from segre.catalog import catalog_row
from segre.errors import NotInCatalogError, ParseError, PencilError, SegreError, SizeLimitError

PUBLIC = [
    "AutE",
    "BaseKind",
    "BranchStructure",
    "CATALOG",
    "CATALOG_ORDER",
    "CatalogRow",
    "CoverReport",
    "DegeneracyReport",
    "DegeneratePencilError",
    "DegreeError",
    "IllConditionedError",
    "InternalConsistencyError",
    "InvariantFactors",
    "MAX_SIZE",
    "NoSmoothMemberError",
    "NotInCatalogError",
    "ParseError",
    "ParsedForm",
    "PencilError",
    "Polynomial",
    "QuadricPencil",
    "Rational",
    "SectionDivisor",
    "SegreError",
    "SegreSymbol",
    "SingularityType",
    "SizeLimitError",
    "SurfaceReport",
    "VertexPosition",
    "ZeroFormError",
    "analyze_pencil",
    "build_normal_form",
    "canonicalize",
    "class_degree",
    "classify_symbol",
    "compute_symbol",
    "coprime_basis",
    "covers_of",
    "degeneracy_report",
    "det_poly",
    "invariant_factors",
    "numeric_exponent_partitions",
    "parse_quadratic_form",
    "random_instance",
    "render_form",
    "select_nonsingular_member",
    "transitions",
]


def test_public_names_are_frozen():
    assert sorted(segre.__all__) == PUBLIC


def test_every_public_name_resolves():
    # numeric_exponent_partitions loads on first read
    assert [name for name in PUBLIC if getattr(segre, name, None) is None] == []


# dotted paths from the package
@pytest.mark.parametrize("name", [
    "poly_gcd",
    "squarefree_part",
    "NumericPartition",
    "dual_section",
    "covers.dual_section",
    "catalog.in_catalog",
    "symbol.elementary_block",
    "Polynomial.leading",
    "QuadricPencil.n",
])
def test_removed_names_are_gone(name):
    with pytest.raises(AttributeError):
        reduce(getattr, name.split("."), segre)


# every public callable that takes symbol text, and malformed texts for it
SYMBOL_CALLABLES = {
    "classify_symbol": segre.classify_symbol,
    "canonicalize": segre.canonicalize,
    "transitions": segre.transitions,
    "covers_of": segre.covers_of,
    "random_instance": lambda s: segre.random_instance(s, 0),
    "build_normal_form": lambda s: segre.build_normal_form(s, [1]),
    "catalog.catalog_row": catalog_row,
    # the catalog membership test, as README gives it
    "catalog membership": lambda s: segre.canonicalize(s).render() in segre.CATALOG,
}
MALFORMED_SYMBOLS = ["", "[", "[]", "[0]", "[x1]", "11", 5, None]


@pytest.mark.parametrize("text", MALFORMED_SYMBOLS)
@pytest.mark.parametrize("name", sorted(SYMBOL_CALLABLES))
def test_malformed_symbol_text_raises_parse_error(name, text):
    with pytest.raises(ParseError) as direct:
        segre.SegreSymbol.parse(text)
    with pytest.raises(SegreError) as info:
        SYMBOL_CALLABLES[name](text)
    assert type(info.value) is ParseError and isinstance(info.value, ValueError)
    assert str(info.value) == str(direct.value)


# every public lookup that needs a catalog row, and well-formed symbols off it
CATALOG_CALLABLES = {
    "transitions": segre.transitions,
    "covers_of": segre.covers_of,
    "catalog.catalog_row": catalog_row,
}


@pytest.mark.parametrize("text", ["[(111)11]", "[11]"])
@pytest.mark.parametrize("name", sorted(CATALOG_CALLABLES))
def test_symbol_off_the_catalog_raises_not_in_catalog_error(name, text):
    with pytest.raises(SegreError) as info:
        CATALOG_CALLABLES[name](text)
    assert type(info.value) is NotInCatalogError and isinstance(info.value, ValueError)
    assert str(info.value) == f"{text} is not one of the 16 catalog symbols"


def test_symbol_compares_unequal_to_malformed_text():
    sym = segre.SegreSymbol.parse("[1]")
    assert (sym == "abc") is False
    assert ("abc" in [sym]) is False
    assert (sym != "abc") is True
    assert sym == "[1]"


def test_form_that_is_not_text_raises_parse_error():
    with pytest.raises(SegreError) as info:
        segre.parse_quadratic_form(None)
    assert type(info.value) is ParseError
    assert str(info.value) == "form must be text, got NoneType"


# every pencil input the library refuses, and the message it gives
_P2 = segre.QuadricPencil([[1, 0], [0, 1]], [[1, 0], [0, 2]])
_NOT_RATIONAL = "argument should be a string or a Rational instance"
_NOT_ROWS = "matrix must be a sequence of rows"
_HUGE_EXPONENT = "exponent of '1e100000' is out of range"
PENCIL_ERRORS = {
    "zero denominator": (lambda: segre.QuadricPencil([["1/0"]], [["1"]]), "Fraction(1, 0)"),
    "long zero denominator": (
        lambda: segre.QuadricPencil([["1/" + "0" * 60]], [["1"]]),
        "zero denominator in '1/" + "0" * 38 + "'",
    ),
    "infinite entry": (
        lambda: segre.QuadricPencil([[float("inf")]], [[1]]),
        "cannot convert Infinity to integer ratio",
    ),
    "nan entry": (
        lambda: segre.QuadricPencil([[float("nan")]], [[1]]),
        "cannot convert NaN to integer ratio",
    ),
    "bad literal": (lambda: segre.QuadricPencil([["x"]], [[1]]), "Invalid literal for Fraction: 'x'"),
    "long bad literal": (
        lambda: segre.QuadricPencil([["y" * 100]], [[1]]),
        f"Invalid literal for Fraction: {'y' * 40!r}",
    ),
    "non-square": (lambda: segre.QuadricPencil([[1, 2]], [[1, 2]]), "matrix must be square"),
    "ragged": (lambda: segre.QuadricPencil([[1, 2], [2]], [[1, 0], [0, 1]]), "matrix must be square"),
    "sizes differ": (
        lambda: segre.QuadricPencil([[1]], [[1, 0], [0, 1]]),
        "U and V must have the same size",
    ),
    "non-symmetric": (
        lambda: segre.QuadricPencil([[1, 2], [3, 4]], [[1, 0], [0, 1]]),
        "U is not symmetric",
    ),
    "singular basis change": (
        lambda: segre.pencil.change_basis(_P2, 1, 2, 2, 4),
        "pencil basis change must be invertible",
    ),
    "bad basis change scalar": (
        lambda: segre.pencil.change_basis(_P2, "x", 0, 0, 1),
        "Invalid literal for Fraction: 'x'",
    ),
    "smooth member to degeneracy_report": (
        lambda: segre.degeneracy_report(_P2),
        "pencil has a nonsingular member; nothing to report",
    ),
    # congruent zipped to the shorter size: a 4 x 4 pencil of symbol [1111]
    "congruence too small": (
        lambda: segre.pencil.congruent(segre.random_instance("[2111]", 1), segre.pencil.identity(4)),
        "congruence must be 5 x 5, got 4 x 4",
    ),
    # and a 3 x 3 pencil with a zero row
    "congruence too large": (
        lambda: segre.pencil.congruent(_P2, segre.pencil.identity(3)),
        "congruence must be 2 x 2, got 3 x 3",
    ),
    # entries and rows of the wrong type raised TypeError
    "no matrices": (lambda: segre.QuadricPencil(None, None), _NOT_ROWS),
    "integer matrices": (lambda: segre.QuadricPencil(5, 5), _NOT_ROWS),
    "integer rows": (lambda: segre.QuadricPencil([5], [5]), _NOT_ROWS),
    "None entry": (lambda: segre.QuadricPencil([[None]], [[1]]), _NOT_RATIONAL),
    "list entry": (lambda: segre.QuadricPencil([[[1]]], [[1]]), _NOT_RATIONAL),
    "complex entry": (lambda: segre.QuadricPencil([[1j]], [[1]]), _NOT_RATIONAL),
    "as_matrix of None": (lambda: segre.pencil.as_matrix(None), _NOT_ROWS),
    # text and bytes were read one character at a time, '12' as 1 and 2
    "text rows": (lambda: segre.QuadricPencil(["12", "21"], ["10", "01"]), _NOT_ROWS),
    "bytes rows": (lambda: segre.QuadricPencil([b"12", b"21"], [b"10", b"01"]), _NOT_ROWS),
    "text matrix": (lambda: segre.QuadricPencil("1", "1"), _NOT_ROWS),
    "as_matrix of text rows": (lambda: segre.pencil.as_matrix(["12", "21"]), _NOT_ROWS),
    "congruence of text rows": (lambda: segre.pencil.congruent(_P2, ["10", "01"]), _NOT_ROWS),
    "render text rows": (lambda: segre.render_form(["12", "21"]), _NOT_ROWS),
    "render bytearray rows": (lambda: segre.render_form([bytearray(b"1")]), _NOT_ROWS),
    "Polynomial of text": (lambda: segre.Polynomial("12"), "coefficients must be a sequence, got str"),
    "Polynomial of bytes": (lambda: segre.Polynomial(b"12"), "coefficients must be a sequence, got bytes"),
    "diagonal of text": (lambda: segre.pencil.diagonal("12"), "diagonal must be a sequence, got str"),
    "normal form roots text": (
        lambda: segre.build_normal_form("[11]", "12"),
        "roots must be a sequence, got str",
    ),
    "coprime_basis of text": (lambda: segre.coprime_basis("t"), "polynomials must be a sequence, got str"),
    "congruence None": (lambda: segre.pencil.congruent(_P2, None), _NOT_ROWS),
    "member scalar None": (lambda: _P2.member(None, 1), _NOT_RATIONAL),
    # plain ValueErrors
    "too few roots": (
        lambda: segre.build_normal_form("[2111]", [1, 2]),
        "[2111] needs 4 roots, got 2",
    ),
    "equal roots": (
        lambda: segre.build_normal_form("[2111]", [1, 1, 2, 3]),
        "roots of distinct groups must be pairwise distinct",
    ),
    "root None": (lambda: segre.build_normal_form("[1]", [None]), _NOT_RATIONAL),
    # render_form rendered the upper triangle of any matrix
    "render non-symmetric": (lambda: segre.render_form([[1, 2], [3, 4]]), "matrix is not symmetric"),
    "render non-square": (lambda: segre.render_form([[1, 2]]), "matrix must be square"),
    "render ragged": (lambda: segre.render_form([[1, 2], [2]]), "matrix must be square"),
    # render_form read its matrix with no check of the entries: TypeError
    "render None": (lambda: segre.render_form(None), _NOT_ROWS),
    "render None entry": (lambda: segre.render_form([[None]]), _NOT_RATIONAL),
    # the library took an exponent that the JSON reader refuses
    "huge exponent entry": (lambda: segre.QuadricPencil([["1e100000"]], [[1]]), _HUGE_EXPONENT),
    "huge exponent root": (
        lambda: segre.build_normal_form("[2111]", ["1e100000", 3, 4, 5]),
        _HUGE_EXPONENT,
    ),
    "huge exponent basis change": (
        lambda: segre.pencil.change_basis(_P2, "1e100000", 0, 0, 1),
        _HUGE_EXPONENT,
    ),
    "huge exponent member": (lambda: _P2.member("1e100000", 1), _HUGE_EXPONENT),
    # Polynomial read its coefficients with plain Fraction: a 332,193-bit one
    "huge exponent polynomial coefficient": (lambda: segre.Polynomial(["1e100000"]), _HUGE_EXPONENT),
    # a Decimal skipped the text checks, and Fraction built its power of ten
    "huge exponent Decimal entry": (
        lambda: segre.QuadricPencil([[Decimal("1e2000000")]], [[1]]),
        "exponent of '1E+2000000' is out of range",
    ),
    # an argument that is not iterable raised TypeError
    "diagonal of an int": (lambda: segre.pencil.diagonal(5), "diagonal must be a sequence, got int"),
    # the matrix helpers raised TypeError on a size that is not an int
    **{
        f"identity of {type(size).__name__}": (
            lambda size=size: segre.pencil.identity(size), f"size must be an int, got {type(size).__name__}"
        )
        for size in ("3", None, 2.5)
    },
    "normal form roots an int": (
        lambda: segre.build_normal_form("[2111]", 5),
        "roots must be a sequence, got int",
    ),
    "Polynomial of an int": (lambda: segre.Polynomial(5), "coefficients must be a sequence, got int"),
    # random_instance seeded from the operating system on None, and took
    # a float or text seed silently
    "seed None": (lambda: segre.random_instance("[2111]", None), "seed must be an int, got NoneType"),
    "seed float": (lambda: segre.random_instance("[2111]", 1.5), "seed must be an int, got float"),
    "seed text": (lambda: segre.random_instance("[2111]", "a"), "seed must be an int, got str"),
    # the polynomial wrappers raised TypeError and AttributeError on
    # arguments of the wrong type, and a plain ValueError on refused ones
    "coprime_basis of an int": (lambda: segre.coprime_basis(5), "polynomials must be a sequence, got int"),
    "coprime_basis of an int item": (lambda: segre.coprime_basis([5]), "expected a Polynomial, got int"),
    "coprime_basis of a constant": (
        lambda: segre.coprime_basis([segre.Polynomial([1])]),
        "coprime_basis requires nonconstant inputs, got 1",
    ),
    "coprime_basis of a non-monic": (
        lambda: segre.coprime_basis([segre.Polynomial([1, 2])]),
        "coprime_basis requires monic inputs, got 2*t + 1",
    ),
    "coprime_basis of a square": (
        lambda: segre.coprime_basis([segre.Polynomial([1, 2, 1])]),
        "coprime_basis requires squarefree inputs, got t^2 + 2*t + 1",
    ),
    "squarefree_decomposition of an int": (
        lambda: segre.polynomial.squarefree_decomposition(5),
        "expected a Polynomial, got int",
    ),
    "squarefree_decomposition of None": (
        lambda: segre.polynomial.squarefree_decomposition(None),
        "expected a Polynomial, got NoneType",
    ),
    "squarefree_decomposition of zero": (
        lambda: segre.polynomial.squarefree_decomposition(segre.Polynomial()),
        "squarefree decomposition of the zero polynomial is undefined",
    ),
    # a pencil argument that is not a pencil raised AttributeError
    **{
        f"{name} of None": (lambda call=call: call(None), "expected a QuadricPencil, got NoneType")
        for name, call in {
            "analyze_pencil": segre.analyze_pencil,
            "compute_symbol": segre.compute_symbol,
            "select_nonsingular_member": segre.select_nonsingular_member,
            "degeneracy_report": segre.degeneracy_report,
            "numeric_exponent_partitions": segre.numeric_exponent_partitions,
            "det_poly": segre.det_poly,
            "invariant_factors": segre.invariant_factors,
            "congruent": lambda p: segre.pencil.congruent(p, segre.pencil.identity(2)),
            "change_basis": lambda p: segre.pencil.change_basis(p, 1, 0, 0, 1),
            "forms.pencil_to_json": segre.forms.pencil_to_json,
        }.items()
    },
}


@pytest.mark.parametrize("case", sorted(PENCIL_ERRORS))
def test_pencil_input_raises_pencil_error(case):
    call, message = PENCIL_ERRORS[case]
    with pytest.raises(SegreError) as info:
        call()
    assert type(info.value) is PencilError and isinstance(info.value, ValueError)
    assert str(info.value) == message


def test_render_form_reads_entries_as_the_pencil_does():
    assert segre.render_form([["1/2"]]) == "1/2*X0^2"
    # a float is read at its exact binary value, 0.1 = 3602879701896397 / 2^55
    assert segre.render_form([[0.1]]) == "3602879701896397/36028797018963968*X0^2"
    assert segre.render_form([[0.1]]) == segre.render_form(segre.QuadricPencil([[0.1]], [[1]]).u)


def test_decimal_entries_are_read_from_their_text():
    assert segre.QuadricPencil([[Decimal("0.1")]], [[1]]).u == ((Fraction(1, 10),),)
    assert segre.Polynomial([Decimal("0.1"), Decimal("2E+3")]).coeffs == (Fraction(1, 10), 2000)


# the matrix helpers built an empty matrix below size 1 and any matrix
# above MAX_SIZE, in time that grows as size^2
SIZE_ERRORS = {
    f"{name}({size})": (lambda call=call, size=size: call(size), message)
    for name, call in {
        "identity": segre.pencil.identity,
        "diagonal": lambda n: segre.pencil.diagonal(range(n)),
        # rendered X5, X6, ..., which parse_quadratic_form refuses, and "0" for []
        "render_form": lambda n: segre.render_form([[int(i == j) for j in range(n)] for i in range(n)]),
        # built n x n Fractions, 1.44 million at 1200
        "as_matrix": lambda n: segre.pencil.as_matrix([[int(i == j) for j in range(n)] for i in range(n)]),
    }.items()
    for size, message in {
        0: "pencils are at least 1 x 1",
        -2: "pencils are at least 1 x 1",
        6: "pencils are at most 5 x 5, got 6 x 6",
        7: "pencils are at most 5 x 5, got 7 x 7",
        1200: "pencils are at most 5 x 5, got 1200 x 1200",
    }.items()
}
# a single elementary block of size e, (lambda - 1)^e, built from its symbol;
# an e below 1 is refused by Group before any size check
SIZE_ERRORS.update({
    f"single block({size})": (
        lambda size=size: segre.build_normal_form(segre.SegreSymbol([segre.symbol.Group((size,))]), [1]),
        f"pencils are at most 5 x 5, got {size} x {size}",
    )
    for size in (6, 7, 1200)
})


@pytest.mark.parametrize("case", sorted(SIZE_ERRORS))
def test_matrix_helper_sizes_raise_size_limit_error(case):
    call, message = SIZE_ERRORS[case]
    with pytest.raises(SegreError) as info:
        call()
    assert type(info.value) is SizeLimitError and isinstance(info.value, ValueError)
    assert str(info.value) == message


class _Unread:
    """A row that fails the test when it is read."""

    def __iter__(self):
        raise AssertionError("a row of an oversize matrix was read")

    __len__ = __iter__


@pytest.mark.parametrize("call", [
    lambda m: segre.QuadricPencil(m, m),
    lambda m: segre.pencil.congruent(_P2, m),
    segre.render_form,
    segre.pencil.as_matrix,
])
def test_an_oversize_matrix_is_refused_before_its_rows_are_read(call):
    with pytest.raises(SizeLimitError) as info:
        call([_Unread()] * 1200)
    assert str(info.value) == "pencils are at most 5 x 5, got 1200 x 1200"


# constructors and lookups that take typed items, and items of the wrong type
WRONG_ITEMS = {
    "SegreSymbol of an int": (
        lambda: segre.SegreSymbol([5]),
        "symbol groups must be Group values, got int",
    ),
    "SegreSymbol of a non-sequence": (
        lambda: segre.SegreSymbol(5),
        "symbol groups must be a sequence, got int",
    ),
    "class_degree of text": (
        lambda: segre.class_degree("zz"),
        "singularities must be SingularityType values, got str",
    ),
    "class_degree of an int item": (
        lambda: segre.class_degree([5]),
        "singularities must be SingularityType values, got int",
    ),
    # these raised TypeError and AttributeError
    "pencil_from_json of None": (
        lambda: segre.forms.pencil_from_json(None),
        "invalid JSON: the JSON object must be str, bytes or bytearray, not NoneType",
    ),
    "outcome_to_dict of an int": (
        lambda: segre.reporting.outcome_to_dict(42),
        "outcome must be an AnalysisOutcome, got int",
    ),
    "outcome_to_dict of an outcome with no report": (
        lambda: segre.reporting.outcome_to_dict(segre.reporting.AnalysisOutcome()),
        "report must be a SurfaceReport, got NoneType",
    ),
    # these raised AttributeError and TypeError
    "outcome_to_dict of an outcome with an int symbol": (
        lambda: segre.reporting.outcome_to_dict(
            segre.reporting.AnalysisOutcome(surface=segre.classify_symbol("[2111]"), symbol=5)
        ),
        "outcome symbol must be a SegreSymbol, got int",
    ),
    "outcome_to_dict of an outcome with an int degeneracy": (
        lambda: segre.reporting.outcome_to_dict(segre.reporting.AnalysisOutcome(degeneracy=5)),
        "outcome degeneracy must be a DegeneracyReport, got int",
    ),
    "outcome_to_dict of an outcome with int invariant factors": (
        lambda: segre.reporting.outcome_to_dict(
            segre.reporting.AnalysisOutcome(
                surface=segre.classify_symbol("[2111]"), invariant_factors=5
            )
        ),
        "outcome invariant_factors must be a tuple of str, got int",
    ),
    "outcome_to_dict of an outcome with an int invariant factor": (
        lambda: segre.reporting.outcome_to_dict(
            segre.reporting.AnalysisOutcome(
                surface=segre.classify_symbol("[2111]"), invariant_factors=("1", 2)
            )
        ),
        "outcome invariant_factors item must be a str, got int",
    ),
    "outcome_to_dict of an outcome with an int determinant": (
        lambda: segre.reporting.outcome_to_dict(
            segre.reporting.AnalysisOutcome(surface=segre.classify_symbol("[2111]"), determinant=5)
        ),
        "outcome determinant must be a str, got int",
    ),
    "render_pretty of an int": (
        lambda: segre.reporting.render_pretty(42),
        "report must be a dict, got int",
    ),
    "surface_report_to_dict of text": (
        lambda: segre.reporting.surface_report_to_dict("x"),
        "report must be a SurfaceReport, got str",
    ),
    # this raised AttributeError at the symbol's render()
    "surface_report_to_dict of a report with an int symbol": (
        lambda: segre.reporting.surface_report_to_dict(segre.SurfaceReport(symbol=5, is_segre=False)),
        "report symbol must be a SegreSymbol, got int",
    ),
    "outcome_to_dict of an outcome whose report has an int symbol": (
        lambda: segre.reporting.outcome_to_dict(
            segre.reporting.AnalysisOutcome(surface=segre.SurfaceReport(symbol=5, is_segre=False))
        ),
        "report symbol must be a SegreSymbol, got int",
    ),
}


@pytest.mark.parametrize("case", sorted(WRONG_ITEMS))
def test_wrong_typed_items_raise_parse_error(case):
    call, message = WRONG_ITEMS[case]
    with pytest.raises(SegreError) as info:
        call()
    assert type(info.value) is ParseError and isinstance(info.value, ValueError)
    assert str(info.value) == message


def test_render_pretty_writes_a_mixed_list_as_text():
    # only a list of dicts is written item by item; this one raised
    # AttributeError, 'int' object has no attribute 'items'
    assert segre.reporting.render_pretty({"a": [{"b": 1}, 5]}) == "a: {'b': 1}, 5"
