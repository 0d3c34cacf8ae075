"""The integer pair a ``QuadricPencil`` holds.

A pencil stores (mult * U, mult * V) with ``mult`` the least common
denominator, and builds its ``Fraction`` matrices only when they are read.
Every way of making a pencil (the public constructor, the JSON reader,
``congruent``, ``change_basis`` and member selection) must give the
pencil that ``Fraction`` matrices give, with the same ``==``, ``hash``,
``repr`` and det V, and the same errors.
"""

import copy
import dataclasses
import json
import pickle
import random
import weakref
from contextlib import contextmanager
from fractions import Fraction

import pytest

import segre.pencil
from segre.errors import IllConditionedError, ParseError, PencilError, SizeLimitError
from segre.forms import pencil_from_json
from segre.numeric import numeric_exponent_partitions
from segre.pencil import (
    QuadricPencil,
    _cleared,
    _poly_minor,
    _sweep_value,
    as_matrix,
    change_basis,
    congruent,
    diagonal,
    identity,
    select_nonsingular_member,
)
from segre.reporting import analyze_pencil, outcome_to_dict


def _symmetric_texts(rng: random.Random, entry) -> list[list[str]]:
    m = [["0"] * 5 for _ in range(5)]
    for i in range(5):
        for j in range(i, 5):
            m[i][j] = m[j][i] = entry(rng)
    return m


def _doc(u, v) -> str:
    return json.dumps({"U": u, "V": v})


def _doc_of(u, v) -> str:
    return _doc(*([[str(c) for c in row] for row in m] for m in (u, v)))


@contextmanager
def _counting_fractions(made: list):
    real = vars(Fraction)["__new__"]

    def counted(cls, *args, **kwargs):
        made.append(args)
        return real.__func__(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counted)
    try:
        yield
    finally:
        Fraction.__new__ = real


def _same_pencil(got: QuadricPencil, want: QuadricPencil) -> None:
    assert got == want and not got != want
    assert hash(got) == hash(want)
    assert repr(got) == repr(want)
    assert (got.u, got.v) == (want.u, want.v)
    assert all(type(c) is Fraction for m in (got.u, got.v) for row in m for c in row)
    assert got.det_v == want.det_v
    # the held pair is the canonical one: the rational matrices cleared
    both, mult = _cleared(got.u + got.v)
    assert (got._iu, got._iv, got._mult) == (both[: got.size], both[got.size :], mult)


_ENTRIES = {
    "integer": lambda rng: str(rng.randint(0, 999)),
    "negative": lambda rng: str(rng.randint(-999, -1)),
    "third": lambda rng: f"{rng.randint(-9, 9)}/3",
    "decimal": lambda rng: f"{rng.randint(-9, 9)}.5",
    "exponent": lambda rng: f"{rng.randint(-9, 9)}e3",
    "underscore": lambda rng: f"{rng.randint(1, 9)}_000",
    "mixed": lambda rng: rng.choice(["7", "-2/6", " 3 ", "0.25", "1e-2", "-0", "4/2"]),
    "1000 digits": lambda rng: str(rng.randrange(10**999, 10**1000)) if rng.random() < 0.5 else "1",
}


@pytest.mark.parametrize("kind", sorted(_ENTRIES))
def test_reader_gives_the_fraction_pencil(kind):
    rng = random.Random(kind)
    for _ in range(5):
        u = _symmetric_texts(rng, _ENTRIES[kind])
        v = _symmetric_texts(rng, _ENTRIES[kind])
        try:  # Fraction("1_000") raises on Python 3.10 only
            want = QuadricPencil(as_matrix(u), as_matrix(v))
        except ValueError:
            with pytest.raises(ParseError):
                pencil_from_json(_doc(u, v))
            continue
        _same_pencil(pencil_from_json(_doc(u, v)), want)


def test_public_constructor_takes_any_rational_entries():
    ints = [[1, 2], [2, -3]]
    want = QuadricPencil(as_matrix(ints), identity(2))
    for u in (ints, [[Fraction(1), "2"], [2.0, Fraction(-6, 2)]], [[True, 2], [2, -3]]):
        got = QuadricPencil(u, [[1, 0], [0, 1]])
        assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
    half = QuadricPencil([["1/2", 0], [0, 1]], [[0.25, 0], [0, 1]])
    assert (half._iu, half._iv, half._mult) == (((2, 0), (0, 4)), ((1, 0), (0, 4)), 4)


def test_congruent_gives_the_fraction_pencil():
    rng = random.Random(3)
    for mult in (1, 2, 6):
        for _ in range(10):
            u = [[Fraction(c, mult) for c in row] for row in _symmetric_ints(rng)]
            v = [[Fraction(c, mult) for c in row] for row in _symmetric_ints(rng)]
            p = QuadricPencil(u, v)
            # entries over 2 and 3, and an integer matrix with a common factor
            a = [[Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3])) for _ in range(5)]
                 for _ in range(5)]
            for m in (a, [[2 * rng.randint(-3, 3) for _ in range(5)] for _ in range(5)]):
                _same_pencil(congruent(p, m), _fraction_congruent(p, m))


def test_change_basis_gives_the_fraction_pencil():
    rng = random.Random(4)
    p = QuadricPencil(
        [[Fraction(c, 6) for c in row] for row in _symmetric_ints(rng)],
        [[Fraction(c, 4) for c in row] for row in _symmetric_ints(rng)],
    )
    for abcd in [(1, 0, 0, 1), (2, 0, 0, 2), (6, 0, 0, 4), (1, 1, 0, 1),
                 (Fraction(1, 2), 3, Fraction(-2, 3), "5/7"), (0.5, 0, 0, 2)]:
        want = QuadricPencil(p.member(*abcd[:2]), p.member(*abcd[2:]))
        _same_pencil(change_basis(p, *abcd), want)


@pytest.mark.parametrize("p", [
    QuadricPencil(diagonal([1, 2, 3, 4, 5]), diagonal([1, 1, 1, 1, 0])),
    QuadricPencil(diagonal([0, 1, 2, 3, 4]), diagonal([Fraction(1, 2), 1, 1, 1, 0])),
    QuadricPencil(diagonal([Fraction(1, 3), 1, -1, 3, 4]), diagonal([1, 0, 0, 1, 1])),
])
def test_member_selection_with_singular_v_gives_the_fraction_pencil(p):
    assert p.det_v == 0
    t = _sweep_value(_poly_minor(p._iu, p._iv), p.size)
    _same_pencil(select_nonsingular_member(p), QuadricPencil(p.v, p.member(1, t)))


def _symmetric_ints(rng: random.Random) -> list[list[int]]:
    m = [[0] * 5 for _ in range(5)]
    for i in range(5):
        for j in range(i, 5):
            m[i][j] = m[j][i] = rng.randint(-9, 9)
    return m


def _fraction_congruent(p: QuadricPencil, a) -> QuadricPencil:
    a = as_matrix(a)

    def mul(x, y):
        return tuple(tuple(sum(r * c for r, c in zip(row, col)) for col in zip(*y)) for row in x)

    at = tuple(zip(*a))
    return QuadricPencil(mul(at, mul(p.u, a)), mul(at, mul(p.v, a)))


def test_pencils_stay_immutable_and_copy_whole():
    p = QuadricPencil(diagonal([1, Fraction(1, 2), 3, 4, 5]), identity(5))
    for name in ("u", "v", "det_v", "_iu", "other"):
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(p, name, None)
    with pytest.raises(dataclasses.FrozenInstanceError, match="cannot delete field 'u'"):
        del p.u
    for q in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        _same_pencil(q, p)
    assert weakref.ref(p)() is p
    assert p != (p.u, p.v)
    match p:
        case QuadricPencil(u, v):
            assert (u, v) == (p.u, p.v)


I5 = [["1" if i == j else "0" for j in range(5)] for i in range(5)]


def _with(m, i, j, x, symmetric=True):
    m = [row[:] for row in m]
    m[i][j] = x
    if symmetric:
        m[j][i] = x
    return m


def _limit_error(text: str) -> str:
    try:
        int(text)
    except ValueError as exc:  # the message differs between Python versions
        return str(exc)
    raise AssertionError("no digit limit")


_ASYMMETRIC = _with(I5, 0, 1, "1", symmetric=False)
_DIGITS = "Exceeds the limit"
# each document and the exact message of the ParseError it raises
READER_ERRORS = [
    ("[1, 2]", 'pencil file must be a JSON object with keys "U" and "V"'),
    (json.dumps({"U": I5}), 'pencil file must be a JSON object with keys "U" and "V"'),
    (_doc("abc", I5), "a matrix must be a list of rows, each a list of entries"),
    (_doc(I5, [1, 2, 3, 4, 5]), "a matrix must be a list of rows, each a list of entries"),
    (_doc(I5[:4] + [["0"] * 4], I5), "bad rational entry in matrix: matrix must be square"),
    (_doc(I5, [r + ["0"] for r in I5]), "bad rational entry in matrix: matrix must be square"),
    (_doc([r[:4] for r in I5[:4]], [r[:4] for r in I5[:4]]), "matrices must be 5x5"),
    (_doc([["0"] * 8] * 8, [["0"] * 8] * 8), "matrices must be 5x5"),
    (_doc([], []), "matrices must be 5x5"),
    (_doc(_ASYMMETRIC, I5), "U is not symmetric"),
    (_doc(I5, _ASYMMETRIC), "V is not symmetric"),
    (_doc(_ASYMMETRIC, _ASYMMETRIC), "U is not symmetric"),
    (_doc(_with(I5, 2, 3, "1/3", symmetric=False), I5), "U is not symmetric"),
    (_doc(_with(I5, 1, 1, "abc"), I5),
     "bad rational entry in matrix: Invalid literal for Fraction: 'abc'"),
    (_doc(I5, _with(I5, 1, 1, "1/0")), "bad rational entry in matrix: Fraction(1, 0)"),
    (_doc(_with(I5, 4, 4, ""), I5), "bad rational entry in matrix: Invalid literal for Fraction: ''"),
    (_doc(_with(I5, 0, 0, True), I5),
     "bad rational entry in matrix: Invalid literal for Fraction: 'True'"),
    (_doc(_with(I5, 0, 0, None), I5),
     "bad rational entry in matrix: Invalid literal for Fraction: 'None'"),
    (_doc(_with(I5, 0, 0, [1]), I5),
     "bad rational entry in matrix: Invalid literal for Fraction: '[1]'"),
    (_doc(_with(I5, 0, 0, "1__0"), I5),
     "bad rational entry in matrix: Invalid literal for Fraction: '1__0'"),
    (_doc(_with(I5, 0, 0, "1/" + "x" * 100), I5),
     "bad rational entry in matrix: Invalid literal for Fraction: '1/" + "x" * 38 + "'"),
    (_doc([["abc"] + I5[0][1:]] + I5[1:4] + [["0"] * 4], I5),
     "bad rational entry in matrix: Invalid literal for Fraction: 'abc'"),
    (_doc(_with(I5, 0, 0, "1e5000"), I5),
     "bad rational entry in matrix: exponent of '1e5000' is out of range"),
    (_doc(_with(I5, 0, 0, "9" * 5000), I5), _DIGITS),
    (_doc(_with(I5, 0, 0, "0." + "1" * 5000), I5), _DIGITS),
    (_doc(_with(I5, 0, 0, "1/" + "7" * 5000), I5), _DIGITS),
]


@pytest.mark.parametrize("text, message", READER_ERRORS)
def test_reader_errors_are_unchanged(text, message):
    if message == _DIGITS:
        message = "bad rational entry in matrix: " + _limit_error("1" * 5000)
    with pytest.raises(ParseError) as info:
        pencil_from_json(text)
    assert str(info.value) == message


_I5 = identity(5)
_I8 = [[int(i == j) for j in range(8)] for i in range(8)]  # identity() refuses the size itself
API_ERRORS = [
    (lambda: QuadricPencil(identity(4), identity(5)), ValueError, "U and V must have the same size"),
    (lambda: QuadricPencil(_I8, _I8), SizeLimitError,
     "pencils are at most 5 x 5, got 8 x 8"),
    (lambda: QuadricPencil([[1, 2], [2]], identity(2)), ValueError, "matrix must be square"),
    (lambda: QuadricPencil(identity(2), [[1, 2, 3], [2, 1, 0]]), ValueError,
     "matrix must be square"),
    (lambda: QuadricPencil([[1, 2], [3, 4]], identity(2)), ValueError, "U is not symmetric"),
    (lambda: QuadricPencil(identity(2), [[1, 2], [3, 4]]), ValueError, "V is not symmetric"),
    (lambda: QuadricPencil([["abc"]], [[1]]), ValueError, "Invalid literal for Fraction: 'abc'"),
    (lambda: congruent(QuadricPencil(_I5, _I5), [[1, 2], [3]]), ValueError,
     "matrix must be square"),
    (lambda: congruent(QuadricPencil(_I5, _I5), _I8), SizeLimitError,
     "pencils are at most 5 x 5, got 8 x 8"),
    (lambda: change_basis(QuadricPencil(_I5, _I5), 1, 2, 2, 4), ValueError,
     "pencil basis change must be invertible"),
    (lambda: change_basis(QuadricPencil(_I5, _I5), "1/2", 1, 1, 2), ValueError,
     "pencil basis change must be invertible"),
]


@pytest.mark.parametrize("call, kind, message", API_ERRORS)
def test_constructor_errors_are_unchanged(call, kind, message):
    # the messages are unchanged; each ValueError is a PencilError, which
    # callers that catch ValueError still catch
    with pytest.raises(kind) as info:
        call()
    assert type(info.value) is {ValueError: PencilError}.get(kind, kind)
    assert str(info.value) == message


class _EmptyPair:
    """Pickles as the state of a 0 x 0 pencil."""

    def __reduce__(self):
        return segre.pencil._reduced, ((), (), 1)


@pytest.mark.parametrize("make", [
    lambda: QuadricPencil([], []),
    lambda: congruent(QuadricPencil(_I5, _I5), []),
    lambda: pickle.loads(pickle.dumps(_EmptyPair())),
], ids=["constructor", "congruent", "unpickle"])
def test_empty_pencil_is_refused(make):
    # a 0 x 0 pair has no member to analyse: analyze_pencil indexed its
    # empty chain, and compute_symbol returned the empty symbol
    with pytest.raises(SizeLimitError) as info:
        make()
    assert str(info.value) == "pencils are at least 1 x 1"


def test_integer_documents_never_build_the_rational_matrices(monkeypatch):
    """An integer pencil goes from its JSON text through the analysis, the
    report, member selection and the numeric oracle on its integer pair."""
    rng = random.Random(11)
    docs = [
        _doc(*(_symmetric_texts(rng, lambda r: str(r.randint(-999, 999))) for _ in range(2))),
        _doc_of(diagonal([1, 2, 3, 4, 5]), diagonal([1, 1, 1, 1, 0])),
        _doc_of(diagonal([1, 1, 2, 3, 4]), diagonal([1, 1, 0, 0, 0])),
    ]
    built = []
    monkeypatch.setattr(segre.pencil, "_rational", lambda *a: built.append(a))
    for text in docs:
        made = []
        with _counting_fractions(made):
            p = pencil_from_json(text)
        assert made == []
        outcome_to_dict(analyze_pencil(p))
        selected = select_nonsingular_member(p)
        try:
            numeric_exponent_partitions(selected)
        except IllConditionedError:  # refused after its float matrices were formed
            pass
        assert (p._u, p._v, selected._u, selected._v) == (None,) * 4
    assert built == []



