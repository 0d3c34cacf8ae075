"""The contract every slotted value type keeps, beside the records' in
``tests/test_records.py``: ``QuadricPencil``, ``Polynomial`` and
``SegreSymbol`` take immutability, equality and hashing from
``_record.Frozen``, as every record does.

- Setting or deleting any slot, or an unknown name, raises
  ``dataclasses.FrozenInstanceError`` with the record texts.
- ``==`` and ``hash`` follow ``_values()`` (the exponent structure for a
  symbol), and ``__eq__`` of another class returns ``NotImplemented``.
- Pickle, ``copy`` and ``deepcopy`` round-trip.
- A pencil takes a weak reference.
- Each stores the values it is built from, and only the lazy forms an
  analysis reads twice.

The file needs neither pytest nor numpy and runs as a plain script too::

    PYTHONPATH=src python -S tests/test_values.py
"""

import copy
import dataclasses
import pickle
import sys
import weakref
from fractions import Fraction

from segre._record import Frozen, Record
from segre.pencil import QuadricPencil, diagonal
from segre.polynomial import Polynomial
from segre.symbol import SegreSymbol, compute_symbol, random_instance

PENCILS = [random_instance("[(21)11]", 1), QuadricPencil([[Fraction(1, 2)]], [["-3/4"]])]
POLYNOMIALS = [Polynomial([Fraction(1, 3), 0, 2]), Polynomial([]), Polynomial([-6, 4])]
SYMBOLS = [SegreSymbol.parse("[(21)11]"), compute_symbol(random_instance("[2(11)1]", 2))]
EXAMPLES = PENCILS + POLYNOMIALS + SYMBOLS


def _refuses(action, text: str) -> None:
    try:
        action()
    except dataclasses.FrozenInstanceError as exc:
        assert str(exc) == text, (str(exc), text)
    else:
        raise AssertionError(f"no FrozenInstanceError: {text}")


def test_the_value_types_and_records_are_the_frozen_types():
    assert set(Frozen.__subclasses__()) == {Record, QuadricPencil, Polynomial, SegreSymbol}
    for cls in (QuadricPencil, Polynomial, SegreSymbol):
        assert cls.__setattr__ is Frozen.__setattr__ and cls.__delattr__ is Frozen.__delattr__
    assert not any(hasattr(value, "__dict__") for value in EXAMPLES)
    assert QuadricPencil.__eq__ is Polynomial.__eq__ is Frozen.__eq__
    assert QuadricPencil.__hash__ is Polynomial.__hash__ is Frozen.__hash__


def test_a_value_stores_what_it_is_built_from():
    # and the lazy forms that one analysis reads twice: a pencil's determinant
    # expansion, a polynomial's text and a born-canonical symbol's structure;
    # u, v, coeffs and render() give equal values on each read
    assert QuadricPencil.__slots__ == ("_iu", "_iv", "_mult", "_det", "__weakref__")
    assert Polynomial.__slots__ == ("_c", "_den", "_text")
    assert SegreSymbol.__slots__ == ("groups", "_structure")
    for p in PENCILS:
        assert (p.u, p.v) == (p.u, p.v)
    for f in POLYNOMIALS:
        assert f.coeffs == f.coeffs
    for s in SYMBOLS:
        assert s.render() == s.render()


def test_set_and_delete_raise_the_record_texts():
    for value in EXAMPLES:
        before = copy.copy(value)
        for name in (*type(value).__slots__, "not_a_field"):
            _refuses(lambda: setattr(value, name, None), f"cannot assign to field {name!r}")
            _refuses(lambda: delattr(value, name), f"cannot delete field {name!r}")
        assert value == before and repr(value) == repr(before)
    assert issubclass(dataclasses.FrozenInstanceError, AttributeError)


def test_equality_and_hash_follow_the_values():
    for value in PENCILS + POLYNOMIALS:
        same = copy.copy(value)
        assert same is not value and same._values() == value._values()
        assert value == same and not value != same
        assert hash(value) == hash(same) == hash(value._values())
        assert value != value._values()
    p = PENCILS[1]
    assert hash(p) == hash((p._mult, p._iu, p._iv)) == hash((4, ((2,),), ((-3,),)))
    assert p == QuadricPencil([["1/2"]], [[Fraction(-3, 4)]])
    assert p != QuadricPencil([[2]], [[-3]])
    f = POLYNOMIALS[0]
    assert hash(f) == hash((f._c, f._den)) == hash(((1, 0, 6), 3))
    assert POLYNOMIALS[2] == Polynomial([Fraction(-12, 2), 4]) != Polynomial([-3, 2])


def test_symbols_compare_by_structure():
    s = SYMBOLS[0]
    moved = SegreSymbol.parse("[1(12)1]")
    assert s == moved and hash(s) == hash(moved) == hash(s.exponent_structure())
    assert s == "[(21)11]" and s != "[(21)(11)]" and s != "abc"
    assert s != SYMBOLS[1]


def test_another_class_is_not_implemented():
    others = [None, 1, "x", (), diagonal([1]), Polynomial([1]), SegreSymbol.parse("[1]")]
    for value in EXAMPLES:
        for other in others:
            if type(other) is type(value) or (type(value) is SegreSymbol and type(other) is str):
                continue
            assert value.__eq__(other) is NotImplemented, (value, other)
            assert value != other and not value == other
    assert Polynomial([1]) != 1 and Polynomial([1]) != Fraction(1)


def test_pickle_and_copies_round_trip():
    for value in EXAMPLES:
        for copied in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
            assert type(copied) is type(value) and copied == value
            assert repr(copied) == repr(value) and hash(copied) == hash(value)
            if type(value) is SegreSymbol:
                assert copied.groups == value.groups


def test_a_pencil_takes_a_weak_reference():
    for p in PENCILS:
        ref = weakref.ref(p)
        assert ref() is p
    p = QuadricPencil([[1]], [[2]])
    ref = weakref.ref(p)
    del p
    assert ref() is None


if __name__ == "__main__":
    tests = [f for name, f in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
    print(f"{len(tests)} value-type checks hold for {len(EXAMPLES)} values on Python "
          f"{sys.version.split()[0]}")
