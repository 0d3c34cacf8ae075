"""The contract every record type keeps: the frozen-dataclass behaviour
the package's value types had, checked against a real frozen dataclass
with the same fields wherever the two can be compared."""

import copy
import dataclasses
import pickle

import pytest

import segre.acceptance
import segre.numeric
from segre._record import Record
from segre.catalog import CATALOG, TABLE2_ROWS
from segre.forms import parse_quadratic_form
from segre.pencil import QuadricPencil, degeneracy_report, diagonal, invariant_factors
from segre.polynomial import Polynomial
from segre.reporting import analyze_pencil
from segre.symbol import Group, SegreSymbol, SymbolicRoot, random_instance


def _examples() -> list:
    outcome = analyze_pencil(random_instance("[(21)11]", 0))
    cover = outcome.surface.covers[0]
    pencil = random_instance("[2111]", 1)
    row = CATALOG["[2111]"]
    return [
        outcome,
        outcome.surface,
        outcome.symbol.groups[0],
        outcome.symbol.groups[0].root,
        SymbolicRoot(Polynomial([-2, 0, 1]), 1),
        cover,
        cover.branch_structure,
        cover.section,
        cover.section.terms[0],
        row,
        row.singularities[0],
        TABLE2_ROWS[0],
        parse_quadratic_form("X0^2 + 1/2*X1*X2"),
        segre.numeric.numeric_exponent_partitions(pencil).groups[0].root,
        invariant_factors(pencil),
        degeneracy_report(QuadricPencil(diagonal([1, 0, 0]), diagonal([0, 1, 0]))),
        segre.acceptance.CriterionResult(1, "name", True, "detail"),
    ]


EXAMPLES = {type(r): r for r in _examples()}


def test_every_record_type_has_an_example():
    package = {c for c in Record.__subclasses__() if c.__module__.startswith("segre.")}
    assert package == set(EXAMPLES)


def _fields(r) -> tuple:
    return tuple(getattr(r, n) for n in type(r).__match_args__)


def _dataclass_twin(cls):
    names = cls.__match_args__
    return dataclasses.make_dataclass(cls.__name__, names, frozen=True)


@pytest.fixture(params=sorted(EXAMPLES, key=lambda c: c.__name__), ids=lambda c: c.__name__)
def record(request):
    return EXAMPLES[request.param]


def test_fields_are_the_own_annotations_in_order(record):
    cls = type(record)
    assert cls.__match_args__ == tuple(cls.__annotations__)
    assert vars(record) == dict(zip(cls.__match_args__, _fields(record)))


def test_positional_keyword_and_default_construction(record):
    cls = type(record)
    names, values = cls.__match_args__, _fields(record)
    assert cls(*values) == record
    assert cls(**dict(zip(names, values))) == record
    assert cls(*values[:1], **dict(zip(names[1:], values[1:]))) == record
    defaulted = [n for n in names if hasattr(cls, n)]
    required = {n: v for n, v in zip(names, values) if n not in defaulted}
    if defaulted:
        bare = cls(**required)
        assert all(getattr(bare, n) == getattr(cls, n) for n in defaulted)


def test_bad_arguments_raise_type_error(record):
    cls = type(record)
    names, values = cls.__match_args__, _fields(record)
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values, **{names[0]: values[0]})
    with pytest.raises(TypeError):
        cls(*values, no_such_field=1)
    if not hasattr(cls, names[0]):
        with pytest.raises(TypeError):
            cls(**dict(zip(names[1:], values[1:])))


def test_equality_and_hash_follow_the_field_tuple(record):
    cls = type(record)
    values = _fields(record)
    twin = _dataclass_twin(cls)(*values)
    assert hash(record) == hash(values) == hash(twin)
    assert record == cls(*values) and not record != cls(*values)
    assert record != values and record != twin
    other = type("Other", (Record,), {"__annotations__": dict.fromkeys(cls.__match_args__)})
    assert record != other(*values)
    assert record.__eq__(other(*values)) is NotImplemented


def test_repr_is_the_dataclass_text(record):
    values = _fields(record)
    assert repr(record) == repr(_dataclass_twin(type(record))(*values))
    assert repr(record).startswith(f"{type(record).__name__}({type(record).__match_args__[0]}=")


def test_match_args_bind_positional_patterns(record):
    cls = type(record)
    first = _fields(record)[0]
    match record:
        case cls(got):  # noqa: F841 - the pattern binds the first field
            assert got is first
        case _:
            pytest.fail("a record did not match its own class pattern")


def test_frozen_on_set_and_delete(record):
    for name in (*type(record).__match_args__, "not_a_field"):
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot delete field '{name}'"):
            delattr(record, name)


def test_pickle_and_copy_round_trip(record):
    for copied in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(copied) is type(record)
        assert copied == record and repr(copied) == repr(record)


def test_replace_carries_the_other_fields_over(record):
    names, values = type(record).__match_args__, _fields(record)
    same = record.replace()
    assert same == record and same is not record
    new = record.replace(**{names[-1]: values[-1]})
    assert _fields(new) == values
    with pytest.raises(TypeError):
        record.replace(no_such_field=1)


def test_replace_changes_the_named_fields_through_the_constructor():
    row = CATALOG["[2111]"]
    changed = row.replace(lines_total=1, aut_e=None)
    assert (changed.lines_total, changed.aut_e) == (1, None)
    assert changed.replace(lines_total=row.lines_total, aut_e=row.aut_e) == row
    assert Group((2, 1)).replace(exponents=(1, 2)).exponents == (2, 1)
    with pytest.raises(ValueError):
        Group((2, 1)).replace(exponents=())
    with pytest.raises(ValueError):
        row.singularities[0].replace(index=0)


@pytest.mark.parametrize("value", [SegreSymbol.parse("[(21)11]"), Polynomial([1, 2])], ids=repr)
def test_symbols_and_polynomials_refuse_set_and_delete(value):
    for name in value.__slots__:
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot assign to field '{name}'$"):
            setattr(value, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot delete field '{name}'$"):
            delattr(value, name)
    for copied in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert copied == value and repr(copied) == repr(value)
