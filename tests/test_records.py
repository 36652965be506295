"""The value-record contract: each of the 15 record types behaves as the
frozen dataclass it once was.  The reference for each is a frozen dataclass
built here with the old fields and defaults, in the old order."""

import copy
import dataclasses
import importlib
import inspect
import itertools
import pickle
import pkgutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plrs
from plrs import (
    EmptyVector,
    LeadingZero,
    NegativeEntry,
    TrailingZero,
    analytic,
    brown,
    core,
    families,
    transforms,
    validate,
)

REQUIRED = dataclasses.MISSING

#: Each record type -> its dataclass fields, in order, with their defaults.
OLD_FIELDS = {
    core.Coefficients: {"values": REQUIRED},
    core.TermSequence: {"coefficients": REQUIRED, "terms": REQUIRED},
    brown.Certificate: {"kind": REQUIRED, "index": None, "rule": None, "witness": None},
    brown.Verdict: {
        "coefficients": REQUIRED, "kind": REQUIRED, "certificate": REQUIRED,
        "conjectural": REQUIRED, "horizon_used": REQUIRED, "note": None,
    },
    families.FamilyBound: {"max_n": REQUIRED, "proven": REQUIRED, "rule_id": REQUIRED},
    families.OneZerosN: {"k": REQUIRED},
    families.OnesZerosN: {"g": REQUIRED, "k": REQUIRED},
    families.TwoOnesZerosN: {"k": REQUIRED},
    families.OneZerosOnesN: {"L": REQUIRED, "m": REQUIRED},
    transforms.TransformRecord: {
        "input": REQUIRED, "output": REQUIRED, "rule": REQUIRED, "guarantee": REQUIRED,
    },
    analytic.CharPoly: {"coefficients": REQUIRED},
    analytic.RootBracket: {"poly": REQUIRED, "num": REQUIRED, "bits": REQUIRED, "exact_root": None},
    analytic.LambdaThreshold: {"L": REQUIRED, "max_complete_n": REQUIRED, "root": REQUIRED},
    analytic.ThresholdSearchReport: dict.fromkeys(
        ("L", "candidates", "frontier_coefficients", "frontier", "lam", "agrees_with_lambda",
         "undecided"), REQUIRED),
    analytic.DensenessReport: dict.fromkeys(
        ("L", "k_min", "k_max", "roots", "max_gap", "max_gap_at", "covered",
         "increasing_certified", "gaps_decreasing_certified", "terminal_root_exact_two",
         "epsilon", "epsilon_met"), REQUIRED),
}
TYPES = list(OLD_FIELDS)
ids = [cls.__name__ for cls in TYPES]


def reference(cls):
    """The frozen dataclass with ``cls``'s old name, fields and defaults."""
    return dataclasses.make_dataclass(
        cls.__name__,
        [(name, object, dataclasses.field(default=default))
         for name, default in OLD_FIELDS[cls].items()],
        frozen=True,
    )


REFERENCES = {cls: reference(cls) for cls in TYPES}

vectors = st.builds(
    lambda first, middle, last: (first, *middle, last),
    st.integers(1, 9), st.lists(st.integers(0, 9), max_size=4), st.integers(1, 9),
)
# Field values: hashable, picklable, and with reprs of several shapes.
plain = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=4),
    st.tuples(st.integers(), st.integers()), vectors.map(validate),
)


def draw_fields(data, cls):
    if cls is core.Coefficients:
        return [data.draw(vectors)]  # the constructor validates these
    return [data.draw(plain) for _ in OLD_FIELDS[cls]]


def changed(cls, value):
    """A value of the field unequal to ``value``."""
    return value + (1,) if cls is core.Coefficients else ("changed", value)


@pytest.mark.parametrize("cls", TYPES, ids=ids)
@settings(deadline=None, max_examples=50)
@given(data=st.data())
def test_equal_fields_give_equal_records(cls, data):
    values = draw_fields(data, cls)
    names = list(OLD_FIELDS[cls])
    a, b = cls(*values), cls(**dict(zip(names, values)))
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert [getattr(a, name) for name in names] == values
    assert repr(a) == repr(REFERENCES[cls](*values))
    assert copy.copy(a) == a and copy.deepcopy(a) == a
    assert pickle.loads(pickle.dumps(a)) == a


@pytest.mark.parametrize("cls", TYPES, ids=ids)
@settings(deadline=None, max_examples=30)
@given(data=st.data())
def test_any_changed_field_gives_an_unequal_record(cls, data):
    values = draw_fields(data, cls)
    a = cls(*values)
    for i in range(len(values)):
        other = cls(*values[:i], changed(cls, values[i]), *values[i + 1:])
        assert a != other and not a == other, OLD_FIELDS[cls]


@settings(deadline=None, max_examples=30)
@given(data=st.data())
def test_records_of_different_types_are_never_equal(data):
    values = data.draw(st.lists(plain, min_size=12, max_size=12))
    unvalidated = [cls for cls in TYPES if cls is not core.Coefficients]
    for x, y in itertools.permutations(unvalidated, 2):
        a, b = x(*values[:len(OLD_FIELDS[x])]), y(*values[:len(OLD_FIELDS[y])])
        assert a != b and not a == b
    # Same field names and values, still different types.
    assert families.OneZerosN(3) != families.TwoOnesZerosN(3)


@pytest.mark.parametrize("cls", TYPES, ids=ids)
@settings(deadline=None, max_examples=10)
@given(data=st.data())
def test_fields_can_be_neither_assigned_nor_deleted(cls, data):
    values = draw_fields(data, cls)
    a = cls(*values)
    for name in [*OLD_FIELDS[cls], "extra"]:
        with pytest.raises(AttributeError):
            setattr(a, name, 1)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert [getattr(a, name) for name in OLD_FIELDS[cls]] == values


@pytest.mark.parametrize("cls", TYPES, ids=ids)
@settings(deadline=None, max_examples=10)
@given(data=st.data())
def test_omitted_fields_take_the_old_defaults(cls, data):
    fields = OLD_FIELDS[cls]
    required = [name for name, default in fields.items() if default is REQUIRED]
    values = draw_fields(data, cls)[:len(required)]
    by_position, by_name = cls(*values), cls(**dict(zip(required, values)))
    assert by_position == by_name
    for name, default in fields.items():
        if default is not REQUIRED:
            assert getattr(by_position, name) == default
    with pytest.raises(TypeError):
        cls(*values, *[None] * (len(fields) - len(required) + 1))
    with pytest.raises(TypeError):
        cls(*values, unknown_field=None)


@given(st.lists(st.integers(-2, 3), max_size=5), st.sampled_from([list, tuple, iter]))
def test_coefficients_convert_and_validate(values, container):
    expected = next(
        (error for error, bad in [
            (EmptyVector, not values),
            (NegativeEntry, values and min(values) < 0),
            (LeadingZero, values and values[0] == 0),
            (TrailingZero, values and values[-1] == 0),
        ] if bad),
        None,
    )
    if expected is not None:
        with pytest.raises(expected):
            core.Coefficients(container(values))
        return
    c = core.Coefficients(container([float(v) if v % 2 else v for v in values]))
    assert c.values == tuple(values)
    assert all(type(v) is int for v in c.values)


def test_charpoly_taps_cache_takes_no_part():
    built, used = analytic.CharPoly(validate([1, 0, 3])), analytic.CharPoly(validate([1, 0, 3]))
    assert used.taps == (1, 1, 2, 3)
    assert used == built and hash(used) == hash(built) and repr(used) == repr(built)
    assert repr(used) == "CharPoly(coefficients=Coefficients(values=(1, 0, 3)))"


def test_every_record_type_of_the_package_is_held_to_the_contract():
    # A new record type must be added to OLD_FIELDS, so the tests above cover it.
    for module in pkgutil.iter_modules(plrs.__path__):
        vars(importlib.import_module(f"plrs.{module.name}"))  # runs a lazy layer
    found, todo = set(), [core._Record]
    while todo:
        subs = todo.pop().__subclasses__()
        found.update(subs)
        todo += subs
    assert {cls for cls in found if cls.__module__.startswith("plrs.")} == set(OLD_FIELDS)


@pytest.mark.parametrize("cls", TYPES, ids=ids)
def test_only_coefficients_writes_its_own_constructor(cls):
    # The others get theirs from __slots__, built when the class is created.
    assert ("def __init__" in inspect.getsource(cls)) is (cls is core.Coefficients)


def test_a_fresh_charpoly_cache_is_none_until_taps_is_read():
    poly = analytic.CharPoly(validate([1, 0, 3]))
    assert poly._taps is None
    assert poly.taps == (1, 1, 2, 3)
    assert poly._taps == (1, 1, 2, 3)
