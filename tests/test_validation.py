"""The record base: every value object behaves as a frozen dataclass would.

Each of the package's records is checked against a twin made by
``dataclasses.make_dataclass(..., frozen=True)`` whose fields are the parameters
of the record's ``__init__``, with their defaults, and which holds the values
that a valid record stores.  The two must agree on ``repr``, ``hash``, ``==``
and ``!=``, construction, and the refusal to change a field.
"""

import dataclasses
import inspect
import itertools

import pytest

from ctxprob import (
    CountsRecord, DichotomicObservable, ExperimentFile, KolmogorovModel, LambdaPair, Phase,
    PhaseKind, QubitModel, SyntheticModel, TheoryClass, TheoryKind, analyze_estimated,
    analyze_exact, exact_statistics,
)
from ctxprob._validation import Record

E1 = exact_statistics(QubitModel(0.5235987755982988, 1.5707963267948966, 0.7853981633974483))
REPORT = analyze_exact(E1)
COUNTS = CountsRecord((10, 10, 10, 10), ((6, 4), (5, 5), (5, 5), (3, 7)), 7)

RECORDS = [
    DichotomicObservable("A", ("a1", "a2")),
    E1.transition,
    E1,
    REPORT.lambda_point,
    REPORT.phases.phase1,
    Phase(PhaseKind.HYPERBOLIC, 0.5, -1),
    REPORT.phases,
    REPORT.theory_class,
    TheoryClass(TheoryKind.BOUNDARY, boundary_components=(1,)),
    TheoryClass(TheoryKind.HYPER_TRIGONOMETRIC, hyper_component=2),
    REPORT.balance,
    REPORT.amplitudes,
    KolmogorovModel((0.25, 0.75), (0, 1), (1, 0)),
    QubitModel(0.5, 0.25, 0.75),
    SyntheticModel((0.5, 0.5), E1.transition, LambdaPair(0.5, -0.5)),
    ExperimentFile(exact=E1),
    COUNTS,
    analyze_estimated(COUNTS, replicates=20).lambda_estimate,
    REPORT,
]


def parameters(cls: type) -> list[inspect.Parameter]:
    return list(inspect.signature(cls).parameters.values())


def twin_class(cls: type) -> type:
    """A frozen dataclass named as ``cls``, with its parameters as fields."""
    fields = [(p.name, object) if p.default is p.empty
              else (p.name, object, dataclasses.field(default=p.default))
              for p in parameters(cls)]
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True)


TWIN_CLASSES = {cls: twin_class(cls) for cls in {type(record) for record in RECORDS}}


def twin(record: Record):
    return TWIN_CLASSES[type(record)](**vars(record))


def ids(record: Record) -> str:
    return type(record).__name__


def defaulted(record: Record) -> set[str]:
    """The fields of ``record`` that hold their parameter's default."""
    return {p.name for p in parameters(type(record))
            if p.default is not p.empty and vars(record)[p.name] == p.default}


def test_every_record_class_and_default_is_checked():
    package = {cls for cls in Record.__subclasses__() if cls.__module__.startswith("ctxprob.")}
    assert set(TWIN_CLASSES) == package
    assert len(TWIN_CLASSES) == 16
    with_defaults = {cls for cls in TWIN_CLASSES
                     if any(p.default is not p.empty for p in parameters(cls))}
    assert {type(record) for record in RECORDS if defaulted(record)} == with_defaults


@pytest.mark.parametrize("record", RECORDS, ids=ids)
def test_fields_are_the_parameters_in_order(record):
    assert list(vars(record)) == [p.name for p in parameters(type(record))]


@pytest.mark.parametrize("record", RECORDS, ids=ids)
def test_repr_and_hash_are_the_dataclass_ones(record):
    assert repr(record) == repr(twin(record))
    assert hash(record) == hash(twin(record))


@pytest.mark.parametrize("record", RECORDS, ids=ids)
def test_positional_keyword_and_default_construction(record):
    cls, values = type(record), vars(record)
    short = {name: value for name, value in values.items() if name not in defaulted(record)}
    for make in (cls, TWIN_CLASSES[cls]):
        built = [make(*values.values()), make(**values), make(**short)]
        assert [repr(b) for b in built] == [repr(twin(record))] * 3
    assert cls(*values.values()) == cls(**values) == cls(**short) == record


def test_equality_agrees_with_the_dataclass_on_every_pair():
    unequal_peers = 0
    for a, b in itertools.product(RECORDS, repeat=2):
        assert (a == b, a != b) == (twin(a) == twin(b), twin(a) != twin(b)), (a, b)
        assert (a == b) is (a is b)
        unequal_peers += type(a) is type(b) and a is not b
    assert unequal_peers == 2 + 6  # ordered pairs of two phases and of three verdicts


@pytest.mark.parametrize("record", RECORDS, ids=ids)
def test_a_record_equals_no_other_class_with_its_values(record):
    values = vars(record)
    other = type(type(record).__name__, (Record,), {})()
    other._set(**values)
    other_twin = dataclasses.make_dataclass(type(record).__name__, list(values), frozen=True)
    for a, b in ((record, other), (twin(record), other_twin(**values)),
                 (record, tuple(values.values())), (twin(record), tuple(values.values())),
                 (record, twin(record))):
        assert (a == b, a != b, b == a, b != a) == (False, True, False, True)


@pytest.mark.parametrize("record", RECORDS, ids=ids)
def test_a_missing_or_unknown_argument_is_a_type_error(record):
    cls, values = type(record), vars(record)
    required = [p.name for p in parameters(cls) if p.default is p.empty]
    for make in (cls, TWIN_CLASSES[cls]):
        for name in required:
            with pytest.raises(TypeError):
                make(**{key: value for key, value in values.items() if key != name})
        with pytest.raises(TypeError):
            make(**values, unknown=0)


@pytest.mark.parametrize("record", RECORDS, ids=ids)
def test_a_field_cannot_be_assigned_or_deleted(record):
    shown = repr(record)
    for target in (record, twin(record)):
        for name in [*vars(record), "unknown"]:
            with pytest.raises(AttributeError):
                setattr(target, name, 0)
            with pytest.raises(AttributeError):
                delattr(target, name)
    assert repr(record) == shown
