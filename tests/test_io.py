"""Experiment-file schema and canonical serialization."""

import enum
import functools
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctxprob import (
    ContextStatistics,
    DichotomicObservable,
    ExperimentFile,
    KolmogorovModel,
    LambdaPair,
    QubitModel,
    SyntheticModel,
    TransitionMatrix,
    ValidationError,
    canonical_dumps,
    simulate_counts,
)
from ctxprob.io import (
    counts_from_dict,
    counts_to_dict,
    model_from_dict,
    model_to_dict,
    statistics_from_dict,
    statistics_to_dict,
)

E1_STATS = ContextStatistics(
    (0.5, 0.5), TransitionMatrix(((0.5, 0.5), (0.5, 0.5))), (0.75, 0.25)
)
E1_FILE = ExperimentFile(exact=E1_STATS).to_dict()
E1_COUNTS = counts_to_dict(
    simulate_counts(QubitModel(alpha=0.4, phi=0.0, b_rotation=0.6), 100, seed=1)
)
E3_MODEL = {
    "family": "synthetic", "prior": [0.5, 0.5], "transition": [[0.8, 0.2], [0.2, 0.8]],
    "lambda": [1.25, -1.25],
}


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class _Real(float):
    pass


_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(min_value=2**64, max_value=2**200),
    _FLOATS, st.sampled_from([0.0, -0.0, 5e-324, 1e16, 1e-5, 9999999999999998.0]),
    st.text(), st.sampled_from(_Level), _FLOATS.map(_Real),
)
#: JSON values, with the values that canonical_dumps hands to json.dumps: an IntEnum, a
#: float subclass and a dict with int keys.
_JSON_VALUES = st.recursive(_JSON_SCALARS, lambda inner: st.one_of(
    st.lists(inner), st.lists(inner).map(tuple), st.dictionaries(st.text(), inner),
    st.dictionaries(st.integers(), inner),
), max_leaves=20)


class TestCanonicalJson:
    def test_key_order_is_normalized(self):
        a = canonical_dumps({"b": 1, "a": 2})
        b = canonical_dumps({"a": 2, "b": 1})
        assert a == b

    def test_floats_round_trip_shortest(self):
        text = canonical_dumps({"x": 0.1, "y": 1.0 / 3.0})
        assert '"x": 0.1' in text
        parsed = json.loads(text)
        assert parsed["x"] == 0.1 and parsed["y"] == 1.0 / 3.0

    def test_non_finite_is_rejected(self):
        with pytest.raises(ValueError):
            canonical_dumps({"x": float("nan")})

    def test_trailing_newline(self):
        assert canonical_dumps({}).endswith("\n")

    @settings(max_examples=300)
    @given(_JSON_VALUES)
    @example("caf\u00e9 \u2603 \U0001f600 \x00\x1f\x7f\t\n\"\\")
    @example([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e16, 9999999999999998.0, 1e-05,
              9.999999999999999e-06, 1e308])
    @example([2**64, -(2**64) - 1, 10**40, True, False, None, (1, ("a", ()))])
    @example({"empty": [{}, [], ()], "deep": functools.reduce(lambda v, _: [v], range(60), {})})
    @example({"fallback": [_Level.HIGH, _Real(0.5), {2: "b", 1: [_Level.LOW]}], "z": {"y": 1}})
    def test_same_bytes_as_json_dumps(self, value):
        expected = json.dumps(value, sort_keys=True, indent=2, allow_nan=False) + "\n"
        assert canonical_dumps(value) == expected

    @pytest.mark.parametrize("value", [
        math.nan, math.inf, -math.inf, object(), {"x": [1.0, math.nan]}, [{"x": object()}],
        {"x": _Real(math.inf)}, {1: math.nan},
    ], ids=["nan", "inf", "-inf", "object", "nested-nan", "nested-object", "subclass-inf",
            "int-key-nan"])
    def test_same_error_as_json_dumps(self, value):
        with pytest.raises(Exception) as expected:
            json.dumps(value, sort_keys=True, indent=2, allow_nan=False)
        with pytest.raises(Exception) as raised:
            canonical_dumps(value)
        assert type(raised.value) is type(expected.value)
        assert str(raised.value) == str(expected.value)


class TestModelDescriptors:
    def test_round_trips(self):
        models = [
            KolmogorovModel((0.06, 0.24, 0.42, 0.28), (0, 1, 0, 1), (0, 0, 1, 1)),
            QubitModel(alpha=math.pi / 6, phi=math.pi / 2, b_rotation=math.pi / 4),
            SyntheticModel(
                (0.5, 0.5), TransitionMatrix(((0.8, 0.2), (0.2, 0.8))), LambdaPair(1.25, -1.25)
            ),
        ]
        for model in models:
            payload = json.loads(canonical_dumps(model_to_dict(model)))
            assert model_from_dict(payload) == model

    def test_unknown_family(self):
        with pytest.raises(ValidationError):
            model_from_dict({"family": "wavefunction"})

    def test_unknown_keys_are_rejected(self):
        with pytest.raises(ValidationError):
            model_from_dict({"family": "qubit", "alpha": 0.1, "phi": 0, "b_rotation": 0, "spin": 2})

    def test_qubit_without_b_phase_reads_zero(self):
        model = model_from_dict({"family": "qubit", "alpha": 0.1, "phi": 0.2, "b_rotation": 0.3})
        assert model == QubitModel(0.1, 0.2, 0.3) and model.b_phase == 0.0


# Each reader passes a file's values to the value object that checks them, so
# a malformed value gets the message of the value it builds.
@pytest.mark.parametrize("read, payload, message", [
    (statistics_from_dict, {**statistics_to_dict(E1_STATS), "transition": [[0.5, 0.5]]},
     "transition matrix must have exactly two rows"),
    (statistics_from_dict, {**statistics_to_dict(E1_STATS), "outcome": 5},
     "outcome must have exactly two components"),
    (model_from_dict, {**E3_MODEL, "transition": "x"},
     "transition matrix must have exactly two rows"),
    (model_from_dict, {**E3_MODEL, "prior": 5}, "prior must have exactly two components"),
    (model_from_dict, {**E3_MODEL, "lambda": [1.0]},
     "target_lambda must have exactly two components"),
    (counts_from_dict, {**E1_COUNTS, "a_counts": 5},
     "a_counts must be a pair of nonnegative integers"),
    (ExperimentFile.from_dict, {**E1_FILE, "observables": [
        {"name": "A", "values": ["a1"]}, {"name": "B", "values": ["b1", "b2"]}]},
     "observable 'A' labels must be two nonempty strings, got ('a1',)"),
    (statistics_from_dict, [0.5, 0.5], "exact statistics must be a JSON object"),
    (statistics_from_dict, {"prior": [0.5, 0.5], "transition": [[0.5, 0.5], [0.5, 0.5]]},
     "exact statistics is missing keys ['outcome']"),
    (lambda model: ExperimentFile(exact=E1_STATS, model=model).dumps(), 5,
     "unknown model type int"),
    (model_from_dict, {"prior": [0.5, 0.5]},
     "model descriptor must be an object with a 'family' key"),
    (model_from_dict, {"family": "classical", "points": []},
     "classical model needs a nonempty 'points' list"),
    (counts_from_dict, {**E1_COUNTS, "filtered": E1_COUNTS["filtered"][:1]},
     "counts.filtered must list exactly two filtered contexts"),
    (counts_from_dict, {**E1_COUNTS, "seed": "7"}, "seed must be an integer, got '7'"),
    (lambda observables: ExperimentFile(observables=observables, exact=E1_STATS), (1, 2),
     "experiment file needs exactly two observables"),
    (ExperimentFile.from_dict, {**E1_FILE, "observables": E1_FILE["observables"] * 2},
     "experiment file needs exactly two observables"),
    (ExperimentFile.from_dict, {**E1_FILE, "note": 5}, "note must be a string"),
], ids=["exact-shape", "exact-value", "synthetic-shape", "synthetic-value", "synthetic-lambda",
        "counts-scalar-tally", "observable-values", "not-an-object", "missing-keys",
        "model-type", "model-without-family", "empty-points", "one-filtered-context",
        "string-seed", "observable-type", "four-observables", "note-type"])
def test_malformed_prior_transition_messages(read, payload, message):
    with pytest.raises(ValidationError) as info:
        read(payload)
    assert str(info.value) == message


class TestExperimentFile:
    def test_exact_round_trip(self):
        original = ExperimentFile(exact=E1_STATS, note="named instance")
        loaded = ExperimentFile.loads(original.dumps())
        assert loaded == original

    def test_counts_round_trip_including_model(self):
        model = QubitModel(alpha=math.pi / 6, phi=math.pi / 2, b_rotation=math.pi / 4)
        counts = simulate_counts(model, 1000, seed=9)
        original = ExperimentFile(counts=counts, model=model)
        loaded = ExperimentFile.loads(original.dumps())
        assert loaded == original
        assert loaded.model == model

    def test_serialization_is_byte_stable(self):
        record = ExperimentFile(exact=E1_STATS)
        assert record.dumps() == ExperimentFile.loads(record.dumps()).dumps()

    def test_requires_exactly_one_payload(self):
        with pytest.raises(ValidationError):
            ExperimentFile()
        counts = simulate_counts(
            QubitModel(alpha=0.4, phi=0.0, b_rotation=0.6), 100, seed=1
        )
        with pytest.raises(ValidationError):
            ExperimentFile(exact=E1_STATS, counts=counts)

    def test_rejects_unsupported_version(self):
        payload = json.loads(ExperimentFile(exact=E1_STATS).dumps())
        payload["format_version"] = 99
        with pytest.raises(ValidationError):
            ExperimentFile.from_dict(payload)

    @pytest.mark.parametrize("version", [True, 1.0])
    def test_version_one_must_be_the_integer(self, version):
        payload = json.loads(ExperimentFile(exact=E1_STATS).dumps())
        payload["format_version"] = version
        with pytest.raises(ValidationError, match=f"unsupported format_version {version!r}$"):
            ExperimentFile.from_dict(payload)

    def test_rejects_unknown_top_level_keys(self):
        payload = json.loads(ExperimentFile(exact=E1_STATS).dumps())
        payload["comment"] = "?"
        with pytest.raises(ValidationError):
            ExperimentFile.from_dict(payload)

    def test_rejects_malformed_json(self):
        with pytest.raises(ValidationError):
            ExperimentFile.loads("{not json")

    def test_rejects_invalid_statistics(self):
        payload = json.loads(ExperimentFile(exact=E1_STATS).dumps())
        payload["exact"]["prior"] = [0.4, 0.7]
        with pytest.raises(ValidationError):
            ExperimentFile.from_dict(payload)

    def test_custom_observable_labels_survive(self):
        observables = (
            DichotomicObservable("spin-z", ("up", "down")),
            DichotomicObservable("spin-x", ("plus", "minus")),
        )
        record = ExperimentFile(observables=observables, exact=E1_STATS)
        assert ExperimentFile.loads(record.dumps()).observables == observables
