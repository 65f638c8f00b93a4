"""Experiment-file JSON and its canonical serialization.

Experiment files (schema version 1) carry either exact statistics or raw
counts for one (context, A, B) triple, plus an optional model descriptor
that makes a simulation fully reproducible from its own output::

    {
      "format_version": 1,
      "observables": [{"name": "A", "values": ["a1", "a2"]},
                      {"name": "B", "values": ["b1", "b2"]}],
      "exact":  {"prior": [p1, p2],
                 "transition": [[t11, t12], [t21, t22]],
                 "outcome": [q1, q2]},
      -- or --
      "counts": {"n_context": N, "a_counts": [k1, k2],
                 "n_filtration": M, "b_counts": [m1, m2],
                 "filtered": [{"n": n1, "a_counts": [c1, c2]},
                              {"n": n2, "a_counts": [d1, d2]}],
                 "seed": S},
      "model": {"family": ...},     # optional
      "note": "free text"           # optional
    }

Exactly one of ``exact`` / ``counts`` must be present.  All outcome indices
are 0-based; all angles are radians.

Serialization is canonical: keys sorted, two-space indent, floats written as
the shortest decimal that round-trips to the same double, trailing newline.
Writing the same value therefore always produces identical bytes.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from math import isfinite
from typing import Any

from ._validation import Record, as_pair, shown
from .calculus import ContextStatistics, DichotomicObservable
from .errors import ValidationError
from .models import KolmogorovModel, Model, QubitModel, SyntheticModel
from .sampling import CountsRecord

__all__ = [
    "FORMAT_VERSION",
    "DEFAULT_OBSERVABLES",
    "ExperimentFile",
    "canonical_dumps",
    "model_to_dict",
    "model_from_dict",
    "statistics_to_dict",
    "statistics_from_dict",
    "counts_to_dict",
    "counts_from_dict",
]

FORMAT_VERSION = 1

DEFAULT_OBSERVABLES = (
    DichotomicObservable("A", ("a1", "a2")),
    DichotomicObservable("B", ("b1", "b2")),
)


#: One level of the canonical indent.
_INDENT = "  "


def canonical_dumps(payload: Any) -> str:
    """Serialize to canonical JSON text (deterministic bytes).

    The text is byte for byte ``json.dumps(payload, sort_keys=True, indent=2,
    allow_nan=False) + "\\n"``, written here because ``json`` skips its C encoder
    whenever ``indent`` is set.  :func:`_write` takes values of the exact builtin
    JSON types itself; any other value, such as a float subclass, an ``IntEnum``,
    a dict with non-str keys or a non-finite float, goes to ``json.dumps`` alone,
    which writes it or raises as it would for the whole payload.  A container
    that holds itself raises ``RecursionError``, where ``json`` raises ``ValueError``.
    """
    chunks: list[str] = []
    _write(payload, "\n", chunks.append)
    chunks.append("\n")
    return "".join(chunks)


def _write(value: Any, newline: str, out) -> None:
    """Pass the canonical text of ``value`` to ``out``; ``newline`` starts a line at its depth."""
    kind = type(value)
    if kind is str:
        out(encode_basestring_ascii(value))
    elif kind is int:
        out(int.__repr__(value))
    elif kind is float and isfinite(value):
        out(float.__repr__(value))
    elif value is None:
        out("null")
    elif value is True:
        out("true")
    elif value is False:
        out("false")
    elif kind is dict and all(type(key) is str for key in value):
        if not value:
            out("{}")
            return
        inner = newline + _INDENT
        start = "{" + inner
        for key in sorted(value):
            out(start)
            out(encode_basestring_ascii(key))
            out(": ")
            _write(value[key], inner, out)
            start = "," + inner
        out(newline + "}")
    elif kind is list or kind is tuple:
        if not value:
            out("[]")
            return
        inner = newline + _INDENT
        start = "[" + inner
        for item in value:
            out(start)
            _write(item, inner, out)
            start = "," + inner
        out(newline + "]")
    else:
        text = json.dumps(value, sort_keys=True, indent=_INDENT, allow_nan=False)
        out(text.replace("\n", newline))


def _require_keys(obj: dict, where: str, allowed: set, required: set | None = None) -> None:
    """Require an object whose keys lie in ``allowed`` and include ``required`` (default: all)."""
    required = allowed if required is None else required
    if not isinstance(obj, dict):
        raise ValidationError(f"{where} must be a JSON object")
    unknown = set(obj) - allowed
    if unknown:
        raise ValidationError(f"{where} has unknown keys {shown(sorted(unknown))}")
    missing = required - set(obj)
    if missing:
        raise ValidationError(f"{where} is missing keys {sorted(missing)}")


# ---------------------------------------------------------------------------
# Model descriptors
# ---------------------------------------------------------------------------


def model_to_dict(model: Model) -> dict:
    if isinstance(model, KolmogorovModel):
        return {
            "family": "classical",
            "points": [
                {"weight": w, "a": a, "b": b}
                for w, a, b in zip(model.weights, model.a_values, model.b_values)
            ],
        }
    if isinstance(model, QubitModel):
        return {"family": "qubit", **vars(model)}
    if isinstance(model, SyntheticModel):
        return {
            "family": "synthetic",
            **_prior_transition_to_dict(model),
            "lambda": list(model.target_lambda),
        }
    raise ValidationError(f"unknown model type {type(model).__name__}")


def model_from_dict(payload: dict) -> Model:
    if not isinstance(payload, dict) or "family" not in payload:
        raise ValidationError("model descriptor must be an object with a 'family' key")
    family = payload["family"]
    if family == "classical":
        _require_keys(payload, "classical model", {"family", "points"})
        points = payload["points"]
        if not isinstance(points, list) or not points:
            raise ValidationError("classical model needs a nonempty 'points' list")
        for p in points:
            _require_keys(p, "model point", {"weight", "a", "b"})
        return KolmogorovModel(
            weights=[p["weight"] for p in points],
            a_values=[p["a"] for p in points],
            b_values=[p["b"] for p in points],
        )
    if family == "qubit":
        _require_keys(
            payload,
            "qubit model",
            {"family", "alpha", "phi", "b_rotation", "b_phase"},
            {"family", "alpha", "phi", "b_rotation"},
        )
        return QubitModel(**{key: payload[key] for key in payload if key != "family"})
    if family == "synthetic":
        _require_keys(payload, "synthetic model", {"family", "prior", "transition", "lambda"})
        return SyntheticModel(payload["prior"], payload["transition"], payload["lambda"])
    raise ValidationError(f"unknown model family {shown(family)}")


# ---------------------------------------------------------------------------
# Statistics and counts payloads
# ---------------------------------------------------------------------------


def _prior_transition_to_dict(record: ContextStatistics | SyntheticModel) -> dict:
    """The ``prior`` + ``transition`` pair of exact statistics and of synthetic models."""
    return {"prior": list(record.prior), "transition": [list(r) for r in record.transition.rows]}


def statistics_to_dict(stats: ContextStatistics) -> dict:
    return {**_prior_transition_to_dict(stats), "outcome": list(stats.outcome)}


def statistics_from_dict(payload: dict) -> ContextStatistics:
    _require_keys(payload, "exact statistics", {"prior", "transition", "outcome"})
    return ContextStatistics(payload["prior"], payload["transition"], payload["outcome"])


def counts_to_dict(counts: CountsRecord) -> dict:
    return {
        "n_context": counts.sizes[0],
        "a_counts": list(counts.tallies[0]),
        "n_filtration": counts.sizes[1],
        "b_counts": list(counts.tallies[1]),
        "filtered": [{"n": counts.sizes[j], "a_counts": list(counts.tallies[j])} for j in (2, 3)],
        "seed": counts.seed,
    }


def counts_from_dict(payload: dict) -> CountsRecord:
    _require_keys(
        payload,
        "counts",
        {"n_context", "a_counts", "n_filtration", "b_counts", "filtered", "seed"},
    )
    filtered = payload["filtered"]
    if not isinstance(filtered, list) or len(filtered) != 2:
        raise ValidationError("counts.filtered must list exactly two filtered contexts")
    for f in filtered:
        _require_keys(f, "filtered context", {"n", "a_counts"})
    return CountsRecord(
        sizes=(payload["n_context"], payload["n_filtration"], *(f["n"] for f in filtered)),
        tallies=(payload["a_counts"], payload["b_counts"], *(f["a_counts"] for f in filtered)),
        seed=payload["seed"],
    )


# ---------------------------------------------------------------------------
# Experiment files
# ---------------------------------------------------------------------------


class ExperimentFile(Record):
    """In-memory form of one experiment file (exact or counts, never both)."""

    def __init__(self, observables: tuple[DichotomicObservable, ...] = DEFAULT_OBSERVABLES,
                 exact: ContextStatistics | None = None, counts: CountsRecord | None = None,
                 model: Model | None = None, note: str | None = None) -> None:
        if (exact is None) == (counts is None):
            raise ValidationError("experiment file needs exactly one of 'exact' or 'counts'")
        two = "experiment file needs exactly two observables"
        observables = as_pair(observables, two)
        if not all(isinstance(o, DichotomicObservable) for o in observables):
            raise ValidationError(two)
        self._set(observables=observables, exact=exact, counts=counts, model=model, note=note)

    def to_dict(self) -> dict:
        payload: dict[str, Any] = {
            "format_version": FORMAT_VERSION,
            "observables": [
                {"name": o.name, "values": list(o.value_labels)} for o in self.observables
            ],
        }
        if self.exact is not None:
            payload["exact"] = statistics_to_dict(self.exact)
        if self.counts is not None:
            payload["counts"] = counts_to_dict(self.counts)
        if self.model is not None:
            payload["model"] = model_to_dict(self.model)
        if self.note is not None:
            payload["note"] = self.note
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentFile":
        _require_keys(
            payload,
            "experiment file",
            {"format_version", "observables", "exact", "counts", "model", "note"},
            {"format_version", "observables"},
        )
        version = payload["format_version"]
        if isinstance(version, bool) or not isinstance(version, int) or version != FORMAT_VERSION:
            raise ValidationError(f"unsupported format_version {shown(version)}")
        raw_obs = payload["observables"]
        if not isinstance(raw_obs, list) or len(raw_obs) != 2:
            raise ValidationError("experiment file needs exactly two observables")
        observables = []
        for entry in raw_obs:
            _require_keys(entry, "observable", {"name", "values"})
            observables.append(DichotomicObservable(entry["name"], entry["values"]))
        model = model_from_dict(payload["model"]) if "model" in payload else None
        exact = statistics_from_dict(payload["exact"]) if "exact" in payload else None
        counts = counts_from_dict(payload["counts"]) if "counts" in payload else None
        note = payload.get("note")
        if note is not None and not isinstance(note, str):
            raise ValidationError("note must be a string")
        return cls(
            observables=observables,
            exact=exact,
            counts=counts,
            model=model,
            note=note,
        )

    def dumps(self) -> str:
        return canonical_dumps(self.to_dict())

    @classmethod
    def loads(cls, text: str) -> "ExperimentFile":
        try:
            payload = json.loads(text)
        except ValueError as exc:  # a JSONDecodeError, or an integer past Python's digit limit
            raise ValidationError(f"not valid JSON: {exc}") from exc
        except RecursionError as exc:
            raise ValidationError(f"JSON nested too deeply: {exc}") from exc
        return cls.from_dict(payload)
