"""Shared input-validation helpers and the base of the value objects.

The ``require_*`` helpers raise :class:`~ctxprob.errors.ValidationError` on
contract violations and return cleaned-up Python floats/ints otherwise.
Probabilities may stray outside [0, 1] by at most ``TOL_EXACT`` (floating-point
noise) and are clipped back.  Of the rules, only :func:`out_of_range` and
:func:`sum_residual` also take numpy arrays.

:class:`Record` is the base of every value object of the package: each one
validates its arguments in its own ``__init__`` and stores them once.
"""

from __future__ import annotations

import math
import reprlib
from typing import Any, Sequence

from .errors import ValidationError

#: Tolerance for checks on analytically produced inputs (normalization,
#: row sums).  Separates floating-point noise from genuinely bad data.
TOL_EXACT = 1e-9

#: Cutoff below which an interference denominator counts as vanishing.
TOL_DEGENERATE = 1e-12

_MAX_SEED = 2**64

#: Largest ensemble size: numpy's binomial draw takes a C long.
MAX_ENSEMBLE_SIZE = 2**63 - 1

# Integers of up to 24 digits (2^64 has 20) and every float repr stay whole.
_SHOWN = reprlib.Repr()
_SHOWN.maxlevel = 2
_SHOWN.maxtuple = _SHOWN.maxlist = _SHOWN.maxdict = 4
_SHOWN.maxlong = _SHOWN.maxstring = _SHOWN.maxother = 24


class Record:
    """An immutable record: ``==``, ``hash`` and ``repr`` by its fields, as a frozen
    dataclass has them, with no code written when a subclass is defined.

    A subclass's ``__init__`` checks its arguments and stores them with one call of
    :meth:`_set`, in the order of its parameters, which is the field order.  The
    fields stay in the instance ``__dict__``, so ``vars()`` reads them.
    """

    def _set(self, **fields: Any) -> None:
        self.__dict__.update(fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self.__dict__.values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def shown(value: Any) -> str:
    """``repr(value)`` for a message, cut with ``...`` to at most 80 characters."""
    return cut(_SHOWN.repr(value))


def cut(text: str) -> str:
    """``text`` for a message, cut with ``...`` to at most 80 characters."""
    return text if len(text) <= 80 else text[:77] + "..."


def where(condition, x, y):
    """``x if condition else y``: the scalar form of :func:`numpy.where`."""
    return x if condition else y


def out_of_range(value, tol: float):
    """Whether a probability strays outside [0, 1] by more than ``tol``."""
    return (value < -tol) | (value > 1.0 + tol)


def clip_probability(value):
    """Clip to [0, 1] as ``min(max(value, 0.0), 1.0)`` does, keeping -0.0."""
    return where(value < 0.0, 0.0, where(value > 1.0, 1.0, value))


def sum_residual(a, b):
    """``|a + b - 1|``: how far a pair of probabilities is from summing to one."""
    return abs(a + b - 1.0)


def require_finite(x: Any, name: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ValidationError(f"{name} must be a real number, got {shown(x)}")
    try:
        value = float(x)
    except OverflowError:
        raise ValidationError(
            f"{name} must be finite, got an integer too large for a float"
        ) from None
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return value


def require_probability(x: Any, name: str) -> float:
    """Validate a single probability, clipping excursions within ``TOL_EXACT``."""
    value = require_finite(x, name)
    if out_of_range(value, TOL_EXACT):
        raise ValidationError(f"{name} must be in [0, 1], got {value}")
    return clip_probability(value)


def as_tuple(value: Any, message: str) -> tuple:
    """``tuple(value)`` if ``value`` is iterable; else raise ValidationError(message).

    A string or a mapping is refused too: its items are characters or keys.
    """
    if isinstance(value, (str, dict)):
        raise ValidationError(message)
    try:
        return tuple(value)
    except TypeError:
        raise ValidationError(message) from None


def as_pair(value: Any, message: str) -> tuple:
    """``tuple(value)`` if ``value`` holds two items; else raise ValidationError(message)."""
    if len(pair := as_tuple(value, message)) != 2:
        raise ValidationError(message)
    return pair


def require_distribution(pair: Sequence[Any], name: str) -> tuple[float, float]:
    """Validate a two-outcome probability distribution (sums to 1 within ``TOL_EXACT``)."""
    pair = as_pair(pair, f"{name} must have exactly two components")
    p1 = require_probability(pair[0], f"{name}[1]")
    p2 = require_probability(pair[1], f"{name}[2]")
    if sum_residual(p1, p2) > TOL_EXACT:
        raise ValidationError(f"{name} must sum to 1, got {p1} + {p2} = {p1 + p2}")
    return (p1, p2)


def require_positive_int(n: Any, name: str) -> int:
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValidationError(f"{name} must be an integer, got {shown(n)}")
    if n < 1:
        raise ValidationError(f"{name} must be >= 1, got {shown(n)}")
    return n


def require_ensemble_size(n: int, name: str) -> int:
    """Bound an integer ensemble size at :data:`MAX_ENSEMBLE_SIZE`."""
    if n > MAX_ENSEMBLE_SIZE:
        raise ValidationError(f"{name} must be at most 2^63 - 1, got {shown(n)}")
    return n


def require_seed(seed: Any) -> int:
    """Validate a 64-bit unsigned seed."""
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ValidationError(f"seed must be an integer, got {shown(seed)}")
    if not 0 <= seed < _MAX_SEED:
        raise ValidationError(f"seed must be in [0, 2^64), got {shown(seed)}")
    return seed


def require_outcome_index(value: Any, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{name} must be an integer outcome index, got {shown(value)}")
    if value not in (0, 1):
        raise ValidationError(f"{name} must be 0 or 1, got {shown(value)}")
    return value
