"""Exception hierarchy for the contextual probability calculus.

Every error raised by this package derives from :class:`CtxprobError`, so
callers can catch the whole family with one clause.  The leaf classes are
semantic: they say *why* a computation is impossible, not merely that an
argument was bad.  Each class also carries the CLI's exit status and the
label of its ``ctxprob: <label>: <message>`` line; a subclass inherits both.
"""

from __future__ import annotations

__all__ = [
    "CtxprobError",
    "ValidationError",
    "DegenerateContextError",
    "NonTrigonometricError",
    "ZeroFiltrationError",
    "InfeasibleLambdaError",
    "EmptyEnsembleError",
]


class CtxprobError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1
    label = "error"


class ValidationError(CtxprobError, ValueError):
    """An input violates its contract (domain, shape, normalization, type)."""

    label = "invalid input"


class DegenerateContextError(CtxprobError):
    """The interference weight vanishes while the deviation from the
    classical prediction does not, so no coefficient can explain the data."""

    exit_code = 2
    label = "degenerate statistics"


class NonTrigonometricError(CtxprobError):
    """An operation requiring trigonometric phases received a hyperbolic one."""

    exit_code = 3
    label = "infeasible data"


class ZeroFiltrationError(CtxprobError):
    """A filtration outcome has zero probability; the corresponding filtered
    ensemble cannot be prepared."""

    exit_code = 2
    label = "degenerate statistics"


class InfeasibleLambdaError(CtxprobError):
    """A (prior, transition, lambda) triple predicts an outcome outside [0, 1]
    or outcomes that do not sum to one: no statistics carry these coefficients."""

    exit_code = 3
    label = "infeasible data"


class EmptyEnsembleError(CtxprobError):
    """A required ensemble has size zero; frequencies are undefined."""

    exit_code = 2
    label = "degenerate statistics"
