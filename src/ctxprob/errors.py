"""Exception hierarchy for the contextual probability calculus.

Every error raised by this package derives from :class:`CtxprobError`, so
callers can catch the whole family with one clause.  There is one class per
failure the CLI reports; its message says why.  Each class also carries the
CLI's exit status and the label of its ``ctxprob: <label>: <message>`` line;
a subclass inherits both.
"""

from __future__ import annotations

__all__ = [
    "CtxprobError",
    "ValidationError",
    "DegenerateContextError",
    "InfeasibleLambdaError",
]


class CtxprobError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1
    label = "error"


class ValidationError(CtxprobError, ValueError):
    """An input violates its contract (domain, shape, normalization, type)."""

    label = "invalid input"


class DegenerateContextError(CtxprobError):
    """The statistics leave a quantity undefined: an interference weight
    vanishes while the deviation from the classical prediction does not, a
    filtration outcome has zero probability so its filtered ensemble cannot be
    prepared, or a required ensemble is empty so its frequencies are undefined."""

    exit_code = 2
    label = "degenerate statistics"


class InfeasibleLambdaError(CtxprobError):
    """No statistics or amplitudes fit the data: a (prior, transition, lambda)
    triple predicts an outcome outside [0, 1] or outcomes that do not sum to
    one, or an amplitude lift meets a hyperbolic phase."""

    exit_code = 3
    label = "infeasible data"
