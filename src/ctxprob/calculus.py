"""Core calculus of context-dependent measurement statistics.

Setting: two dichotomic observables A and B, measured on statistical
ensembles prepared under a context (a fixed complex of physical conditions).
Three experiments characterize the context:

* measure B on the context ensemble -> filtration probabilities ``(p1, p2)``;
* measure A on each B-filtered ensemble -> a row-stochastic 2x2 transition
  matrix ``t[i][j] = P(A = a_j | filtered on B = b_i)``;
* measure A on the context ensemble directly -> outcome probabilities
  ``(q1, q2)``.

Classically the three are linked by the total-probability formula
``q_j = p1*t1j + p2*t2j``.  In general they are not, and the deviation is
carried by a pair of dimensionless interference coefficients::

    q_j = p1*t1j + p2*t2j + 2*sqrt(p1*p2*t1j*t2j) * lambda_j,   j = 1, 2.

This module evaluates that transformation forwards (:func:`predict_outcome`)
and backwards (:func:`lambda_from_statistics`), classifies the coefficient
regime (:func:`classify_theory`), parametrizes coefficients by trigonometric
or hyperbolic phases (:func:`phase_parametrization`), and checks the
stochasticity and statistical-balance (double stochasticity) laws of the
transition matrix.

All operations are pure functions of their arguments; values are immutable
and safe to share across threads.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Iterator, Sequence

from ._validation import (
    TOL_DEGENERATE,
    Record,
    TOL_EXACT,
    as_pair,
    as_tuple,
    clip_probability,
    out_of_range,
    require_distribution,
    require_finite,
    shown,
    sum_residual,
    where,
)
from .errors import DegenerateContextError, InfeasibleLambdaError, ValidationError

__all__ = [
    "TOL_EXACT",
    "TOL_DEGENERATE",
    "EPS_CLASS_DEFAULT",
    "DichotomicObservable",
    "TransitionMatrix",
    "ContextStatistics",
    "LambdaPair",
    "Phase",
    "PhaseKind",
    "PhasePair",
    "TheoryKind",
    "TheoryClass",
    "BalanceReport",
    "predict_outcome",
    "lambda_from_statistics",
    "classify_theory",
    "check_double_stochastic",
    "phase_parametrization",
    "normalization_residual",
]

#: Default half-width of the classification bands around |lambda| = 0 and
#: |lambda| = 1 for analytically known coefficients.  For sampled
#: coefficients pass an epsilon tied to the statistical error instead.
EPS_CLASS_DEFAULT = 1e-6


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


class DichotomicObservable(Record):
    """A two-outcome observable: a name and an ordered pair of outcome labels."""

    def __init__(self, name: str, value_labels: tuple[str, str]) -> None:
        if not isinstance(name, str) or not name:
            raise ValidationError("observable name must be a nonempty string")
        try:
            labels = as_tuple(value_labels, "")
        except ValidationError:
            labels = None
        # The message is built only on failure: every file load makes two observables.
        if labels is None or len(labels) != 2 or not all(isinstance(v, str) and v for v in labels):
            got = shown(value_labels if labels is None else labels)
            raise ValidationError(
                f"observable {shown(name)} labels must be two nonempty strings, got {got}"
            )
        if labels[0] == labels[1]:
            raise ValidationError(
                f"observable {shown(name)} labels must be distinct, got {shown(labels)}"
            )
        self._set(name=name, value_labels=labels)


class TransitionMatrix(Record):
    """Row-stochastic 2x2 matrix of conditional outcome probabilities.

    ``rows[i][j]`` is the probability of A-outcome ``j`` measured on the
    ensemble filtered on B-outcome ``i`` (both 0-based).  Each row describes
    one fixed filtered context, so it must be a probability distribution;
    the column sums are *not* constrained here.
    """

    def __init__(self, rows: tuple[tuple[float, float], tuple[float, float]]) -> None:
        rows = as_pair(rows, "transition matrix must have exactly two rows")
        self._set(rows=tuple(
            require_distribution(row, f"transition row {i + 1}") for i, row in enumerate(rows)
        ))


class ContextStatistics(Record):
    """Complete probability data of one (context, A, B) triple.

    ``prior``: filtration probabilities of the two B-outcomes;
    ``transition``: conditional A-statistics of the two filtered contexts;
    ``outcome``: A-statistics of the unfiltered context.
    """

    def __init__(self, prior: tuple[float, float], transition: TransitionMatrix,
                 outcome: tuple[float, float]) -> None:
        prior = require_distribution(prior, "prior")
        if not isinstance(transition, TransitionMatrix):
            transition = TransitionMatrix(transition)
        self._set(prior=prior, transition=transition,
                  outcome=require_distribution(outcome, "outcome"))


class LambdaPair(Record):
    """Interference coefficients (lambda1, lambda2), one per A-outcome.

    Each coefficient is the deviation of the observed outcome probability
    from the classical total-probability prediction, normalized by twice the
    geometric mean of the two classical contributions.  Dimensionless and,
    for genuine statistics, constrained only by outcome feasibility.
    """

    def __init__(self, lambda1: float, lambda2: float) -> None:
        self._set(lambda1=require_finite(lambda1, "lambda1"),
                  lambda2=require_finite(lambda2, "lambda2"))

    def __iter__(self) -> Iterator[float]:
        yield self.lambda1
        yield self.lambda2

    def __getitem__(self, index: int) -> float:
        return (self.lambda1, self.lambda2)[index]


class PhaseKind(str, Enum):
    TRIGONOMETRIC = "trigonometric"
    HYPERBOLIC = "hyperbolic"


class Phase(Record):
    """One phase parameter: either ``cos(theta)`` or ``sign * cosh(theta)``.

    Trigonometric phases live on the principal branch ``theta in [0, pi]``,
    hyperbolic ones carry ``theta >= 0`` plus an explicit sign, so that
    phase -> coefficient is a bijection and round trips exactly.
    """

    def __init__(self, kind: PhaseKind, theta: float, sign: int = 1) -> None:
        theta = require_finite(theta, "theta")
        if kind is PhaseKind.TRIGONOMETRIC:
            if not 0.0 <= theta <= math.pi:
                raise ValidationError(f"trigonometric theta must be in [0, pi], got {theta}")
            if sign != 1:
                raise ValidationError("trigonometric phases carry no sign")
        else:
            if theta < 0.0:
                raise ValidationError(f"hyperbolic theta must be >= 0, got {theta}")
            if sign not in (-1, 1):
                raise ValidationError(f"hyperbolic sign must be +1 or -1, got {sign}")
        self._set(kind=kind, theta=theta, sign=sign)

    @property
    def is_trigonometric(self) -> bool:
        return self.kind is PhaseKind.TRIGONOMETRIC


class PhasePair(Record):
    """Phase parametrizations of the two interference coefficients."""

    def __init__(self, phase1: Phase, phase2: Phase) -> None:
        self._set(phase1=phase1, phase2=phase2)

    def __iter__(self) -> Iterator[Phase]:
        yield self.phase1
        yield self.phase2

    @property
    def all_trigonometric(self) -> bool:
        return self.phase1.is_trigonometric and self.phase2.is_trigonometric


class TheoryKind(str, Enum):
    CLASSICAL = "classical"
    TRIGONOMETRIC = "trigonometric"
    HYPERBOLIC = "hyperbolic"
    HYPER_TRIGONOMETRIC = "hyper-trigonometric"
    BOUNDARY = "boundary"


class TheoryClass(Record):
    """Classification verdict for a coefficient pair.

    ``hyper_component`` (1-based) names the coefficient with magnitude above
    one in the mixed regime; ``boundary_components`` lists the coefficients
    neither at most ``1 - eps`` nor at least ``1 + eps`` in magnitude.
    """

    def __init__(self, kind: TheoryKind, hyper_component: int | None = None,
                 boundary_components: tuple[int, ...] = ()) -> None:
        if kind is TheoryKind.HYPER_TRIGONOMETRIC and hyper_component not in (1, 2):
            raise ValidationError("hyper-trigonometric verdict needs hyper_component 1 or 2")
        if kind is not TheoryKind.HYPER_TRIGONOMETRIC and hyper_component is not None:
            raise ValidationError("hyper_component only applies to hyper-trigonometric verdicts")
        if kind is TheoryKind.BOUNDARY and not boundary_components:
            raise ValidationError("boundary verdict needs at least one boundary component")
        if kind is not TheoryKind.BOUNDARY and boundary_components:
            raise ValidationError("boundary_components only apply to boundary verdicts")
        self._set(kind=kind, hyper_component=hyper_component,
                  boundary_components=tuple(boundary_components))


class BalanceReport(Record):
    """Residuals of the stochasticity and statistical-balance laws.

    ``is_stochastic`` checks row sums only (additivity within each filtered
    context; holds for any genuine statistics).  ``is_double_stochastic``
    additionally checks column sums (the balance law) and therefore implies
    ``is_stochastic``.
    """

    def __init__(self, row_residuals: tuple[float, float], column_residuals: tuple[float, float],
                 is_stochastic: bool, is_double_stochastic: bool, tolerance: float) -> None:
        self._set(row_residuals=row_residuals, column_residuals=column_residuals,
                  is_stochastic=is_stochastic, is_double_stochastic=is_double_stochastic,
                  tolerance=tolerance)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def interference_terms(p1, p2, ta, tb, sqrt=math.sqrt):
    """Classical term and interference weight of one outcome.

    Returns ``(p1*ta + p2*tb, 2*sqrt((p1*p2)*(ta*tb)))`` for the filtration
    probabilities and the two transition entries ``ta``, ``tb`` of one
    column, so that ``q = classical + weight*lambda``.  This is the only place
    the transformation is written out.  Relabelling B swaps ``(p1, ta)`` with
    ``(p2, tb)``; both terms keep their bits, as float ``+`` and ``*`` commute.
    The arguments are Python floats, or numpy arrays that broadcast together
    with ``sqrt=numpy.sqrt``; both square roots are correctly rounded, so the
    scalar and array forms agree bit for bit.
    """
    return p1 * ta + p2 * tb, 2.0 * sqrt((p1 * p2) * (ta * tb))


def invert_column(q, p1, p2, ta, tb, sqrt=math.sqrt, where=where):
    """``(lambda, failed, deviation, weight)`` of one outcome column: the inversion.

    ``lambda = deviation / weight``, ``deviation = q - classical`` (see
    :func:`interference_terms`).  A weight at most ``TOL_DEGENERATE`` gives
    ``lambda = 0``, and the column fails unless the deviation vanishes too.
    Floats, or arrays with ``sqrt=numpy.sqrt``, ``where=numpy.where``.
    """
    classical, weight = interference_terms(p1, p2, ta, tb, sqrt)
    deviation = q - classical
    vanishing = weight <= TOL_DEGENERATE
    failed = vanishing & (abs(deviation) > TOL_DEGENERATE)
    lam = where(vanishing, 0.0, deviation / where(vanishing, 1.0, weight))
    return lam, failed, deviation, weight


def predict_outcome(
    prior: Sequence[float], transition: TransitionMatrix, lam: LambdaPair
) -> tuple[float, float]:
    """Outcome probabilities from filtration data and interference coefficients.

    Evaluates, in fixed order,
    ``q_j = p1*t1j + p2*t2j + 2*sqrt(p1*p2*t1j*t2j)*lambda_j`` for j = 1, 2.

    Values straying outside [0, 1] by at most ``TOL_EXACT`` are clipped to
    the boundary (floating-point noise); larger excursions raise
    :class:`InfeasibleLambdaError`, because clamping a genuinely infeasible
    prediction would fabricate probabilities.
    """
    p = require_distribution(prior, "prior")
    rows = transition.rows
    out = []
    for j, lam_j in enumerate(lam):
        classical, weight = interference_terms(p[0], p[1], rows[0][j], rows[1][j])
        value = classical + weight * lam_j
        if out_of_range(value, TOL_EXACT):
            raise InfeasibleLambdaError(
                f"predicted outcome probability {value} for component {j + 1} is outside "
                f"[0, 1]; (prior, transition, lambda) triple is infeasible"
            )
        out.append(clip_probability(value))
    return (out[0], out[1])


def lambda_from_statistics(stats: ContextStatistics) -> LambdaPair:
    """Invert the outcome transformation for the interference coefficients.

    ``lambda_j = (q_j - p1*t1j - p2*t2j) / (2*sqrt(p1*p2*t1j*t2j))`` whenever
    the denominator exceeds ``TOL_DEGENERATE``.  If numerator and denominator
    both vanish the data carry no interference information and the
    coefficient is zero; if only the denominator vanishes no coefficient can
    explain the data and :class:`DegenerateContextError` is raised.  Each
    component goes through :func:`invert_column`.
    """
    p = stats.prior
    rows = stats.transition.rows
    values = []
    for j in range(2):
        value, failed, deviation, weight = invert_column(
            stats.outcome[j], p[0], p[1], rows[0][j], rows[1][j]
        )
        if failed:
            raise DegenerateContextError(
                f"component {j + 1}: interference weight {weight} vanishes but the "
                f"deviation from the classical prediction is {deviation}"
            )
        values.append(value)
    return LambdaPair(values[0], values[1])


def classify_theory(lam: LambdaPair, eps_class: float = EPS_CLASS_DEFAULT) -> TheoryClass:
    """Classify a coefficient pair into its measurement-theory regime.

    * classical: both magnitudes within ``eps_class`` of zero and not of one;
    * trigonometric: both magnitudes at most ``1 - eps_class``;
    * hyperbolic: both magnitudes at least ``1 + eps_class``;
    * hyper-trigonometric: one of each;
    * boundary: anything else, listing the components in neither of the two
      bands above, by the same :func:`_bands` tests.

    The verdict is a pure function of ``(lam, eps_class)``.
    """
    eps = require_finite(eps_class, "eps_class")
    if eps < 0.0:
        raise ValidationError(f"eps_class must be >= 0, got {eps}")
    magnitudes = (abs(lam.lambda1), abs(lam.lambda2))
    for verdict, holds in regimes(*magnitudes, eps):
        if holds:
            return verdict
    between = tuple(j + 1 for j, m in enumerate(magnitudes) if not any(_bands(m, eps)[1:]))
    return TheoryClass(TheoryKind.BOUNDARY, boundary_components=between)


def _bands(m, eps: float):
    """Band tests of one magnitude: ``(m <= min(eps, 1 - eps), m <= 1 - eps, m >= 1 + eps)``."""
    below = m <= 1.0 - eps
    return (m <= eps) & below, below, m >= 1.0 + eps


_REGIMES = (
    TheoryClass(TheoryKind.CLASSICAL),
    TheoryClass(TheoryKind.TRIGONOMETRIC),
    TheoryClass(TheoryKind.HYPERBOLIC),
    TheoryClass(TheoryKind.HYPER_TRIGONOMETRIC, hyper_component=2),
    TheoryClass(TheoryKind.HYPER_TRIGONOMETRIC, hyper_component=1),
)


def regimes(m1, m2, eps: float):
    """``(verdict, condition)`` pairs for magnitudes (floats or arrays), in the
    order :func:`classify_theory` tries them; none holding means boundary."""
    (zero1, below1, above1), (zero2, below2, above2) = _bands(m1, eps), _bands(m2, eps)
    both = (zero1 & zero2, below1 & below2, above1 & above2)
    return tuple(zip(_REGIMES, (*both, below1 & above2, below2 & above1)))


def check_double_stochastic(matrix: TransitionMatrix, tol: float = TOL_EXACT) -> BalanceReport:
    """Check double stochasticity: row sums *and* column sums equal one.

    Equal column sums express statistical balance: the two filtered
    preparations jointly produce each A-outcome with total weight one, so
    neither outcome is systematically overproduced.
    """
    tol = require_finite(tol, "tolerance")
    if tol < 0.0:
        raise ValidationError(f"tolerance must be >= 0, got {tol}")
    rows = matrix.rows
    row_res = (sum_residual(rows[0][0], rows[0][1]), sum_residual(rows[1][0], rows[1][1]))
    col_res = (sum_residual(rows[0][0], rows[1][0]), sum_residual(rows[0][1], rows[1][1]))
    rows_ok = all(r <= tol for r in row_res)
    cols_ok = all(c <= tol for c in col_res)
    return BalanceReport(
        row_residuals=row_res,
        column_residuals=col_res,
        is_stochastic=rows_ok,
        is_double_stochastic=rows_ok and cols_ok,
        tolerance=tol,
    )


# Not public: ``bench/tracing.py`` looks this name up in this module, so it
# stays as an alias of the one balance check.
check_row_stochastic = check_double_stochastic


def phase_parametrization(lam: LambdaPair) -> PhasePair:
    """Represent each coefficient as ``cos(theta)`` or ``sign * cosh(theta)``.

    Magnitudes at most one map to the principal branch ``theta = arccos(lambda)
    in [0, pi]``; larger magnitudes map to ``(sign, arccosh|lambda|)``.
    """
    branches = ((value, *phase_branch(value)) for value in lam)
    return PhasePair(*(
        Phase(PhaseKind.TRIGONOMETRIC, math.acos(argument)) if trigonometric
        else Phase(PhaseKind.HYPERBOLIC, math.acosh(argument), 1 if value > 0 else -1)
        for value, trigonometric, argument in branches
    ))


def phase_branch(value, where=where):
    """``(trigonometric, argument)``: :func:`phase_parametrization`'s branch, and the value
    that ``acos`` or ``acosh`` takes.  Floats, or arrays with ``where=numpy.where``; the
    angles come from ``math`` either way."""
    magnitude = abs(value)
    trig = magnitude <= 1.0
    return trig, where(trig, value, magnitude)


def normalization_residual(stats: ContextStatistics, lam: LambdaPair) -> float:
    """Weighted sum of the coefficients that must vanish for consistent data.

    Returns ``sqrt(p1*p2*t11*t21)*lambda1 + sqrt(p1*p2*t12*t22)*lambda2``.
    Because the outcome pair and both transition rows each sum to one, the
    two interference terms of the transformation must cancel, so for any
    self-consistent (statistics, coefficients) pair the residual is zero up
    to rounding.  Halving the kernel's weight ``2*sqrt(...)`` is exact.
    """
    p = stats.prior
    rows = stats.transition.rows
    _, weight1 = interference_terms(p[0], p[1], rows[0][0], rows[1][0])
    _, weight2 = interference_terms(p[0], p[1], rows[0][1], rows[1][1])
    return 0.5 * weight1 * lam.lambda1 + 0.5 * weight2 * lam.lambda2
