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
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Sequence

from ._validation import (
    TOL_DEGENERATE,
    TOL_EXACT,
    require_distribution,
    require_finite,
    require_probability,
)
from .errors import DegenerateContextError, OutOfRangeError, ValidationError

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
    "DegeneracyPolicy",
    "predict_outcome",
    "lambda_from_statistics",
    "total_probability",
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


@dataclass(frozen=True)
class DichotomicObservable:
    """A two-outcome observable: a name and an ordered pair of outcome labels."""

    name: str
    value_labels: tuple[str, str]

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ValidationError("observable name must be a nonempty string")
        labels = tuple(self.value_labels)
        if len(labels) != 2 or not all(isinstance(v, str) and v for v in labels):
            raise ValidationError(
                f"observable {self.name!r} needs exactly two nonempty labels"
            )
        if labels[0] == labels[1]:
            raise ValidationError(
                f"observable {self.name!r} labels must be distinct, got {labels!r}"
            )
        object.__setattr__(self, "value_labels", labels)


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic 2x2 matrix of conditional outcome probabilities.

    ``rows[i][j]`` is the probability of A-outcome ``j`` measured on the
    ensemble filtered on B-outcome ``i`` (both 0-based).  Each row describes
    one fixed filtered context, so it must be a probability distribution;
    the column sums are *not* constrained here.
    """

    rows: tuple[tuple[float, float], tuple[float, float]]

    def __post_init__(self) -> None:
        rows = tuple(self.rows)
        if len(rows) != 2:
            raise ValidationError("transition matrix must have exactly two rows")
        clean = tuple(
            require_distribution(row, f"transition row {i + 1}") for i, row in enumerate(rows)
        )
        object.__setattr__(self, "rows", clean)


@dataclass(frozen=True)
class ContextStatistics:
    """Complete probability data of one (context, A, B) triple.

    ``prior``: filtration probabilities of the two B-outcomes;
    ``transition``: conditional A-statistics of the two filtered contexts;
    ``outcome``: A-statistics of the unfiltered context.
    """

    prior: tuple[float, float]
    transition: TransitionMatrix
    outcome: tuple[float, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "prior", require_distribution(self.prior, "prior"))
        if not isinstance(self.transition, TransitionMatrix):
            object.__setattr__(self, "transition", TransitionMatrix(tuple(self.transition)))
        object.__setattr__(self, "outcome", require_distribution(self.outcome, "outcome"))


@dataclass(frozen=True)
class LambdaPair:
    """Interference coefficients (lambda1, lambda2), one per A-outcome.

    Each coefficient is the deviation of the observed outcome probability
    from the classical total-probability prediction, normalized by twice the
    geometric mean of the two classical contributions.  Dimensionless and,
    for genuine statistics, constrained only by outcome feasibility.
    """

    lambda1: float
    lambda2: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "lambda1", require_finite(self.lambda1, "lambda1"))
        object.__setattr__(self, "lambda2", require_finite(self.lambda2, "lambda2"))

    def __iter__(self) -> Iterator[float]:
        yield self.lambda1
        yield self.lambda2

    def __getitem__(self, index: int) -> float:
        return (self.lambda1, self.lambda2)[index]

    def max_abs(self) -> float:
        return max(abs(self.lambda1), abs(self.lambda2))


class PhaseKind(str, Enum):
    TRIGONOMETRIC = "trigonometric"
    HYPERBOLIC = "hyperbolic"


@dataclass(frozen=True)
class Phase:
    """One phase parameter: either ``cos(theta)`` or ``sign * cosh(theta)``.

    Trigonometric phases live on the principal branch ``theta in [0, pi]``,
    hyperbolic ones carry ``theta >= 0`` plus an explicit sign, so that
    phase -> coefficient is a bijection and round trips exactly.
    """

    kind: PhaseKind
    theta: float
    sign: int = 1

    def __post_init__(self) -> None:
        theta = require_finite(self.theta, "theta")
        if self.kind is PhaseKind.TRIGONOMETRIC:
            if not 0.0 <= theta <= math.pi:
                raise ValidationError(f"trigonometric theta must be in [0, pi], got {theta}")
            if self.sign != 1:
                raise ValidationError("trigonometric phases carry no sign")
        else:
            if theta < 0.0:
                raise ValidationError(f"hyperbolic theta must be >= 0, got {theta}")
            if self.sign not in (-1, 1):
                raise ValidationError(f"hyperbolic sign must be +1 or -1, got {self.sign}")
        object.__setattr__(self, "theta", theta)

    @property
    def is_trigonometric(self) -> bool:
        return self.kind is PhaseKind.TRIGONOMETRIC

    def coefficient(self) -> float:
        """The interference coefficient this phase parametrizes."""
        if self.is_trigonometric:
            return math.cos(self.theta)
        return self.sign * math.cosh(self.theta)


@dataclass(frozen=True)
class PhasePair:
    """Phase parametrizations of the two interference coefficients."""

    phase1: Phase
    phase2: Phase

    def __iter__(self) -> Iterator[Phase]:
        yield self.phase1
        yield self.phase2

    def __getitem__(self, index: int) -> Phase:
        return (self.phase1, self.phase2)[index]

    @property
    def all_trigonometric(self) -> bool:
        return self.phase1.is_trigonometric and self.phase2.is_trigonometric


class TheoryKind(str, Enum):
    CLASSICAL = "classical"
    TRIGONOMETRIC = "trigonometric"
    HYPERBOLIC = "hyperbolic"
    HYPER_TRIGONOMETRIC = "hyper-trigonometric"
    BOUNDARY = "boundary"


@dataclass(frozen=True)
class TheoryClass:
    """Classification verdict for a coefficient pair.

    ``hyper_component`` (1-based) names the coefficient with magnitude above
    one in the mixed regime; ``boundary_components`` lists the coefficients
    sitting within the epsilon band around magnitude one.
    """

    kind: TheoryKind
    hyper_component: int | None = None
    boundary_components: tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.kind is TheoryKind.HYPER_TRIGONOMETRIC and self.hyper_component not in (1, 2):
            raise ValidationError("hyper-trigonometric verdict needs hyper_component 1 or 2")
        if self.kind is not TheoryKind.HYPER_TRIGONOMETRIC and self.hyper_component is not None:
            raise ValidationError("hyper_component only applies to hyper-trigonometric verdicts")
        if self.kind is TheoryKind.BOUNDARY and not self.boundary_components:
            raise ValidationError("boundary verdict needs at least one boundary component")
        if self.kind is not TheoryKind.BOUNDARY and self.boundary_components:
            raise ValidationError("boundary_components only apply to boundary verdicts")
        object.__setattr__(self, "boundary_components", tuple(self.boundary_components))


@dataclass(frozen=True)
class BalanceReport:
    """Residuals of the stochasticity and statistical-balance laws.

    ``is_stochastic`` checks row sums only (additivity within each filtered
    context; holds for any genuine statistics).  ``is_double_stochastic``
    additionally checks column sums (the balance law) and therefore implies
    ``is_stochastic``.
    """

    row_residuals: tuple[float, float]
    column_residuals: tuple[float, float]
    is_stochastic: bool
    is_double_stochastic: bool
    tolerance: float

    @property
    def max_column_residual(self) -> float:
        return max(self.column_residuals)


class DegeneracyPolicy(Enum):
    """What to do when an interference weight and the deviation both vanish.

    A vanishing weight carries no interference information; ``ZERO_LAMBDA``
    (the default) assigns coefficient zero, which keeps the transformation
    consistent.  ``RAISE`` refuses instead.
    """

    ZERO_LAMBDA = "zero"
    RAISE = "raise"


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def _interference_weight(prior: tuple[float, float], transition: TransitionMatrix, j: int) -> float:
    """sqrt(p1 * p2 * t1j * t2j) for 0-based A-outcome ``j``."""
    t1j = transition.rows[0][j]
    t2j = transition.rows[1][j]
    return math.sqrt(prior[0] * prior[1] * t1j * t2j)


def predict_outcome(
    prior: Sequence[float],
    transition: TransitionMatrix,
    lam: LambdaPair,
    *,
    feasibility_tol: float = TOL_EXACT,
) -> tuple[float, float]:
    """Outcome probabilities from filtration data and interference coefficients.

    Evaluates, in fixed order,
    ``q_j = p1*t1j + p2*t2j + 2*sqrt(p1*p2*t1j*t2j)*lambda_j`` for j = 1, 2.

    Values straying outside [0, 1] by at most ``feasibility_tol`` are clipped
    to the boundary (floating-point noise); larger excursions raise
    :class:`OutOfRangeError`, because clamping a genuinely infeasible
    prediction would fabricate probabilities.
    """
    p = require_distribution(prior, "prior")
    out = []
    for j, lam_j in enumerate(lam):
        value = (
            p[0] * transition.rows[0][j]
            + p[1] * transition.rows[1][j]
            + 2.0 * _interference_weight(p, transition, j) * lam_j
        )
        if value < -feasibility_tol or value > 1.0 + feasibility_tol:
            raise OutOfRangeError(
                f"predicted outcome probability {value} for component {j + 1} is outside "
                f"[0, 1]; (prior, transition, lambda) triple is infeasible"
            )
        out.append(min(max(value, 0.0), 1.0))
    return (out[0], out[1])


def total_probability(
    prior: Sequence[float], transition: TransitionMatrix
) -> tuple[float, float]:
    """Classical total-probability prediction: the zero-coefficient case.

    Delegates to :func:`predict_outcome` with both coefficients zero, so the
    two agree bit for bit.
    """
    return predict_outcome(prior, transition, LambdaPair(0.0, 0.0))


def lambda_from_statistics(
    stats: ContextStatistics,
    policy: DegeneracyPolicy = DegeneracyPolicy.ZERO_LAMBDA,
    *,
    tol_degenerate: float = TOL_DEGENERATE,
) -> LambdaPair:
    """Invert the outcome transformation for the interference coefficients.

    ``lambda_j = (q_j - p1*t1j - p2*t2j) / (2*sqrt(p1*p2*t1j*t2j))`` whenever
    the denominator exceeds ``tol_degenerate``.  If numerator and denominator
    both vanish the data carry no interference information and ``policy``
    decides; if only the denominator vanishes no coefficient can explain the
    data and :class:`DegenerateContextError` is raised.
    """
    p = stats.prior
    values = []
    for j in range(2):
        weight = _interference_weight(p, stats.transition, j)
        numerator = stats.outcome[j] - (
            p[0] * stats.transition.rows[0][j] + p[1] * stats.transition.rows[1][j]
        )
        denominator = 2.0 * weight
        if denominator <= tol_degenerate:
            if abs(numerator) > tol_degenerate:
                raise DegenerateContextError(
                    f"component {j + 1}: interference weight {denominator} vanishes but the "
                    f"deviation from the classical prediction is {numerator}"
                )
            if policy is DegeneracyPolicy.RAISE:
                raise DegenerateContextError(
                    f"component {j + 1}: 0/0 coefficient under RAISE policy"
                )
            values.append(0.0)
        else:
            values.append(numerator / denominator)
    return LambdaPair(values[0], values[1])


def classify_theory(lam: LambdaPair, eps_class: float = EPS_CLASS_DEFAULT) -> TheoryClass:
    """Classify a coefficient pair into its measurement-theory regime.

    * classical: both magnitudes within ``eps_class`` of zero;
    * trigonometric: both magnitudes at most ``1 - eps_class``;
    * hyperbolic: both magnitudes at least ``1 + eps_class``;
    * hyper-trigonometric: one of each;
    * boundary: anything else, listing the components within ``eps_class``
      of magnitude one.

    The verdict is a pure function of ``(lam, eps_class)``.
    """
    eps = require_finite(eps_class, "eps_class")
    if eps < 0.0:
        raise ValidationError(f"eps_class must be >= 0, got {eps}")
    magnitudes = (abs(lam.lambda1), abs(lam.lambda2))
    if max(magnitudes) <= eps:
        return TheoryClass(TheoryKind.CLASSICAL)
    below = [m <= 1.0 - eps for m in magnitudes]
    above = [m >= 1.0 + eps for m in magnitudes]
    if all(below):
        return TheoryClass(TheoryKind.TRIGONOMETRIC)
    if all(above):
        return TheoryClass(TheoryKind.HYPERBOLIC)
    if below[0] and above[1]:
        return TheoryClass(TheoryKind.HYPER_TRIGONOMETRIC, hyper_component=2)
    if below[1] and above[0]:
        return TheoryClass(TheoryKind.HYPER_TRIGONOMETRIC, hyper_component=1)
    near_one = tuple(j + 1 for j, m in enumerate(magnitudes) if abs(m - 1.0) < eps)
    if not near_one:
        # Unreachable for eps > 0; guards eps == 0 edge geometry.
        near_one = tuple(
            j + 1 for j, m in enumerate(magnitudes) if not (below[j] or above[j])
        )
    return TheoryClass(TheoryKind.BOUNDARY, boundary_components=near_one)


RawMatrix = TransitionMatrix | Sequence[Sequence[float]]


def check_double_stochastic(matrix: RawMatrix, tol: float = TOL_EXACT) -> BalanceReport:
    """Check double stochasticity: row sums *and* column sums equal one.

    Equal column sums express statistical balance: the two filtered
    preparations jointly produce each A-outcome with total weight one, so
    neither outcome is systematically overproduced.

    A :class:`TransitionMatrix` was validated when it was built.  Any other
    2x2 matrix only needs entries in [0, 1]: its row sums are free, so a
    failed row-sum law comes back as a residual rather than a construction
    error.
    """
    tol = require_finite(tol, "tol")
    if tol < 0.0:
        raise ValidationError(f"tolerance must be >= 0, got {tol}")
    if isinstance(matrix, TransitionMatrix):
        rows = matrix.rows
    else:
        rows = tuple(matrix)
        if len(rows) != 2 or any(len(row) != 2 for row in rows):
            raise ValidationError("balance checks need a 2x2 matrix")
        rows = tuple(
            tuple(
                require_probability(entry, f"entry[{i + 1}][{j + 1}]", tol=0.0)
                for j, entry in enumerate(row)
            )
            for i, row in enumerate(rows)
        )
    row_res = (abs(rows[0][0] + rows[0][1] - 1.0), abs(rows[1][0] + rows[1][1] - 1.0))
    col_res = (abs(rows[0][0] + rows[1][0] - 1.0), abs(rows[0][1] + rows[1][1] - 1.0))
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


def phase_parametrization(lam: LambdaPair, *, trig_tol: float = 0.0) -> PhasePair:
    """Represent each coefficient as ``cos(theta)`` or ``sign * cosh(theta)``.

    Magnitudes at most one map to the principal branch ``theta = arccos(lambda)
    in [0, pi]``; larger magnitudes map to ``(sign, arccosh|lambda|)``.
    ``trig_tol`` widens the trigonometric branch to ``|lambda| <= 1 + trig_tol``
    (clamping to the endpoint), for coefficients known to be trigonometric up
    to numerical or statistical noise.
    """
    phases = []
    for value in lam:
        magnitude = abs(value)
        if magnitude <= 1.0 + trig_tol and magnitude >= 1.0:
            value = math.copysign(1.0, value)
            magnitude = 1.0
        if magnitude <= 1.0:
            phases.append(Phase(PhaseKind.TRIGONOMETRIC, math.acos(value)))
        else:
            phases.append(
                Phase(PhaseKind.HYPERBOLIC, math.acosh(magnitude), sign=1 if value > 0 else -1)
            )
    return PhasePair(phases[0], phases[1])


def normalization_residual(stats: ContextStatistics, lam: LambdaPair) -> float:
    """Weighted sum of the coefficients that must vanish for consistent data.

    Returns ``sqrt(p1*p2*t11*t21)*lambda1 + sqrt(p1*p2*t12*t22)*lambda2``.
    Because the outcome pair and both transition rows each sum to one, the
    two interference terms of the transformation must cancel, so for any
    self-consistent (statistics, coefficients) pair the residual is zero up
    to rounding.
    """
    return (
        _interference_weight(stats.prior, stats.transition, 0) * lam.lambda1
        + _interference_weight(stats.prior, stats.transition, 1) * lam.lambda2
    )
