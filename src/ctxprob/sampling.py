"""Finite-ensemble simulation and inference for context statistics.

A full characterization run consists of three physically separate
experiments, each on its own freshly prepared ensemble:

1. measure A on the context ensemble,
2. measure B on the context ensemble (the filtration statistics),
3. measure A on each of the two filtered ensembles.

Samples are never shared between experiments; probabilities belong to their
preparation, so reusing one ensemble for two contexts would smuggle in a
joint distribution the statistics do not define.  Every random draw comes
from a substream derived from ``(seed, role)`` (and the replicate index for
bootstrap draws), which makes all results deterministic functions of their
inputs, independent of evaluation order or parallelism.

Estimation is plain frequency counting with binomial standard errors; the
interference coefficients inherit uncertainty through the inversion formula,
quantified by a percentile bootstrap over the recorded tallies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._rng import (
    ROLE_A_ON_CONTEXT,
    ROLE_A_ON_FILTERED_1,
    ROLE_A_ON_FILTERED_2,
    ROLE_B_ON_CONTEXT,
    ROLE_BOOTSTRAP,
    ROLE_STUDY,
    substream,
)
from ._validation import TOL_DEGENERATE, require_positive_int, require_seed
from .calculus import (
    ContextStatistics,
    DegeneracyPolicy,
    LambdaPair,
    TheoryClass,
    TransitionMatrix,
    classify_theory,
    lambda_from_statistics,
)
from .errors import (
    DegenerateContextError,
    EmptyEnsembleError,
    ValidationError,
    ZeroFiltrationError,
)
from .models import Model, exact_statistics

__all__ = [
    "EnsembleSizes",
    "CountsRecord",
    "StatisticsStderr",
    "EstimatedStatistics",
    "LambdaEstimate",
    "ConvergenceRow",
    "simulate_counts",
    "estimate_statistics",
    "estimate_lambda",
    "convergence_study",
]


@dataclass(frozen=True)
class EnsembleSizes:
    """Sizes of the three experiments' ensembles, set independently."""

    a_on_context: int
    b_on_context: int
    a_on_filtered: tuple[int, int]

    def __post_init__(self) -> None:
        require_positive_int(self.a_on_context, "a_on_context")
        require_positive_int(self.b_on_context, "b_on_context")
        filtered = tuple(self.a_on_filtered)
        if len(filtered) != 2:
            raise ValidationError("a_on_filtered needs one size per filtered context")
        for i, n in enumerate(filtered):
            require_positive_int(n, f"a_on_filtered[{i + 1}]")
        object.__setattr__(self, "a_on_filtered", filtered)

    @classmethod
    def uniform(cls, n: int) -> "EnsembleSizes":
        return cls(a_on_context=n, b_on_context=n, a_on_filtered=(n, n))


@dataclass(frozen=True)
class CountsRecord:
    """Raw tallies of the three experiments, plus the seed that produced them."""

    n_context: int
    a_counts: tuple[int, int]
    n_filtration: int
    b_counts: tuple[int, int]
    n_filtered: tuple[int, int]
    a_counts_given: tuple[tuple[int, int], tuple[int, int]]
    seed: int
    model: Model | None = None

    def __post_init__(self) -> None:
        require_seed(self.seed)
        object.__setattr__(self, "a_counts", tuple(self.a_counts))
        object.__setattr__(self, "b_counts", tuple(self.b_counts))
        object.__setattr__(self, "n_filtered", tuple(self.n_filtered))
        object.__setattr__(
            self, "a_counts_given", tuple(tuple(pair) for pair in self.a_counts_given)
        )
        if len(self.n_filtered) != 2 or len(self.a_counts_given) != 2:
            raise ValidationError("counts need exactly two filtered contexts")
        for total, pair, label in (
            (self.n_context, self.a_counts, "a_counts"),
            (self.n_filtration, self.b_counts, "b_counts"),
            (self.n_filtered[0], self.a_counts_given[0], "a_counts_given[1]"),
            (self.n_filtered[1], self.a_counts_given[1], "a_counts_given[2]"),
        ):
            if len(pair) != 2 or any(isinstance(k, bool) or not isinstance(k, int) or k < 0 for k in pair):
                raise ValidationError(f"{label} must be a pair of nonnegative integers")
            if not isinstance(total, int) or total < 0:
                raise ValidationError(f"ensemble size for {label} must be a nonnegative integer")
            if pair[0] + pair[1] != total:
                raise ValidationError(
                    f"{label} must sum to its ensemble size {total}, got {pair}"
                )


@dataclass(frozen=True)
class StatisticsStderr:
    """Binomial standard error of every estimated probability."""

    prior: tuple[float, float]
    transition: tuple[tuple[float, float], tuple[float, float]]
    outcome: tuple[float, float]


@dataclass(frozen=True)
class EstimatedStatistics:
    """Frequency estimate of context statistics with per-probability errors."""

    point: ContextStatistics
    stderr: StatisticsStderr
    counts: CountsRecord


@dataclass(frozen=True)
class LambdaEstimate:
    """Point estimate of the interference coefficients with bootstrap CI.

    ``classification`` uses the larger CI half-width as the class band, so a
    coefficient statistically indistinguishable from zero reads classical and
    one straddling magnitude one reads boundary rather than forcing a
    verdict.  ``failed_replicates`` counts bootstrap draws whose resampled
    statistics were degenerate; they are excluded from the percentiles but
    never silently dropped from the report.
    """

    lambda_hat: LambdaPair
    ci_low: tuple[float, float]
    ci_high: tuple[float, float]
    stderr: tuple[float, float]
    replicates: int
    seed: int
    confidence: float
    failed_replicates: int

    def half_widths(self) -> tuple[float, float]:
        return (
            (self.ci_high[0] - self.ci_low[0]) / 2.0,
            (self.ci_high[1] - self.ci_low[1]) / 2.0,
        )

    @cached_property
    def classification(self) -> TheoryClass:
        return classify_theory(self.lambda_hat, max(self.half_widths()))


@dataclass(frozen=True)
class ConvergenceRow:
    """Mean absolute coefficient error at one ensemble size."""

    n: int
    mean_abs_error: tuple[float, float]
    stderr: tuple[float, float]


def _draw_pair(rng: np.random.Generator, n: int, p_first: float) -> tuple[int, int]:
    k = int(rng.binomial(n, p_first))
    return (k, n - k)


def simulate_counts(
    model: Model, sizes: EnsembleSizes | int, seed: int
) -> CountsRecord:
    """Simulate the three experiments against a model's exact statistics.

    Each experiment draws from its own ``(seed, role)`` substream, so the
    record is a deterministic function of ``(model, sizes, seed)``.  Raises
    :class:`ZeroFiltrationError` if a filtered ensemble is impossible to
    prepare (a filtration probability of zero).
    """
    if isinstance(sizes, int):
        sizes = EnsembleSizes.uniform(sizes)
    seed = require_seed(seed)
    stats = exact_statistics(model)
    if min(stats.prior) <= 0.0:
        empty = stats.prior.index(min(stats.prior))
        raise ZeroFiltrationError(
            f"filtration probability of B-outcome {empty + 1} is zero; "
            f"its filtered ensemble cannot be prepared"
        )
    a_counts = _draw_pair(
        substream(seed, ROLE_A_ON_CONTEXT), sizes.a_on_context, stats.outcome[0]
    )
    b_counts = _draw_pair(
        substream(seed, ROLE_B_ON_CONTEXT), sizes.b_on_context, stats.prior[0]
    )
    filtered_roles = (ROLE_A_ON_FILTERED_1, ROLE_A_ON_FILTERED_2)
    a_given = tuple(
        _draw_pair(substream(seed, role), sizes.a_on_filtered[i], stats.transition.rows[i][0])
        for i, role in enumerate(filtered_roles)
    )
    return CountsRecord(
        n_context=sizes.a_on_context,
        a_counts=a_counts,
        n_filtration=sizes.b_on_context,
        b_counts=b_counts,
        n_filtered=sizes.a_on_filtered,
        a_counts_given=a_given,
        seed=seed,
        model=model,
    )


def _stderr(p_hat: float, n: int) -> float:
    return math.sqrt(p_hat * (1.0 - p_hat) / n)


def estimate_statistics(counts: CountsRecord) -> EstimatedStatistics:
    """Relative-frequency estimates with binomial standard errors.

    Frequencies within one experiment sum to one by construction, so the
    estimated transition matrix is row stochastic exactly; column sums are
    left alone -- whether they equal one is an empirical finding about the
    data, not a constraint imposed here.
    """
    for n, label in (
        (counts.n_context, "A-on-context"),
        (counts.n_filtration, "B-on-context"),
        (counts.n_filtered[0], "A-on-filtered-1"),
        (counts.n_filtered[1], "A-on-filtered-2"),
    ):
        if n == 0:
            raise EmptyEnsembleError(f"{label} ensemble is empty; frequencies undefined")
    prior = (counts.b_counts[0] / counts.n_filtration, counts.b_counts[1] / counts.n_filtration)
    rows = tuple(
        (counts.a_counts_given[i][0] / counts.n_filtered[i],
         counts.a_counts_given[i][1] / counts.n_filtered[i])
        for i in range(2)
    )
    outcome = (counts.a_counts[0] / counts.n_context, counts.a_counts[1] / counts.n_context)
    point = ContextStatistics(prior=prior, transition=TransitionMatrix(rows), outcome=outcome)
    stderr = StatisticsStderr(
        prior=(_stderr(prior[0], counts.n_filtration), _stderr(prior[1], counts.n_filtration)),
        transition=tuple(
            (_stderr(rows[i][0], counts.n_filtered[i]), _stderr(rows[i][1], counts.n_filtered[i]))
            for i in range(2)
        ),
        outcome=(_stderr(outcome[0], counts.n_context), _stderr(outcome[1], counts.n_context)),
    )
    return EstimatedStatistics(point=point, stderr=stderr, counts=counts)


def _lambda_from_frequencies(
    q1: float, p1: float, t11: float, t21: float
) -> tuple[float, float] | None:
    """Both coefficients from the four first-outcome frequencies.

    Returns None when a denominator vanishes against a nonzero numerator
    (degenerate resample); 0/0 components resolve to zero.
    """
    p2 = 1.0 - p1
    out = []
    for q, ta, tb in ((q1, t11, t21), (1.0 - q1, 1.0 - t11, 1.0 - t21)):
        denominator = 2.0 * math.sqrt(p1 * p2 * ta * tb)
        numerator = q - p1 * ta - p2 * tb
        if denominator <= TOL_DEGENERATE:
            if abs(numerator) > TOL_DEGENERATE:
                return None
            out.append(0.0)
        else:
            out.append(numerator / denominator)
    return (out[0], out[1])


def estimate_lambda(
    est: EstimatedStatistics,
    replicates: int = 1000,
    seed: int = 0,
    *,
    confidence: float = 0.95,
) -> LambdaEstimate:
    """Coefficient estimate with a percentile-bootstrap confidence interval.

    The point estimate inverts the frequency statistics directly.  Each
    bootstrap replicate redraws all four tallies from their estimated
    binomial laws (equivalent to resampling the underlying ensembles) on its
    own ``(seed, bootstrap, replicate)`` substream and re-inverts; the CI is
    the percentile interval of the surviving replicates, widened if needed so
    that it contains the point estimate.  A percentile bootstrap stays
    meaningful near degenerate statistics where error propagation through the
    inversion's denominator does not.
    """
    require_positive_int(replicates, "replicates")
    seed = require_seed(seed)
    if not 0.0 < confidence < 1.0:
        raise ValidationError(f"confidence must be in (0, 1), got {confidence}")
    lambda_hat = lambda_from_statistics(est.point, DegeneracyPolicy.ZERO_LAMBDA)

    counts = est.counts
    p_hat = (
        est.point.outcome[0],
        est.point.prior[0],
        est.point.transition.rows[0][0],
        est.point.transition.rows[1][0],
    )
    n = (counts.n_context, counts.n_filtration, counts.n_filtered[0], counts.n_filtered[1])
    draws: list[tuple[float, float]] = []
    failed = 0
    for r in range(replicates):
        rng = substream(seed, ROLE_BOOTSTRAP, r)
        q1, b1, t11, t21 = (rng.binomial(n[k], p_hat[k]) / n[k] for k in range(4))
        pair = _lambda_from_frequencies(q1, b1, t11, t21)
        if pair is None:
            failed += 1
        else:
            draws.append(pair)
    if not draws:
        raise DegenerateContextError(
            f"all {replicates} bootstrap replicates were degenerate"
        )
    samples = np.asarray(draws)
    tail = 100.0 * (1.0 - confidence) / 2.0
    low = np.percentile(samples, tail, axis=0)
    high = np.percentile(samples, 100.0 - tail, axis=0)
    ci_low = tuple(min(float(low[j]), lambda_hat[j]) for j in range(2))
    ci_high = tuple(max(float(high[j]), lambda_hat[j]) for j in range(2))
    stderr = tuple(float(s) for s in samples.std(axis=0, ddof=1)) if len(draws) > 1 else (0.0, 0.0)
    return LambdaEstimate(
        lambda_hat=lambda_hat,
        ci_low=ci_low,
        ci_high=ci_high,
        stderr=stderr,
        replicates=replicates,
        seed=seed,
        confidence=confidence,
        failed_replicates=failed,
    )


def convergence_study(
    model: Model,
    n_grid: tuple[int, ...] | list[int],
    seeds_per_size: int,
    base_seed: int,
) -> tuple[ConvergenceRow, ...]:
    """Mean absolute coefficient error across a grid of ensemble sizes.

    For each size, ``seeds_per_size`` independent runs are simulated on
    substream-derived seeds and the point-estimate error against the model's
    exact coefficients is averaged.  Deterministic in ``base_seed``.
    """
    if not n_grid:
        raise ValidationError("n_grid must be nonempty")
    require_positive_int(seeds_per_size, "seeds_per_size")
    base_seed = require_seed(base_seed)
    truth = lambda_from_statistics(exact_statistics(model), DegeneracyPolicy.ZERO_LAMBDA)
    rows = []
    for size_index, n in enumerate(n_grid):
        require_positive_int(n, "ensemble size")
        errors = np.empty((seeds_per_size, 2))
        for k in range(seeds_per_size):
            run_seed = int(
                substream(base_seed, ROLE_STUDY, size_index, k).integers(0, 2**63)
            )
            counts = simulate_counts(model, EnsembleSizes.uniform(n), run_seed)
            est = estimate_statistics(counts)
            lam = lambda_from_statistics(est.point, DegeneracyPolicy.ZERO_LAMBDA)
            errors[k] = (abs(lam[0] - truth[0]), abs(lam[1] - truth[1]))
        mean = errors.mean(axis=0)
        se = (
            errors.std(axis=0, ddof=1) / math.sqrt(seeds_per_size)
            if seeds_per_size > 1
            else np.zeros(2)
        )
        rows.append(
            ConvergenceRow(
                n=n,
                mean_abs_error=(float(mean[0]), float(mean[1])),
                stderr=(float(se[0]), float(se[1])),
            )
        )
    return tuple(rows)
