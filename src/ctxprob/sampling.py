"""Finite-ensemble simulation and inference for context statistics.

A full characterization run consists of four physically separate
experiments, each on its own freshly prepared ensemble, in the order of roles 1-4:

1. measure A on the context ensemble,
2. measure B on the context ensemble (the filtration statistics),
3. measure A on filtered ensemble 1,
4. measure A on filtered ensemble 2.

Samples are never shared between experiments; probabilities belong to their
preparation, so reusing one ensemble for two contexts would smuggle in a
joint distribution the statistics do not define.  Every random draw comes
from a substream derived from ``(seed, role)``; the bootstrap redraws the tally
of experiment ``j`` for every replicate from the one substream
``(seed, bootstrap-experiment, j)``.  All results are therefore deterministic
functions of their inputs, independent of evaluation order or parallelism.
Experiment ``j = 0..3`` is that of role ``j + 1``.

Estimation is plain frequency counting (:func:`estimate_statistics`); the
interference coefficients inherit the uncertainty of the tallies through the
inversion formula, quantified by a percentile bootstrap that redraws them.
"""

from __future__ import annotations

import threading

import numpy as np

from ._rng import (
    ROLE_A_ON_CONTEXT,
    ROLE_A_ON_FILTERED_1,
    ROLE_A_ON_FILTERED_2,
    ROLE_B_ON_CONTEXT,
    ROLE_BOOTSTRAP_EXPERIMENT,
    substream,
)
from ._validation import Record, as_pair, as_tuple, require_count, require_seed, shown
from .calculus import (
    ContextStatistics,
    LambdaPair,
    TransitionMatrix,
    invert_column,
    lambda_from_statistics,
)
from .errors import DegenerateContextError, ValidationError
from .models import Model, exact_statistics

__all__ = [
    "CountsRecord",
    "LambdaEstimate",
    "simulate_counts",
    "estimate_statistics",
    "estimate_lambda",
]

#: Names the bootstrap stream layout in reports; changes with the layout.
BOOTSTRAP_STREAM = "bootstrap-experiment"

#: Most replicates one bootstrap draws; a fresh process that draws 10^6 peaks near 160 MB.
MAX_BOOTSTRAP_REPLICATES = 10**6

#: Coverage of the percentile-bootstrap interval of :func:`estimate_lambda`.
CONFIDENCE = 0.95

#: Fewest replicates whose four bootstrap rows are drawn on two threads.  Measured
#: on two CPUs, one thread draws faster below about 1500 replicates at n = 100 and
#: below about 2500-3000 at n = 10^4 and 10^6.
_TWO_THREADS_FROM = 2500


#: The four experiments as ``(role, name)``, in the order of roles 1-4, of the bootstrap's ``j``
#: and of CountsRecord's sizes and tallies.  simulate_counts seeds its draws by ``role``; every
#: message about an experiment's ensemble or counts starts with its ``name``.
_EXPERIMENTS = (
    (ROLE_A_ON_CONTEXT, "A-on-context"),
    (ROLE_B_ON_CONTEXT, "B-on-context"),
    (ROLE_A_ON_FILTERED_1, "A-on-filtered-1"),
    (ROLE_A_ON_FILTERED_2, "A-on-filtered-2"),
)


class CountsRecord(Record):
    """Raw tallies of the four experiments, plus the seed that produced them.

    ``sizes`` holds the four ensemble sizes and ``tallies`` the four outcome pairs,
    both in the order of roles 1-4, like the ``sizes`` of :func:`simulate_counts`:
    A on the context, B on the context, and A on filtered contexts 1 and 2.
    """

    def __init__(self, sizes: tuple[int, int, int, int],
                 tallies: tuple[tuple[int, int], ...], seed: int) -> None:
        require_seed(seed)
        shape = "counts need four ensemble sizes and four tally pairs, one per experiment"
        sizes, tallies = as_tuple(sizes, shape), as_tuple(tallies, shape)
        if len(sizes) != len(_EXPERIMENTS) or len(tallies) != len(_EXPERIMENTS):
            raise ValidationError(shape)
        pairs = []
        for (_, name), total, pair in zip(_EXPERIMENTS, sizes, tallies):
            require_count(total, f"{name} ensemble size", 0)
            pair = as_pair(pair, f"{name} counts must be a pair of integers")
            for k in pair:
                require_count(k, f"{name} count", 0)
            if pair[0] + pair[1] != total:
                raise ValidationError(
                    f"{name} counts must sum to its ensemble size {total}, got {shown(pair)}"
                )
            pairs.append(pair)
        self._set(sizes=sizes, tallies=tuple(pairs), seed=seed)


class LambdaEstimate(Record):
    """Point estimate of the interference coefficients with bootstrap CI.

    ``statistics`` are the frequency statistics the point estimate inverts.
    The interval has coverage :data:`CONFIDENCE`.  ``failed_replicates``
    counts bootstrap draws whose resampled statistics were degenerate; they
    are excluded from the percentiles but never silently dropped from the
    report.
    """

    def __init__(self, statistics: ContextStatistics, lambda_hat: LambdaPair,
                 ci_low: tuple[float, float], ci_high: tuple[float, float],
                 stderr: tuple[float, float], replicates: int, seed: int,
                 failed_replicates: int) -> None:
        self._set(statistics=statistics, lambda_hat=lambda_hat, ci_low=ci_low, ci_high=ci_high,
                  stderr=stderr, replicates=replicates, seed=seed,
                  failed_replicates=failed_replicates)

    def half_widths(self) -> tuple[float, float]:
        return (
            (self.ci_high[0] - self.ci_low[0]) / 2.0,
            (self.ci_high[1] - self.ci_low[1]) / 2.0,
        )


def simulate_counts(model: Model, sizes: int | tuple[int, ...], seed: int) -> CountsRecord:
    """Simulate the four experiments against a model's exact statistics.

    ``sizes`` is one ensemble size for every experiment, or four sizes in the
    order of roles 1-4: A on the context, B on the context, and A on filtered
    contexts 1 and 2.  Each experiment draws from its own ``(seed, role)``
    substream, so the record is a deterministic function of ``(model, sizes,
    seed)``.  Raises :class:`DegenerateContextError` if a filtered ensemble
    is impossible to prepare (a filtration probability of zero).
    """
    shape = "ensemble sizes must be one integer or four, one per experiment"
    ns = (sizes,) * len(_EXPERIMENTS) if isinstance(sizes, int) else as_tuple(sizes, shape)
    if len(ns) != len(_EXPERIMENTS):
        raise ValidationError(shape)
    for (_, name), n in zip(_EXPERIMENTS, ns):
        require_count(n, f"{name} ensemble size", 1)
    seed = require_seed(seed)
    stats = exact_statistics(model)
    if min(stats.prior) <= 0.0:
        empty = stats.prior.index(min(stats.prior))
        raise DegenerateContextError(
            f"filtration probability of B-outcome {empty + 1} is zero; "
            f"its filtered ensemble cannot be prepared"
        )
    ps = (stats.outcome[0], stats.prior[0], *(row[0] for row in stats.transition.rows))
    ks = [int(substream(seed, role).binomial(n, p)) for (role, _), n, p in zip(_EXPERIMENTS, ns, ps)]
    return CountsRecord(ns, [(k, n - k) for k, n in zip(ks, ns)], seed)


def estimate_statistics(counts: CountsRecord) -> ContextStatistics:
    """Relative-frequency estimates of the context statistics.

    Frequencies within one experiment sum to one by construction, so the
    estimated transition matrix is row stochastic exactly; column sums are
    left alone -- whether they equal one is an empirical finding about the
    data, not a constraint imposed here.
    """
    for (_, name), n in zip(_EXPERIMENTS, counts.sizes):
        if n == 0:
            raise DegenerateContextError(f"{name} ensemble is empty; frequencies undefined")
    outcome, prior, *rows = ((k1 / n, k2 / n) for n, (k1, k2) in zip(counts.sizes, counts.tallies))
    return ContextStatistics(prior=prior, transition=TransitionMatrix(rows), outcome=outcome)


def _draw_rows(rows: np.ndarray, draws: list, errors: list) -> None:
    """Write ``Binomial(n, k / n) / n`` of each ``(generator, n, k)`` in ``draws`` into its
    row of ``rows``; an error goes to ``errors``, for the caller to raise."""
    try:
        for row, (rng, n, k) in zip(rows, draws):
            np.divide(rng.binomial(n, k / n, size=row.size), n, out=row)
    except Exception as exc:
        errors.append(exc)


def _bootstrap_frequencies(counts: CountsRecord, replicates: int, seed: int) -> np.ndarray:
    """First-outcome frequencies ``(q1, p1, t11, t21)`` of each replicate.

    Returns a ``(4, replicates)`` array.  Row ``j`` redraws the tally of
    experiment ``j`` from its estimated binomial law ``Binomial(n, k / n)``,
    every replicate in one call on the substream ``(seed, bootstrap-experiment,
    j)``, so the draws for ``R`` replicates are the first ``R`` of those for
    any larger ``R``.  One call per ``(n, p)`` also lets numpy's binomial
    sampler set itself up once, not once per draw.

    The four generators are derived here, in order.  Below
    :data:`_TWO_THREADS_FROM` replicates this thread draws all four rows.  From
    it up, a second thread draws rows 2-3 while this one draws rows 0-1
    (numpy's binomial releases the GIL): starting the thread costs more than
    half of a smaller draw.  Each row has its own generator and its own slot of
    the result, so its bytes do not depend on which thread draws it or when.
    An error of either half is raised here, after both are done.
    """
    draws = [(substream(seed, ROLE_BOOTSTRAP_EXPERIMENT, j), n, k)
             for j, (n, (k, _)) in enumerate(zip(counts.sizes, counts.tallies))]
    frequencies = np.empty((len(draws), replicates))
    errors = []
    if replicates < _TWO_THREADS_FROM:
        _draw_rows(frequencies, draws, errors)
    else:
        worker_errors = []
        worker = threading.Thread(target=_draw_rows,
                                  args=(frequencies[2:], draws[2:], worker_errors))
        worker.start()
        _draw_rows(frequencies[:2], draws[:2], errors)
        worker.join()
        errors += worker_errors
    if errors:
        raise errors[0]
    return frequencies


def _linear_percentile(row: np.ndarray, percent: float) -> float:
    """``np.percentile(row, percent)`` of an ascending 1-D ``row``, ``0 <= percent < 100``.

    numpy's default "linear" rule, Hyndman and Fan's type 7: the order statistics at
    ``floor(v)`` and the next one, ``v = (n - 1) * percent / 100``, interpolated with
    the arithmetic of numpy's ``_lerp``, so the result has the same bytes.  The row
    holds no ``-0.0``, which numpy's partition may order either way around ``0.0``:
    a bootstrap sample is ``0.0`` or ``deviation / weight`` with a nonzero deviation.
    """
    n = row.size
    v = (n - 1) * (percent / 100)
    i = int(v)
    a, b = row[i], row[min(i + 1, n - 1)]
    d = b - a
    g = v - i
    return b - d * (1 - g) if g >= 0.5 else a + d * g


def estimate_lambda(
    counts: CountsRecord,
    replicates: int = 1000,
    seed: int = 0,
) -> LambdaEstimate:
    """Coefficient estimate with a percentile-bootstrap confidence interval.

    The point estimate inverts the frequency statistics of
    :func:`estimate_statistics` directly.  Each
    bootstrap replicate redraws all four tallies from their estimated
    binomial laws (equivalent to resampling the underlying ensembles), one
    substream per experiment, and the replicates are re-inverted one outcome
    column at a time through ``invert_column``, the rule of
    :func:`lambda_from_statistics`.  At most :data:`MAX_BOOTSTRAP_REPLICATES`
    are drawn.  ``stderr`` comes from the surviving replicates in draw order.
    The CI is the :data:`CONFIDENCE` interval of numpy's linear percentile of
    the same survivors, sorted once for both bounds, widened if needed so that
    it contains the point estimate.  A percentile
    bootstrap stays meaningful near degenerate statistics where error
    propagation through the inversion's denominator does not.
    """
    stats = estimate_statistics(counts)
    require_count(replicates, "replicates", 1)
    if replicates > MAX_BOOTSTRAP_REPLICATES:
        raise ValidationError(
            f"replicates is {replicates}; a bootstrap takes at most "
            f"{MAX_BOOTSTRAP_REPLICATES} replicates"
        )
    seed = require_seed(seed)
    lambda_hat = lambda_from_statistics(stats)

    # One outcome column at a time: the second column's frequencies are one minus the first's.
    q1, p1, t11, t21 = _bootstrap_frequencies(counts, replicates, seed)
    p2 = 1.0 - p1
    lam1, failed_1, _, _ = invert_column(q1, p1, p2, t11, t21, sqrt=np.sqrt, where=np.where)
    lam2, failed_2, _, _ = invert_column(
        1.0 - q1, p1, p2, 1.0 - t11, 1.0 - t21, sqrt=np.sqrt, where=np.where
    )
    degenerate = failed_1 | failed_2
    failed = int(degenerate.sum())
    if failed == replicates:
        raise DegenerateContextError(
            f"all {replicates} bootstrap replicates were degenerate"
        )
    if failed:
        lam1, lam2 = lam1[~degenerate], lam2[~degenerate]
    # np.std's last bits depend on the order it sums in: take it before the sort, on
    # C-ordered rows, which it sums pairwise whether or not replicates were dropped.
    samples = np.stack((lam1, lam2))
    stderr = tuple(float(s) for s in samples.std(axis=1, ddof=1)) if samples.shape[1] > 1 else (0.0, 0.0)
    samples.sort(axis=1)
    tail = 100.0 * (1.0 - CONFIDENCE) / 2.0
    low, high = ([_linear_percentile(row, percent) for row in samples]
                 for percent in (tail, 100.0 - tail))
    ci_low = tuple(min(float(low[j]), lambda_hat[j]) for j in range(2))
    ci_high = tuple(max(float(high[j]), lambda_hat[j]) for j in range(2))
    return LambdaEstimate(statistics=stats, lambda_hat=lambda_hat, ci_low=ci_low,
                          ci_high=ci_high, stderr=stderr, replicates=replicates, seed=seed,
                          failed_replicates=failed)

