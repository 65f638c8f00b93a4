"""Assembly of analysis reports from exact or sampled statistics.

A report bundles everything the calculus can say about one statistics
record: interference coefficients (point value, or estimate with bootstrap
CI), their phase parametrization, the regime verdict, the stochasticity /
balance residuals of the transition matrix, the normalization residual, and
-- in the classical and trigonometric regimes only -- the amplitude lift.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from ._validation import TOL_EXACT, Record, out_of_range, sum_residual
from .amplitudes import AmplitudePair, born_residual, lift_to_amplitudes
from .calculus import (
    EPS_CLASS_DEFAULT,
    BalanceReport,
    ContextStatistics,
    LambdaPair,
    PhaseKind,
    PhasePair,
    TheoryClass,
    TheoryKind,
    check_double_stochastic,
    invert_column,
    lambda_from_statistics,
    classify_theory,
    normalization_residual,
    phase_branch,
    phase_parametrization,
    regimes,
)
from .io import canonical_dumps
from .sampling import (
    BOOTSTRAP_STREAM, CONFIDENCE, CountsRecord, LambdaEstimate, estimate_lambda,
    estimate_statistics,
)

__all__ = ["REPORT_FORMAT_VERSION", "AnalysisReport", "analyze_exact", "analyze_estimated",
           "report_to_dict"]

#: The ``format_version`` of the JSON reports of ``analyze``, ``reconstruct`` and
#: ``balance``; README's format history says what each version changed.  Experiment
#: files carry their own, ``io.FORMAT_VERSION``.
REPORT_FORMAT_VERSION = 2

_LIFTABLE = (TheoryKind.CLASSICAL, TheoryKind.TRIGONOMETRIC)


class AnalysisReport(Record):
    """One analysis of ``stats``; ``amplitudes`` and ``born_residual`` are None
    outside the classical and trigonometric regimes."""

    def __init__(self, stats: ContextStatistics, lambda_point: LambdaPair,
                 lambda_estimate: LambdaEstimate | None, phases: PhasePair,
                 theory_class: TheoryClass, balance: BalanceReport, normalization_residual: float,
                 amplitudes: AmplitudePair | None, born_residual: float | None) -> None:
        self._set(stats=stats, lambda_point=lambda_point, lambda_estimate=lambda_estimate,
                  phases=phases, theory_class=theory_class, balance=balance,
                  normalization_residual=normalization_residual, amplitudes=amplitudes,
                  born_residual=born_residual)


def _assemble(
    stats: ContextStatistics,
    lam: LambdaPair,
    estimate: LambdaEstimate | None,
    verdict: TheoryClass,
    tol: float,
) -> AnalysisReport:
    phases = phase_parametrization(lam)
    balance = check_double_stochastic(stats.transition, tol)
    residual = normalization_residual(stats, lam)
    amplitudes = born = None
    if verdict.kind in _LIFTABLE:
        amplitudes = lift_to_amplitudes(stats, phases)
        born = born_residual(amplitudes, stats.outcome)
    return AnalysisReport(stats, lam, estimate, phases, verdict, balance, residual, amplitudes,
                          born)


def analyze_exact(
    stats: ContextStatistics,
    *,
    eps_class: float = EPS_CLASS_DEFAULT,
    tol: float = TOL_EXACT,
) -> AnalysisReport:
    """Analyze analytically known statistics."""
    lam = lambda_from_statistics(stats)
    verdict = classify_theory(lam, eps_class)
    return _assemble(stats, lam, None, verdict, tol)


def analyze_block(
    block: np.ndarray,
    statistics_of: Callable[[int], ContextStatistics],
    *,
    eps_class: float = EPS_CLASS_DEFAULT,
) -> list[np.ndarray]:
    """:func:`analyze_exact` of every row of an ``(N, 8)`` block, in one array pass.

    Rows ``(p1, p2, t11, t12, t21, t22, q1, q2)`` come unvalidated, and
    ``statistics_of(i)`` builds row ``i`` the scalar way.  The result is a list of
    columns: the valid probabilities, the coefficients, phase angles, verdict
    kinds and largest column residuals.  Row 0 and the first failing row are
    replayed through :func:`analyze_exact`, which raises the scalar path's errors.
    ``block`` is clipped in place, so no second copy of it is held.

    A verdict is the code of the first of :func:`regimes` that holds, and the kind
    column is an object array of the kind names indexed by code, 8 bytes a row.
    The angles take :func:`phase_branch`, the scalar path's rule, on whole columns,
    then ``math.acos`` and ``math.acosh`` on Python floats, so they keep its last bits.
    """
    bad = out_of_range(block, TOL_EXACT).any(axis=1)
    # clip_probability's rule, written into the block.
    block[block < 0.0] = 0.0
    block[block > 1.0] = 1.0
    bad |= ~(sum_residual(block[:, 0::2], block[:, 1::2]) <= TOL_EXACT).all(axis=1)
    p1, p2, ta, tb, q = block[:, 0:1], block[:, 1:2], block[:, 2:4], block[:, 4:6], block[:, 6:8]
    lam, failed, _, _ = invert_column(q, p1, p2, ta, tb, sqrt=np.sqrt, where=np.where)
    bad |= failed.any(axis=1)
    for row in (0, *np.flatnonzero(bad)[:1].tolist()):
        analyze_exact(statistics_of(row), eps_class=eps_class)
    if bad.any():
        raise RuntimeError(f"row {bad.argmax()} fails an array check but no scalar check")

    magnitude = np.abs(lam)
    verdicts, conditions = zip(*regimes(*magnitude.T, float(eps_class)))
    codes = np.select(conditions, range(len(verdicts)), len(verdicts))
    trig, argument = phase_branch(lam, where=np.where)
    thetas = np.empty_like(lam)
    thetas[trig] = list(map(math.acos, argument[trig].tolist()))
    thetas[~trig] = list(map(math.acosh, argument[~trig].tolist()))
    names = np.array([*(v.kind.value for v in verdicts), TheoryKind.BOUNDARY.value], object)[codes]
    return [*block.T, *lam.T, *thetas.T, names, sum_residual(ta, tb).max(axis=1)]


def analyze_estimated(
    counts: CountsRecord,
    *,
    replicates: int = 1000,
    seed: int = 0,
    eps_class: float | None = None,
    tol: float = TOL_EXACT,
) -> AnalysisReport:
    """Analyze the frequency estimates of ``counts``; uncertainty comes from the bootstrap.

    The classification band defaults to the larger bootstrap CI half-width,
    so noise decides what counts as "near zero" or "near one": a coefficient
    statistically indistinguishable from zero reads classical, and one
    straddling magnitude one reads boundary.  Pass ``eps_class`` to override
    the band.
    """
    estimate = estimate_lambda(counts, replicates=replicates, seed=seed)
    eps = max(estimate.half_widths()) if eps_class is None else eps_class
    verdict = classify_theory(estimate.lambda_hat, eps)
    return _assemble(estimate_statistics(counts), estimate.lambda_hat, estimate, verdict, tol)


# ---------------------------------------------------------------------------
# JSON payloads
# ---------------------------------------------------------------------------


def _phase_to_dict(phase) -> dict:
    payload = {"kind": phase.kind.value, "theta": phase.theta}
    if phase.kind is PhaseKind.HYPERBOLIC:
        payload["sign"] = phase.sign
    return payload


def _class_to_dict(verdict: TheoryClass) -> dict:
    payload: dict = {"kind": verdict.kind.value}
    if verdict.hyper_component is not None:
        payload["hyper_component"] = verdict.hyper_component
    if verdict.boundary_components:
        payload["boundary_components"] = list(verdict.boundary_components)
    return payload


def report_json(payload: dict) -> str:
    """Canonical JSON text of one report ``payload``, with its ``format_version``."""
    return canonical_dumps({**payload, "format_version": REPORT_FORMAT_VERSION})


def balance_to_dict(balance: BalanceReport) -> dict:
    return dict(vars(balance))


def report_to_dict(report: AnalysisReport) -> dict:
    lam: dict = {"point": [report.lambda_point.lambda1, report.lambda_point.lambda2]}
    est = report.lambda_estimate
    if est is not None:
        lam.update(
            ci_low=list(est.ci_low),
            ci_high=list(est.ci_high),
            stderr=list(est.stderr),
            replicates=est.replicates,
            seed=est.seed,
            confidence=CONFIDENCE,
            failed_replicates=est.failed_replicates,
            stream=BOOTSTRAP_STREAM,
        )
    payload = {
        "lambda": lam,
        "phases": [_phase_to_dict(p) for p in report.phases],
        "theory_class": _class_to_dict(report.theory_class),
        "balance": balance_to_dict(report.balance),
        "normalization_residual": report.normalization_residual,
    }
    if report.amplitudes is not None:
        payload["amplitudes"] = {
            "psi": [[z.real, z.imag] for z in report.amplitudes.psi],
            "phases": [_phase_to_dict(p) for p in report.amplitudes.phases],
        }
        payload["born_residual"] = report.born_residual
    return payload
