"""Assembly of analysis reports from exact or sampled statistics.

A report bundles everything the calculus can say about one statistics
record: interference coefficients (point value, or estimate with bootstrap
CI), their phase parametrization, the regime verdict, the stochasticity /
balance residuals of the transition matrix, the normalization residual, and
-- in the classical and trigonometric regimes only -- the amplitude lift.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ._validation import TOL_EXACT
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
    lambda_from_statistics,
    classify_theory,
    normalization_residual,
    phase_parametrization,
)
from .sampling import EstimatedStatistics, LambdaEstimate, estimate_lambda

__all__ = ["AnalysisReport", "analyze_exact", "analyze_estimated", "report_to_dict"]

_LIFTABLE = (TheoryKind.CLASSICAL, TheoryKind.TRIGONOMETRIC)


@dataclass(frozen=True)
class AnalysisReport:
    """One analysis of ``stats``.

    The normalization residual and the amplitude lift are computed when
    first read, so callers that never read them do not pay for them.
    """

    stats: ContextStatistics
    lambda_point: LambdaPair
    lambda_estimate: LambdaEstimate | None
    phases: PhasePair
    theory_class: TheoryClass
    balance: BalanceReport

    @cached_property
    def normalization_residual(self) -> float:
        return normalization_residual(self.stats, self.lambda_point)

    @cached_property
    def amplitudes(self) -> AmplitudePair | None:
        """The amplitude lift; None outside the classical and trigonometric regimes."""
        if self.theory_class.kind not in _LIFTABLE:
            return None
        # A classical verdict with eps_class > 1 admits |lambda| > 1, which the
        # phases clamp to |lambda| = 1 (a trigonometric verdict needs
        # |lambda| <= 1 - eps_class, so the clamp never acts on it).  The
        # clamp shifts the lifted norm by at most the total overshoot.
        overshoot = sum(max(0.0, abs(value) - 1.0) for value in self.lambda_point)
        return lift_to_amplitudes(self.stats, self.phases, norm_tol=TOL_EXACT + overshoot)

    @cached_property
    def born_residual(self) -> float | None:
        if self.amplitudes is None:
            return None
        return born_residual(self.amplitudes, self.stats.outcome)


def _assemble(
    stats: ContextStatistics,
    lam: LambdaPair,
    estimate: LambdaEstimate | None,
    verdict: TheoryClass,
    eps_class: float,
    tol: float,
) -> AnalysisReport:
    return AnalysisReport(
        stats=stats,
        lambda_point=lam,
        lambda_estimate=estimate,
        phases=phase_parametrization(
            lam, trig_tol=eps_class if verdict.kind in _LIFTABLE else 0.0
        ),
        theory_class=verdict,
        balance=check_double_stochastic(stats.transition, tol),
    )


def analyze_exact(
    stats: ContextStatistics,
    *,
    eps_class: float = EPS_CLASS_DEFAULT,
    tol: float = TOL_EXACT,
) -> AnalysisReport:
    """Analyze analytically known statistics."""
    lam = lambda_from_statistics(stats)
    verdict = classify_theory(lam, eps_class)
    return _assemble(stats, lam, None, verdict, eps_class, tol)


def analyze_estimated(
    est: EstimatedStatistics,
    *,
    replicates: int = 1000,
    seed: int = 0,
    eps_class: float | None = None,
    tol: float = TOL_EXACT,
) -> AnalysisReport:
    """Analyze frequency estimates; uncertainty comes from the bootstrap.

    The classification band defaults to the bootstrap CI half-width (noise
    decides what counts as "near zero" or "near one"); pass ``eps_class`` to
    override it.
    """
    estimate = estimate_lambda(est, replicates=replicates, seed=seed)
    eps = max(estimate.half_widths()) if eps_class is None else eps_class
    verdict = classify_theory(estimate.lambda_hat, eps)
    return _assemble(est.point, estimate.lambda_hat, estimate, verdict, eps, tol)


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


def balance_to_dict(balance: BalanceReport) -> dict:
    return {
        "row_residuals": list(balance.row_residuals),
        "column_residuals": list(balance.column_residuals),
        "is_stochastic": balance.is_stochastic,
        "is_double_stochastic": balance.is_double_stochastic,
        "tolerance": balance.tolerance,
    }


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
            confidence=est.confidence,
            failed_replicates=est.failed_replicates,
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
