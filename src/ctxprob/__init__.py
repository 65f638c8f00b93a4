"""Contextual probability calculus for dichotomic observables.

Forward and inverse evaluation of the interference-adjusted total-probability
transformation, classification of measurement statistics by their context
transition coefficients, stochasticity and statistical-balance checks,
amplitude lifts, ground-truth model oracles, and finite-ensemble simulation
with bootstrap inference.
"""

from .amplitudes import AmplitudePair, balance_phase_constraint, born_residual, lift_to_amplitudes
from .calculus import (
    EPS_CLASS_DEFAULT,
    TOL_DEGENERATE,
    TOL_EXACT,
    BalanceReport,
    ContextStatistics,
    DichotomicObservable,
    LambdaPair,
    Phase,
    PhaseKind,
    PhasePair,
    TheoryClass,
    TheoryKind,
    TransitionMatrix,
    check_double_stochastic,
    classify_theory,
    lambda_from_statistics,
    normalization_residual,
    phase_parametrization,
    predict_outcome,
    total_probability,
)
from .errors import (
    CtxprobError,
    DegenerateContextError,
    EmptyEnsembleError,
    GenerationExhaustedError,
    InfeasibleLambdaError,
    NonTrigonometricError,
    NotBalancedError,
    OutOfRangeError,
    ValidationError,
    ZeroFiltrationError,
)
from .io import ExperimentFile, canonical_dumps
from .models import (
    KolmogorovModel,
    ModelKind,
    QubitModel,
    SyntheticModel,
    classical_statistics,
    exact_statistics,
    qubit_statistics,
    random_model,
    synthesize_statistics,
)
from .report import AnalysisReport, analyze_estimated, analyze_exact, report_to_dict
from .sampling import (
    ConvergenceRow,
    CountsRecord,
    EnsembleSizes,
    LambdaEstimate,
    convergence_study,
    estimate_lambda,
    estimate_statistics,
    simulate_counts,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # tolerances
    "TOL_EXACT",
    "TOL_DEGENERATE",
    "EPS_CLASS_DEFAULT",
    # core types
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
    # core operations
    "predict_outcome",
    "total_probability",
    "lambda_from_statistics",
    "classify_theory",
    "check_double_stochastic",
    "phase_parametrization",
    "normalization_residual",
    # amplitudes
    "AmplitudePair",
    "lift_to_amplitudes",
    "born_residual",
    "balance_phase_constraint",
    # models
    "KolmogorovModel",
    "QubitModel",
    "SyntheticModel",
    "ModelKind",
    "classical_statistics",
    "qubit_statistics",
    "synthesize_statistics",
    "exact_statistics",
    "random_model",
    # sampling
    "EnsembleSizes",
    "CountsRecord",
    "LambdaEstimate",
    "ConvergenceRow",
    "simulate_counts",
    "estimate_statistics",
    "estimate_lambda",
    "convergence_study",
    # io and reports
    "ExperimentFile",
    "canonical_dumps",
    "AnalysisReport",
    "analyze_exact",
    "analyze_estimated",
    "report_to_dict",
    # errors
    "CtxprobError",
    "ValidationError",
    "OutOfRangeError",
    "DegenerateContextError",
    "NonTrigonometricError",
    "NotBalancedError",
    "ZeroFiltrationError",
    "InfeasibleLambdaError",
    "GenerationExhaustedError",
    "EmptyEnsembleError",
]
