"""Acceptance gate: one test per release criterion, each printing a verdict.

Run with output visible to get the per-criterion lines:

    pytest tests/test_acceptance.py -v -s
"""

import math
import sys

from ctxprob import (
    ContextStatistics,
    LambdaPair,
    QubitModel,
    TheoryKind,
    TransitionMatrix,
    born_residual,
    check_double_stochastic,
    classical_statistics,
    classify_theory,
    estimate_lambda,
    lambda_from_statistics,
    lift_to_amplitudes,
    phase_parametrization,
    predict_outcome,
    qubit_statistics,
    random_model,
    simulate_counts,
    synthesize_statistics,
)
from ctxprob.cli import main
from test_sampling import mean_abs_errors

N_INSTANCES = 10_000

E1_MODEL = QubitModel(alpha=math.pi / 6, phi=math.pi / 2, b_rotation=math.pi / 4)


def verdict(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {'PASS' if ok else 'FAIL'}  {name}  ({detail})",
          file=sys.stderr, flush=True)
    assert ok, f"{name}: {detail}"


def test_classical_oracle_equivalence():
    worst = 0.0
    for seed in range(N_INSTANCES):
        model = random_model("classical", seed)
        assert len(model.weights) <= 16
        lam = lambda_from_statistics(classical_statistics(model))
        worst = max(worst, abs(lam.lambda1), abs(lam.lambda2))
    verdict(
        "classical-oracle equivalence",
        worst <= 1e-12,
        f"max |lambda| = {worst:.3e} over {N_INSTANCES} finite models (tol 1e-12)",
    )


def test_quantum_balance_law():
    worst_column = 0.0
    worst_magnitude = 0.0
    for seed in range(N_INSTANCES):
        stats = qubit_statistics(random_model("qubit", seed))
        report = check_double_stochastic(stats.transition, 1e-12)
        worst_column = max(worst_column, max(report.column_residuals))
        lam = lambda_from_statistics(stats)
        worst_magnitude = max(worst_magnitude, abs(lam.lambda1), abs(lam.lambda2))
    verdict(
        "quantum balance law",
        worst_column <= 1e-12 and worst_magnitude <= 1.0 + 1e-9,
        f"max column residual {worst_column:.3e} (tol 1e-12), "
        f"max |lambda| {worst_magnitude:.12f} (bound 1 + 1e-9) over {N_INSTANCES} models",
    )


def test_named_instance_e1():
    stats = ContextStatistics(
        (0.5, 0.5), TransitionMatrix(((0.5, 0.5), (0.5, 0.5))), (0.75, 0.25)
    )
    lam = lambda_from_statistics(stats)
    phases = phase_parametrization(lam)
    errors = [
        abs(lam.lambda1 - 0.5),
        abs(lam.lambda2 + 0.5),
        abs(phases.phase1.theta - math.pi / 3),
        abs(phases.phase2.theta - 2 * math.pi / 3),
    ]
    kind_ok = classify_theory(lam).kind is TheoryKind.TRIGONOMETRIC

    oracle = qubit_statistics(E1_MODEL)
    errors += [
        abs(oracle.prior[0] - 0.5),
        abs(oracle.prior[1] - 0.5),
        abs(oracle.outcome[0] - 0.75),
        abs(oracle.outcome[1] - 0.25),
        max(abs(oracle.transition.rows[i][j] - 0.5) for i in range(2) for j in range(2)),
    ]
    oracle_lam = lambda_from_statistics(oracle)
    errors += [abs(oracle_lam.lambda1 - 0.5), abs(oracle_lam.lambda2 + 0.5)]
    verdict(
        "named instance E1",
        max(errors) <= 1e-12 and kind_ok,
        f"max deviation {max(errors):.3e} (tol 1e-12), trigonometric={kind_ok}; "
        f"qubit oracle alpha=pi/6 phi=pi/2 rotation=pi/4 reproduces it",
    )


def test_named_instance_e3():
    prior = (0.5, 0.5)
    transition = TransitionMatrix(((0.8, 0.2), (0.2, 0.8)))
    outcome = predict_outcome(prior, transition, LambdaPair(1.25, -1.25))
    stats = ContextStatistics(prior, transition, outcome)
    lam = lambda_from_statistics(stats)
    phases = phase_parametrization(lam)
    errors = [
        abs(outcome[0] - 1.0),
        abs(outcome[1]),
        abs(lam.lambda1 - 1.25),
        abs(lam.lambda2 + 1.25),
        abs(phases.phase1.theta - math.log(2.0)),
        abs(phases.phase2.theta - math.log(2.0)),
    ]
    kind_ok = classify_theory(lam).kind is TheoryKind.HYPERBOLIC
    sign_ok = phases.phase1.sign == 1 and phases.phase2.sign == -1
    verdict(
        "named instance E3",
        max(errors) <= 1e-12 and kind_ok and sign_ok,
        f"max deviation {max(errors):.3e} (tol 1e-12, arccosh 1.25 vs ln 2), "
        f"hyperbolic={kind_ok}",
    )


def test_parallelogram_born_rule():
    worst_born = 0.0
    worst_norm = 0.0
    for seed in range(N_INSTANCES):
        stats = synthesize_statistics(random_model("synthetic-trigonometric", seed))
        lam = lambda_from_statistics(stats)
        amplitudes = lift_to_amplitudes(stats, phase_parametrization(lam))
        worst_born = max(worst_born, born_residual(amplitudes, stats.outcome))
        norm = abs(amplitudes.psi[0]) ** 2 + abs(amplitudes.psi[1]) ** 2
        worst_norm = max(worst_norm, abs(norm - 1.0))
    verdict(
        "parallelogram / Born rule",
        worst_born <= 1e-12 and worst_norm <= 1e-12,
        f"max born residual {worst_born:.3e}, max norm defect {worst_norm:.3e} "
        f"over {N_INSTANCES} trigonometric instances (tol 1e-12)",
    )


def test_balance_phase_identity():
    # Double-stochastic instances from both available sources: qubit draws
    # and symmetric synthetic transitions.
    worst = 0.0
    count = 0
    for seed in range(N_INSTANCES // 2):
        for stats in (
            qubit_statistics(random_model("qubit", seed)),
            synthesize_statistics(random_model("synthetic-trigonometric", seed)),
        ):
            if not check_double_stochastic(stats.transition, 1e-9).is_double_stochastic:
                continue
            lam = lambda_from_statistics(stats)
            phases = phase_parametrization(lam)
            assert phases.all_trigonometric, seed
            residual = abs(math.cos(phases.phase1.theta) + math.cos(phases.phase2.theta))
            worst = max(worst, residual)
            count += 1
            assert residual <= 1e-9, (seed, residual)
    verdict(
        "balance-phase identity",
        worst <= 1e-9,
        f"max |cos(theta1) + cos(theta2)| = {worst:.3e} over {count} "
        f"double-stochastic instances (tol 1e-9)",
    )


def test_round_trip_identities():
    worst_lambda = 0.0
    worst_outcome = 0.0
    for seed in range(N_INSTANCES // 2):
        for kind in ("synthetic-trigonometric", "synthetic-hyperbolic"):
            model = random_model(kind, seed)
            stats = synthesize_statistics(model)
            lam = lambda_from_statistics(stats)
            worst_lambda = max(
                worst_lambda,
                abs(lam.lambda1 - model.target_lambda.lambda1),
                abs(lam.lambda2 - model.target_lambda.lambda2),
            )
            outcome = predict_outcome(stats.prior, stats.transition, lam)
            worst_outcome = max(
                worst_outcome,
                abs(outcome[0] - stats.outcome[0]),
                abs(outcome[1] - stats.outcome[1]),
            )
    verdict(
        "round-trip identities",
        worst_lambda <= 1e-12 and worst_outcome <= 1e-12,
        f"max lambda error {worst_lambda:.3e}, max outcome error {worst_outcome:.3e} "
        f"over {N_INSTANCES} instances (tol 1e-12)",
    )


def test_sampling_consistency():
    runs = 100
    hits = 0
    se_hits = 0
    for seed in range(runs):
        result = estimate_lambda(simulate_counts(E1_MODEL, 10**6, seed), replicates=200, seed=seed)
        if abs(result.lambda_hat.lambda1 - 0.5) <= 0.01:
            hits += 1
        if (
            abs(result.lambda_hat.lambda1 - 0.5) <= 5.0 * result.stderr[0]
            and abs(result.lambda_hat.lambda2 + 0.5) <= 5.0 * result.stderr[1]
        ):
            se_hits += 1

    sizes = [10**3, 10**4, 10**5, 10**6]
    errors = mean_abs_errors(E1_MODEL, sizes, runs=100, base_seed=0)[:, 0]
    scaled = [error * math.sqrt(n) for error, n in zip(errors, sizes)]
    ratio = max(scaled) / min(scaled)
    monotone = all(errors[k] > errors[k + 1] for k in range(len(sizes) - 1))
    verdict(
        "sampling consistency",
        hits >= 99 and se_hits >= 99 and ratio <= 2.0 and monotone,
        f"|lambda1_hat - 0.5| <= 0.01 in {hits}/100 runs at n=1e6 (need >= 99), "
        f"within 5 SE in {se_hits}/100; sqrt(n)-scaled error spread {ratio:.3f} "
        f"(factor bound 2) over n in 1e3..1e6",
    )


def test_bootstrap_coverage():
    replications = 500
    covered = 0
    for rep in range(replications):
        seed = 1000 + rep
        result = estimate_lambda(simulate_counts(E1_MODEL, 10**4, seed), replicates=1000, seed=seed)
        if result.ci_low[0] <= 0.5 <= result.ci_high[0]:
            covered += 1
    fraction = covered / replications
    verdict(
        "bootstrap coverage",
        0.91 <= fraction <= 0.99,
        f"nominal 95% CI covered lambda1 in {covered}/{replications} = {fraction:.3f} "
        f"(accept 0.95 +/- 0.04) at n=1e4",
    )


def test_reproducibility(tmp_path):
    simulate_argv = [
        "simulate", "--preset", "e1", "--n", "100000", "--seed", "7",
    ]
    paths = [str(tmp_path / name) for name in ("a.json", "b.json")]
    for path in paths:
        assert main(simulate_argv + ["--output", path]) == 0
    simulate_equal = (
        (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    )

    reports = [str(tmp_path / name) for name in ("ra.json", "rb.json")]
    for report in reports:
        assert main(["analyze", paths[0], "--output", report]) == 0
    analyze_equal = (
        (tmp_path / "ra.json").read_bytes() == (tmp_path / "rb.json").read_bytes()
    )

    counts_equal = simulate_counts(E1_MODEL, 12345, seed=99) == simulate_counts(
        E1_MODEL, 12345, seed=99
    )
    verdict(
        "reproducibility",
        simulate_equal and analyze_equal and counts_equal,
        f"simulate bytes identical={simulate_equal}, analyze bytes "
        f"identical={analyze_equal}, API records identical={counts_equal}",
    )
