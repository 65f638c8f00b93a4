"""Pinned float values of the transformation and of the synthetic generator.

``pinned_values.json`` holds the exact doubles that ``random_model`` (both
synthetic kinds, seeds 0-199), ``predict_outcome``, ``normalization_residual``
and ``lambda_from_statistics`` return on fixed inputs.  No golden CLI case
reaches the synthetic generator, so these values are what shows that a
rewrite of the formula kept every rounding step.  It also holds every
classical ``random_model`` of ``CLASSICAL_SEEDS``: seeds 0-199 cross three
edges of the 64-model draw chunks, and the others sit at 2^32 and at the top
of the seed range, so a change of the classical stream's layout shows here.
Last, it holds the tallies that ``simulate_counts`` draws for each preset at
four distinct ensemble sizes, seeds 0-19, and the bootstrap interval and
standard errors of ``estimate_lambda`` on them: every golden ``simulate`` case
but one gives all four experiments one size, so a swap of two experiments'
sizes or streams shows here.  They are compared with ``==``.  Regenerate with
``python tests/test_pinned_values.py`` only for a deliberate numeric or
stream change recorded in ``CHANGES.md``.
"""

import itertools
import json
from pathlib import Path

import pytest

from ctxprob import (
    ContextStatistics,
    InfeasibleLambdaError,
    KolmogorovModel,
    LambdaPair,
    ModelKind,
    QubitModel,
    SyntheticModel,
    TransitionMatrix,
    lambda_from_statistics,
    normalization_residual,
    predict_outcome,
    qubit_statistics,
    estimate_lambda,
    random_model,
    simulate_counts,
)
from ctxprob.cli import PRESETS

PINNED = Path(__file__).resolve().parent / "pinned_values.json"
SEEDS = range(200)
CLASSICAL_SEEDS = [*range(200), *range(2**32 - 2, 2**32 + 2), 2**64 - 2]
SIMULATION_SIZES = (1000, 2000, 3000, 4000)
SIMULATION_SEEDS = range(20)
SYNTHETIC_KINDS = (ModelKind.SYNTHETIC_TRIGONOMETRIC, ModelKind.SYNTHETIC_HYPERBOLIC)

PRIORS = (0.1, 0.5, 0.8)
T11S = (0.05, 0.6, 1.0)
T21S = (0.0, 0.3, 0.95)
LAMBDAS = ((-1.3, 0.4), (0.0, 0.0), (0.7, -0.2), (2.5, -2.5))
QUBIT_ANGLES = (0.0, 0.3, 0.7853981633974483, 1.2, 1.5707963267948966)


def _grid():
    for p1, t11, t21, lam in itertools.product(PRIORS, T11S, T21S, LAMBDAS):
        transition = TransitionMatrix(((t11, 1.0 - t11), (t21, 1.0 - t21)))
        yield (p1, 1.0 - p1), transition, LambdaPair(*lam)


def _predictions():
    values = []
    for prior, transition, lam in _grid():
        try:
            values.append(list(predict_outcome(prior, transition, lam)))
        except InfeasibleLambdaError:
            values.append(None)
    return values


def _residuals():
    return [
        normalization_residual(ContextStatistics(prior, transition, (0.5, 0.5)), lam)
        for prior, transition, lam in _grid()
    ]


def _qubit_lambdas():
    return [
        list(lambda_from_statistics(qubit_statistics(QubitModel(alpha, 0.9, rotation, 0.4))))
        for alpha, rotation in itertools.product(QUBIT_ANGLES, QUBIT_ANGLES)
    ]


def _synthetic(kind):
    """``[p1, t11, lambda1]`` per seed: the rest of each model follows from them."""
    return [
        [model.prior[0], model.transition.rows[0][0], model.target_lambda.lambda1]
        for model in (random_model(kind, seed) for seed in SEEDS)
    ]


def _classical():
    """``[seed, weights, a_values, b_values]`` per seed."""
    rows = []
    for seed in CLASSICAL_SEEDS:
        model = random_model("classical", seed)
        rows.append([seed, list(model.weights), list(model.a_values), list(model.b_values)])
    return rows


def _simulated():
    """``[preset, seed, tallies, ci_low, ci_high, stderr]`` per preset and seed."""
    rows = []
    for name, seed in itertools.product(sorted(PRESETS), SIMULATION_SEEDS):
        record = simulate_counts(PRESETS[name], SIMULATION_SIZES, seed)
        estimate = estimate_lambda(record, 200, seed)
        tallies = [record.a_counts, record.b_counts, *record.a_counts_given]
        rows.append([name, seed, [list(pair) for pair in tallies], list(estimate.ci_low),
                     list(estimate.ci_high), list(estimate.stderr)])
    return rows


def _current():
    return {
        "predict_outcome": _predictions(),
        "normalization_residual": _residuals(),
        "lambda_from_statistics": _qubit_lambdas(),
        **{kind.value: _synthetic(kind) for kind in SYNTHETIC_KINDS},
        "classical": _classical(),
        "simulate_counts": _simulated(),
    }


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINNED.read_text(encoding="utf-8"))


def test_predict_outcome_is_pinned(pinned):
    assert _predictions() == pinned["predict_outcome"]


def test_normalization_residual_is_pinned(pinned):
    assert _residuals() == pinned["normalization_residual"]


def test_lambda_from_statistics_is_pinned(pinned):
    assert _qubit_lambdas() == pinned["lambda_from_statistics"]


@pytest.mark.parametrize("kind", SYNTHETIC_KINDS, ids=[k.value for k in SYNTHETIC_KINDS])
def test_random_synthetic_models_are_pinned(kind, pinned):
    expected = pinned[kind.value]
    for seed, (p1, t11, lam1) in zip(SEEDS, expected):
        assert random_model(kind, seed) == SyntheticModel(
            (p1, 1.0 - p1),
            TransitionMatrix(((t11, 1.0 - t11), (1.0 - t11, t11))),
            LambdaPair(lam1, -lam1),
        ), f"seed {seed}"
    assert len(expected) == len(SEEDS)


def test_random_classical_models_are_pinned(pinned):
    expected = pinned["classical"]
    for seed, weights, a_values, b_values in expected:
        assert random_model("classical", seed) == KolmogorovModel(
            tuple(weights), tuple(a_values), tuple(b_values)
        ), f"seed {seed}"
    assert [row[0] for row in expected] == CLASSICAL_SEEDS


def test_simulated_counts_are_pinned(pinned):
    assert _simulated() == pinned["simulate_counts"]


if __name__ == "__main__":
    PINNED.write_text(
        "{\n"
        + ",\n".join(
            f"{json.dumps(key)}: [\n  "
            + ",\n  ".join(json.dumps(row) for row in rows)
            + "\n]"
            for key, rows in _current().items()
        )
        + "\n}\n",
        encoding="utf-8",
    )
