"""The three workloads: seeded inputs and the operations run on them.

An operation ("op") is one ``ctxprob.cli.main(argv)`` call with the exit code
its documentation promises and a check of its output.  Inputs are made
through the package's public API (models, ``simulate_counts``,
``ExperimentFile``) from the workload seed alone; the op sequence is an
endless seeded stream, so the same seed always yields the same inputs and the
same ops in the same order.

* ``bootstrap`` -- ``analyze`` of counts files with 10^4 bootstrap
  replicates.  One generator per replicate dominates; the bootstrap acts here.
* ``sweep`` -- ``sweep`` calls of 400 points: models, validation, inversion,
  classification, phases, balance and CSV.  The bootstrap never runs.
* ``cli-mix`` -- short calls of every subcommand, including calls that must
  fail with a documented exit code.  Parser set-up, file I/O and JSON
  dominate.

Where each size and share comes from is recorded in README.md.
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

from ctxprob import (
    ExperimentFile,
    KolmogorovModel,
    ModelKind,
    QubitModel,
    SyntheticModel,
    exact_statistics,
    lambda_from_statistics,
    random_model,
    simulate_counts,
)
from ctxprob.cli import PRESETS

import checks

EXIT_OK, EXIT_INVALID, EXIT_INFEASIBLE = 0, 1, 3
BOOTSTRAP_REPLICATES = 10_000
MIX_REPLICATES = 200
SWEEP_POINTS = 400
QUBIT_GRID = (5, 5, 4, 4)  # 400 points
MODEL_MIX = tuple(sorted(PRESETS)) + tuple(kind.value for kind in ModelKind)


@dataclass(frozen=True)
class Op:
    kind: str
    argv: tuple[str, ...]
    expect_exit: int
    # Problems found in the op's text output (stdout, or the --output file).
    check: Callable[[str], list[str]]
    output: Path | None = None
    # Model coefficients of a counts file, for bootstrap CI coverage.
    truth: tuple[float, float] | None = None


def _rng(name: str, seed: int, stream: str) -> random.Random:
    return random.Random(f"{name}:{seed}:{stream}")


def _draw_model(rnd: random.Random):
    name = rnd.choice(MODEL_MIX)
    if name in PRESETS:
        return name, PRESETS[name]
    return name, random_model(name, rnd.randrange(2**32))


def _log_uniform(rnd: random.Random, lo: float, hi: float) -> int:
    return int(round(math.exp(rnd.uniform(math.log(lo), math.log(hi)))))


@dataclass(frozen=True)
class InputFile:
    path: Path
    payload: dict  # the file's JSON, as the CLI will read it
    truth: tuple[float, float]

    @property
    def stats(self):
        exact = self.payload["exact"]
        return exact["prior"], exact["transition"], exact["outcome"]


def _write(path: Path, experiment: ExperimentFile, model) -> InputFile:
    text = experiment.dumps()
    path.write_text(text, encoding="utf-8")
    truth = tuple(lambda_from_statistics(exact_statistics(model)))
    return InputFile(path, json.loads(text), truth)


def _counts_files(rnd, work: Path, count: int, n_lo: float, n_hi: float) -> list[InputFile]:
    """Counts files whose point estimates are defined (every frequency in (0, 1))."""
    files = []
    while len(files) < count:
        _, model = _draw_model(rnd)
        n = _log_uniform(rnd, n_lo, n_hi)
        counts = simulate_counts(model, n, rnd.randrange(2**32))
        path = work / f"counts-{len(files):02d}.json"
        entry = _write(path, ExperimentFile(counts=counts, model=model), model)
        prior, rows, outcome = checks.frequencies(entry.payload["counts"])
        if min(*prior, *rows[0], *rows[1], *outcome) > 0.0:
            files.append(entry)
    return files


def _exact_files(rnd, work: Path) -> list[InputFile]:
    models = [PRESETS[name] for name in sorted(PRESETS)]
    models += [random_model(kind, rnd.randrange(2**32)) for kind in ModelKind for _ in range(2)]
    return [
        _write(work / f"exact-{i:02d}.json", ExperimentFile(exact=exact_statistics(m), model=m), m)
        for i, m in enumerate(models)
    ]


def _analyze_counts(entry: InputFile, replicates: int) -> Op:
    return Op(
        "analyze-counts",
        ("analyze", str(entry.path), f"--bootstrap-replicates={replicates}"),
        EXIT_OK,
        functools.partial(
            checks.check_analyze_counts, counts=entry.payload["counts"], replicates=replicates
        ),
        truth=entry.truth,
    )


# ---------------------------------------------------------------------------
# bootstrap
# ---------------------------------------------------------------------------


def _bootstrap(seed: int, work: Path):
    # Ensemble sizes are log-uniform over 30..10^6: at small n many resamples
    # are degenerate, so the failure path of the bootstrap does real work.
    files = _counts_files(_rng("bootstrap", seed, "inputs"), work, 16, 30, 1e6)
    warmup = [_analyze_counts(files[0], 100)]

    def ops() -> Iterator[Op]:
        rnd = _rng("bootstrap", seed, "ops")
        while True:
            yield _analyze_counts(rnd.choice(files), BOOTSTRAP_REPLICATES)

    return warmup, ops()


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _grid(lo: float, hi: float, count: int) -> str:
    return f"{lo!r}:{hi!r}:{count}"


def _sweep_op(argv: list[str], parameters: list[str], points: int) -> Op:
    return Op(
        "sweep-" + argv[0].split("=")[1],
        ("sweep", *argv),
        EXIT_OK,
        functools.partial(checks.check_sweep, parameters=parameters, points=points),
    )


def _qubit_sweep(rnd, sizes=None) -> Op:
    # Angles stay inside (0, pi/2) so no interference weight vanishes.
    sizes = sizes or QUBIT_GRID
    alpha = rnd.uniform(0.05, 0.7)
    rotation = rnd.uniform(0.05, 0.7)
    phi = rnd.uniform(0.0, math.pi)
    phase = rnd.uniform(0.0, math.pi)
    argv = [
        "--family=qubit",
        "--alpha=" + _grid(alpha, alpha + rnd.uniform(0.2, 0.8), sizes[0]),
        "--phi=" + _grid(phi, phi + rnd.uniform(0.5, 3.0), sizes[1]),
        "--b-rotation=" + _grid(rotation, rotation + rnd.uniform(0.2, 0.8), sizes[2]),
        "--b-phase=" + _grid(phase, phase + rnd.uniform(0.5, 3.0), sizes[3]),
    ]
    return _sweep_op(argv, ["alpha", "phi", "b_rotation", "b_phase"], math.prod(sizes))


def _synthetic_sweep(rnd, points=None) -> Op:
    """A --lambda1 line across the feasible window, through |lambda1| = 1."""
    points = points or SWEEP_POINTS
    while True:
        p1 = rnd.uniform(0.3, 0.7)
        t11 = rnd.uniform(0.6, 0.95)
        t21 = rnd.uniform(0.05, 0.4)
        classical = p1 * t11 + (1.0 - p1) * t21
        weight = 2.0 * math.sqrt(p1 * (1.0 - p1) * t11 * t21)
        lo, hi = -classical / weight, (1.0 - classical) / weight
        if max(hi, -lo) > 1.1:
            break
    argv = [
        "--family=synthetic",
        f"--prior={p1!r},{1.0 - p1!r}",
        f"--transition={t11!r},{1.0 - t11!r};{t21!r},{1.0 - t21!r}",
        "--lambda1=" + _grid(0.98 * lo, 0.98 * hi, points),
    ]
    return _sweep_op(argv, ["target_lambda1"], points)


def _classical_sweep(rnd, points=None) -> Op:
    points = points or SWEEP_POINTS
    argv = ["--family=classical", f"--count={points}", f"--seed={rnd.randrange(2**32)}"]
    return _sweep_op(argv, ["model_seed"], points)


def _sweep(seed: int, work: Path):
    rnd = _rng("sweep", seed, "warmup")
    warmup = [_qubit_sweep(rnd, (2, 1, 1, 1)), _synthetic_sweep(rnd, 3), _classical_sweep(rnd, 2)]
    families = (_qubit_sweep, _synthetic_sweep, _classical_sweep)

    def ops() -> Iterator[Op]:
        rnd = _rng("sweep", seed, "ops")
        while True:
            yield rnd.choice(families)(rnd)

    return warmup, ops()


# ---------------------------------------------------------------------------
# cli-mix
# ---------------------------------------------------------------------------


FAMILY = {QubitModel: "qubit", KolmogorovModel: "classical", SyntheticModel: "synthetic"}


def _model_flags(name: str, model) -> list[str]:
    """``simulate`` flags that rebuild ``model``."""
    if name in PRESETS:
        return [f"--preset={name}"]
    if isinstance(model, QubitModel):
        return [
            "--model=qubit", f"--alpha={model.alpha!r}", f"--phi={model.phi!r}",
            f"--b-rotation={model.b_rotation!r}", f"--b-phase={model.b_phase!r}",
        ]
    if isinstance(model, KolmogorovModel):
        points = ",".join(
            f"{w!r}:{a}:{b}" for w, a, b in zip(model.weights, model.a_values, model.b_values)
        )
        return ["--model=classical", f"--points={points}"]
    rows = model.transition.rows
    return [
        "--model=synthetic",
        f"--prior={model.prior[0]!r},{model.prior[1]!r}",
        f"--transition={rows[0][0]!r},{rows[0][1]!r};{rows[1][0]!r},{rows[1][1]!r}",
        f"--lambda={model.target_lambda.lambda1!r},{model.target_lambda.lambda2!r}",
    ]


def _simulate(rnd, work: Path, slot: int) -> Op:
    name, model = _draw_model(rnd)
    flags, family = _model_flags(name, model), FAMILY[type(model)]
    n = _log_uniform(rnd, 100, 1e6)
    seed = rnd.randrange(2**32)
    output = work / f"simulated-{slot}.json"
    return Op(
        "simulate",
        ("simulate", *flags, f"--n={n}", f"--seed={seed}", f"--output={output}"),
        EXIT_OK,
        functools.partial(checks.check_simulate, n=n, seed=seed, family=family),
        output=output,
    )


def _expect_empty(text: str) -> list[str]:
    return [f"unexpected output {text[:60]!r}"] if text else []


def _cli_mix(seed: int, work: Path):
    rnd = _rng("cli-mix", seed, "inputs")
    exact = _exact_files(rnd, work)
    counts = _counts_files(rnd, work, 8, 1e3, 1e5)
    liftable = [f for f in exact if checks.liftable(checks.invert(*f.stats))]
    unliftable = [f for f in exact if f not in liftable]

    def make(kind: str, rnd: random.Random, slot: int) -> Op:
        if kind == "simulate":
            return _simulate(rnd, work, slot % 8)
        if kind == "analyze-counts":
            return _analyze_counts(rnd.choice(counts), MIX_REPLICATES)
        if kind == "balance-counts":
            entry = rnd.choice(counts)
            rows = checks.frequencies(entry.payload["counts"])[1]
            check = functools.partial(checks.check_balance, rows=rows, graded=False)
            return Op(kind, ("balance", str(entry.path)), EXIT_OK, check)
        if kind == "reconstruct-counts":
            path = str(rnd.choice(counts).path)
            return Op(kind, ("reconstruct", path), EXIT_INVALID, _expect_empty)
        if kind == "reconstruct-unliftable":
            path = str(rnd.choice(unliftable).path)
            return Op(kind, ("reconstruct", path), EXIT_INFEASIBLE, _expect_empty)
        entry = rnd.choice(liftable if kind == "reconstruct" else exact)
        if kind == "reconstruct":
            check = functools.partial(checks.check_reconstruct, stats=entry.stats)
        elif kind == "balance-exact":
            check = functools.partial(checks.check_balance, rows=entry.stats[1], graded=True)
        else:
            check = functools.partial(checks.check_analyze_exact, stats=entry.stats)
        return Op(kind, (kind.split("-")[0], str(entry.path)), EXIT_OK, check)

    # Weights in percent.  No usage data exists: the five call forms the
    # workload is defined by get equal shares, and the small share of
    # bootstrapped analyses and the fixed share of documented nonzero exits
    # are set by hand (README.md).
    mix = {
        "simulate": 18, "analyze-exact": 18, "reconstruct": 18, "balance-exact": 18,
        "balance-counts": 18, "analyze-counts": 4,
        "reconstruct-unliftable": 3, "reconstruct-counts": 3,
    }
    warm = _rng("cli-mix", seed, "warmup")
    warmup = [make(kind, warm, 0) for kind in mix]

    def ops() -> Iterator[Op]:
        rnd = _rng("cli-mix", seed, "ops")
        kinds, weights = list(mix), list(mix.values())
        slot = 0
        while True:
            slot += 1
            yield make(rnd.choices(kinds, weights=weights)[0], rnd, slot)

    return warmup, ops()


def exact_file(seed: int, path: Path) -> InputFile:
    """One exact-statistics file of a seeded model, drawn like the counts files' models."""
    _, model = _draw_model(_rng("exact-file", seed, "model"))
    return _write(path, ExperimentFile(exact=exact_statistics(model), model=model), model)


def build(name: str, seed: int, work: Path):
    """Write the workload's inputs under ``work``; return (warm-up ops, op stream)."""
    return {"bootstrap": _bootstrap, "sweep": _sweep, "cli-mix": _cli_mix}[name](seed, work)
