"""Command-line interface: analyze, simulate, sweep, reconstruct, balance.

One batch invocation per run; all output is canonical (deterministic bytes
for fixed inputs and seeds).  Angles are radians.  Exit codes:

* 0 -- success
* 1 -- invalid input or flags
* 2 -- degenerate statistics or model
* 3 -- infeasible or inconsistent data
"""

from __future__ import annotations

import argparse
import csv
import io as _stdio
import itertools
import math
import sys

import numpy as np

from ._validation import TOL_EXACT
from .calculus import EPS_CLASS_DEFAULT, LambdaPair, TransitionMatrix, check_double_stochastic
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
    Model,
    QubitModel,
    SyntheticModel,
    exact_statistics,
    random_model,
)
from .report import analyze_estimated, analyze_exact, balance_to_dict, report_to_dict
from .sampling import EnsembleSizes, estimate_statistics, simulate_counts

__all__ = ["main", "entry_point", "PRESETS"]

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_DEGENERATE = 2
EXIT_INFEASIBLE = 3

_DEGENERATE_ERRORS = (
    DegenerateContextError,
    ZeroFiltrationError,
    EmptyEnsembleError,
    GenerationExhaustedError,
)
_INFEASIBLE_ERRORS = (
    OutOfRangeError,
    InfeasibleLambdaError,
    NonTrigonometricError,
    NotBalancedError,
)

#: Named reference instances usable as ``simulate --preset <name>``.
PRESETS: dict[str, Model] = {
    "e1": QubitModel(alpha=math.pi / 6, phi=math.pi / 2, b_rotation=math.pi / 4),
    "e2": KolmogorovModel(
        weights=(0.06, 0.24, 0.42, 0.28), a_values=(0, 1, 0, 1), b_values=(0, 0, 1, 1)
    ),
    "e3": SyntheticModel(
        prior=(0.5, 0.5),
        transition=TransitionMatrix(((0.8, 0.2), (0.2, 0.8))),
        target_lambda=LambdaPair(1.25, -1.25),
    ),
}

_FAMILY_OF = {KolmogorovModel: "classical", QubitModel: "qubit", SyntheticModel: "synthetic"}

_SWEEP_FIXED_COLUMNS = [
    "p1", "p2", "p11", "p12", "p21", "p22", "p1a", "p2a",
    "lambda1", "lambda2", "theta1", "theta2", "class", "col_residual_max",
]


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message: str):  # noqa: D102 - argparse hook
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# Flag parsing helpers
# ---------------------------------------------------------------------------


def _parse_float_list(text: str, name: str, count: int | None = None) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ValidationError(f"cannot parse {name} {text!r}: {exc}") from exc
    if count is not None and len(values) != count:
        raise ValidationError(f"{name} needs exactly {count} comma-separated values")
    return values


def _parse_grid(text: str, name: str) -> list[float]:
    """Grid spec: 'a,b,c' for explicit values or 'start:stop:count' for linspace."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValidationError(f"{name} grid must be 'start:stop:count', got {text!r}")
        try:
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ValidationError(f"cannot parse {name} grid {text!r}: {exc}") from exc
        if count < 1:
            raise ValidationError(f"{name} grid is empty")
        return [float(x) for x in np.linspace(start, stop, count)]
    values = _parse_float_list(text, name)
    if not values:
        raise ValidationError(f"{name} grid is empty")
    return values


def _parse_transition(text: str) -> TransitionMatrix:
    rows = text.split(";")
    if len(rows) != 2:
        raise ValidationError("transition must be 't11,t12;t21,t22'")
    return TransitionMatrix(
        (
            tuple(_parse_float_list(rows[0], "transition row 1", 2)),
            tuple(_parse_float_list(rows[1], "transition row 2", 2)),
        )
    )


def _parse_points(text: str) -> KolmogorovModel:
    weights, a_values, b_values = [], [], []
    for chunk in text.split(","):
        parts = chunk.split(":")
        if len(parts) != 3:
            raise ValidationError("each point must be 'weight:a:b' with a, b in {0, 1}")
        try:
            weights.append(float(parts[0]))
            a_values.append(int(parts[1]))
            b_values.append(int(parts[2]))
        except ValueError as exc:
            raise ValidationError(f"cannot parse point {chunk!r}: {exc}") from exc
    return KolmogorovModel(
        weights=tuple(weights), a_values=tuple(a_values), b_values=tuple(b_values)
    )


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _load_experiment(path: str) -> ExperimentFile:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return ExperimentFile.loads(handle.read())
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_analyze(args: argparse.Namespace) -> int:
    experiment = _load_experiment(args.input)
    if experiment.exact is not None:
        eps = args.eps_class if args.eps_class is not None else EPS_CLASS_DEFAULT
        report = analyze_exact(experiment.exact, eps_class=eps, tol=args.tolerance)
    else:
        counts = experiment.counts
        report = analyze_estimated(
            estimate_statistics(counts),
            replicates=args.bootstrap_replicates,
            seed=args.seed if args.seed is not None else counts.seed,
            eps_class=args.eps_class,
            tol=args.tolerance,
        )
    _write_output(canonical_dumps(report_to_dict(report)), args.output)
    return EXIT_OK


def _simulate_model(args: argparse.Namespace) -> Model:
    if args.preset is not None:
        if args.preset not in PRESETS:
            raise ValidationError(f"unknown preset {args.preset!r}; have {sorted(PRESETS)}")
        model = PRESETS[args.preset]
        if args.model is not None and args.model != _FAMILY_OF[type(model)]:
            raise ValidationError(
                f"preset {args.preset!r} belongs to family {_FAMILY_OF[type(model)]!r}, "
                f"not {args.model!r}"
            )
        return model
    if args.model is None:
        raise ValidationError("simulate needs --model or --preset")
    if args.model == "qubit":
        if args.alpha is None:
            raise ValidationError("qubit model needs --alpha")
        return QubitModel(
            alpha=args.alpha,
            phi=args.phi,
            b_rotation=args.b_rotation,
            b_phase=args.b_phase,
        )
    if args.model == "classical":
        if args.points is None:
            raise ValidationError("classical model needs --points 'weight:a:b,...'")
        return _parse_points(args.points)
    if args.points is not None or args.alpha is not None:
        raise ValidationError("model flags do not match the chosen family")
    if args.target_lambda is None:
        raise ValidationError("synthetic model needs --lambda 'l1,l2'")
    return SyntheticModel(
        prior=tuple(_parse_float_list(args.prior, "prior", 2)),
        transition=_parse_transition(args.transition),
        target_lambda=LambdaPair(*_parse_float_list(args.target_lambda, "lambda", 2)),
    )


def _cmd_simulate(args: argparse.Namespace) -> int:
    model = _simulate_model(args)
    sizes = EnsembleSizes(
        a_on_context=args.n_context if args.n_context is not None else args.n,
        b_on_context=args.n_filtration if args.n_filtration is not None else args.n,
        a_on_filtered=(
            args.n_filtered_1 if args.n_filtered_1 is not None else args.n,
            args.n_filtered_2 if args.n_filtered_2 is not None else args.n,
        ),
    )
    counts = simulate_counts(model, sizes, args.seed)
    experiment = ExperimentFile(counts=counts, model=model, note=args.note)
    _write_output(experiment.dumps(), args.output)
    return EXIT_OK


def _sweep_models(args: argparse.Namespace) -> tuple[list[str], list[tuple[list, Model]]]:
    """Parameter column names plus (parameter values, model) per grid point."""
    if args.family == "qubit":
        grids = [
            _parse_grid(args.alpha, "alpha"),
            _parse_grid(args.phi, "phi"),
            _parse_grid(args.b_rotation, "b-rotation"),
            _parse_grid(args.b_phase, "b-phase"),
        ]
        rows = [
            (list(values), QubitModel(*values))
            for values in itertools.product(*grids)
        ]
        return ["alpha", "phi", "b_rotation", "b_phase"], rows
    if args.family == "synthetic":
        if args.lambda1 is None:
            raise ValidationError("synthetic sweep needs --lambda1 grid")
        prior = tuple(_parse_float_list(args.prior, "prior", 2))
        transition = _parse_transition(args.transition)
        weight1 = math.sqrt(prior[0] * prior[1] * transition.rows[0][0] * transition.rows[1][0])
        weight2 = math.sqrt(prior[0] * prior[1] * transition.rows[0][1] * transition.rows[1][1])
        if weight2 <= 0.0:
            raise DegenerateContextError(
                "second interference weight vanishes; no balanced companion exists"
            )
        rows = []
        for lam1 in _parse_grid(args.lambda1, "lambda1"):
            lam = LambdaPair(lam1, -weight1 * lam1 / weight2)
            rows.append(([lam1], SyntheticModel(prior, transition, lam)))
        return ["target_lambda1"], rows
    # classical: random models indexed by seed
    count = args.count
    if count is None or count < 1:
        raise ValidationError("classical sweep needs --count >= 1")
    rows = [
        ([args.seed + k], random_model("classical", args.seed + k)) for k in range(count)
    ]
    return ["model_seed"], rows


def _cmd_sweep(args: argparse.Namespace) -> int:
    parameter_names, entries = _sweep_models(args)
    buffer = _stdio.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(parameter_names + _SWEEP_FIXED_COLUMNS)
    for values, model in entries:
        stats = exact_statistics(model)
        report = analyze_exact(stats, eps_class=args.eps_class, tol=args.tolerance)
        writer.writerow(
            values
            + [
                stats.prior[0], stats.prior[1],
                stats.transition.rows[0][0], stats.transition.rows[0][1],
                stats.transition.rows[1][0], stats.transition.rows[1][1],
                stats.outcome[0], stats.outcome[1],
                report.lambda_point.lambda1, report.lambda_point.lambda2,
                report.phases.phase1.theta, report.phases.phase2.theta,
                report.theory_class.kind.value,
                report.balance.max_column_residual,
            ]
        )
    _write_output(buffer.getvalue(), args.output)
    return EXIT_OK


def _cmd_reconstruct(args: argparse.Namespace) -> int:
    experiment = _load_experiment(args.input)
    if experiment.exact is None:
        raise ValidationError("reconstruct needs a file with exact statistics")
    report = analyze_exact(experiment.exact, eps_class=args.eps_class)
    if report.amplitudes is None:
        raise NonTrigonometricError(
            f"statistics classify as {report.theory_class.kind.value}; "
            "no amplitude lift exists"
        )
    full = report_to_dict(report)
    payload = {
        "lambda": full["lambda"]["point"],
        "amplitudes": full["amplitudes"],
        "born_residual": full["born_residual"],
    }
    _write_output(canonical_dumps(payload), args.output)
    return EXIT_OK


def _cmd_balance(args: argparse.Namespace) -> int:
    experiment = _load_experiment(args.input)
    if experiment.exact is not None:
        transition = experiment.exact.transition
    else:
        transition = estimate_statistics(experiment.counts).point.transition
    report = check_double_stochastic(transition, args.tolerance)
    _write_output(canonical_dumps(balance_to_dict(report)), args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------


# Flags shared by several subcommands; each subcommand declares only those it reads.
_TOLERANCE = dict(type=float, default=TOL_EXACT,
                  help="tolerance for balance checks (default 1e-9)")
_EPS_CLASS = dict(type=float, default=EPS_CLASS_DEFAULT,
                  help="classification band half-width (default 1e-6)")
_OUTPUT = dict(default=None, help="output path (default stdout)")


def build_parser() -> _Parser:
    parser = _Parser(prog="ctxprob", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subparsers = parser.add_subparsers(dest="command", required=True)

    analyze = subparsers.add_parser(
        "analyze", help="full report for an experiment file (exact or counts)")
    analyze.add_argument("input", help="experiment JSON file")
    analyze.add_argument("--tolerance", **_TOLERANCE)
    analyze.add_argument("--eps-class", type=float, default=None,
                         help="classification band half-width (default 1e-6 for exact "
                              "statistics, bootstrap CI half-width for counts)")
    analyze.add_argument("--bootstrap-replicates", type=int, default=1000,
                         help="bootstrap replicates for counts input (default 1000)")
    analyze.add_argument("--seed", type=int, default=None,
                         help="bootstrap seed for counts input (default: the file's seed)")
    analyze.add_argument("--output", **_OUTPUT)
    analyze.set_defaults(handler=_cmd_analyze)

    simulate = subparsers.add_parser(
        "simulate", help="simulate the three experiments against a model")
    simulate.add_argument("--model", choices=["qubit", "classical", "synthetic"],
                          default=None)
    simulate.add_argument("--preset", default=None,
                          help="named reference instance: " + ", ".join(sorted(PRESETS)))
    simulate.add_argument("--alpha", type=float, default=None,
                          help="qubit state mixing angle (radians)")
    simulate.add_argument("--phi", type=float, default=0.0,
                          help="qubit state relative phase (radians)")
    simulate.add_argument("--b-rotation", type=float, default=math.pi / 4,
                          help="B-basis rotation angle (radians)")
    simulate.add_argument("--b-phase", type=float, default=0.0,
                          help="B-basis relative phase (radians)")
    simulate.add_argument("--points", default=None,
                          help="classical model points 'weight:a:b,...' (a, b in {0,1})")
    simulate.add_argument("--prior", default="0.5,0.5",
                          help="synthetic filtration probabilities 'p1,p2'")
    simulate.add_argument("--transition", default="0.8,0.2;0.2,0.8",
                          help="synthetic transition matrix 't11,t12;t21,t22'")
    simulate.add_argument("--lambda", dest="target_lambda", default=None,
                          help="synthetic target coefficients 'l1,l2'")
    simulate.add_argument("--n", type=int, default=10000,
                          help="ensemble size for every experiment (default 10000)")
    simulate.add_argument("--n-context", type=int, default=None,
                          help="override: A-on-context ensemble size")
    simulate.add_argument("--n-filtration", type=int, default=None,
                          help="override: B-on-context ensemble size")
    simulate.add_argument("--n-filtered-1", type=int, default=None,
                          help="override: A-on-filtered-context-1 ensemble size")
    simulate.add_argument("--n-filtered-2", type=int, default=None,
                          help="override: A-on-filtered-context-2 ensemble size")
    simulate.add_argument("--note", default=None, help="free-text provenance note")
    simulate.add_argument("--seed", type=int, default=0,
                          help="simulation seed (default 0)")
    simulate.add_argument("--output", **_OUTPUT)
    simulate.set_defaults(handler=_cmd_simulate)

    sweep = subparsers.add_parser(
        "sweep", help="classify exact statistics over a model parameter grid (CSV)")
    sweep.add_argument("--family", choices=["qubit", "synthetic", "classical"],
                       required=True)
    sweep.add_argument("--alpha", default="0.0",
                       help="qubit alpha grid: 'a,b,c' or 'start:stop:count'")
    sweep.add_argument("--phi", default="0.0", help="qubit phi grid")
    sweep.add_argument("--b-rotation", default=repr(math.pi / 4),
                       help="qubit B-rotation grid")
    sweep.add_argument("--b-phase", default="0.0", help="qubit B-phase grid")
    sweep.add_argument("--prior", default="0.5,0.5",
                       help="synthetic filtration probabilities (fixed)")
    sweep.add_argument("--transition", default="0.8,0.2;0.2,0.8",
                       help="synthetic transition matrix (fixed)")
    sweep.add_argument("--lambda1", default=None,
                       help="synthetic first-coefficient grid; the second is the "
                            "balanced companion")
    sweep.add_argument("--count", type=int, default=None,
                       help="classical: number of random models")
    sweep.add_argument("--tolerance", **_TOLERANCE)
    sweep.add_argument("--eps-class", **_EPS_CLASS)
    sweep.add_argument("--seed", type=int, default=0,
                       help="classical: seed of the first random model (default 0)")
    sweep.add_argument("--output", **_OUTPUT)
    sweep.set_defaults(handler=_cmd_sweep)

    reconstruct = subparsers.add_parser(
        "reconstruct", help="amplitude lift of an exact-statistics file")
    reconstruct.add_argument("input", help="experiment JSON file with exact statistics")
    reconstruct.add_argument("--eps-class", **_EPS_CLASS)
    reconstruct.add_argument("--output", **_OUTPUT)
    reconstruct.set_defaults(handler=_cmd_reconstruct)

    balance = subparsers.add_parser(
        "balance", help="stochasticity and statistical-balance checks only")
    balance.add_argument("input", help="experiment JSON file")
    balance.add_argument("--tolerance", **_TOLERANCE)
    balance.add_argument("--output", **_OUTPUT)
    balance.set_defaults(handler=_cmd_balance)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run the CLI; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except ValidationError as exc:
        print(f"ctxprob: invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except _DEGENERATE_ERRORS as exc:
        print(f"ctxprob: degenerate statistics: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except _INFEASIBLE_ERRORS as exc:
        print(f"ctxprob: infeasible data: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except CtxprobError as exc:  # future error classes default to invalid input
        print(f"ctxprob: error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"ctxprob: i/o error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def entry_point() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry_point()
