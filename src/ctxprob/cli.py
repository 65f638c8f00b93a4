"""Command-line interface: analyze, simulate, sweep, reconstruct, balance.

One batch invocation per run; all output is canonical (deterministic bytes
for fixed inputs and seeds).  Angles are radians.  Exit codes:

* 0 -- success
* 1 -- invalid input or flags
* 2 -- degenerate statistics or model
* 3 -- infeasible or inconsistent data
* 130 -- interrupted (SIGINT)
* 141 -- stdout closed by its reader (SIGPIPE)
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import re
import shutil
import stat
import sys
from typing import Iterable, Iterator

import numpy as np

from . import models
from ._validation import TOL_EXACT, as_pair, cut, shown
from .calculus import EPS_CLASS_DEFAULT, LambdaPair, TransitionMatrix, check_double_stochastic
from .errors import CtxprobError, InfeasibleLambdaError, ValidationError
from .io import ExperimentFile, model_to_dict
from .models import (KolmogorovModel, Model, QubitModel, SyntheticModel, exact_statistics,
                     random_model)
from .report import (
    analyze_block, analyze_estimated, analyze_exact, balance_to_dict, report_json, report_to_dict
)
from .sampling import estimate_statistics, simulate_counts

__all__ = ["main", "entry_point", "PRESETS"]

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports it
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE: stdout's reader is gone, as after `| head -1`

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

#: Each model family's flags (argparse ``dest``) and their defaults, for ``simulate``
#: and for ``sweep``.  The flags default to nothing, so a flag of another family shows.
_SIMULATE_FAMILIES = {
    "qubit": {"alpha": None, "phi": 0.0, "b_rotation": math.pi / 4, "b_phase": 0.0},
    "classical": {"points": None},
    "synthetic": {"prior": "0.5,0.5", "transition": "0.8,0.2;0.2,0.8", "target_lambda": None},
}
_SWEEP_FAMILIES = {
    "qubit": {"alpha": "0.0", "phi": "0.0", "b_rotation": repr(math.pi / 4), "b_phase": "0.0"},
    "synthetic": {"prior": "0.5,0.5", "transition": "0.8,0.2;0.2,0.8", "lambda1": None},
    "classical": {"count": None, "seed": 0},
}

#: Most points one ``sweep`` takes; checked before any point is built.
MAX_SWEEP_POINTS = 10**6
#: Rows a sweep formats as CSV at a time.
SWEEP_CHUNK_ROWS = 4096

_SWEEP_FIXED_COLUMNS = [
    "p1", "p2", "p11", "p12", "p21", "p22", "p1a", "p2a",
    "lambda1", "lambda2", "theta1", "theta2", "class", "col_residual_max",
]


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1, with the tokens its errors
    echo cut short as other messages cut them, and with any token that starts with a
    minus sign and a digit or a point read as a value, so every flag takes
    ``--flag -1e-3`` as it takes ``--flag=-1e-3``.  The help text wraps to the
    terminal width read once, when the parser is built."""

    def __init__(self, *args, formatter_class=argparse.HelpFormatter, **kwargs):
        # argparse builds a formatter for every flag added, and each formatter
        # left to itself asks the terminal its width: ask once, as it would.
        width = shutil.get_terminal_size().columns - 2
        formatter_class = functools.partial(formatter_class, width=width)
        super().__init__(*args, formatter_class=formatter_class, **kwargs)
        # argparse's own pattern takes only plain negative numbers, not "-1e-3"
        # or "-1:1:3"; no ctxprob option looks like a negative number.
        self._negative_number_matcher = re.compile(r"-[0-9.]")

    def error(self, message: str):  # noqa: D102 - argparse hook
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")

    def parse_args(self, args=None, namespace=None):  # noqa: D102 - argparse hook
        args, extras = self.parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {cut(' '.join(extras))}")
        return args

    # argparse's "invalid choice" and "invalid <type> value" errors echo the
    # refused token as its repr; these two hooks show it as ``shown`` does.
    def _get_value(self, action, arg_string):
        try:
            return super()._get_value(action, arg_string)
        except argparse.ArgumentError as exc:
            exc.message = exc.message.replace(repr(arg_string), shown(arg_string), 1)
            raise

    def _check_value(self, action, value):
        try:
            super()._check_value(action, value)
        except argparse.ArgumentError as exc:
            exc.message = exc.message.replace(repr(value), shown(value), 1)
            raise


# ---------------------------------------------------------------------------
# Flag parsing helpers
# ---------------------------------------------------------------------------


def _unparsable(what: str, text: str, exc: ValueError) -> ValidationError:
    """The error for flag ``text`` that ``float`` or ``int`` refused with ``exc``."""
    return ValidationError(f"cannot parse {what} {shown(text)}: {cut(str(exc))}")


def _parse_float_list(text: str, name: str, count: int | None = None) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise _unparsable(name, text, exc) from exc
    if count is not None and len(values) != count:
        raise ValidationError(f"{name} needs exactly {count} comma-separated values")
    return values


def _check_sweep_size(points: int, what: str) -> None:
    if points > MAX_SWEEP_POINTS:
        raise ValidationError(
            f"{what} has {shown(points)} points; a sweep takes at most {MAX_SWEEP_POINTS} points"
        )


def _parse_grid(text: str, name: str) -> list[float]:
    """Grid spec: 'a,b,c' for explicit values or 'start:stop:count' for linspace."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValidationError(f"{name} grid must be 'start:stop:count', got {shown(text)}")
        try:
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise _unparsable(f"{name} grid", text, exc) from exc
        if count < 1:
            raise ValidationError(f"{name} grid is empty")
        _check_sweep_size(count, f"{name} grid")
        return np.linspace(start, stop, count).tolist()
    values = _parse_float_list(text, name)
    if not values:
        raise ValidationError(f"{name} grid is empty")
    _check_sweep_size(len(values), f"{name} grid")
    return values


def _parse_transition(text: str) -> TransitionMatrix:
    rows = as_pair(text.split(";"), "transition must be 't11,t12;t21,t22'")
    return TransitionMatrix(
        tuple(_parse_float_list(row, f"transition row {i}", 2) for i, row in enumerate(rows, 1))
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
            raise _unparsable("point", chunk, exc) from exc
    return KolmogorovModel(
        weights=tuple(weights), a_values=tuple(a_values), b_values=tuple(b_values)
    )


def _family_flags(args: argparse.Namespace, families: dict, family: str | None) -> None:
    """Default ``family``'s absent flags; any flag of another family is an error."""
    own = families.get(family, {})
    if any(name in vars(args) for flags in families.values() for name in flags.keys() - own):
        raise ValidationError("model flags do not match the chosen family")
    for name, default in own.items():
        vars(args).setdefault(name, default)


def _write_output(texts: Iterable[str], path: str | None) -> None:
    """Write ``texts`` in turn to ``path``, or to stdout if it is None.

    Where ``path`` is a regular file or nothing, it ends up holding all of the text
    or what it held before: the text goes to a new file in its directory, which
    replaces it after the last chunk and is removed on any error or interrupt.
    The new file gets the mode ``open(path, "w")`` would leave.  Anything else at
    ``path``, such as a symlink, a device or a FIFO, is written straight through,
    as is a path whose directory takes no new file, or the empty path; ``open``
    then names ``path`` in its error.
    """
    if path is None:
        sys.stdout.writelines(texts)
        return
    try:
        mode = os.lstat(path).st_mode
    except OSError:
        mode = None
    fd = None
    if path and (mode is None or stat.S_ISREG(mode)):
        temp = os.path.join(os.path.dirname(path), f".ctxprob-{os.urandom(6).hex()}.tmp")
        with contextlib.suppress(OSError):
            fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    if fd is None:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(texts)
        return
    try:
        with open(fd, "w", encoding="utf-8", newline="") as handle:
            if mode is not None:
                os.fchmod(fd, stat.S_IMODE(mode))
            handle.writelines(texts)
        os.replace(temp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(temp)
        raise


def _load_experiment(path: str) -> ExperimentFile:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return ExperimentFile.loads(handle.read())
    except OSError as exc:
        reason = exc.strerror or cut(str(exc))
        raise ValidationError(f"cannot read {cut(repr(path))}: {reason}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{cut(repr(path))} is not UTF-8 text: {exc}") from exc


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns the texts that main writes to --output or stdout
# ---------------------------------------------------------------------------


def _cmd_analyze(args: argparse.Namespace) -> list[str]:
    experiment = _load_experiment(args.input)
    if experiment.exact is not None:
        eps = args.eps_class if args.eps_class is not None else EPS_CLASS_DEFAULT
        report = analyze_exact(experiment.exact, eps_class=eps, tol=args.tolerance)
    else:
        counts = experiment.counts
        report = analyze_estimated(
            counts,
            replicates=args.bootstrap_replicates,
            seed=args.seed if args.seed is not None else counts.seed,
            eps_class=args.eps_class,
            tol=args.tolerance,
        )
    return [report_json(report_to_dict(report))]


def _simulate_model(args: argparse.Namespace) -> Model:
    if args.preset is not None:
        if args.preset not in PRESETS:
            raise ValidationError(f"unknown preset {shown(args.preset)}; have {sorted(PRESETS)}")
        model = PRESETS[args.preset]
        family = model_to_dict(model)["family"]
        if args.model is not None and args.model != family:
            raise ValidationError(
                f"preset {args.preset!r} belongs to family {family!r}, not {args.model!r}"
            )
        _family_flags(args, _SIMULATE_FAMILIES, None)  # a preset takes no model flag
        return model
    if args.model is None:
        raise ValidationError("simulate needs --model or --preset")
    _family_flags(args, _SIMULATE_FAMILIES, args.model)
    if args.model == "qubit":
        if args.alpha is None:
            raise ValidationError("qubit model needs --alpha")
        return QubitModel(args.alpha, args.phi, args.b_rotation, args.b_phase)
    if args.model == "classical":
        if args.points is None:
            raise ValidationError("classical model needs --points 'weight:a:b,...'")
        return _parse_points(args.points)
    if args.target_lambda is None:
        raise ValidationError("synthetic model needs --lambda 'l1,l2'")
    return SyntheticModel(
        prior=tuple(_parse_float_list(args.prior, "prior", 2)),
        transition=_parse_transition(args.transition),
        target_lambda=LambdaPair(*_parse_float_list(args.target_lambda, "lambda", 2)),
    )


def _cmd_simulate(args: argparse.Namespace) -> list[str]:
    model = _simulate_model(args)
    sizes = (args.n_context, args.n_filtration, args.n_filtered_1, args.n_filtered_2)
    counts = simulate_counts(model, [args.n if n is None else n for n in sizes], args.seed)
    return [ExperimentFile(counts=counts, model=model, note=args.note).dumps()]


def _sweep_block(args: argparse.Namespace) -> tuple:
    """Parameter names and columns, the unvalidated ``(N, 8)`` statistics block
    and the model of point ``i``, for :func:`analyze_block`.  Invalid models
    raise as building each one would."""
    _family_flags(args, _SWEEP_FAMILIES, args.family)
    if args.family == "qubit":
        names = ["alpha", "phi", "b_rotation", "b_phase"]
        grids = [_parse_grid(getattr(args, name), name.replace("_", "-")) for name in names]
        _check_sweep_size(math.prod(map(len, grids)), "qubit grid")
        columns, block = models.qubit_rows(*grids)
        return names, columns, block, lambda i: QubitModel(*[c[i].item() for c in columns])
    if args.family == "synthetic":
        if args.lambda1 is None:
            raise ValidationError("synthetic sweep needs --lambda1 grid")
        prior = _parse_float_list(args.prior, "prior", 2)
        transition = _parse_transition(args.transition)
        lam, block = models.synthetic_rows(prior, transition,
                                           lambda: _parse_grid(args.lambda1, "lambda1"))
        return ["target_lambda1"], [lam[:, 0]], block, lambda i: SyntheticModel(
            prior, transition, LambdaPair(*lam[i].tolist())
        )
    # classical: random models indexed by seed, each drawn as random_model draws it
    count = args.count
    if count is None or count < 1:
        raise ValidationError("classical sweep needs --count >= 1")
    _check_sweep_size(count, "classical sweep")
    seeds = range(args.seed, args.seed + count)
    block = models.random_classical_rows(seeds)
    return ["model_seed"], [np.array(seeds, object)], block, lambda i: random_model(
        "classical", seeds[i]
    )


def _column_text(column: np.ndarray) -> list[str]:
    """Each value's CSV field, as ``csv`` writes it: ``repr`` of a float, ``str`` of
    anything else (``str`` of a Python float is its ``repr``).  A float64 column
    ``repr``s each bit pattern once, so -0.0 and 0.0 stay apart."""
    if column.dtype != np.float64:
        return list(map(str, column.tolist()))
    bits, inverse = np.unique(column.view(np.uint64), return_inverse=True)
    return np.array(list(map(repr, bits.view(np.float64).tolist())), object)[inverse].tolist()


def _csv_chunks(header: list[str], columns: list[np.ndarray]) -> Iterator[str]:
    """CSV text of ``header`` and ``columns``, ``SWEEP_CHUNK_ROWS`` rows at a time.  No
    field needs quoting: the fields are numbers, class names and column names."""
    yield ",".join(header) + "\n"
    for start in range(0, len(columns[0]), SWEEP_CHUNK_ROWS):
        texts = [_column_text(column[start : start + SWEEP_CHUNK_ROWS]) for column in columns]
        yield "".join([",".join(fields) + "\n" for fields in zip(*texts)])


def _cmd_sweep(args: argparse.Namespace) -> Iterator[str]:
    names, parameters, block, model_of = _sweep_block(args)
    columns = analyze_block(block, lambda i: exact_statistics(model_of(i)),
                            eps_class=args.eps_class)
    return _csv_chunks(names + _SWEEP_FIXED_COLUMNS, [*parameters, *columns])


def _cmd_reconstruct(args: argparse.Namespace) -> list[str]:
    experiment = _load_experiment(args.input)
    if experiment.exact is None:
        raise ValidationError("reconstruct needs a file with exact statistics")
    report = analyze_exact(experiment.exact, eps_class=args.eps_class)
    if report.amplitudes is None:
        raise InfeasibleLambdaError(
            f"statistics classify as {report.theory_class.kind.value}; "
            "no amplitude lift exists"
        )
    full = report_to_dict(report)
    payload = {
        "lambda": full["lambda"]["point"],
        "amplitudes": full["amplitudes"],
        "born_residual": full["born_residual"],
    }
    return [report_json(payload)]


def _cmd_balance(args: argparse.Namespace) -> list[str]:
    experiment = _load_experiment(args.input)
    if experiment.exact is not None:
        transition = experiment.exact.transition
    else:
        transition = estimate_statistics(experiment.counts).transition
    report = check_double_stochastic(transition, args.tolerance)
    return [report_json(balance_to_dict(report))]


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------


# Flags shared by several subcommands; each subcommand declares only those it reads.
_TOLERANCE = dict(type=float, default=TOL_EXACT,
                  help="tolerance for balance checks (default 1e-9)")
_EPS_CLASS = dict(type=float, default=EPS_CLASS_DEFAULT,
                  help="classification band half-width (default 1e-6)")
_OUTPUT = dict(default=None, help="output path (default stdout)")


def _analyze_flags(analyze: _Parser) -> None:
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


def _simulate_flags(simulate: _Parser) -> None:
    simulate.add_argument("--model", choices=list(_SIMULATE_FAMILIES), default=None)
    simulate.add_argument("--preset", default=None,
                          help="named reference instance: " + ", ".join(sorted(PRESETS)))
    simulate.add_argument("--alpha", type=float, default=argparse.SUPPRESS,
                          help="qubit state mixing angle (radians)")
    simulate.add_argument("--phi", type=float, default=argparse.SUPPRESS,
                          help="qubit state relative phase (radians)")
    simulate.add_argument("--b-rotation", type=float, default=argparse.SUPPRESS,
                          help="B-basis rotation angle (radians)")
    simulate.add_argument("--b-phase", type=float, default=argparse.SUPPRESS,
                          help="B-basis relative phase (radians)")
    simulate.add_argument("--points", default=argparse.SUPPRESS,
                          help="classical model points 'weight:a:b,...' (a, b in {0,1})")
    simulate.add_argument("--prior", default=argparse.SUPPRESS,
                          help="synthetic filtration probabilities 'p1,p2'")
    simulate.add_argument("--transition", default=argparse.SUPPRESS,
                          help="synthetic transition matrix 't11,t12;t21,t22'")
    simulate.add_argument("--lambda", dest="target_lambda", default=argparse.SUPPRESS,
                          help="synthetic target coefficients 'l1,l2'")
    simulate.add_argument("--n", type=int, default=10000,
                          help="ensemble size for every experiment (default 10000)")
    simulate.add_argument("--n-context", type=int, default=None,
                          help="override: A-on-context ensemble size")
    simulate.add_argument("--n-filtration", type=int, default=None,
                          help="override: B-on-context ensemble size")
    simulate.add_argument("--n-filtered-1", type=int, default=None,
                          help="override: A-on-filtered-1 ensemble size")
    simulate.add_argument("--n-filtered-2", type=int, default=None,
                          help="override: A-on-filtered-2 ensemble size")
    simulate.add_argument("--note", default=None, help="free-text provenance note")
    simulate.add_argument("--seed", type=int, default=0,
                          help="simulation seed (default 0)")
    simulate.add_argument("--output", **_OUTPUT)


def _sweep_flags(sweep: _Parser) -> None:
    sweep.add_argument("--family", choices=list(_SWEEP_FAMILIES), required=True)
    sweep.add_argument("--alpha", default=argparse.SUPPRESS,
                       help="qubit alpha grid: 'a,b,c' or 'start:stop:count'")
    sweep.add_argument("--phi", default=argparse.SUPPRESS, help="qubit phi grid")
    sweep.add_argument("--b-rotation", default=argparse.SUPPRESS,
                       help="qubit B-rotation grid")
    sweep.add_argument("--b-phase", default=argparse.SUPPRESS, help="qubit B-phase grid")
    sweep.add_argument("--prior", default=argparse.SUPPRESS,
                       help="synthetic filtration probabilities (fixed)")
    sweep.add_argument("--transition", default=argparse.SUPPRESS,
                       help="synthetic transition matrix (fixed)")
    sweep.add_argument("--lambda1", default=argparse.SUPPRESS,
                       help="synthetic first-coefficient grid; the second is the "
                            "balanced companion")
    sweep.add_argument("--count", type=int, default=argparse.SUPPRESS,
                       help="classical: number of random models")
    sweep.add_argument("--eps-class", **_EPS_CLASS)
    sweep.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                       help="classical: seed of the first random model (default 0)")
    sweep.add_argument("--output", **_OUTPUT)


def _reconstruct_flags(reconstruct: _Parser) -> None:
    reconstruct.add_argument("input", help="experiment JSON file with exact statistics")
    reconstruct.add_argument("--eps-class", **_EPS_CLASS)
    reconstruct.add_argument("--output", **_OUTPUT)


def _balance_flags(balance: _Parser) -> None:
    balance.add_argument("input", help="experiment JSON file")
    balance.add_argument("--tolerance", **_TOLERANCE)
    balance.add_argument("--output", **_OUTPUT)


#: Every subcommand, in usage order: name -> (help, flag declarations, handler).
_COMMANDS = {
    "analyze": ("full report for an experiment file (exact or counts)",
                _analyze_flags, _cmd_analyze),
    "simulate": ("simulate the four experiments against a model",
                 _simulate_flags, _cmd_simulate),
    "sweep": ("classify exact statistics over a model parameter grid (CSV)",
              _sweep_flags, _cmd_sweep),
    "reconstruct": ("amplitude lift of an exact-statistics file",
                    _reconstruct_flags, _cmd_reconstruct),
    "balance": ("stochasticity and statistical-balance checks only",
                _balance_flags, _cmd_balance),
}


def _command_parser(parser: _Parser, name: str) -> _Parser:
    """``parser`` with subcommand ``name``'s flags and defaults."""
    _, add_flags, handler = _COMMANDS[name]
    add_flags(parser)
    parser.set_defaults(command=name, handler=handler)
    return parser


def build_parser(command: str | None = None) -> _Parser:
    """The CLI parser with every subcommand, or ``command``'s parser alone.

    A subcommand's help, usage and errors do not depend on its siblings; only
    the top-level usage and errors name them all.
    """
    if command is not None:
        return _command_parser(_Parser(prog=f"ctxprob {command}"), command)
    parser = _Parser(prog="ctxprob", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in _COMMANDS.items():
        _command_parser(subparsers.add_parser(name, help=help_text), name)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse with only the parser of the subcommand ``argv`` starts with.

    Any other ``argv``, and one that leaves arguments over, goes to the full
    parser, whose usage and errors name every subcommand.
    """
    if argv and argv[0] in _COMMANDS:
        args, extras = build_parser(argv[0]).parse_known_args(argv[1:])
        if not extras:
            return args
    return build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    """Run the CLI; returns the process exit code."""
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _write_output(args.handler(args), args.output)
        return EXIT_OK
    except CtxprobError as exc:
        print(f"ctxprob: {exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except KeyboardInterrupt:
        print("ctxprob: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except OSError as exc:
        if isinstance(exc, BrokenPipeError) and args.output is None:
            return EXIT_BROKEN_PIPE  # no one reads the output, and no line is owed
        if exc.errno is None or exc.filename is None:
            reason = cut(str(exc))
        else:  # cut the path alone, so that the errno text does not shorten it
            reason = f"[Errno {exc.errno}] {exc.strerror}: {cut(repr(exc.filename))}"
        print(f"ctxprob: i/o error: {reason}", file=sys.stderr)
        return EXIT_INVALID


def entry_point() -> None:
    code = main(sys.argv[1:])
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        code = EXIT_BROKEN_PIPE
    if code == EXIT_BROKEN_PIPE:
        # What stdout still buffers goes to /dev/null, so the flush at exit raises nothing.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    raise SystemExit(code)


if __name__ == "__main__":
    entry_point()
