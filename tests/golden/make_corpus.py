"""Write the golden CLI corpus: inputs, expected output bytes and exit codes.

Run from the repository root with ``PYTHONPATH=src python tests/golden/make_corpus.py``.
It rewrites ``inputs/``, ``expected/`` and ``cases.json`` next to this file from
the current code: ``expected/<name>.out`` holds each case's stdout and, for a
case with a nonzero exit code, ``expected/<name>.err`` its stderr.  With
``--check`` it builds the corpus in a temporary directory instead, writes
nothing here, lists each file that a rewrite would change, add or remove, and
exits 1 if there is one.  argparse
wraps help text to the terminal width, so ``COLUMNS`` is pinned to 80 here and
in ``tests/test_golden.py``.
``tests/test_golden.py`` replays every case and requires the same bytes and exit
code, so regenerate only for a deliberate output change and record that change
in ``CHANGES.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import filecmp
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

from ctxprob import (
    ContextStatistics, CountsRecord, ExperimentFile, SyntheticModel, TransitionMatrix,
    canonical_dumps, exact_statistics,
)
from ctxprob.calculus import interference_terms
from ctxprob.cli import PRESETS, main

HERE = Path(__file__).resolve().parent

# Prior (1, 0) with a nonzero deviation: the inversion has no coefficient (exit 2).
DEGENERATE = ContextStatistics(
    (1.0, 0.0), TransitionMatrix(((0.5, 0.5), (0.5, 0.5))), (0.75, 0.25)
)

# Counts files with no model.  A-on-filtered-1 is empty: no frequencies (exit 2).
EMPTY_COUNTS = CountsRecord(
    sizes=(10, 10, 0, 10), tallies=((4, 6), (3, 7), (0, 0), (5, 5)), seed=1
)
# Small ensembles: many bootstrap replicates are degenerate (failed_replicates).
SPARSE_COUNTS = CountsRecord(
    sizes=(20, 6, 20, 20), tallies=((12, 8), (1, 5), (15, 5), (9, 11)), seed=5
)
# Tiny ensembles: a replicate that draws a transition entry of 0 or a filtration
# probability of 0 or 1 has a vanishing weight.  With --seed 1 the one replicate
# draws t11 = 1, so the second column cannot be inverted (exit 2).
DEGENERATE_BOOTSTRAP_COUNTS = CountsRecord(
    sizes=(10, 2, 10, 10), tallies=((5, 5), (1, 1), (9, 1), (1, 9)), seed=1
)

# lambda1 = 0.5 and its balanced companion lambda2 = -w1 * 0.5 / w2 = -1.22...:
# hyper-trigonometric in component 2 (reconstruct exits 3).
_, W1 = interference_terms(0.5, 0.5, 0.9, 0.4)
_, W2 = interference_terms(0.5, 0.5, 0.1, 0.6)
# Synthetic models whose verdicts no preset reaches.
VERDICT_MODELS = {
    "hyper": SyntheticModel((0.5, 0.5), ((0.9, 0.1), (0.4, 0.6)), (0.5, -W1 * 0.5 / W2)),
    # |lambda1| = |lambda2| = 1: boundary in components 1 and 2.
    "boundary": SyntheticModel((0.5, 0.5), ((0.8, 0.2), (0.2, 0.8)), (1.0, -1.0)),
}

# Four distinct ensemble sizes: a swap of two experiments' sizes shows here.
SIZES_ARGV = ["simulate", "--preset", "e1", "--n-context", "1000", "--n-filtration", "2000",
              "--n-filtered-1", "3000", "--n-filtered-2", "4000", "--seed", "7"]

SWEEPS = {
    "sweep_qubit": [
        "--family", "qubit", "--alpha", "0:1.5:4", "--phi", "0,1.5707963267948966",
        "--b-rotation", "0.3,0.7853981633974483", "--b-phase", "0:3:2",
    ],
    "sweep_qubit_flags": [
        "--family", "qubit", "--alpha", "0.2:1.2:3", "--phi", "0.5",
        "--eps-class", "0.01",
    ],
    "sweep_synthetic": ["--family", "synthetic", "--lambda1=-1.25:1.25:11"],
    "sweep_synthetic_flags": [
        "--family", "synthetic", "--prior", "0.3,0.7", "--transition", "0.2,0.8;0.6,0.4",
        "--lambda1=-0.4:0.4:9", "--eps-class", "0.05",
    ],
    "sweep_synthetic_infeasible": ["--family", "synthetic", "--lambda1", "0,2"],
    # The first infeasible point is the fourth, and component 1 fails before 2.
    "sweep_synthetic_infeasible_late": ["--family", "synthetic", "--lambda1", "0:1.5:4"],
    # t12 = 0: the second interference weight vanishes, so no balanced companion.
    "sweep_synthetic_unbalanced": [
        "--family", "synthetic", "--transition", "1,0;0.5,0.5", "--lambda1", "0,0.5",
    ],
    # alpha = 0 and b_rotation = 0 give 0/0 components, which resolve to zero.
    "sweep_qubit_degenerate": [
        "--family", "qubit", "--alpha", "0,0.7", "--phi", "0,1.2", "--b-rotation", "0,0.5",
    ],
    # -0.0 and 0.0 both print, in the same columns.
    "sweep_qubit_signed_zero": [
        "--family", "qubit", "--alpha", "-0.0,0.0,0.5", "--phi", "0.0,-0.0",
        "--b-rotation", "-0.0,0.3",
    ],
    "sweep_classical": ["--family", "classical", "--count", "6", "--seed", "3"],
    # 400 models: the batch reaches 16-point models.
    "sweep_classical_batch": ["--family", "classical", "--count", "400", "--seed", "2024"],
    "sweep_classical_bad_seed": ["--family", "classical", "--count", "2", "--seed=-1"],
    # Seeds 2^64 - 2 and 2^64 - 1 are drawn before the third seed, 2^64, is refused.
    "sweep_classical_seed_overflow": [
        "--family", "classical", "--seed", "18446744073709551614", "--count", "3",
    ],
    # A prior within the tolerance of (0, 1) is clipped to it: no companion (exit 2).
    "sweep_synthetic_prior_clipped": [
        "--family", "synthetic", "--prior=-1e-10,1.0000000001", "--lambda1", "0",
    ],
    "sweep_synthetic_prior_invalid": [
        "--family", "synthetic", "--prior=-0.5,1.5", "--lambda1", "0",
    ],
    # The prior is checked before the grid and before the companion weights.
    "sweep_synthetic_prior_before_grid": [
        "--family", "synthetic", "--prior", "1.5,1.5", "--lambda1", "abc",
    ],
    "sweep_synthetic_prior_unnormalized": [
        "--family", "synthetic", "--prior", "0.5,0", "--lambda1", "0",
    ],
    # Hyper-trigonometric, trigonometric, classical, trigonometric, hyper-trigonometric.
    "sweep_synthetic_hyper": [
        "--family", "synthetic", "--prior", "0.5,0.5", "--transition", "0.9,0.1;0.4,0.6",
        "--lambda1=-0.5:0.5:5",
    ],
    # Every model is checked before any statistics: a non-finite value exits 1,
    # also after an infeasible point.
    "sweep_qubit_alpha_inf": ["--family", "qubit", "--alpha", "0,inf"],
    "sweep_qubit_phi_nan": ["--family", "qubit", "--alpha", "0.5", "--phi", "nan"],
    "sweep_synthetic_lambda1_inf_late": ["--family", "synthetic", "--lambda1", "0,2,inf"],
    "sweep_synthetic_lambda1_overflow": ["--family", "synthetic", "--lambda1", "1e309"],
}

FLAG_CASES = {
    "analyze_e1_exact_flags": ["analyze", "inputs/e1_exact.json", "--eps-class", "0.1",
                               "--tolerance", "1e-3"],
    "analyze_e2_counts_flags": ["analyze", "inputs/e2_counts.json",
                                "--bootstrap-replicates", "200", "--seed", "11"],
    "analyze_e3_counts_eps": ["analyze", "inputs/e3_counts.json", "--eps-class", "0.05"],
    # Neither the default replicate count nor a multiple of a former block size.
    "analyze_e1_counts_few": ["analyze", "inputs/e1_counts.json",
                              "--bootstrap-replicates", "7", "--seed", "11"],
    "reconstruct_e1_exact_eps": ["reconstruct", "inputs/e1_exact.json", "--eps-class", "0.3"],
    "balance_e2_counts_tol": ["balance", "inputs/e2_counts.json", "--tolerance", "0.3"],
    # A non-finite tolerance is refused under the flag's own name (exit 1).
    "balance_tolerance_nan": ["balance", "inputs/e1_exact.json", "--tolerance", "nan"],
    # An --output path in a directory that does not exist: an i/o error (exit 1).
    "balance_output_missing_dir": ["balance", "inputs/e1_exact.json",
                                   "--output", "missing-dir/out.json"],
}

# Help goes to stdout with exit 0; usage errors go to stderr with exit 1.
USAGE_CASES = {
    "help_long": ["--help"],
    "help_short": ["-h"],
    **{f"help_{command}": [command, "--help"]
       for command in ("analyze", "simulate", "sweep", "reconstruct", "balance")},
    "usage_no_arguments": [],
    "usage_unknown_command": ["bogus"],
    "usage_balance_no_input": ["balance"],
    "usage_balance_unknown_flag": ["balance", "inputs/e1_exact.json", "--bogus"],
    "usage_analyze_bad_eps_class": ["analyze", "inputs/e1_exact.json", "--eps-class", "abc"],
    "usage_sweep_bad_family": ["sweep", "--family", "nope"],
    "usage_flag_before_command": ["-x", "balance", "inputs/e1_exact.json"],
    # A signed value of a flag the subcommand does not take: the message shows
    # both tokens as given.
    "usage_simulate_signed_tolerance": ["simulate", "--preset", "e1", "--tolerance", "-1e-3"],
    "usage_analyze_signed_alpha": ["analyze", "inputs/e1_exact.json", "--alpha", "-0.3,0.2"],
}

# A flag of another model family, or any model flag with a preset, exits 1.
FOREIGN_FLAG_CASES = {
    "foreign_simulate_preset_alpha": ["simulate", "--preset", "e1", "--alpha", "0.9"],
    "foreign_simulate_qubit_points": ["simulate", "--model", "qubit", "--points", "1:0:0"],
    "foreign_sweep_qubit_count_lambda1": ["sweep", "--family", "qubit", "--count", "5",
                                          "--lambda1", "0,1"],
    "foreign_sweep_qubit_seed": ["sweep", "--family", "qubit", "--seed", "3"],
    "foreign_sweep_classical_alpha": ["sweep", "--family", "classical", "--alpha", "0:1:3"],
}

# A flag value that does not parse, an unknown preset, or a missing model
# flag: each exits 1 with its own message.
PARSE_ERROR_CASES = {
    "parse_sweep_prior_not_numbers": ["sweep", "--family", "synthetic", "--prior", "a,b",
                                      "--lambda1", "0"],
    "parse_sweep_grid_two_parts": ["sweep", "--family", "synthetic", "--lambda1", "0:1"],
    "parse_sweep_grid_bad_count": ["sweep", "--family", "synthetic", "--lambda1", "0:1:x"],
    "parse_sweep_grid_empty_list": ["sweep", "--family", "synthetic", "--lambda1", ","],
    "parse_simulate_point_two_parts": ["simulate", "--model", "classical",
                                       "--points", "0.5:1"],
    "parse_simulate_point_bad_value": ["simulate", "--model", "classical",
                                       "--points", "0.5:x:1"],
    "parse_simulate_unknown_preset": ["simulate", "--preset", "e9"],
    "parse_simulate_classical_no_points": ["simulate", "--model", "classical"],
    "parse_simulate_synthetic_no_lambda": ["simulate", "--model", "synthetic"],
    "parse_sweep_classical_no_count": ["sweep", "--family", "classical"],
}

# Ensemble sizes are bounded at 2^63 - 1, where numpy's binomial draw stops.
ENSEMBLE_BOUND_CASES = {
    "simulate_max_n": ["simulate", "--model", "qubit", "--alpha", "1",
                       "--n", str(2**63 - 1)],
    "simulate_huge_n": ["simulate", "--model", "qubit", "--alpha", "1", "--n", str(2**64)],
    "analyze_huge_counts": ["analyze", "inputs/huge_counts.json"],
    "balance_huge_counts": ["balance", "inputs/huge_counts.json"],
}


def huge_counts_text() -> str:
    """SPARSE_COUNTS with 2^64 draws of A on the context (2^63 of each outcome),
    which no CountsRecord takes."""
    payload = json.loads(ExperimentFile(counts=SPARSE_COUNTS).dumps())
    payload["counts"].update(n_context=2**64, a_counts=[2**63, 2**63])
    return canonical_dumps(payload)


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def build(root: Path) -> list[dict]:
    """Write the corpus under ``root``, the working directory of every case."""
    for sub in ("inputs", "expected"):
        shutil.rmtree(root / sub, ignore_errors=True)
        (root / sub).mkdir()
    cases: list[tuple[str, list[str]]] = []
    inputs = root / "inputs"
    for name, model in sorted(PRESETS.items()):
        exact = ExperimentFile(exact=exact_statistics(model), model=model)
        (inputs / f"{name}_exact.json").write_text(exact.dumps(), encoding="utf-8")
        cases.append((f"simulate_{name}", ["simulate", "--preset", name, "--n", "10000",
                                          "--seed", "7"]))
    (inputs / "degenerate_exact.json").write_text(
        ExperimentFile(exact=DEGENERATE).dumps(), encoding="utf-8"
    )
    # The counts inputs are the simulate cases' own stdout.
    for name, argv in list(cases):
        code, out, _ = run(argv)
        assert code == 0, (name, code)
        (inputs / f"{name.split('_')[1]}_counts.json").write_text(out, encoding="utf-8")
    for stem in [f"{p}_{kind}" for p in sorted(PRESETS) for kind in ("exact", "counts")] + [
        "degenerate_exact"
    ]:
        for command in ("analyze", "reconstruct", "balance"):
            cases.append((f"{command}_{stem}", [command, f"inputs/{stem}.json"]))
    cases.extend(FLAG_CASES.items())
    for stem, counts in (("empty_counts", EMPTY_COUNTS), ("sparse_counts", SPARSE_COUNTS)):
        (inputs / f"{stem}.json").write_text(
            ExperimentFile(counts=counts).dumps(), encoding="utf-8"
        )
        for command in ("analyze", "balance"):
            cases.append((f"{command}_{stem}", [command, f"inputs/{stem}.json"]))
    (inputs / "degenerate_bootstrap_counts.json").write_text(
        ExperimentFile(counts=DEGENERATE_BOOTSTRAP_COUNTS).dumps(), encoding="utf-8"
    )
    cases.append(("analyze_degenerate_bootstrap_counts",
                  ["analyze", "inputs/degenerate_bootstrap_counts.json",
                   "--bootstrap-replicates", "1", "--seed", "1"]))
    code, out, _ = run(SIZES_ARGV)
    assert code == 0, ("simulate_e1_sizes", code)
    (inputs / "e1_sizes_counts.json").write_text(out, encoding="utf-8")
    cases.append(("simulate_e1_sizes", SIZES_ARGV))
    for command in ("analyze", "balance"):
        cases.append((f"{command}_e1_sizes_counts", [command, "inputs/e1_sizes_counts.json"]))
    for stem, model in VERDICT_MODELS.items():
        exact = ExperimentFile(exact=exact_statistics(model), model=model)
        (inputs / f"{stem}_exact.json").write_text(exact.dumps(), encoding="utf-8")
        for command in ("analyze", "reconstruct"):
            cases.append((f"{command}_{stem}_exact", [command, f"inputs/{stem}_exact.json"]))
    (inputs / "huge_counts.json").write_text(huge_counts_text(), encoding="utf-8")
    cases.extend(ENSEMBLE_BOUND_CASES.items())
    cases.extend((name, ["sweep", *argv]) for name, argv in SWEEPS.items())
    cases.extend(USAGE_CASES.items())
    cases.extend(FOREIGN_FLAG_CASES.items())
    cases.extend(PARSE_ERROR_CASES.items())

    manifest = []
    for name, argv in cases:
        code, out, err = run(argv)
        (root / "expected" / f"{name}.out").write_bytes(out.encode("utf-8"))
        if code != 0:
            (root / "expected" / f"{name}.err").write_bytes(err.encode("utf-8"))
        manifest.append({"name": name, "argv": argv, "exit": code})
    (root / "cases.json").write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    return manifest


def changed_files(root: Path) -> list[str]:
    """Corpus files, relative to this directory, that differ from those under ``root``."""
    def files(base: Path) -> set[str]:
        return {str(path.relative_to(base)) for sub in ("inputs", "expected")
                for path in (base / sub).iterdir()} | {"cases.json"}

    ours, theirs = files(HERE), files(root)
    return sorted(name for name in ours | theirs if name not in ours or name not in theirs
                  or not filecmp.cmp(HERE / name, root / name, shallow=False))


def check() -> int:
    """Print each file a rewrite would change, add or remove; 1 if there is one."""
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        os.chdir(root)
        build(root)
        changed = changed_files(root)
        os.chdir(HERE)
    for name in changed:
        print(name)
    return 1 if changed else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Write the golden CLI corpus.")
    parser.add_argument("--check", action="store_true",
                        help="write nothing; list the files a rewrite would change")
    check_only = parser.parse_args().check
    os.environ["COLUMNS"] = "80"
    if check_only:
        sys.exit(check())
    os.chdir(HERE)  # case argv name inputs relative to this directory
    for case in build(HERE):
        print(case["exit"], case["name"], file=sys.stderr)
