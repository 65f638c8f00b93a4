"""Write the golden CLI corpus: inputs, expected stdout bytes and exit codes.

Run from the repository root with ``PYTHONPATH=src python tests/golden/make_corpus.py``.
It rewrites ``inputs/``, ``expected/`` and ``cases.json`` next to this file from
the current code.  ``tests/test_golden.py`` replays every case and requires the
same bytes and exit code, so regenerate only for a deliberate output change and
record that change in ``CHANGES.md``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

from ctxprob import ContextStatistics, ExperimentFile, TransitionMatrix, exact_statistics
from ctxprob.cli import PRESETS, main

HERE = Path(__file__).resolve().parent

# Prior (1, 0) with a nonzero deviation: the inversion has no coefficient (exit 2).
DEGENERATE = ContextStatistics(
    (1.0, 0.0), TransitionMatrix(((0.5, 0.5), (0.5, 0.5))), (0.75, 0.25)
)

SWEEPS = {
    "sweep_qubit": [
        "--family", "qubit", "--alpha", "0:1.5:4", "--phi", "0,1.5707963267948966",
        "--b-rotation", "0.3,0.7853981633974483", "--b-phase", "0:3:2",
    ],
    "sweep_qubit_flags": [
        "--family", "qubit", "--alpha", "0.2:1.2:3", "--phi", "0.5",
        "--eps-class", "0.01", "--tolerance", "1e-3",
    ],
    "sweep_synthetic": ["--family", "synthetic", "--lambda1=-1.25:1.25:11"],
    "sweep_synthetic_flags": [
        "--family", "synthetic", "--prior", "0.3,0.7", "--transition", "0.2,0.8;0.6,0.4",
        "--lambda1=-0.4:0.4:9", "--eps-class", "0.05",
    ],
    "sweep_synthetic_infeasible": ["--family", "synthetic", "--lambda1", "0,2"],
    "sweep_classical": ["--family", "classical", "--count", "6", "--seed", "3"],
}

FLAG_CASES = {
    "analyze_e1_exact_flags": ["analyze", "inputs/e1_exact.json", "--eps-class", "0.1",
                               "--tolerance", "1e-3"],
    "analyze_e2_counts_flags": ["analyze", "inputs/e2_counts.json",
                                "--bootstrap-replicates", "200", "--seed", "11"],
    "analyze_e3_counts_eps": ["analyze", "inputs/e3_counts.json", "--eps-class", "0.05"],
    "reconstruct_e1_exact_eps": ["reconstruct", "inputs/e1_exact.json", "--eps-class", "0.3"],
    "balance_e2_counts_tol": ["balance", "inputs/e2_counts.json", "--tolerance", "0.3"],
}


def run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def build() -> list[dict]:
    for sub in ("inputs", "expected"):
        shutil.rmtree(HERE / sub, ignore_errors=True)
        (HERE / sub).mkdir()
    cases: list[tuple[str, list[str]]] = []
    inputs = HERE / "inputs"
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
        code, out = run(argv)
        assert code == 0, (name, code)
        (inputs / f"{name.split('_')[1]}_counts.json").write_text(out, encoding="utf-8")
    for stem in [f"{p}_{kind}" for p in sorted(PRESETS) for kind in ("exact", "counts")] + [
        "degenerate_exact"
    ]:
        for command in ("analyze", "reconstruct", "balance"):
            cases.append((f"{command}_{stem}", [command, f"inputs/{stem}.json"]))
    cases.extend(FLAG_CASES.items())
    cases.extend((name, ["sweep", *argv]) for name, argv in SWEEPS.items())

    manifest = []
    for name, argv in cases:
        code, out = run(argv)
        (HERE / "expected" / f"{name}.out").write_bytes(out.encode("utf-8"))
        manifest.append({"name": name, "argv": argv, "exit": code})
    (HERE / "cases.json").write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    return manifest


if __name__ == "__main__":
    os.chdir(HERE)  # case argv name inputs relative to this directory
    for case in build():
        print(case["exit"], case["name"], file=sys.stderr)
