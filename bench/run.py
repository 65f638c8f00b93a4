"""Benchmark of the ctxprob command line, end to end and layer by layer.

Run from the root of a checkout:

    python3 bench/run.py --workload {bootstrap,sweep,cli-mix} --seed N \\
        --seconds S --trace {0,1}

The package is driven only through ``ctxprob.cli.main(argv)``, inside a
fresh workload interpreter (``worker.py``) that imports it from ``src``,
writes the seeded inputs, warms up, and then runs ops in a closed loop for
``--seconds``, checking every output.  Fresh-interpreter probes of set-up
time and cold start (or, when tracing, import time) are spread over the run.

Every end-to-end time is scaled to a fixed host speed.  Op latencies and
set-up times are multiplied by ``REFERENCE_S`` over the median of the five
timings of a fixed reference computation (``worker.reference``) taken
nearest to them.  Each cold start is multiplied by ``START_REFERENCE_S``
over the time of a fresh ``python3 -c "import numpy"`` run right after it,
because starting a process costs the same kinds of work in both.  Host
speed drifts by up to 1.9x on a shared machine, and the scaled times cancel
that drift.

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` the
loop also runs every op a second time with tracing on, and the per-layer
metrics are printed instead.  Human-readable lines come first; the last line
of stdout is one JSON object ``{correct, attempted, failed, metrics}``.
Exit code 2 means the checkout holds no ``src/ctxprob`` to benchmark.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

TAIL_BEYOND = 10
# The reference computation's time at the host speed that times are scaled
# to: its median on the quiet host described in README.md.
REFERENCE_S = 4.5e-3
START_REFERENCE_S = 0.2
NEAREST_REFERENCES = 5
WORKLOADS = ("bootstrap", "sweep", "cli-mix")
BENCH_DIR = Path(__file__).resolve().parent

END_TO_END = {
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "cold_start_ms": "ms",
}

# Per-layer metrics, per timed op of the traced run unless the unit says
# otherwise.  ``<layer>.calls``, ``.busy_ms`` and ``.self_ms`` come from spans.
LAYER_FIELDS = {
    "rng.substream": ("calls", "busy_ms"),
    "sampling.estimate_lambda": ("calls", "busy_ms", "self_ms"),
    "sampling.simulate_counts": ("calls", "busy_ms"),
    "sampling.estimate_statistics": ("calls", "busy_ms"),
    "validation": ("calls", "busy_ms"),
    "calculus.lambda_from_statistics": ("calls", "busy_ms"),
    "calculus.classify_theory": ("calls", "busy_ms"),
    "calculus.check_balance": ("calls", "busy_ms"),
    "calculus.phase_parametrization": ("calls", "busy_ms"),
    "models.exact_statistics": ("calls", "busy_ms"),
    "models.random_model": ("calls", "busy_ms"),
    "amplitudes.lift_to_amplitudes": ("calls", "busy_ms"),
    "report.analyze_exact": ("calls", "busy_ms", "self_ms"),
    "report.analyze_estimated": ("calls", "busy_ms", "self_ms"),
    "report.report_to_dict": ("calls", "busy_ms"),
    "io.ExperimentFile.loads": ("calls", "busy_ms"),
    "io.canonical_dumps": ("calls", "busy_ms"),
    "cli.main": ("busy_ms", "self_ms"),
    "cli.build_parser": ("busy_ms",),
}
FIELD_UNITS = {"calls": "count/op", "busy_ms": "ms/op", "self_ms": "ms/op"}
PER_LAYER = {
    **{f"{layer}.{field}": FIELD_UNITS[field]
       for layer, fields in LAYER_FIELDS.items() for field in fields},
    "sampling.replicates": "count/op",
    "sampling.bootstrap_failed_frac": "ratio",
    "io.bytes_read": "B/op",
    "io.bytes_written": "B/op",
    "import.ctxprob_cli_ms": "ms",
    "import.numpy_ms": "ms",
    "trace.ops": "count",
    "trace.overhead": "ratio",
}


def tail_percentile(values: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ``beyond`` samples above it.

    With n sorted samples that is the (beyond+1)-th largest, at percentile
    100*(n-beyond)/n.  With too few samples the maximum is returned at 100.
    """
    ordered = sorted(values)
    if len(ordered) <= beyond:
        return ordered[-1], 100.0
    k = len(ordered) - beyond - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def speed_factors(references: list, times: list[float],
                  nearest: int = NEAREST_REFERENCES) -> list[float]:
    """Per time, ``REFERENCE_S`` over the median of the ``nearest`` reference timings.

    ``references`` holds ``[time, seconds]`` pairs in time order.  A factor
    above one means the host ran slower than the reference speed.
    """
    ref_times = [t for t, _ in references]
    factors = []
    for t in times:
        i = bisect.bisect_left(ref_times, t)
        window = sorted(references[max(0, i - nearest):i + nearest], key=lambda r: abs(r[0] - t))
        factors.append(REFERENCE_S / statistics.median(s for _, s in window[:nearest]))
    return factors


def _scaled(samples: list, references: list) -> list[float]:
    """``[time, seconds]`` samples as seconds at the reference host speed."""
    factors = speed_factors(references, [t for t, _ in samples])
    return [s * f for (_, s), f in zip(samples, factors)]


def _end_to_end(result: dict) -> dict:
    references = result["references"]
    latencies = _scaled(list(zip(result["starts"], result["latencies"])), references)
    setups = _scaled(result["setups"], references)
    colds = [1e3 * c * START_REFERENCE_S / r for c, r in result["cold_starts"]]
    failed_ops = {f["op"] for f in result["failures"]}
    ok = [1e3 * x for i, x in enumerate(latencies) if i not in failed_ops]
    if not ok:
        raise RuntimeError("no operation succeeded")
    tail, percentile = tail_percentile(ok)
    busy = sum(latencies)
    values = {
        "throughput_ops_s": len(ok) / busy,
        "latency_p50_ms": statistics.median(ok),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        "setup_s": statistics.median(setups),
        "cold_start_ms": statistics.median(colds),
    }
    raw_ok = [1e3 * x for i, x in enumerate(result["latencies"]) if i not in failed_ops]
    speeds = [REFERENCE_S / s for _, s in references]
    print(f"host speed: {len(references)} reference timings, reference/measured "
          f"median {statistics.median(speeds):.3f}, range {min(speeds):.3f}..{max(speeds):.3f}; "
          f"unscaled latency_p50_ms {statistics.median(raw_ok):.4f}, "
          f"setup_s {statistics.median(s for _, s in result['setups']):.4f}, "
          f"cold_start_ms {1e3 * statistics.median(c for c, _ in result['cold_starts']):.4f}; "
          f"start-up reference median "
          f"{1e3 * statistics.median(r for _, r in result['cold_starts']):.4f} ms")
    notes = {
        "throughput_ops_s": f"n={len(ok)} ops completed in {busy:.3f} s busy",
        "latency_p50_ms": f"n={len(ok)}",
        "peak_rss_mb": "n=1 workload process",
        "setup_s": f"median of n={len(setups)} fresh interpreters",
        "cold_start_ms": f"median of n={len(colds)} fresh interpreters",
    }
    for name, unit in END_TO_END.items():
        print(f"{name:<18} {values[name]:>12.4f} {unit:<4} ({notes[name]})")
    # The tail and the error rate are printed but not declared.  The tail of
    # short ops counts the shared host's stalls, so from run to run it spreads
    # wider than any allowed bound; an error rate of 0 has no share to bound.
    print(f"{'latency_tail_ms':<18} {tail:>12.4f} ms   "
          f"(p{percentile:.2f}, n={len(ok)}, {TAIL_BEYOND} samples beyond)")
    attempted = len(latencies)
    print(f"{'error_rate':<18} {len(failed_ops) / attempted:>12.4f}      "
          f"({len(failed_ops)} of {attempted} attempted)")
    return values


def _per_layer(result: dict) -> dict:
    ops = result["attempted"]
    layers = result["layers"]
    values = {}
    for layer, fields in LAYER_FIELDS.items():
        calls, busy, own = layers.get(layer, (0, 0.0, 0.0))
        per_field = {"calls": calls, "busy_ms": 1e3 * busy, "self_ms": 1e3 * own}
        for field in fields:
            values[f"{layer}.{field}"] = per_field[field] / ops
    sampling = result["sampling"]
    values["sampling.replicates"] = sampling["replicates"] / ops
    values["sampling.bootstrap_failed_frac"] = (
        sampling["failed"] / sampling["replicates"] if sampling["replicates"] else 0.0
    )
    values["io.bytes_read"] = result["bytes_read"] / ops
    values["io.bytes_written"] = result["bytes_written"] / ops
    values["import.ctxprob_cli_ms"] = statistics.median(result["import_ctxprob_ms"])
    values["import.numpy_ms"] = statistics.median(result["import_numpy_ms"])
    values["trace.ops"] = ops
    failed_ops = {f["op"] for f in result["failures"]}
    pairs = [(u, t) for i, (u, t) in enumerate(zip(result["latencies"], result["traced_latencies"]))
             if i not in failed_ops]
    if not pairs:
        raise RuntimeError("no operation succeeded")
    values["trace.overhead"] = 1.0 - sum(u for u, _ in pairs) / sum(t for _, t in pairs)
    for name, unit in PER_LAYER.items():
        print(f"{name:<40} {values[name]:>14.6f} {unit}")
    print(f"sampling.bootstrap_failed_frac base: {sampling['replicates']} replicates")
    # Coverage has a nominal level, not a better direction, so it is printed
    # but not declared as a metric.
    if sampling["intervals"]:
        print(f"sampling.ci_coverage {sampling['covered'] / sampling['intervals']:.4f} "
              f"({sampling['covered']} of {sampling['intervals']} 95% intervals contain "
              f"the generating model's coefficient)")
    else:
        print("sampling.ci_coverage n/a (no bootstrap intervals)")
    print(f"traced-vs-untraced digest mismatches: {result['digest_mismatches']}; "
          f"spans whose self time exceeds the parent's duration: "
          f"{result['self_time_violations']}")
    return values


def run(args, root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    spans = root / ".bench_out" / f"{args.workload}.spans.tsv"
    argv = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--work", str(work), "--mode", "run"]
    if args.trace:
        spans.parent.mkdir(exist_ok=True)
        argv += ["--spans", str(spans)]
    try:
        launched = time.monotonic()
        # The worker leads its own session, so a timeout kills its probes too.
        with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, start_new_session=True) as proc:
            try:
                stdout, stderr = proc.communicate(timeout=args.seconds + 120)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                raise
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process failed ({proc.returncode}):\n{stderr}")
    result = json.loads(stdout.strip().splitlines()[-1])
    result["setups"].append([launched, result["t_ready"] - launched])

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} digest={result['digest']}")
    for failure in result["failures"]:
        print(f"FAILED op {failure['op']} ({failure['kind']} {' '.join(failure['argv'])}): "
              + "; ".join(failure["problems"]))
    for problem in result["probe_problems"]:
        print(f"FAILED probe: {problem}")
    correct = not result["failures"] and not result["probe_problems"]
    if args.trace:
        values = _per_layer(result)
        units = PER_LAYER
        correct = correct and result["digest_mismatches"] == 0
        correct = correct and result["self_time_violations"] == 0
    else:
        values = _end_to_end(result)
        units = END_TO_END
    return {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": len(result["failures"]),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "ctxprob" / "cli.py").is_file():
        print(f"bench: no src/ctxprob under {root}; run from a checkout root", file=sys.stderr)
        return 2
    print(json.dumps(run(args, root)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
