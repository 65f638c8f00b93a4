"""One workload process: set up, then run ops in a closed loop.

Started in a fresh interpreter by ``run.py`` with ``src`` on ``PYTHONPATH``.
``--mode setup`` stops once timing could begin; ``--mode run`` then runs ops
one after another (one caller, no extra threads) until ``--seconds`` have
passed, probes included.  With ``--trace 1`` every op runs twice, untraced
then traced, so the two output digests can be compared op by op and the
tracing overhead read off matched pairs.  The result is one JSON object on
stdout.

Host speed on a shared machine drifts over seconds, so the fresh-interpreter
probes (set-up and cold start, or import time when tracing) are spread evenly
over the run, between ops, rather than taken in one burst, and a fixed
reference computation that does not use ctxprob is timed between ops every
``REFERENCE_EVERY`` seconds.  ``run.py`` divides each timing by the host
speed those reference timings show around it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import re
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

import ctxprob.cli
import numpy as np

import checks
import tracing
import workloads

PROBES = 16  # cold starts (or import probes) per run; set-up probes are half as many
PROBE_TIMEOUT = 60
REFERENCE_EVERY = 0.2
COLD_START = "import sys; from ctxprob.cli import main; sys.exit(main(sys.argv[1:]))"
# A fresh interpreter that starts up and imports numpy, like a cold start,
# but runs no ctxprob code: the reference that cold starts are scaled by.
START_REFERENCE = "import numpy"
IMPORT_LINE = re.compile(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|\s+(\S.*)$")


def reference() -> float:
    """Time a fixed computation that does not touch ctxprob, in seconds.

    It mixes interpreted Python (dict and str work) with small numpy calls
    and ``SeedSequence`` generators, like the ops do, and takes about 4.5 ms
    on the host described in README.md.  Its time moves only with the speed
    of the host: garbage left by the ops is not collected inside it.
    """
    gc.disable()
    t0 = time.perf_counter()
    table, total = {}, 0
    for i in range(6000):
        table[i & 127] = table.get(i & 127, 0) + i
        total += len(str(i))
    rng = np.random.default_rng(np.random.SeedSequence(12345))
    for k in range(60):
        x = rng.random(64)
        total += float(np.sqrt(x * x.sum()).mean())
        np.random.default_rng(np.random.SeedSequence([7, k]))
    elapsed = time.perf_counter() - t0
    gc.enable()
    return elapsed


def execute(op: workloads.Op):
    """Run one op; return (latency seconds, exit code or None, text, digest, error)."""
    if op.output is not None:
        op.output.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = ctxprob.cli.main(list(op.argv))
        except Exception:  # the op failed; record it and keep running
            code, error = None, traceback.format_exc(limit=3)
        latency = time.perf_counter() - t0
    text = out.getvalue()
    if op.output is not None and op.output.exists():
        text = op.output.read_text(encoding="utf-8")
    digest = hashlib.sha256(f"{code}\n{text}".encode("utf-8")).hexdigest()
    return latency, code, text, digest, error


def problems_of(op: workloads.Op, code, text: str, error) -> list[str]:
    if error is not None:
        return [error.strip().splitlines()[-1]]
    if code != op.expect_exit:
        return [f"exit {code}, expected {op.expect_exit}"]
    try:
        return op.check(text)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return [f"malformed output: {exc!r}"]


class Sampling:
    """Bootstrap replicate, failure and CI-coverage counts read from reports."""

    def __init__(self) -> None:
        self.replicates = 0
        self.failed = 0
        self.intervals = 0
        self.covered = 0

    def observe(self, op: workloads.Op, text: str) -> None:
        if op.kind != "analyze-counts":
            return
        lam = json.loads(text)["lambda"]
        self.replicates += lam["replicates"]
        self.failed += lam["failed_replicates"]
        for j in range(2):
            self.intervals += 1
            self.covered += lam["ci_low"][j] <= op.truth[j] <= lam["ci_high"][j]


def _child(argv: list[str]) -> subprocess.CompletedProcess:
    # subprocess.run kills and reaps the child if the timeout expires.
    return subprocess.run(argv, capture_output=True, text=True, timeout=PROBE_TIMEOUT)


class Probes:
    """Fresh-interpreter measurements taken between ops."""

    def __init__(self, args) -> None:
        self.trace = args.trace
        self.setup_argv = [sys.executable, __file__, "--mode", "setup",
                           "--workload", args.workload, "--seed", str(args.seed),
                           "--seconds", "0", "--work", str(args.work / "setup")]
        (args.work / "setup").mkdir()
        self.cold = workloads.exact_file(args.seed, args.work / "cold-start.json")
        # A set-up probe is [monotonic start, seconds]; a cold start is
        # [seconds, seconds of the start-up reference run after it].
        self.results = {"setups": [], "cold_starts": [], "import_ctxprob_ms": [],
                        "import_numpy_ms": [], "probe_problems": []}

    def run(self, k: int) -> None:
        """Probe ``k`` of the run."""
        if self.trace:
            self._imports()
            return
        if k % 2 == 0:
            self._setup()
        self._cold_start()

    def _setup(self) -> None:
        launched = time.monotonic()
        proc = _child(self.setup_argv)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed ({proc.returncode}):\n{proc.stderr}")
        ready = json.loads(proc.stdout)["t_ready"]
        self.results["setups"].append([launched, ready - launched])

    def _cold_start(self) -> None:
        """One cold start and, right after it, one start-up reference."""
        t0 = time.monotonic()
        proc = _child([sys.executable, "-c", COLD_START, "balance", str(self.cold.path)])
        t1 = time.monotonic()
        reference_proc = _child([sys.executable, "-c", START_REFERENCE])
        self.results["cold_starts"].append([t1 - t0, time.monotonic() - t1])
        if proc.returncode != 0:
            problems = [f"cold start exited {proc.returncode}: {proc.stderr.strip()}"]
        else:
            problems = checks.check_balance(proc.stdout, self.cold.stats[1], graded=True)
        if reference_proc.returncode != 0:
            problems.append(f"start-up reference exited {reference_proc.returncode}")
        self.results["probe_problems"] += problems

    def _imports(self) -> None:
        """Cumulative import ms of ctxprob.cli (with ctxprob and numpy) and of numpy."""
        proc = _child([sys.executable, "-X", "importtime", "-c", "import ctxprob.cli"])
        cumulative = {}
        for line in proc.stderr.splitlines():
            match = IMPORT_LINE.match(line)
            if match:
                cumulative[match.group(2).strip()] = int(match.group(1)) / 1e3
        self.results["import_ctxprob_ms"].append(cumulative["ctxprob.cli"])
        self.results["import_numpy_ms"].append(cumulative["numpy"])


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run"), default="run")
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args()

    warmup, ops = workloads.build(args.workload, args.seed, args.work)
    for op in warmup:
        execute(op)
    # A shell user's process ends after one call, but this one lives on, and
    # each full collection would rescan every object of the imports and the
    # set-up (about 17 ms).  Exempt those; collections during the ops still
    # scan everything the ops leave behind.
    gc.freeze()
    t_ready = time.monotonic()
    result = {"t_ready": t_ready}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.prepare()
    probes = Probes(args)
    start = time.monotonic()
    deadline = start + args.seconds
    probe_at = [start + (k + 0.5) * args.seconds / PROBES for k in range(PROBES)]
    probed = 0
    references, next_reference = [], start
    starts, latencies, traced_latencies, failures = [], [], [], []
    chain = hashlib.sha256()
    attempted = mismatched = bytes_written = 0
    sampling = Sampling()
    while (now := time.monotonic()) < deadline:
        if probe_at and now >= probe_at[0]:
            probe_at.pop(0)
            probes.run(probed)
            probed += 1
            continue
        if now >= next_reference:
            references.append([now, reference()])
            next_reference = now + REFERENCE_EVERY
            continue
        op = next(ops)
        starts.append(time.monotonic())
        latency, code, text, digest, error = execute(op)
        problems = problems_of(op, code, text, error)
        if tracer is not None:
            tracer.install(attempted)
            try:
                traced = execute(op)
            finally:
                tracer.uninstall()
            traced_latencies.append(traced[0])
            if traced[3] != digest:
                mismatched += 1
                problems.append("traced output differs from untraced output")
        chain.update(digest.encode())
        latencies.append(latency)
        bytes_written += len(text.encode("utf-8"))
        if problems:
            failures.append({"op": attempted, "kind": op.kind,
                             "argv": list(op.argv), "problems": problems})
        else:
            sampling.observe(op, text)
        attempted += 1
    for k in range(probed, PROBES):
        probes.run(k)
    references.append([time.monotonic(), reference()])

    result.update(
        attempted=attempted,
        failures=failures,
        starts=starts,
        latencies=latencies,
        references=references,
        digest=chain.hexdigest(),
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        **probes.results,
    )
    if tracer is not None:
        result.update(
            traced_latencies=traced_latencies,
            digest_mismatches=mismatched,
            layers=tracer.totals,
            self_time_violations=tracer.violations,
            bytes_read=tracer.bytes_read,
            bytes_written=bytes_written,
            sampling=vars(sampling),
        )
        if args.spans is not None:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
