"""Tests of the benchmark itself: run with ``python -m pytest bench``.

They cover the tail-percentile rule, self-time arithmetic, seeded workload
generation and the output checks that feed the error rate.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def test_tail_percentile_keeps_ten_samples_beyond():
    values = [float(v) for v in range(100, 0, -1)]
    assert run.tail_percentile(values) == (90.0, 90.0)
    assert run.tail_percentile(values[:11]) == (90.0, 100.0 / 11)
    assert run.tail_percentile([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_speed_factor_is_the_median_of_the_nearest_reference_timings():
    # The host runs at reference speed for t < 5, then at half speed; one
    # reference timing at t = 2 is a stall that the median ignores.
    ref = run.REFERENCE_S
    references = [[float(t), ref if t < 5 else 2 * ref] for t in range(10)]
    references[2][1] = 40 * ref
    assert run.speed_factors(references, [0.0, 2.0, 9.5], nearest=3) == [1.0, 1.0, 0.5]
    # Near the switch the window holds both speeds and the median decides.
    assert run.speed_factors(references, [4.4, 5.6], nearest=3) == [1.0, 0.5]


def test_self_times_subtract_the_union_of_clipped_children():
    # root [0, 10] has children a [1, 4] and b [3, 6], which overlap, and
    # c [9, 12], which runs past the root's end; a has child g [2, 3].
    start = [0.0, 1.0, 3.0, 9.0, 2.0]
    end = [10.0, 4.0, 6.0, 12.0, 3.0]
    parent = [-1, 0, 0, 0, 1]
    own = tracing.self_times(start, end, parent)
    assert own == [4.0, 2.0, 3.0, 3.0, 1.0]
    assert tracing.self_time_violations(start, end, parent, own) == 0
    # A child whose own time outlasts its parent is flagged.
    bad_start, bad_end, bad_parent = [0.0, 0.0], [1.0, 5.0], [-1, 0]
    bad_own = tracing.self_times(bad_start, bad_end, bad_parent)
    assert tracing.self_time_violations(bad_start, bad_end, bad_parent, bad_own) == 1


def _generated(name: str, seed: int, work: Path, count: int = 30):
    work.mkdir()
    warmup, ops = workloads.build(name, seed, work)
    files = {p.name: p.read_bytes() for p in sorted(work.iterdir())}
    argv = [
        tuple(arg.replace(str(work), "WORK") for arg in op.argv)
        for op in itertools.chain(warmup, itertools.islice(ops, count))
    ]
    return files, argv


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_workload_generation_is_deterministic_in_the_seed(name, tmp_path):
    first = _generated(name, 7, tmp_path / "a")
    assert first == _generated(name, 7, tmp_path / "b")
    assert first != _generated(name, 8, tmp_path / "c")


def _first_op(name: str, kind: str, work: Path) -> workloads.Op:
    work.mkdir(exist_ok=True)
    _, ops = workloads.build(name, 3, work)
    return next(op for op in ops if op.kind == kind)


def _bump_json(path):
    """Corrupt one number of a JSON output, addressed by ``path``."""

    def corrupt(text: str) -> str:
        payload = json.loads(text)
        *outer, last = path
        node = payload
        for key in outer:
            node = node[key]
        node[last] += 1e-6 if isinstance(node[last], float) else 1
        return json.dumps(payload)

    return corrupt


def _bump_csv_lambda1(text: str) -> str:
    lines = text.splitlines(keepends=True)
    cells = lines[1].split(",")
    cells[9] = repr(float(cells[9]) + 1e-6)  # lambda1, after one parameter column
    lines[1] = ",".join(cells)
    return "".join(lines)


@pytest.mark.parametrize(
    "name, kind, corrupt",
    [
        ("bootstrap", "analyze-counts", _bump_json(("lambda", "point", 0))),
        ("cli-mix", "analyze-exact", _bump_json(("lambda", "point", 1))),
        ("cli-mix", "reconstruct", _bump_json(("lambda", 0))),
        ("cli-mix", "balance-exact", _bump_json(("column_residuals", 0))),
        ("cli-mix", "balance-counts", _bump_json(("row_residuals", 1))),
        ("cli-mix", "simulate", _bump_json(("counts", "seed"))),
        ("sweep", "sweep-synthetic", _bump_csv_lambda1),
    ],
)
def test_checker_flags_a_corrupted_output(name, kind, corrupt, tmp_path):
    op = _first_op(name, kind, tmp_path)
    latency, code, text, digest, error = worker.execute(op)
    assert worker.problems_of(op, code, text, error) == []
    assert worker.problems_of(op, code, corrupt(text), error) != []


def test_unexpected_exit_code_is_a_failure(tmp_path):
    op = _first_op("cli-mix", "reconstruct-unliftable", tmp_path)
    latency, code, text, digest, error = worker.execute(op)
    assert code == workloads.EXIT_INFEASIBLE
    assert worker.problems_of(op, code, text, error) == []
    assert worker.problems_of(op, 0, text, error) != []


def test_tracing_rebinds_names_and_restores_them(tmp_path):
    import ctxprob.report
    import ctxprob.sampling

    op = _first_op("cli-mix", "analyze-counts", tmp_path)
    originals = (ctxprob.sampling.substream, ctxprob.report.estimate_lambda)
    tracer = tracing.Tracer()
    tracer.prepare()
    tracer.install(0)
    try:
        traced = worker.execute(op)
    finally:
        tracer.uninstall()
    assert (ctxprob.sampling.substream, ctxprob.report.estimate_lambda) == originals
    assert traced[3] == worker.execute(op)[3]
    calls = {name: entry[0] for name, entry in tracer.totals.items()}
    assert calls["cli.main"] == 1
    assert calls["rng.substream"] == workloads.MIX_REPLICATES
    assert calls["io.ExperimentFile.loads"] == 1
    assert tracer.bytes_read == len(Path(op.argv[1]).read_bytes())
    assert tracer.violations == 0


def test_benchmark_json_lists_the_metrics_run_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_missing_package_exits_nonzero(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run.main(["--workload", "sweep", "--seed", "1", "--seconds", "1"])
    assert code != 0 and "src/ctxprob" in err.getvalue()
