"""Command-line interface: subcommands, formats, exit codes."""

import argparse
import ast
import contextlib
import csv
import io
import itertools
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ctxprob
from ctxprob import ContextStatistics, ExperimentFile, TransitionMatrix
from ctxprob.cli import _csv_chunks, _parse, build_parser, main
from ctxprob.models import random_model

GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))
COMMANDS = ["analyze", "simulate", "sweep", "reconstruct", "balance"]
COMMAND_CASES = [case for case in GOLDEN_CASES if case["argv"] and case["argv"][0] in COMMANDS]

E1_STATS = ContextStatistics(
    (0.5, 0.5), TransitionMatrix(((0.5, 0.5), (0.5, 0.5))), (0.75, 0.25)
)
E2_STATS = ContextStatistics(
    (0.3, 0.7), TransitionMatrix(((0.2, 0.8), (0.6, 0.4))), (0.48, 0.52)
)
E3_STATS = ContextStatistics(
    (0.5, 0.5), TransitionMatrix(((0.8, 0.2), (0.2, 0.8))), (1.0, 0.0)
)


@pytest.fixture
def exact_file(tmp_path):
    def write(stats, name="exact.json"):
        path = tmp_path / name
        path.write_text(ExperimentFile(exact=stats).dumps())
        return str(path)

    return write


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


class TestAnalyze:
    def test_e1_full_report(self, exact_file, capsys):
        code, report = run_json(capsys, ["analyze", exact_file(E1_STATS)])
        assert code == 0
        assert report["lambda"]["point"] == pytest.approx([0.5, -0.5], abs=1e-12)
        assert report["theory_class"]["kind"] == "trigonometric"
        assert report["balance"]["is_double_stochastic"] is True
        assert "amplitudes" in report
        assert report["born_residual"] <= 1e-12
        assert report["phases"][0]["theta"] == pytest.approx(math.pi / 3, abs=1e-12)

    def test_e2_classical_not_balanced(self, exact_file, capsys):
        code, report = run_json(capsys, ["analyze", exact_file(E2_STATS)])
        assert code == 0
        assert report["lambda"]["point"] == [0.0, 0.0]
        assert report["theory_class"]["kind"] == "classical"
        assert report["balance"]["is_double_stochastic"] is False
        assert report["balance"]["column_residuals"] == pytest.approx([0.2, 0.2], abs=1e-12)
        assert "amplitudes" in report

    def test_e3_hyperbolic_without_amplitudes(self, exact_file, capsys):
        code, report = run_json(capsys, ["analyze", exact_file(E3_STATS)])
        assert code == 0
        assert report["lambda"]["point"] == pytest.approx([1.25, -1.25], abs=1e-12)
        assert report["theory_class"]["kind"] == "hyperbolic"
        assert "amplitudes" not in report

    def test_missing_file_is_invalid_input(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "absent.json")]) == 1

    def test_malformed_file_is_invalid_input(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{")
        assert main(["analyze", str(path)]) == 1

    @pytest.mark.parametrize(
        "model",
        [
            {"lambda": [0.1, 0.2, 0.3]},
            {"prior": 5},
            {"transition": [[0.8, 0.2], 7]},
        ],
        ids=["three-lambdas", "scalar-prior", "scalar-row"],
    )
    def test_malformed_model_descriptor_is_invalid_input(self, tmp_path, capsys, model):
        payload = json.loads(ExperimentFile(exact=E1_STATS).dumps())
        payload["model"] = {
            "family": "synthetic",
            "prior": [0.5, 0.5],
            "transition": [[0.8, 0.2], [0.2, 0.8]],
            "lambda": [0.5, -0.5],
            **model,
        }
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload))
        assert main(["analyze", str(path)]) == 1
        assert capsys.readouterr().err.startswith("ctxprob: invalid input: ")

    def test_degenerate_statistics_exit_two(self, exact_file, capsys):
        stats = ContextStatistics(
            (0.5, 0.5), TransitionMatrix(((1.0, 0.0), (0.0, 1.0))), (0.6, 0.4)
        )
        assert main(["analyze", exact_file(stats)]) == 2

    def test_counts_report_includes_interval(self, tmp_path, capsys):
        assert main([
            "simulate", "--preset", "e1", "--n", "20000", "--seed", "7",
            "--output", str(tmp_path / "run.json"),
        ]) == 0
        code, report = run_json(capsys, ["analyze", str(tmp_path / "run.json")])
        assert code == 0
        lam = report["lambda"]
        assert lam["ci_low"][0] <= lam["point"][0] <= lam["ci_high"][0]
        assert lam["replicates"] == 1000
        assert report["theory_class"]["kind"] == "trigonometric"

    def test_eps_class_override_on_counts(self, tmp_path, capsys):
        out = str(tmp_path / "run.json")
        assert main(["simulate", "--preset", "e1", "--n", "50000", "--seed", "5",
                     "--output", out]) == 0
        # a band above one half puts coefficients of magnitude ~0.5 within it of both
        # 0 and 1: boundary, not classical
        code, report = run_json(capsys, ["analyze", out, "--eps-class", "0.51"])
        assert code == 0
        assert report["theory_class"] == {"kind": "boundary", "boundary_components": [1, 2]}
        assert "amplitudes" not in report

    def test_oversized_bootstrap_is_refused_before_any_draw(self, tmp_path, monkeypatch,
                                                            capsys):
        out = str(tmp_path / "run.json")
        assert main(["simulate", "--preset", "e1", "--n", "100", "--seed", "7",
                     "--output", out]) == 0

        def no_draws(*path):
            raise AssertionError(f"substream {path} made for a refused bootstrap")

        monkeypatch.setattr(ctxprob.sampling, "substream", no_draws)
        assert main(["analyze", out, "--bootstrap-replicates", "1000001"]) == 1
        assert "a bootstrap takes at most 1000000 replicates" in capsys.readouterr().err

    def test_replicate_cap_admits_exactly_its_size(self, tmp_path, monkeypatch, capsys):
        out = str(tmp_path / "run.json")
        assert main(["simulate", "--preset", "e1", "--n", "100", "--seed", "7",
                     "--output", out]) == 0
        monkeypatch.setattr(ctxprob.sampling, "MAX_BOOTSTRAP_REPLICATES", 5)
        code, report = run_json(capsys, ["analyze", out, "--bootstrap-replicates", "5"])
        assert code == 0 and report["lambda"]["replicates"] == 5
        assert main(["analyze", out, "--bootstrap-replicates", "6"]) == 1

    def test_analyze_output_is_reproducible(self, tmp_path, exact_file, capsys):
        source = exact_file(E1_STATS)
        out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
        assert main(["analyze", source, "--output", out1]) == 0
        assert main(["analyze", source, "--output", out2]) == 0
        assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()


class TestSimulate:
    def test_reruns_are_byte_identical(self, tmp_path):
        argv = [
            "simulate", "--model", "qubit",
            "--alpha", "0.5235988", "--phi", "1.5707963", "--b-rotation", "0.7853982",
            "--n", "50000", "--seed", "7",
        ]
        assert main(argv + ["--output", str(tmp_path / "a.json")]) == 0
        assert main(argv + ["--output", str(tmp_path / "b.json")]) == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_classical_preset_analyze_interval_contains_zero(self, tmp_path, capsys):
        out = str(tmp_path / "e2.json")
        assert main([
            "simulate", "--model", "classical", "--preset", "e2",
            "--n", "100000", "--seed", "1", "--output", out,
        ]) == 0
        code, report = run_json(capsys, ["analyze", out])
        assert code == 0
        assert report["lambda"]["ci_low"][0] <= 0.0 <= report["lambda"]["ci_high"][0]
        assert report["lambda"]["ci_low"][1] <= 0.0 <= report["lambda"]["ci_high"][1]

    def test_custom_points_and_sizes(self, tmp_path, capsys):
        out = str(tmp_path / "c.json")
        assert main([
            "simulate", "--model", "classical",
            "--points", "0.5:0:0,0.5:1:1",
            "--n", "100", "--n-context", "250", "--seed", "3", "--output", out,
        ]) == 0
        record = ExperimentFile.loads((tmp_path / "c.json").read_text())
        assert record.counts.sizes == (250, 100, 100, 100)

    @pytest.mark.parametrize(
        "transition, message",
        [
            ("0.5,0.5", "transition must be 't11,t12;t21,t22'"),
            ("0.5,0.5;0.5", "transition row 2 needs exactly 2 comma-separated values"),
            ("0.5,0.5;0.5,0.4", "transition row 2 must sum to 1, got 0.5 + 0.4 = 0.9"),
        ],
        ids=["one-row", "short-row", "unnormalized"],
    )
    def test_synthetic_transition_is_parsed_row_by_row(self, transition, message, capsys):
        assert main(["simulate", "--model", "synthetic", "--prior", "0.5,0.5",
                     "--transition", transition, "--lambda", "0,0"]) == 1
        assert capsys.readouterr().err == f"ctxprob: invalid input: {message}\n"

    def test_preset_family_mismatch(self, capsys):
        assert main(["simulate", "--model", "qubit", "--preset", "e2"]) == 1

    def test_missing_model_flags(self, capsys):
        assert main(["simulate"]) == 1
        assert main(["simulate", "--model", "qubit"]) == 1

    def test_degenerate_model_exit_two(self, tmp_path, capsys):
        assert main([
            "simulate", "--model", "qubit", "--alpha", "0.0", "--phi", "0.0",
            "--b-rotation", "0.0", "--n", "10", "--seed", "1",
            "--output", str(tmp_path / "x.json"),
        ]) == 2

    def test_infeasible_synthetic_exit_three(self, tmp_path, capsys):
        assert main([
            "simulate", "--model", "synthetic", "--lambda", "2.0,-2.0",
            "--output", str(tmp_path / "x.json"),
        ]) == 3

    @pytest.mark.parametrize("argv, value", [
        (["simulate", "--model", "synthetic", "--n", "10",
          "--lambda=-1.2345678901234567e+300,1.2345678901234567e+300"], "-4.9382715604938274e+299"),
        (["sweep", "--family", "synthetic", "--lambda1=-1.2345678901234567e+300"],
         "-4.9382715604938274e+299"),
        (["simulate", "--model", "synthetic", "--n", "100",
          "--prior", "0.2735661416463548,0.7264338583536452", "--transition",
          "0.886982307393567,0.11301769260643302;0.11301769260643302,0.886982307393567",
          "--lambda=-1.25,1.25"], "-0.028109752364421592"),
        # Column 2's weight is zero, so its coefficient is never range-checked.
        (["simulate", "--model", "synthetic", "--n", "10", "--prior", "0.3,0.7",
          "--transition", "1,0;0.5,0.5", "--lambda=-0.0012345678901234567,-1.2345678901234567e+300"],
         "(-0.0012345678901234567, -1.2345678901234567e+300)"),
    ], ids=["predicted-24", "sweep-predicted-24", "predicted-21", "unbalanced-target-24"])
    def test_infeasible_data_is_one_line_of_at_most_160_characters(self, argv, value, capsys):
        # A float's repr takes up to 24 characters, and each message echoes them in full.
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("ctxprob: infeasible data: ") and value in err
        assert err.count("\n") == 1 and len(err) - 1 <= 160


class TestSweep:
    def test_qubit_sweep_columns_and_classes(self, tmp_path):
        out = str(tmp_path / "sweep.csv")
        assert main([
            "sweep", "--family", "qubit",
            "--alpha", "0.0:1.5707963267948966:7", "--phi", "1.5707963",
            "--output", out,
        ]) == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header == [
            "alpha", "phi", "b_rotation", "b_phase",
            "p1", "p2", "p11", "p12", "p21", "p22", "p1a", "p2a",
            "lambda1", "lambda2", "theta1", "theta2", "class", "col_residual_max",
        ]
        assert len(lines) == 8
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[header.index("class")] in ("trigonometric", "boundary", "classical")
            assert float(fields[header.index("col_residual_max")]) <= 1e-12

    def test_synthetic_sweep_covers_all_regimes(self, tmp_path):
        out = str(tmp_path / "syn.csv")
        assert main([
            "sweep", "--family", "synthetic", "--lambda1", "0,0.5,1.25",
            "--output", out,
        ]) == 0
        lines = (tmp_path / "syn.csv").read_text().splitlines()
        classes = [line.split(",")[-2] for line in lines[1:]]
        assert classes == ["classical", "trigonometric", "hyperbolic"]

    def test_sweep_is_deterministic(self, tmp_path):
        argv = ["sweep", "--family", "qubit", "--alpha", "0.1,0.9", "--phi", "0.3"]
        assert main(argv + ["--output", str(tmp_path / "a.csv")]) == 0
        assert main(argv + ["--output", str(tmp_path / "b.csv")]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_classical_sweep_is_all_classical(self, tmp_path):
        out = str(tmp_path / "cls.csv")
        assert main([
            "sweep", "--family", "classical", "--count", "5", "--seed", "11",
            "--output", out,
        ]) == 0
        lines = (tmp_path / "cls.csv").read_text().splitlines()
        assert len(lines) == 6
        assert all(line.split(",")[-2] == "classical" for line in lines[1:])

    @given(seed=st.integers(0, 2**64 - 1), before=st.lists(st.integers(0, 150), min_size=2,
                                                          max_size=2),
           after=st.lists(st.integers(0, 150), min_size=2, max_size=2))
    @example(seed=64, before=[0, 1], after=[0, 63])
    @example(seed=2**64 - 1, before=[130, 0], after=[0, 0])
    @settings(max_examples=30, deadline=None)
    def test_a_seed_has_one_row_in_every_classical_sweep(self, seed, before, after):
        rows = set()
        for back, ahead in zip(before, after):
            first, last = max(seed - back, 0), min(seed + ahead, 2**64 - 1)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(["sweep", "--family", "classical", f"--seed={first}",
                             f"--count={last - first + 1}"]) == 0
            rows.add(out.getvalue().splitlines()[1 + seed - first])
        assert len(rows) == 1
        assert rows.pop().startswith(f"{seed},")

    @pytest.mark.parametrize("seed, count, bad", [
        (-1, 2, -1), (-100, 300, -100), (2**64 - 2, 3, 2**64), (2**64 - 70, 200, 2**64),
        (2**64, 1, 2**64),
    ], ids=["negative", "negative-long", "past-the-top", "past-the-top-long", "top"])
    def test_classical_sweep_names_its_first_bad_seed(self, seed, count, bad, capsys):
        assert main(["sweep", "--family", "classical", "--seed", str(seed),
                     "--count", str(count)]) == 1
        assert capsys.readouterr().err == (
            f"ctxprob: invalid input: seed must be in [0, 2^64), got {bad}\n"
        )

    def test_classical_sweep_builds_at_most_two_models(self, monkeypatch, capsys):
        # Row 0 and the first failing row are replayed; no other model is built.
        calls = []

        def counted(kind, seed):
            calls.append(seed)
            return random_model(kind, seed)

        monkeypatch.setattr(ctxprob.cli, "random_model", counted)
        assert main(["sweep", "--family", "classical", "--count", "400", "--seed", "9"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 401
        assert calls == [9]

    def test_empty_grid_exit_one(self, capsys):
        assert main(["sweep", "--family", "qubit", "--alpha", "0:1:0"]) == 1
        assert main(["sweep", "--family", "synthetic"]) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["--family", "qubit", "--alpha", "0:1:1000000000000"],
            ["--family", "qubit", "--alpha", "0:1:1000", "--phi", "0:1:1000",
             "--b-rotation", "0:1:1000"],
            ["--family", "synthetic", "--lambda1", "0:1:1000000000000"],
            ["--family", "classical", "--count", "1000000000000"],
        ],
    )
    def test_oversized_sweep_is_refused_before_it_is_built(self, argv, capsys):
        # None of these point sets would fit in memory: the count is checked first.
        assert main(["sweep", *argv]) == 1
        assert "a sweep takes at most 1000000 points" in capsys.readouterr().err

    def test_point_cap_admits_exactly_its_size(self, monkeypatch, capsys):
        monkeypatch.setattr(ctxprob.cli, "MAX_SWEEP_POINTS", 6)
        qubit = ["sweep", "--family", "qubit"]
        assert main([*qubit, "--alpha", "0:1:3", "--phi", "0,1"]) == 0
        assert main([*qubit, "--alpha", "0:1:7"]) == 1
        assert main([*qubit, "--alpha", "0,1,2,3,4,5,6"]) == 1
        assert main([*qubit, "--alpha", "0:1:3", "--phi", "0,1", "--b-phase", "0,1"]) == 1
        assert main(["sweep", "--family", "synthetic", "--lambda1", "0:1:7"]) == 1
        assert main(["sweep", "--family", "classical", "--count", "6"]) == 0
        assert main(["sweep", "--family", "classical", "--count", "7"]) == 1

    def test_a_failing_last_point_writes_no_output(self, tmp_path, capsys):
        # lambda1 = 1.5, the last point of the line, is infeasible.
        argv = ["sweep", "--family", "synthetic", "--lambda1", "0:1.5:4", "--output"]
        absent, present = tmp_path / "absent.csv", tmp_path / "present.csv"
        present.write_bytes(b"earlier,bytes\n")
        assert main([*argv, str(absent)]) == 3
        assert main([*argv, str(present)]) == 3
        assert not absent.exists()
        assert present.read_bytes() == b"earlier,bytes\n"
        assert capsys.readouterr().out == ""

    def test_a_large_qubit_sweep_stays_in_bounded_memory(self, tmp_path):
        # 10^5 points in a fresh process, which reports its own peak RSS (ru_maxrss,
        # KiB on Linux).
        src = str(Path(ctxprob.__file__).resolve().parents[1])
        out = tmp_path / "sweep.csv"
        code = ("import resource, sys; from ctxprob.cli import main; code = main(sys.argv[1:]); "
                "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")
        argv = ["sweep", "--family", "qubit", "--alpha", "0.1:1.4:20", "--phi", "0:3:50",
                "--b-rotation", "0.1:1.4:10", "--b-phase", "0:3:10", "--output", str(out)]
        proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                              text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
        exit_code, peak_kib = map(int, proc.stdout.split())
        assert exit_code == 0, proc.stderr
        with open(out, encoding="utf-8") as handle:
            assert sum(1 for _ in handle) == 10**5 + 1
        assert peak_kib / 1024 <= 110


# Floats whose repr changes form (1e-05, 0.0001, 1e16, 9999999999999998.0), both
# zeros, subnormals, extremes and their neighbours one ulp away.
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                1e-05, 0.0001, 1e16, 9999999999999998.0, 0.1, 1.0, -1.0, math.pi]
_EDGE_FLOATS += [math.nextafter(x, s) for x in _EDGE_FLOATS for s in (-math.inf, math.inf)]
_CLASS_NAMES = ["classical", "trigonometric", "hyperbolic", "boundary"]
_FIELDS = {
    "float": st.sampled_from(_EDGE_FLOATS) | st.floats(),
    "int": st.integers(-(2**65), 2**65),
    "class": st.sampled_from(_CLASS_NAMES),
}
_FIELDS["mixed"] = st.one_of(*_FIELDS.values())


def _csv_module_text(header, rows):
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def test_cli_holds_no_family_statistics_code():
    # Each family's statistics are built in models: cli calls a family's block builder
    # there, imports none, and never defines, imports or reads the pieces they share.
    tree = ast.parse(Path(ctxprob.cli.__file__).read_text(encoding="utf-8"))
    names = {getattr(node, key, None) for node in ast.walk(tree) for key in ("id", "attr", "name")}
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert names.isdisjoint({"born", "qubit_state", "qubit_basis", "interference_terms"})
    assert imported.isdisjoint({"qubit_rows", "synthetic_rows", "random_classical_rows"})


class TestSweepWriter:
    @given(
        data=st.data(),
        kinds=st.lists(st.sampled_from(sorted(_FIELDS)), min_size=1, max_size=6),
        count=st.integers(0, 12),
        chunk=st.integers(1, 13),
    )
    @settings(max_examples=200, deadline=None)
    def test_text_is_what_the_csv_module_writes(self, data, kinds, count, chunk):
        rows = [[data.draw(_FIELDS[kind]) for kind in kinds] for _ in range(count)]
        header = [f"c{i}" for i in range(len(kinds))]
        # A column of floats is float64, as the sweep's are; any other is an object array.
        columns = [[row[i] for row in rows] for i in range(len(kinds))]
        columns = [np.array(column, float if all(type(v) is float for v in column) else object)
                   for column in columns]
        with mock.patch.object(ctxprob.cli, "SWEEP_CHUNK_ROWS", chunk):
            text = "".join(_csv_chunks(header, columns))
        assert text == _csv_module_text(header, rows)

    @pytest.mark.parametrize("chunk", [1, 3, 12, 13])
    def test_chunk_size_does_not_change_the_bytes(self, chunk, monkeypatch, capsys):
        # The grid has N = 12 points.
        argv = ["sweep", "--family", "qubit", "--alpha", "-0.0,0.0,0.5", "--phi", "0.0,-0.0",
                "--b-rotation", "-0.0,0.3"]
        assert main(argv) == 0
        unpatched = capsys.readouterr().out
        assert len(unpatched.splitlines()) == 13
        monkeypatch.setattr(ctxprob.cli, "SWEEP_CHUNK_ROWS", chunk)
        assert main(argv) == 0
        assert capsys.readouterr().out == unpatched


class TestReconstruct:
    def test_e1_lift(self, exact_file, capsys):
        code, payload = run_json(capsys, ["reconstruct", exact_file(E1_STATS)])
        assert code == 0
        assert payload["born_residual"] <= 1e-12
        psi1 = complex(*payload["amplitudes"]["psi"][0])
        assert abs(psi1) ** 2 == pytest.approx(0.75, abs=1e-12)

    def test_hyperbolic_file_exit_three(self, exact_file, capsys):
        assert main(["reconstruct", exact_file(E3_STATS)]) == 3

    def test_counts_file_is_invalid_input(self, tmp_path, capsys):
        out = str(tmp_path / "counts.json")
        assert main(["simulate", "--preset", "e1", "--n", "100", "--seed", "2",
                     "--output", out]) == 0
        assert main(["reconstruct", out]) == 1

    def test_agrees_with_analyze_beyond_unit_band(self, exact_file, capsys):
        # eps_class > 1 puts |lambda| > 1 within the band of both 0 and 1: both
        # commands read boundary, and neither lifts.
        stats = ContextStatistics(
            (0.1, 0.9), TransitionMatrix(((0.05, 0.95), (0.85, 0.15))), (0.53, 0.47)
        )
        path = exact_file(stats)
        code, report = run_json(capsys, ["analyze", path, "--eps-class", "2.5"])
        assert code == 0
        assert report["theory_class"] == {"kind": "boundary", "boundary_components": [1, 2]}
        assert max(map(abs, report["lambda"]["point"])) > 1.0
        assert "amplitudes" not in report and "born_residual" not in report
        assert main(["reconstruct", path, "--eps-class", "2.5"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("ctxprob: infeasible data: statistics classify as boundary; "
                                "no amplitude lift exists\n")


class TestBalance:
    def test_exact_balanced(self, exact_file, capsys):
        code, payload = run_json(capsys, ["balance", exact_file(E1_STATS)])
        assert code == 0
        assert payload["is_double_stochastic"] is True

    def test_exact_unbalanced(self, exact_file, capsys):
        code, payload = run_json(capsys, ["balance", exact_file(E2_STATS)])
        assert code == 0
        assert payload["is_stochastic"] is True
        assert payload["is_double_stochastic"] is False
        assert payload["column_residuals"] == pytest.approx([0.2, 0.2], abs=1e-12)

    def test_counts_input(self, tmp_path, capsys):
        out = str(tmp_path / "counts.json")
        assert main(["simulate", "--preset", "e1", "--n", "5000", "--seed", "4",
                     "--output", out]) == 0
        code, payload = run_json(capsys, ["balance", out])
        assert code == 0
        assert payload["row_residuals"] == pytest.approx([0.0, 0.0], abs=1e-15)

    def test_tolerance_flag_loosens_verdict(self, exact_file, capsys):
        code, payload = run_json(
            capsys, ["balance", exact_file(E2_STATS), "--tolerance", "0.5"]
        )
        assert code == 0
        assert payload["is_double_stochastic"] is True

    def test_labels_that_are_not_strings_are_named(self, tmp_path, capsys):
        payload = json.loads(ExperimentFile(exact=E1_STATS).dumps())
        payload["observables"][0]["values"] = [0, 1]
        path = tmp_path / "numeric_labels.json"
        path.write_text(json.dumps(payload))
        assert main(["balance", str(path)]) == 1
        assert capsys.readouterr().err == (
            "ctxprob: invalid input: observable 'A' labels must be two nonempty strings, "
            "got (0, 1)\n"
        )


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert main(["transmogrify"]) == 1

    def test_no_arguments(self, capsys):
        assert main([]) == 1

    def test_negative_seed_is_invalid(self, exact_file, tmp_path, capsys):
        assert main(["simulate", "--preset", "e1", "--seed", "-3",
                     "--output", str(tmp_path / "x.json")]) == 1

    @pytest.mark.parametrize("argv", [
        ["sweep", "--family", "synthetic", "--lambda1", "-1.25:1.25:11"],
        ["sweep", "--family", "qubit", "--b-rot", "-0.3:0.3:3"],
        ["sweep", "--family", "qubit", "--alpha", "-0.5:0.5:3", "--phi", "-1e-3",
         "--b-rotation", "-.7", "--b-phase", "-0.2,0.2"],
        ["simulate", "--model", "synthetic", "--lambda", "-1.25,1.25", "--n", "100"],
        ["simulate", "--model", "qubit", "--alpha", "-0.5", "--phi", "-1e-3",
         "--b-rotation", "-.7", "--b-phase", "-0.2", "--n", "100"],
        ["balance", "INPUT", "--tolerance", "-0e-3"],
        ["analyze", "INPUT", "--tolerance", "-0e-3", "--eps-class", "-0e-3"],
        ["reconstruct", "INPUT", "--eps-class", "-0e-3"],
        ["sweep", "--family", "classical", "--count", "2", "--eps-class", "-0e-3"],
    ])
    def test_signed_values_in_two_token_form(self, argv, exact_file, capsys):
        argv = [exact_file(E1_STATS) if token == "INPUT" else token for token in argv]
        joined = []
        for token in argv:
            if token[:1] == "-" and token[1:2] != "-":
                joined[-1] += "=" + token
            else:
                joined.append(token)
        assert main(argv) == 0
        two_token = capsys.readouterr().out
        assert main(joined) == 0
        assert capsys.readouterr().out == two_token

    @pytest.mark.parametrize("command, flag", [
        ("balance", "--tolerance"),
        ("analyze", "--tolerance"),
        ("analyze", "--eps-class"),
        ("reconstruct", "--eps-class"),
        ("sweep", "--eps-class"),
    ])
    def test_negative_value_with_exponent_is_checked_in_both_forms(
        self, command, flag, exact_file, capsys
    ):
        leading = (["--family", "classical", "--count", "1"] if command == "sweep"
                   else [exact_file(E1_STATS)])
        name = flag[2:].replace("-", "_")
        for tokens in ([flag, "-1e-3"], [f"{flag}=-1e-3"]):
            assert main([command, *leading, *tokens]) == 1
            assert capsys.readouterr().err == (
                f"ctxprob: invalid input: {name} must be >= 0, got -0.001\n"
            )

    @pytest.mark.parametrize("command, flag", [
        ("simulate", "--tolerance"),
        ("simulate", "--eps-class"),
        ("simulate", "--bootstrap-replicates"),
        ("sweep", "--tolerance"),
        ("sweep", "--bootstrap-replicates"),
        ("reconstruct", "--tolerance"),
        ("reconstruct", "--bootstrap-replicates"),
        ("reconstruct", "--seed"),
        ("balance", "--eps-class"),
        ("balance", "--bootstrap-replicates"),
        ("balance", "--seed"),
    ])
    def test_flag_the_subcommand_does_not_read(self, command, flag, exact_file, capsys):
        leading = {
            "simulate": ["--preset", "e1"],
            "sweep": ["--family", "classical", "--count", "1"],
        }.get(command, [exact_file(E1_STATS)])
        assert main([command, *leading, flag, "1"]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err


class _UnlabelledError(ctxprob.CtxprobError):
    """A subclass that sets neither attribute: it inherits the base's."""


#: README's exit codes and stderr labels, one row per error class.
EXIT_STATUSES = {
    ctxprob.CtxprobError: (1, "error"),
    ctxprob.ValidationError: (1, "invalid input"),
    ctxprob.DegenerateContextError: (2, "degenerate statistics"),
    ctxprob.InfeasibleLambdaError: (3, "infeasible data"),
    _UnlabelledError: (1, "error"),
}


def test_the_table_names_every_error_class():
    names = {cls.__name__ for cls in EXIT_STATUSES}
    assert names == {*ctxprob.errors.__all__, "_UnlabelledError"}
    # One class per exit status: a class that shares its row with another is one too many.
    statuses = [EXIT_STATUSES[getattr(ctxprob.errors, name)] for name in ctxprob.errors.__all__]
    assert len(set(statuses)) == len(statuses)


@pytest.mark.parametrize("error", list(EXIT_STATUSES), ids=lambda cls: cls.__name__)
def test_each_error_class_exits_with_its_status(error, exact_file, monkeypatch, capsys):
    def handler(args):
        raise error("boom")

    help_text, add_flags, _ = ctxprob.cli._COMMANDS["balance"]
    monkeypatch.setitem(ctxprob.cli._COMMANDS, "balance", (help_text, add_flags, handler))
    code, label = EXIT_STATUSES[error]
    assert main(["balance", exact_file(E1_STATS)]) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"ctxprob: {label}: boom\n")


@pytest.mark.parametrize(
    "stem, path, value",
    [
        ("e1_counts", ("counts", "seed"), 10**400),
        ("e1_counts", ("counts", "n_context"), 10**400),
        ("e1_counts", ("counts", "a_counts"), [10**400, 0]),
        ("e1_counts", ("format_version",), 10**400),
        ("e1_counts", ("model", "family"), 10**400),
        ("e2_counts", ("model", "points", 0, "a"), 10**400),
        ("e1_counts", ("observables", 0, "values"), [10**400, "a2"]),
        ("e1_counts", ("model", "phi"), [10**400]),
        ("e2_counts", ("model", "points", 0, "weight"), [10**400]),
    ],
    ids=["seed", "ensemble-size", "tally-sum", "format-version", "model-family", "a-value",
         "labels", "phi", "weight"],
)
def test_an_oversized_value_is_echoed_in_one_short_line(stem, path, value, tmp_path, capsys):
    payload = json.loads((GOLDEN / "inputs" / f"{stem}.json").read_text(encoding="utf-8"))
    node = payload
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    file = tmp_path / "big.json"
    file.write_text(json.dumps(payload), encoding="utf-8")
    for command in ("analyze", "balance"):
        assert main([command, str(file)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and len(lines[0]) <= 200, lines


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--family", "synthetic", "--lambda1", "0:1:" + "9" * 300],
        ["simulate", "--preset", "e" + "1" * 300],
        ["simulate", "--model", "synthetic", "--lambda", "x" * 300 + ",1"],
        ["sweep", "--family", "qubit", "--alpha", "1," + "y" * 300],
        ["simulate", "--model", "classical", "--points", "0.5:" + "z" * 300 + ":1"],
    ],
    ids=["grid-count", "preset", "float-list", "grid-list", "point"],
)
def test_an_oversized_flag_value_is_echoed_in_one_short_line(argv, capsys):
    assert main(argv) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and len(lines[0]) <= 200, lines


@pytest.mark.parametrize(
    "argv",
    [
        ["x" * 300],
        ["simulate", "--model", "x" * 300],
        ["sweep", "--family", "x" * 300],
        ["simulate", "--model", "qubit", "--alpha", "y" * 300],
        ["sweep", "--family", "classical", "--count", "z" * 300],
        ["simulate", "--preset", "e1", "w" * 300],
    ],
    ids=["command", "model-choice", "family-choice", "float", "int", "unrecognized"],
)
def test_an_oversized_token_in_a_usage_error_is_echoed_short(argv, capsys):
    # argparse's own messages: the usage lines, then one error line
    assert main(argv) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines[0].startswith("usage: ") and len(lines[-1]) <= 200, lines


@pytest.mark.parametrize("command", ["analyze", "reconstruct", "balance"])
class TestUnreadableInput:
    def test_bytes_that_are_not_utf8(self, command, tmp_path, capsys):
        path = tmp_path / "latin.json"
        path.write_bytes(b"\xff\xfe{}")
        assert main([command, str(path)]) == 1
        assert capsys.readouterr().err.startswith("ctxprob: invalid input: ")

    def test_json_nested_beyond_the_recursion_limit(self, command, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert main([command, str(path)]) == 1
        assert capsys.readouterr().err.startswith("ctxprob: invalid input: ")

    @pytest.mark.parametrize("zeros, message", [
        (400, "prior[1] must be finite, got an integer too large for a float\n"),
        # Python refuses to read an integer literal of more than 4300 digits.
        (5000, "not valid JSON: Exceeds the limit (4300 digits)"),
    ], ids=["float-range", "digit-limit"])
    def test_huge_integer(self, command, zeros, message, tmp_path, capsys):
        payload = json.loads((GOLDEN / "inputs" / "e1_exact.json").read_text(encoding="utf-8"))
        payload["exact"]["prior"] = ["HUGE", 0]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(payload).replace('"HUGE"', "1" + "0" * zeros))
        assert main([command, str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"ctxprob: invalid input: {message}")
        assert err.count("\n") == 1

    def test_a_path_is_shown_as_its_repr(self, command, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        Path("a\nb.json").write_bytes(b"\xff")
        assert main([command, "a\nb.json"]) == 1
        assert main([command, "a\nc.json"]) == 1
        assert capsys.readouterr().err == (
            "ctxprob: invalid input: 'a\\nb.json' is not UTF-8 text: 'utf-8' codec can't "
            "decode byte 0xff in position 0: invalid start byte\n"
            "ctxprob: invalid input: cannot read 'a\\nc.json': No such file or directory\n")

    def test_a_long_path_is_cut(self, command, tmp_path, capsys):
        path = str(tmp_path / ("x" * 5000))
        assert main([command, path]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"ctxprob: invalid input: cannot read {repr(path)[:77]}...: ")
        assert err.count("\n") == 1 and len(err) <= 141


def test_an_unwritable_long_output_path_is_cut(tmp_path, capsys):
    output = str(tmp_path / "missing-dir" / ("y" * 3000))
    assert main(["analyze", str(GOLDEN / "inputs" / "e1_exact.json"), "--output", output]) == 1
    assert capsys.readouterr().err == (
        f"ctxprob: i/o error: [Errno 2] No such file or directory: {repr(output)[:77]}...\n"
    )


def test_an_unwritable_output_path_is_shown_whole(tmp_path, monkeypatch, capsys):
    # the errno text does not count towards the 80 characters of the path
    monkeypatch.chdir(tmp_path)
    output = "results-2026-10-20/analysis-of-the-e1-instance.json"
    assert main(["analyze", str(GOLDEN / "inputs" / "e1_exact.json"), "--output", output]) == 1
    assert capsys.readouterr().err == (
        f"ctxprob: i/o error: [Errno 2] No such file or directory: '{output}'\n"
    )


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that is always full")
def test_an_output_write_error_without_a_path_is_shown(capsys):
    # a failed write names no file: the error is shown as str(exc); a device is
    # written straight through, so no file is made beside it
    before = sorted(os.listdir("/dev"))
    assert main(["balance", str(GOLDEN / "inputs" / "e1_exact.json"), "--output", "/dev/full"]) == 1
    assert capsys.readouterr().err == "ctxprob: i/o error: [Errno 28] No space left on device\n"
    assert sorted(os.listdir("/dev")) == before


class TestOutputIsAllOrNothing:
    SWEEP = ["sweep", "--family", "synthetic", "--lambda1", "-0.9:0.9:20"]

    @pytest.fixture
    def failing_chunks(self, monkeypatch):
        """Make a sweep's CSV writer raise ``error`` after ``k`` chunks of 3 rows."""
        monkeypatch.setattr(ctxprob.cli, "SWEEP_CHUNK_ROWS", 3)

        def install(error, k):
            def chunks(*args):
                yield from itertools.islice(_csv_chunks(*args), k)
                raise error

            monkeypatch.setattr(ctxprob.cli, "_csv_chunks", chunks)

        return install

    @pytest.mark.parametrize("k", [0, 3])
    @pytest.mark.parametrize("earlier", [None, b"earlier,bytes\n"], ids=["absent", "present"])
    @pytest.mark.parametrize("error, code, err", [
        (OSError(28, "No space left on device"), 1,
         "ctxprob: i/o error: [Errno 28] No space left on device\n"),
        (KeyboardInterrupt(), 130, "ctxprob: interrupted\n"),
    ], ids=["enospc", "sigint"])
    def test_a_failed_write_leaves_the_target_as_it_was(self, failing_chunks, tmp_path, capsys,
                                                        k, earlier, error, code, err):
        target = tmp_path / "sweep.csv"
        if earlier is not None:
            target.write_bytes(earlier)
        failing_chunks(error, k)
        assert main([*self.SWEEP, "--output", str(target)]) == code
        assert capsys.readouterr() == ("", err)
        assert os.listdir(tmp_path) == ([] if earlier is None else ["sweep.csv"])
        if earlier is not None:
            assert target.read_bytes() == earlier


    @pytest.mark.parametrize("to_output", [False, True], ids=["stdout", "output"])
    def test_a_broken_pipe_is_quiet_on_stdout_only(self, failing_chunks, tmp_path, capsys,
                                                   to_output):
        failing_chunks(BrokenPipeError(32, "Broken pipe"), 3)
        target = ["--output", str(tmp_path / "sweep.csv")] if to_output else []
        code = main([*self.SWEEP, *target])
        err = capsys.readouterr().err
        if to_output:
            assert (code, err) == (1, "ctxprob: i/o error: [Errno 32] Broken pipe\n")
        else:
            assert (code, err) == (141, "")

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_a_new_file_has_the_mode_open_gives(self, tmp_path, umask):
        previous = os.umask(umask)
        try:
            assert main([*self.SWEEP, "--output", str(tmp_path / "new.csv")]) == 0
            with open(tmp_path / "reference.csv", "w"):
                pass
        finally:
            os.umask(previous)
        modes = [(tmp_path / name).stat().st_mode for name in ("new.csv", "reference.csv")]
        assert modes[0] == modes[1]

    def test_a_replaced_file_is_whole_and_keeps_its_mode(self, tmp_path, capsys):
        target = tmp_path / "sweep.csv"
        target.write_bytes(b"earlier,bytes\n" * 100)
        target.chmod(0o640)
        assert main([*self.SWEEP, "--output", str(target)]) == 0
        assert main(self.SWEEP) == 0
        assert target.read_text() == capsys.readouterr().out
        assert target.stat().st_mode & 0o7777 == 0o640
        assert os.listdir(tmp_path) == ["sweep.csv"]

    def test_a_symlink_is_written_through(self, tmp_path):
        target, link = tmp_path / "sweep.csv", tmp_path / "link.csv"
        target.write_bytes(b"earlier,bytes\n")
        link.symlink_to(target)
        assert main([*self.SWEEP, "--output", str(link)]) == 0
        assert link.is_symlink() and target.read_text().startswith("target_lambda1,")
        assert sorted(os.listdir(tmp_path)) == ["link.csv", "sweep.csv"]

    def test_an_empty_path_is_named_as_given_and_leaves_no_file(self, tmp_path, monkeypatch,
                                                                 capsys):
        # '' names no file, so the error names '' rather than a new file beside it
        monkeypatch.chdir(tmp_path)
        argv = ["balance", str(GOLDEN / "inputs" / "e1_exact.json"), "--output="]
        errors = []
        for _ in range(2):
            assert main(argv) == 1
            errors.append(capsys.readouterr().err)
        assert errors == ["ctxprob: i/o error: [Errno 2] No such file or directory: ''\n"] * 2
        assert os.listdir(tmp_path) == []


def _outcome(parse, argv):
    """What ``parse(argv)`` returns or exits with, and prints."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parse(argv)
        except SystemExit as exc:
            result = ("exit", exc.code)
    return _plain(result), out.getvalue(), err.getvalue()


def _plain(result):
    """``result`` with each namespace as the repr of its sorted items, so that a
    nan flag value equals itself."""
    if isinstance(result, argparse.Namespace):
        return repr(sorted(vars(result).items()))
    return tuple(map(_plain, result)) if isinstance(result, tuple) else result


def _subparsers(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


# Separators, abbreviations, repeated flags, missing values, help, stray positionals,
# empty values and values that look like options.
AWKWARD_ARGVS = [
    ["balance", "--", "x.json"],
    ["balance", "x.json", "--"],
    ["balance", "--", "--tolerance"],
    ["analyze", "--", "-x.json"],
    ["balance", "x.json", "--tol", "0.1"],
    ["analyze", "x.json", "--tol", "1e-3", "--eps", "0.1"],
    ["sweep", "--fam", "qubit"],
    ["sweep", "--family", "qubit", "--b-rot", "0.1,0.2"],
    ["simulate", "--pre", "e1"],
    ["simulate", "--pr", "e1"],
    ["balance", "--he"],
    ["sweep", "--he"],
    ["balance", "x.json", "--h"],
    ["balance", "x.json", "--tolerance", "0.1", "--tolerance", "0.2"],
    ["simulate", "--seed", "1", "--seed", "2", "--preset", "e1"],
    ["balance", "x.json", "--tolerance"],
    ["sweep", "--family"],
    ["balance"],
    ["balance", "-h"],
    ["reconstruct", "-h", "x.json"],
    ["balance", "x.json", "y.json"],
    ["sweep", "--family", "qubit", "stray"],
    ["simulate", "balance"],
    ["balance", "x.json", "-x"],
    ["balance", "x.json", "--output="],
    ["analyze", "x.json", "--output=", "--seed", "3"],
    ["balance", "x.json", "--tolerance", "-1e-3"],
    ["balance", "x.json", "--tolerance=-1e-3"],
    ["analyze", "x.json", "--bootstrap-replicates", "1e3"],
    ["simulate", "--model", "qubit", "--alpha", "-1"],
    ["sweep", "--family", "synthetic", "--lambda1=-1:1:3"],
    ["balance", "--output", "o.json", "x.json"],
]


class TestParser:
    def test_a_subcommand_call_builds_only_its_own_parser(self, exact_file, monkeypatch,
                                                          capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert main(["balance", exact_file(E1_STATS)]) == 0
        assert built == ["ctxprob balance"]  # six with every subcommand

    @pytest.mark.parametrize("argv", [case["argv"] for case in COMMAND_CASES],
                             ids=[case["name"] for case in COMMAND_CASES])
    def test_one_subcommand_parses_as_the_full_parser(self, argv):
        alone = _outcome(build_parser(argv[0]).parse_known_args, argv[1:])
        assert alone == _outcome(build_parser().parse_known_args, argv)

    @pytest.mark.parametrize("command", [None, *COMMANDS])
    def test_parsers_read_signed_tokens_as_values(self, command):
        # argparse's private hook: a Python without it must fail here, not read
        # "--tolerance -1e-3" as two options.
        assert argparse.ArgumentParser()._negative_number_matcher.match("-1")
        parser = build_parser(command)
        parsers = [parser, *_subparsers(parser).values()] if command is None else [parser]
        for each in parsers:
            assert all(map(each._negative_number_matcher.match, ["-1e-3", "-.5", "-1:1:3"]))
            assert not each._has_negative_number_optionals

    @pytest.mark.parametrize("command", COMMANDS)
    def test_subcommand_help_does_not_depend_on_its_siblings(self, command):
        alone, full = build_parser(command), _subparsers(build_parser())[command]
        assert alone.format_help() == full.format_help()
        assert alone.format_usage() == full.format_usage()

    @pytest.mark.parametrize("argv", AWKWARD_ARGVS, ids=" ".join)
    def test_parse_agrees_with_the_full_parser(self, argv, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        assert _outcome(_parse, argv) == _outcome(build_parser().parse_args, argv)

    @pytest.mark.parametrize("command, parsers", [(None, 6), *((c, 1) for c in COMMANDS)])
    def test_each_parser_asks_the_terminal_width_once(self, command, parsers, monkeypatch):
        # argparse alone asks once for every flag added: 49 times for the full parser.
        asked = []
        size = shutil.get_terminal_size
        monkeypatch.setattr(shutil, "get_terminal_size", lambda *a: asked.append(a) or size(*a))
        build_parser(command)
        assert len(asked) == parsers

    def test_help_wraps_to_the_width_of_each_call(self, monkeypatch, capsys):
        helps = []
        for columns in ("40", "132"):
            monkeypatch.setenv("COLUMNS", columns)
            assert main(["simulate", "--help"]) == 0
            helps.append(capsys.readouterr().out)
        assert helps[0] != helps[1]


@pytest.mark.parametrize("argv", [
    ["sweep", "--family", "synthetic", "--lambda1", "0:0.9:200000"],  # fails mid-write
    ["balance", str(GOLDEN / "inputs" / "e1_exact.json")],  # fails at the flush
], ids=["sweep", "balance"])
def test_a_closed_stdout_exits_141_with_nothing_on_stderr(argv):
    src = str(Path(ctxprob.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    read_end, write_end = os.pipe()
    os.close(read_end)  # as `| head -1` leaves it, but before any byte is written
    try:
        proc = subprocess.run([sys.executable, "-m", "ctxprob", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, "")


@pytest.mark.parametrize("module", ["ctxprob", "ctxprob.cli"])
def test_python_dash_m_runs_main(module, tmp_path):
    src = str(Path(ctxprob.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = tmp_path / "x.json"
    proc = subprocess.run(
        [sys.executable, "-m", module, "simulate", "--preset", "e1", "--n", "100",
         "--output", str(out)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert ExperimentFile.loads(out.read_text()).counts.sizes[0] == 100
