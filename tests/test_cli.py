"""Command-line interface: subcommands, formats, exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ctxprob
from ctxprob import ContextStatistics, ExperimentFile, TransitionMatrix
from ctxprob.cli import main

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
        # a half-unit band swallows coefficients of magnitude ~0.5
        code, report = run_json(capsys, ["analyze", out, "--eps-class", "0.51"])
        assert code == 0
        assert report["theory_class"]["kind"] == "classical"

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
        assert record.counts.n_context == 250
        assert record.counts.n_filtration == 100

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

    def test_empty_grid_exit_one(self, capsys):
        assert main(["sweep", "--family", "qubit", "--alpha", "0:1:0"]) == 1
        assert main(["sweep", "--family", "synthetic"]) == 1


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
        # eps_class > 1 reads |lambda| > 1 as classical; both commands then lift
        # the clamped phases under the same normalization bound.
        stats = ContextStatistics(
            (0.1, 0.9), TransitionMatrix(((0.05, 0.95), (0.85, 0.15))), (0.53, 0.47)
        )
        path = exact_file(stats)
        code, report = run_json(capsys, ["analyze", path, "--eps-class", "2.5"])
        assert code == 0
        assert report["theory_class"]["kind"] == "classical"
        code, payload = run_json(capsys, ["reconstruct", path, "--eps-class", "2.5"])
        assert code == 0
        assert payload["amplitudes"] == report["amplitudes"]
        assert payload["born_residual"] == report["born_residual"]
        assert payload["lambda"] == report["lambda"]["point"]


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


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert main(["transmogrify"]) == 1

    def test_no_arguments(self, capsys):
        assert main([]) == 1

    def test_negative_seed_is_invalid(self, exact_file, tmp_path, capsys):
        assert main(["simulate", "--preset", "e1", "--seed", "-3",
                     "--output", str(tmp_path / "x.json")]) == 1

    @pytest.mark.parametrize("command, flag", [
        ("simulate", "--tolerance"),
        ("simulate", "--eps-class"),
        ("simulate", "--bootstrap-replicates"),
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
    assert ExperimentFile.loads(out.read_text()).counts.n_context == 100
