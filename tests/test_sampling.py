"""Finite-ensemble simulation, frequency estimation, bootstrap inference."""

import math
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import ctxprob.sampling
from ctxprob import (
    CountsRecord,
    DegenerateContextError,
    KolmogorovModel,
    LambdaPair,
    QubitModel,
    SyntheticModel,
    TheoryKind,
    TransitionMatrix,
    ValidationError,
    analyze_estimated,
    estimate_lambda,
    estimate_statistics,
    exact_statistics,
    lambda_from_statistics,
    simulate_counts,
)
from ctxprob._rng import ROLE_STUDY, substream
from ctxprob.calculus import invert_column
from ctxprob.io import ExperimentFile
from ctxprob.sampling import (
    _TWO_THREADS_FROM, CONFIDENCE, _bootstrap_frequencies, _linear_percentile
)

GOLDEN_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"

# The four experiments in role order, as every message about one names it.
EXPERIMENT_NAMES = ["A-on-context", "B-on-context", "A-on-filtered-1", "A-on-filtered-2"]

E1_MODEL = QubitModel(alpha=math.pi / 6, phi=math.pi / 2, b_rotation=math.pi / 4)
E2_MODEL = KolmogorovModel(
    weights=(0.06, 0.24, 0.42, 0.28), a_values=(0, 1, 0, 1), b_values=(0, 0, 1, 1)
)


def mean_abs_errors(model, sizes, runs, base_seed):
    """Mean ``(|lambda1_hat - lambda1|, |lambda2_hat - lambda2|)`` at each ensemble size.

    Returns a ``(len(sizes), 2)`` array.  Run ``k`` at size index ``i`` simulates
    on a seed drawn from substream ``(base_seed, ROLE_STUDY, i, k)``.
    """
    truth = lambda_from_statistics(exact_statistics(model))
    means = []
    for size_index, n in enumerate(sizes):
        errors = np.empty((runs, 2))
        for k in range(runs):
            run_seed = int(substream(base_seed, ROLE_STUDY, size_index, k).integers(0, 2**63))
            lam = lambda_from_statistics(estimate_statistics(simulate_counts(model, n, run_seed)))
            errors[k] = (abs(lam[0] - truth[0]), abs(lam[1] - truth[1]))
        means.append(errors.mean(axis=0))
    return np.array(means)


def e2_proportional_counts(n=10000):
    """Tallies exactly proportional to the E2 probabilities."""
    return CountsRecord(
        sizes=(n, n, n, n),
        tallies=tuple((int(p * n), n - int(p * n)) for p in (0.48, 0.3, 0.2, 0.6)),
        seed=0,
    )


class TestSimulateCounts:
    def test_determinism(self):
        first = simulate_counts(E1_MODEL, 1000, seed=7)
        second = simulate_counts(E1_MODEL, 1000, seed=7)
        assert first == second

    def test_seed_changes_draws(self):
        first = simulate_counts(E1_MODEL, 1000, seed=7)
        second = simulate_counts(E1_MODEL, 1000, seed=8)
        assert first != second

    def test_unit_ensembles_give_one_hot_tallies(self):
        counts = simulate_counts(E1_MODEL, 1, seed=3)
        for pair in counts.tallies:
            assert sorted(pair) == [0, 1]

    def test_large_run_lands_within_three_sigma(self):
        # binomial sigma at p=0.75, n=1e6 is ~4.3e-4; freeze the 3-sigma band
        counts = simulate_counts(E1_MODEL, 10**6, seed=7)
        assert abs(counts.tallies[0][0] / 10**6 - 0.75) < 0.0013

    def test_zero_filtration_is_rejected(self):
        model = QubitModel(alpha=0.0, phi=0.0, b_rotation=0.0)  # state = b1 exactly
        with pytest.raises(DegenerateContextError, match="B-outcome 2 is zero"):
            simulate_counts(model, 100, seed=0)

    def test_sizes_must_be_positive(self):
        message = "^A-on-context ensemble size must be >= 1, got 0$"
        with pytest.raises(ValidationError, match=message):
            simulate_counts(E1_MODEL, 0, seed=0)

    def test_tallies_must_sum_to_sizes(self):
        with pytest.raises(ValidationError):
            CountsRecord(sizes=(10, 10, 10, 10), tallies=((4, 5), (5, 5), (5, 5), (5, 5)), seed=0)

    @pytest.mark.parametrize(
        "position, pair, message",
        [
            (0, 5, "A-on-context counts must be a pair of integers"),
            (1, None, "B-on-context counts must be a pair of integers"),
            (3, 7, "A-on-filtered-2 counts must be a pair of integers"),
            (0, (1.5, 8.5), "A-on-context count must be an integer, got 1.5"),
        ],
        ids=["a_counts", "b_counts", "a_counts_given-2", "a_counts-floats"],
    )
    def test_non_pair_counts_are_invalid(self, position, pair, message):
        tallies = [(5, 5)] * 4
        tallies[position] = pair
        with pytest.raises(ValidationError, match=f"^{message}$"):
            CountsRecord(sizes=(10, 10, 10, 10), tallies=tallies, seed=0)

    @pytest.mark.parametrize("sizes, tallies", [
        ((10, 10, 10), ((5, 5),) * 4),
        ((10,) * 5, ((5, 5),) * 4),
        (10, ((5, 5),) * 4),
        ((10,) * 4, ((5, 5),) * 3),
        ((10,) * 4, ((5, 5),) * 5),
        ((10,) * 4, 5),
    ], ids=["three-sizes", "five-sizes", "int-sizes", "three-tallies", "five-tallies",
            "int-tallies"])
    def test_sizes_and_tallies_not_four_are_invalid(self, sizes, tallies):
        # io checks for two filtered contexts first, so only a library caller gets here.
        shape = "^counts need four ensemble sizes and four tally pairs, one per experiment$"
        with pytest.raises(ValidationError, match=shape):
            CountsRecord(sizes=sizes, tallies=tallies, seed=0)

    @pytest.mark.parametrize("sizes", [10.0, None, "10", (10, 10, 5), (10,) * 5],
                             ids=["float", "none", "string", "three", "five"])
    def test_sizes_not_one_int_or_four_are_invalid(self, sizes):
        shape = "^ensemble sizes must be one integer or four, one per experiment$"
        with pytest.raises(ValidationError, match=shape):
            simulate_counts(E1_MODEL, sizes, seed=0)

    def test_four_equal_sizes_are_one_size(self):
        assert simulate_counts(E1_MODEL, [10, 10, 10, 10], 3) == simulate_counts(E1_MODEL, 10, 3)

    def test_string_ensemble_size_is_invalid(self):
        message = "^A-on-context ensemble size must be an integer, got '10'$"
        with pytest.raises(ValidationError, match=message):
            simulate_counts(E1_MODEL, ("10", 10, 10, 10), seed=0)

    @pytest.mark.parametrize("position", range(4),
                             ids=["n_context", "n_filtration", "n_filtered", "n_filtered-2"])
    def test_boolean_ensemble_size_is_rejected(self, position):
        sizes = [1, 1, 1, 1]
        sizes[position] = True
        with pytest.raises(ValidationError, match="ensemble size"):
            CountsRecord(sizes=sizes, tallies=((1, 0),) * 4, seed=0)

    @pytest.mark.parametrize("position", range(4))
    def test_sizes_are_bounded_at_a_c_long(self, position):
        # numpy's binomial draw takes a C long: 2^63 - 1 is drawn, 2^63 refused.
        sizes = [1, 1, 1, 1]
        sizes[position] = 2**63 - 1
        counts = simulate_counts(E1_MODEL, sizes, 3)
        assert counts.sizes[position] == 2**63 - 1
        sizes[position] = 2**63
        with pytest.raises(ValidationError, match="at most 2\\^63 - 1"):
            simulate_counts(E1_MODEL, sizes, 3)

    @pytest.mark.parametrize("position", range(4),
                             ids=["n_context", "n_filtration", "n_filtered", "n_filtered-2"])
    def test_counts_ensemble_sizes_are_bounded(self, position):
        def record(n):
            # Ensembles of 1000, but experiment ``position`` has n draws, split in halves.
            sizes = [1000] * 4
            tallies = [(500, 500), (500, 500), (700, 300), (300, 700)]
            sizes[position], tallies[position] = n, (n - n // 2, n // 2)
            return CountsRecord(sizes, tallies, seed=0)

        estimate = estimate_lambda(record(2**63 - 1), replicates=20, seed=1)
        assert estimate.failed_replicates == 0
        with pytest.raises(ValidationError, match="at most 2\\^63 - 1"):
            record(2**63)

    @pytest.mark.parametrize("size, pair, error", [
        (10.0, (5, 5), ValidationError),
        (2**64, (2**63, 2**63), ValidationError),
        (10, (5, 5, 0), ValidationError),
        (10, (5.0, 5), ValidationError),
        (10, (-1, 11), ValidationError),
        (10, (4, 5), ValidationError),
        (0, (0, 0), DegenerateContextError),
        (0, None, ValidationError),
    ], ids=["size-type", "size-range", "tally-shape", "tally-type", "tally-range", "sum",
            "empty-ensemble", "simulate-size"])
    @pytest.mark.parametrize("position, name", enumerate(EXPERIMENT_NAMES), ids=EXPERIMENT_NAMES)
    def test_messages_start_with_the_experiment_name(self, position, name, size, pair, error):
        # One experiment is refused, the other three are valid: the message names that one.
        sizes, tallies = [10] * 4, [(5, 5)] * 4
        sizes[position], tallies[position] = size, pair
        with pytest.raises(error, match=f"^{name} "):
            if pair is None:
                simulate_counts(E1_MODEL, sizes, seed=0)
            else:
                estimate_statistics(CountsRecord(sizes, tallies, seed=0))


class TestEstimateStatistics:
    def test_frequencies(self):
        # Four distinct sizes and tallies, so a swapped experiment changes the result.
        counts = CountsRecord(
            sizes=(1000, 500, 250, 800),
            tallies=((480, 520), (150, 350), (50, 200), (480, 320)),
            seed=0,
        )
        stats = estimate_statistics(counts)
        assert stats.prior == (0.3, 0.7)
        assert stats.transition.rows == ((0.2, 0.8), (0.6, 0.4))
        assert stats.outcome == (0.48, 0.52)

    def test_exactly_proportional_tallies_reproduce_e2(self):
        stats = estimate_statistics(e2_proportional_counts())
        assert stats.prior == (0.3, 0.7)
        assert stats.transition.rows == ((0.2, 0.8), (0.6, 0.4))
        assert stats.outcome == (0.48, 0.52)

    def test_rows_are_exactly_stochastic_by_construction(self):
        counts = simulate_counts(E1_MODEL, 997, seed=11)
        for row in estimate_statistics(counts).transition.rows:
            assert row[0] + row[1] == pytest.approx(1.0, abs=1e-15)

    def test_empty_ensemble(self):
        counts = CountsRecord(
            sizes=(10, 10, 0, 10), tallies=((5, 5), (5, 5), (0, 0), (5, 5)), seed=0
        )
        with pytest.raises(DegenerateContextError, match="ensemble is empty"):
            estimate_statistics(counts)


class TestEstimateLambda:
    def test_exact_e2_frequencies_give_zero_with_covering_interval(self):
        result = estimate_lambda(e2_proportional_counts(), replicates=400, seed=5)
        assert tuple(result.lambda_hat) == (0.0, 0.0)
        assert result.ci_low[0] <= 0.0 <= result.ci_high[0]
        assert result.ci_low[1] <= 0.0 <= result.ci_high[1]

    def test_bootstrap_is_deterministic(self):
        counts = simulate_counts(E1_MODEL, 10**4, seed=21)
        first = estimate_lambda(counts, replicates=300, seed=9)
        second = estimate_lambda(counts, replicates=300, seed=9)
        assert first == second
        third = estimate_lambda(counts, replicates=300, seed=10)
        assert third.ci_low != first.ci_low

    def test_interval_contains_point_estimate(self):
        for seed in range(10):
            result = estimate_lambda(simulate_counts(E1_MODEL, 500, seed=seed), replicates=200,
                                     seed=seed)
            for j in range(2):
                assert result.ci_low[j] <= result.lambda_hat[j] <= result.ci_high[j]

    def test_degenerate_point_statistics_propagate(self):
        model = SyntheticModel(
            prior=(0.5, 0.5),
            transition=TransitionMatrix(((1.0, 0.0), (0.0, 1.0))),
            target_lambda=LambdaPair(0.0, 0.0),
        )
        counts = simulate_counts(model, 1000, seed=2)
        with pytest.raises(DegenerateContextError):
            estimate_lambda(counts, replicates=50, seed=0)

    def test_e1_estimate_brackets_truth_at_large_n(self):
        counts = simulate_counts(E1_MODEL, 10**6, seed=123)
        report = analyze_estimated(counts, replicates=500, seed=7)
        result = report.lambda_estimate
        assert result.lambda_hat.lambda1 == pytest.approx(0.5, abs=0.01)
        assert result.ci_low[0] <= 0.5 <= result.ci_high[0]
        assert report.theory_class.kind is TheoryKind.TRIGONOMETRIC
        assert result.failed_replicates == 0

    def test_e3_estimate_classifies_hyperbolic(self):
        # outcome probabilities 1 and 0 give zero-variance outcome tallies
        model = SyntheticModel(
            prior=(0.5, 0.5),
            transition=TransitionMatrix(((0.8, 0.2), (0.2, 0.8))),
            target_lambda=LambdaPair(1.25, -1.25),
        )
        counts = simulate_counts(model, 10**6, seed=17)
        assert counts.tallies[0] == (10**6, 0)
        report = analyze_estimated(counts, replicates=400, seed=3)
        assert report.lambda_estimate.lambda_hat.lambda1 == pytest.approx(1.25, abs=0.01)
        assert report.theory_class.kind is TheoryKind.HYPERBOLIC

    def test_counts_statistics_are_built_once(self, monkeypatch):
        # Count the calls through every ctxprob module that holds the name, as a
        # tracer that rebinds it would; the report reads the estimate's statistics.
        calls = []

        def counted(counts):
            calls.append(counts)
            return estimate_statistics(counts)

        for module in [m for name, m in sys.modules.items() if name.startswith("ctxprob")]:
            if getattr(module, "estimate_statistics", None) is estimate_statistics:
                monkeypatch.setattr(module, "estimate_statistics", counted)
        counts = simulate_counts(E1_MODEL, 1000, seed=4)
        report = analyze_estimated(counts, replicates=50, seed=0)
        assert calls == [counts]
        assert report.stats == report.lambda_estimate.statistics == estimate_statistics(counts)


class TestBootstrapKernel:
    """Stream layout of the bootstrap draws.  The replicates are inverted one outcome
    column at a time by the shared column inversion, tested in
    ``test_calculus.TestInvertColumn``."""

    def test_one_substream_per_experiment(self, monkeypatch):
        counts = simulate_counts(E1_MODEL, 1000, seed=4)
        calls = []
        substream = ctxprob.sampling.substream
        invert_column = ctxprob.sampling.invert_column
        inversions = []

        def counted(*path):
            calls.append((path, threading.get_ident()))
            return substream(*path)

        def counted_inversion(*args, **kwargs):
            inversions.append(args[0].shape)
            return invert_column(*args, **kwargs)

        monkeypatch.setattr(ctxprob.sampling, "substream", counted)
        monkeypatch.setattr(ctxprob.sampling, "invert_column", counted_inversion)
        for replicates in (1, 1024, 1025, 10**4):
            calls.clear()
            inversions.clear()
            estimate_lambda(counts, replicates=replicates, seed=9)
            # (seed, ROLE_BOOTSTRAP_EXPERIMENT = 8, experiment), all derived on this thread
            assert calls == [((9, 8, j), threading.get_ident()) for j in range(4)]
            # every replicate goes through the shared column inversion, once per outcome column
            assert inversions == [(replicates,), (replicates,)]

    def test_fewer_replicates_draw_a_prefix(self):
        # numpy draws Binomial(n, p) by inversion when n*min(p, 1-p) <= 30, as for
        # every tally at n = 40, and by BTPE above it, as for every tally at 10^4.
        for n in (40, 10**4):
            counts = simulate_counts(E1_MODEL, n, seed=4)
            for replicates in (1, 1000, 1024, 2000):
                prefix = _bootstrap_frequencies(counts, replicates, seed=9)
                longer = _bootstrap_frequencies(counts, replicates + 500, seed=9)
                assert prefix.shape == (4, replicates)
                assert np.array_equal(prefix, longer[:, :replicates])

    @pytest.mark.parametrize("n, tallies, replicates", [
        # numpy's inversion sampler: n * min(p, 1 - p) <= 30 for every tally
        (75, (10, 20, 30, 5), 1000),
        # its BTPE sampler
        (10**6, (300000, 500000, 700000, 123456), 1000),
        (10**6, (300000, 500000, 700000, 123456), 1),
        # both samplers with rows 2-3 drawn on the second thread
        (75, (10, 20, 30, 5), _TWO_THREADS_FROM),
        (10**6, (300000, 500000, 700000, 123456), _TWO_THREADS_FROM),
    ])
    def test_same_bytes_as_the_serial_draw(self, monkeypatch, n, tallies, replicates):
        counts = CountsRecord((n,) * 4, [(k, n - k) for k in tallies], seed=0)
        serial = np.stack([substream(7, 8, j).binomial(n, k / n, size=replicates) / n
                           for j, k in enumerate(tallies)])
        draw_rows = ctxprob.sampling._draw_rows
        drawn_on = []

        def recorded(rows, draws, errors):
            drawn_on.append((threading.get_ident() == caller, len(draws)))
            draw_rows(rows, draws, errors)

        caller = threading.get_ident()
        monkeypatch.setattr(ctxprob.sampling, "_draw_rows", recorded)
        drawn = _bootstrap_frequencies(counts, replicates, seed=7)
        assert drawn.dtype == serial.dtype and drawn.shape == serial.shape
        assert drawn.tobytes() == serial.tobytes()
        # (on the calling thread, rows drawn) of each _draw_rows call
        two_threads = replicates >= _TWO_THREADS_FROM
        assert sorted(drawn_on) == ([(False, 2), (True, 2)] if two_threads else [(True, 4)])

    @pytest.mark.parametrize("failing", [0, 2])
    def test_a_failed_draw_is_raised(self, monkeypatch, failing):
        # row 0 is drawn on the calling thread; row 2 on the second one from
        # _TWO_THREADS_FROM replicates up, and on the calling thread below it
        counts = simulate_counts(E1_MODEL, 1000, seed=4)
        substream = ctxprob.sampling.substream

        class Failing:
            def binomial(self, n, p, size):
                raise RuntimeError(f"draw of experiment {failing} failed")

        def failing_at(seed, role, j):
            return Failing() if j == failing else substream(seed, role, j)

        monkeypatch.setattr(ctxprob.sampling, "substream", failing_at)
        for replicates in (100, _TWO_THREADS_FROM):
            with pytest.raises(RuntimeError, match=f"draw of experiment {failing} failed"):
                estimate_lambda(counts, replicates=replicates, seed=9)


def stacked_survivors(counts, replicates, seed):
    """``(survivors, failed)`` of the bootstrap in the stacked form: both outcome columns
    in one ``(2, R)`` ``invert_column`` call, the degenerate replicates masked out."""
    q1, p1, t11, t21 = _bootstrap_frequencies(counts, replicates, seed)
    q, ta, tb = (np.stack((x, 1.0 - x)) for x in (q1, t11, t21))
    samples, failed_columns, _, _ = invert_column(
        q, p1, 1.0 - p1, ta, tb, sqrt=np.sqrt, where=np.where
    )
    degenerate = failed_columns.any(axis=0)
    return samples[:, ~degenerate], int(degenerate.sum())


def stacked_reduction(counts, replicates, seed):
    """``(ci_low, ci_high, stderr, failed)`` of the bootstrap reduced in the stacked form:
    ``np.percentile`` of the survivors and the ``std`` of a C-ordered copy of them.
    ``ci_low`` is ``None`` if every replicate is degenerate."""
    lambda_hat = lambda_from_statistics(estimate_statistics(counts))
    samples, failed = stacked_survivors(counts, replicates, seed)
    if failed == replicates:
        return None, None, None, failed
    samples = np.ascontiguousarray(samples)
    tail = 100.0 * (1.0 - CONFIDENCE) / 2.0
    low, high = np.percentile(samples, (tail, 100.0 - tail), axis=1)
    ci_low = tuple(min(float(low[j]), lambda_hat[j]) for j in range(2))
    ci_high = tuple(max(float(high[j]), lambda_hat[j]) for j in range(2))
    stderr = tuple(float(s) for s in samples.std(axis=1, ddof=1)) if samples.shape[1] > 1 else (0.0, 0.0)
    return ci_low, ci_high, stderr, failed


class TestBootstrapInterval:
    """The interval is read from one sort of the survivors, and ``stderr`` from the
    unsorted survivors, with the bytes of ``np.percentile`` and of the stacked form."""

    @pytest.mark.parametrize("kind", ["continuous", "ties", "survivors"])
    def test_linear_percentile_is_numpys(self, kind):
        rng = np.random.default_rng(11)
        tail = 100.0 * (1.0 - CONFIDENCE) / 2.0
        sizes = [*range(1, 60), 97, 100, 101, 999, 1000, 1001, 2048, 4001]
        for n in sizes:
            for _ in range(3):
                row = rng.normal(scale=rng.choice([1e-3, 1.0, 50.0]), size=n)
                if kind == "ties":
                    # + 0.0 turns a rounded -0.0 into 0.0, as no bootstrap sample is -0.0
                    row = np.round(row, int(rng.integers(0, 3))) + 0.0
                elif kind == "survivors":
                    row = rng.normal(size=n + int(rng.integers(1, n + 2)))
                    row = row[rng.random(row.size) < 0.7][:n]
                if row.size == 0:
                    continue
                ascending = np.sort(row)
                # both tails, and the median, where g = 0.5 exactly for even n
                for percent in (tail, 100.0 - tail, 50.0):
                    expected = np.percentile(row, percent, method="linear")
                    got = _linear_percentile(ascending, percent)
                    assert np.float64(got).tobytes() == expected.tobytes(), (n, percent)

    def test_same_bytes_as_the_stacked_reduction(self):
        files = sorted(GOLDEN_INPUTS.glob("*counts*.json"))
        analyzed, with_failures = [], []
        for path in files:
            try:  # only the inputs that analyze: a bootstrap needs a point estimate
                counts = ExperimentFile.loads(path.read_text()).counts
                lambda_from_statistics(estimate_statistics(counts))
            except (ValidationError, DegenerateContextError):
                continue
            analyzed.append(path.name)
            for replicates in (1, 2, 200, 1000, 10**4):
                case = (path.name, replicates)
                ci_low, ci_high, stderr, failed = stacked_reduction(counts, replicates, counts.seed)
                if failed:
                    with_failures.append((*case, failed))
                if ci_low is None:
                    with pytest.raises(DegenerateContextError, match="were degenerate"):
                        estimate_lambda(counts, replicates=replicates, seed=counts.seed)
                    continue
                estimate = estimate_lambda(counts, replicates=replicates, seed=counts.seed)
                assert estimate.ci_low == ci_low, case
                assert estimate.ci_high == ci_high, case
                assert estimate.stderr == stderr, case
                assert estimate.failed_replicates == failed, case
        assert len(analyzed) == 6 and "sparse_counts.json" in analyzed
        # survivors after a degenerate mask, and inputs whose every replicate is degenerate
        assert ("sparse_counts.json", 1000, 292) in with_failures
        assert ("sparse_counts.json", 2, 2) in with_failures


    def test_stderr_does_not_depend_on_the_survivors_layout(self):
        # The mask leaves the 708 survivors of 1000 in F order, which np.std sums in
        # another order than a C-ordered row.
        counts = ExperimentFile.loads((GOLDEN_INPUTS / "sparse_counts.json").read_text()).counts
        survivors, failed = stacked_survivors(counts, 1000, counts.seed)
        assert failed == 292 and not survivors.flags.c_contiguous
        expected = np.ascontiguousarray(survivors).std(axis=1, ddof=1).tolist()
        assert estimate_lambda(counts, replicates=1000, seed=counts.seed).stderr == tuple(expected)


class TestConvergenceStudy:
    def test_error_shrinks_with_ensemble_size(self):
        errors = mean_abs_errors(E1_MODEL, [10**2, 10**4], runs=30, base_seed=0)
        assert errors[0, 0] > errors[1, 0]

    def test_classical_model_estimates_near_zero(self):
        errors = mean_abs_errors(E2_MODEL, [10**5], runs=20, base_seed=1)
        assert errors[0, 0] < 0.05
        assert errors[0, 1] < 0.05
