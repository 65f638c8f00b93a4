"""Model oracles: finite classical spaces, qubit statistics, synthesis."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctxprob import (
    ContextStatistics,
    DegenerateContextError,
    InfeasibleLambdaError,
    KolmogorovModel,
    LambdaPair,
    QubitModel,
    SyntheticModel,
    TheoryKind,
    TransitionMatrix,
    ValidationError,
    check_double_stochastic,
    classical_statistics,
    classify_theory,
    exact_statistics,
    lambda_from_statistics,
    qubit_statistics,
    random_model,
    synthesize_statistics,
)
from ctxprob._validation import clip_probability
from ctxprob.models import qubit_rows, random_classical_rows, synthetic_rows

E2_MODEL = KolmogorovModel(
    weights=(0.06, 0.24, 0.42, 0.28), a_values=(0, 1, 0, 1), b_values=(0, 0, 1, 1)
)

# Qubit angles: both signed zeros, repeats, and angles beyond 2 pi either way.
ANGLE = st.one_of(
    st.sampled_from([0.0, -0.0, 0.7, 2 * math.pi, 7.0, -9.5]),
    st.floats(-20.0, 20.0),
)
# Probabilities of a prior or a transition row that leave both weights nonzero.
INNER = st.one_of(st.sampled_from([0.5, 0.2, 0.8, 1e-3]), st.floats(1e-6, 1.0 - 1e-6))
# First coefficients: zero of both signs, the band edges, and beyond either way.
LAMBDA1 = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 1.25, -1.25]), st.floats(-3.0, 3.0))


def row_of(stats):
    """``(p1, p2, t11, t12, t21, t22, q1, q2)`` of ``stats``, as ``float.hex``."""
    return [value.hex() for value in (*stats.prior, *stats.transition.rows[0],
                                      *stats.transition.rows[1], *stats.outcome)]


def born_statistics_oracle(alpha, phi, beta, chi):
    """Reference two-level statistics via explicit inner products (numpy)."""
    psi = np.array([math.cos(alpha), math.sin(alpha) * np.exp(1j * phi)])
    b1 = np.array([math.cos(beta), math.sin(beta) * np.exp(1j * chi)])
    b2 = np.array([-math.sin(beta) * np.exp(-1j * chi), math.cos(beta)])
    prior = (abs(np.vdot(b1, psi)) ** 2, abs(np.vdot(b2, psi)) ** 2)
    rows = tuple((abs(b[0]) ** 2, abs(b[1]) ** 2) for b in (b1, b2))
    outcome = (abs(psi[0]) ** 2, abs(psi[1]) ** 2)
    return prior, rows, outcome


class TestClassicalStatistics:
    def test_e2_by_hand_bayes(self):
        stats = classical_statistics(E2_MODEL)
        assert stats.prior == pytest.approx((0.3, 0.7), abs=1e-15)
        assert stats.transition.rows[0] == pytest.approx((0.2, 0.8), abs=1e-15)
        assert stats.transition.rows[1] == pytest.approx((0.6, 0.4), abs=1e-15)
        assert stats.outcome == pytest.approx((0.48, 0.52), abs=1e-15)

    def test_classical_statistics_have_zero_coefficients(self):
        lam = lambda_from_statistics(classical_statistics(E2_MODEL))
        assert abs(lam.lambda1) <= 1e-12 and abs(lam.lambda2) <= 1e-12

    @pytest.mark.parametrize("weights, b_values", [
        ((1.0, 0.0), (0, 1)),  # the one point with b = 1 has weight zero
        ((0.5, 0.5), (0, 0)),  # no point has b = 1
    ], ids=["zero-weight-point", "no-point"])
    def test_zero_filtration(self, weights, b_values):
        model = KolmogorovModel(weights=weights, a_values=(0, 1), b_values=b_values)
        with pytest.raises(DegenerateContextError) as raised:
            classical_statistics(model)
        assert str(raised.value) == "B-outcome 2 has zero probability; filtration impossible"

    def test_deterministic_coupling(self):
        model = KolmogorovModel(weights=(0.5, 0.5), a_values=(0, 1), b_values=(0, 1))
        stats = classical_statistics(model)
        assert stats.prior == (0.5, 0.5)
        assert stats.transition.rows == ((1.0, 0.0), (0.0, 1.0))
        assert stats.outcome == (0.5, 0.5)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            KolmogorovModel(weights=(0.5, 0.4), a_values=(0, 1), b_values=(0, 1))


class TestQubitStatistics:
    def test_named_instance_against_independent_oracle(self):
        model = QubitModel(alpha=math.pi / 6, phi=math.pi / 2, b_rotation=math.pi / 4)
        stats = qubit_statistics(model)
        prior, rows, outcome = born_statistics_oracle(
            math.pi / 6, math.pi / 2, math.pi / 4, 0.0
        )
        assert stats.prior == pytest.approx(prior, abs=1e-15)
        assert stats.transition.rows[0] == pytest.approx(rows[0], abs=1e-15)
        assert stats.transition.rows[1] == pytest.approx(rows[1], abs=1e-15)
        assert stats.outcome == pytest.approx(outcome, abs=1e-15)
        # and the whole pipeline lands on the named values
        assert stats.prior == pytest.approx((0.5, 0.5), abs=1e-12)
        assert stats.outcome == pytest.approx((0.75, 0.25), abs=1e-12)
        lam = lambda_from_statistics(stats)
        assert tuple(lam) == pytest.approx((0.5, -0.5), abs=1e-12)

    def test_random_parameters_against_independent_oracle(self):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            alpha, beta = rng.uniform(0, math.pi / 2, size=2)
            phi, chi = rng.uniform(0, 2 * math.pi, size=2)
            stats = qubit_statistics(QubitModel(alpha, phi, beta, chi))
            prior, rows, outcome = born_statistics_oracle(alpha, phi, beta, chi)
            assert stats.prior == pytest.approx(prior, abs=1e-12)
            assert stats.transition.rows[0] == pytest.approx(rows[0], abs=1e-12)
            assert stats.transition.rows[1] == pytest.approx(rows[1], abs=1e-12)
            assert stats.outcome == pytest.approx(outcome, abs=1e-12)

    def test_aligned_bases_degenerate_to_identity(self):
        stats = qubit_statistics(QubitModel(alpha=0.7, phi=1.1, b_rotation=0.0))
        assert stats.transition.rows == ((1.0, 0.0), (0.0, 1.0))
        # outcome equals the prior-weighted rows, so 0/0 resolves to zero
        assert tuple(lambda_from_statistics(stats)) == (0.0, 0.0)

    def test_extremal_state_saturates_coefficients(self):
        stats = qubit_statistics(QubitModel(alpha=0.0, phi=0.0, b_rotation=math.pi / 4))
        assert stats.outcome == pytest.approx((1.0, 0.0), abs=1e-15)
        lam = lambda_from_statistics(stats)
        assert abs(lam.lambda1) == pytest.approx(1.0, abs=1e-12)
        assert abs(lam.lambda2) == pytest.approx(1.0, abs=1e-12)

    def test_transitions_are_doubly_stochastic(self):
        for seed in range(300):
            model = random_model("qubit", seed)
            stats = qubit_statistics(model)
            report = check_double_stochastic(stats.transition, 1e-12)
            assert report.is_double_stochastic


class TestSynthesizeStatistics:
    def test_synthetic_transition_must_be_a_matrix(self):
        with pytest.raises(ValidationError, match="^transition matrix must have exactly two rows$"):
            SyntheticModel((0.5, 0.5), 5, LambdaPair(0.0, 0.0))

    def test_e3_instance(self):
        model = SyntheticModel(
            prior=(0.5, 0.5),
            transition=TransitionMatrix(((0.8, 0.2), (0.2, 0.8))),
            target_lambda=LambdaPair(1.25, -1.25),
        )
        stats = synthesize_statistics(model)
        assert stats.outcome == (1.0, 0.0)
        assert classify_theory(lambda_from_statistics(stats)).kind is TheoryKind.HYPERBOLIC

    def test_overshooting_target_is_infeasible(self):
        model = SyntheticModel(
            prior=(0.5, 0.5),
            transition=TransitionMatrix(((0.8, 0.2), (0.2, 0.8))),
            target_lambda=LambdaPair(2.0, -2.0),
        )
        with pytest.raises(InfeasibleLambdaError):
            synthesize_statistics(model)

    def test_unbalanced_target_is_infeasible(self):
        model = SyntheticModel(
            prior=(0.3, 0.7),
            transition=TransitionMatrix(((0.2, 0.8), (0.6, 0.4))),
            target_lambda=LambdaPair(0.5, 0.5),
        )
        with pytest.raises(InfeasibleLambdaError):
            synthesize_statistics(model)

    def test_zero_target_reproduces_total_probability(self):
        model = SyntheticModel(
            prior=(0.3, 0.7),
            transition=TransitionMatrix(((0.2, 0.8), (0.6, 0.4))),
            target_lambda=LambdaPair(0.0, 0.0),
        )
        stats = synthesize_statistics(model)
        assert stats.outcome == pytest.approx((0.48, 0.52), abs=1e-15)

    def test_round_trip_recovers_target(self):
        for seed in range(200):
            model = random_model("synthetic-hyperbolic", seed)
            stats = synthesize_statistics(model)
            lam = lambda_from_statistics(stats)
            assert lam.lambda1 == pytest.approx(model.target_lambda.lambda1, abs=1e-12)
            assert lam.lambda2 == pytest.approx(model.target_lambda.lambda2, abs=1e-12)


class TestRandomModel:
    def test_determinism(self):
        for kind in ("classical", "qubit", "synthetic-trigonometric", "synthetic-hyperbolic"):
            assert random_model(kind, 42) == random_model(kind, 42)

    def test_different_seeds_differ(self):
        assert random_model("classical", 1) != random_model("classical", 2)
        assert random_model("qubit", 1) != random_model("qubit", 2)

    def test_classical_draws_are_always_valid(self):
        for seed in range(300):
            model = random_model("classical", seed)
            assert len(model.weights) <= 16
            stats = classical_statistics(model)  # both filtrations nonempty
            assert isinstance(stats, ContextStatistics)

    def test_hyperbolic_draws_classify_hyperbolic(self):
        for seed in range(200):
            model = random_model("synthetic-hyperbolic", seed)
            lam = lambda_from_statistics(synthesize_statistics(model))
            verdict = classify_theory(lam, 1e-6)
            assert verdict.kind in (TheoryKind.HYPERBOLIC, TheoryKind.BOUNDARY)
            assert verdict.kind is not TheoryKind.CLASSICAL

    def test_trigonometric_draws_classify_trigonometric(self):
        for seed in range(200):
            model = random_model("synthetic-trigonometric", seed)
            lam = lambda_from_statistics(synthesize_statistics(model))
            assert max(abs(lam.lambda1), abs(lam.lambda2)) <= 1.0

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ValueError):
            random_model("nonsense", 0)


class TestExactStatisticsDispatch:
    def test_all_families(self):
        assert exact_statistics(E2_MODEL).outcome == pytest.approx((0.48, 0.52), abs=1e-15)
        assert exact_statistics(QubitModel(0.3, 0.2, 0.7)).prior[0] > 0
        model = SyntheticModel(
            (0.5, 0.5), TransitionMatrix(((0.5, 0.5), (0.5, 0.5))), LambdaPair(0.5, -0.5)
        )
        assert exact_statistics(model).outcome == pytest.approx((0.75, 0.25), abs=1e-15)

    def test_rejects_unknown_model(self):
        with pytest.raises(ValidationError):
            exact_statistics("not a model")


class TestBlocks:
    """Each family's sweep block, row by row against its exact oracle.  A block is
    unvalidated: each row is compared clipped, as ``analyze_block`` reads it."""

    @given(first=st.integers(0, 2**64 - 50), count=st.integers(1, 50))
    @example(first=2**32 - 3, count=6)  # seeds of one and two words
    @example(first=2**32 - 10, count=20)  # the draw chunks on either side of 2^32
    @example(first=2**64 - 50, count=50)
    @example(first=60, count=10)  # across a 64-model draw chunk
    @settings(max_examples=60, deadline=None)
    def test_classical_block_rows_are_the_models_statistics(self, first, count):
        seeds = range(first, first + count)
        block = random_classical_rows(seeds)
        assert [[clip_probability(value).hex() for value in row] for row in block.tolist()] == [
            row_of(exact_statistics(random_model("classical", seed))) for seed in seeds]

    @given(axes=st.lists(st.lists(ANGLE, min_size=1, max_size=3), min_size=4, max_size=4))
    @example(axes=[[0.0, -0.0], [-0.0, 0.0, -0.0], [0.0, -0.0], [-0.0]])
    @example(axes=[[0.3, 0.3], [7.0], [1.1, 1.1, 13.0], [-7.0, 2.0]])
    @example(axes=[[0.4], [0.2], [0.9], [2.5]])
    @settings(max_examples=60, deadline=None)
    def test_qubit_block_rows_are_the_models_statistics(self, axes):
        columns, block = qubit_rows(*axes)
        points = list(itertools.product(*axes))
        assert [list(map(float.hex, row)) for row in zip(*(c.tolist() for c in columns))] == [
            list(map(float.hex, point)) for point in points]
        assert [[clip_probability(value).hex() for value in row] for row in block.tolist()] == [
            row_of(exact_statistics(QubitModel(*point))) for point in points]

    @given(p1=INNER, rows=st.one_of(INNER.map(lambda q: ((q, 1.0 - q), (1.0 - q, q))),
                                    st.tuples(INNER, INNER).map(
                                        lambda t: ((t[0], 1.0 - t[0]), (t[1], 1.0 - t[1])))),
           lam1=st.lists(LAMBDA1, min_size=1, max_size=4))
    @example(p1=0.5, rows=((0.8, 0.2), (0.2, 0.8)), lam1=[0.0, -0.0, 1.25, 2.0])  # E3's family
    @example(p1=0.5, rows=((0.9, 0.1), (0.3, 0.7)), lam1=[0.3, -1.0])  # not doubly stochastic
    @settings(max_examples=80, deadline=None)
    def test_synthetic_block_rows_are_the_models_statistics(self, p1, rows, lam1):
        prior, transition = (p1, 1.0 - p1), TransitionMatrix(rows)
        lam, block = synthetic_rows(prior, transition, lambda: lam1)
        assert list(map(float.hex, lam[:, 0].tolist())) == list(map(float.hex, lam1))
        for pair, row in zip(lam.tolist(), block.tolist(), strict=True):
            model = SyntheticModel(prior, transition, LambdaPair(*pair))
            try:
                expected = row_of(exact_statistics(model))
            except InfeasibleLambdaError:
                # The array checks refuse the row that the oracle refuses.
                clipped = [clip_probability(value) for value in row]
                assert min(row) < -1e-9 or max(row) > 1.0 + 1e-9 or abs(
                    clipped[6] + clipped[7] - 1.0) > 1e-9
                continue
            assert [clip_probability(value).hex() for value in row] == expected

    def test_synthetic_checks_come_in_the_scalar_order(self):
        def unread():
            raise AssertionError("the grid is read after the weights are checked")

        with pytest.raises(ValidationError, match="prior must sum to 1"):
            synthetic_rows((0.5, 0.6), TransitionMatrix(((0.8, 0.2), (0.2, 0.8))), unread)
        with pytest.raises(DegenerateContextError, match="second interference weight vanishes"):
            synthetic_rows((0.3, 0.7), TransitionMatrix(((1.0, 0.0), (0.5, 0.5))), unread)
        with pytest.raises(ValidationError, match="lambda1 must be finite, got inf$"):
            synthetic_rows((0.5, 0.5), TransitionMatrix(((0.8, 0.2), (0.2, 0.8))),
                           lambda: [0.1, math.inf, math.nan])
