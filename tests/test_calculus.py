"""Core calculus: forward/inverse transformation, classification, balance laws."""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ctxprob import (
    ContextStatistics,
    DegeneracyPolicy,
    DegenerateContextError,
    DichotomicObservable,
    LambdaPair,
    OutOfRangeError,
    PhaseKind,
    TheoryKind,
    TransitionMatrix,
    ValidationError,
    check_double_stochastic,
    classify_theory,
    lambda_from_statistics,
    normalization_residual,
    phase_parametrization,
    predict_outcome,
    total_probability,
)

HALF = TransitionMatrix(((0.5, 0.5), (0.5, 0.5)))
E2_T = TransitionMatrix(((0.2, 0.8), (0.6, 0.4)))
E3_T = TransitionMatrix(((0.8, 0.2), (0.2, 0.8)))
IDENTITY = TransitionMatrix(((1.0, 0.0), (0.0, 1.0)))

E1_STATS = ContextStatistics((0.5, 0.5), HALF, (0.75, 0.25))
E2_STATS = ContextStatistics((0.3, 0.7), E2_T, (0.48, 0.52))


def consistent_statistics(p1, t11, t21, lam1):
    """Build statistics carrying (lam1, balanced companion); None if infeasible.

    Independent of the synthetic-model generator: plain formula evaluation.
    """
    p2 = 1.0 - p1
    w1 = math.sqrt(p1 * p2 * t11 * t21)
    w2 = math.sqrt(p1 * p2 * (1.0 - t11) * (1.0 - t21))
    if w2 <= 1e-9:
        return None
    lam2 = -w1 * lam1 / w2
    q1 = p1 * t11 + p2 * t21 + 2.0 * w1 * lam1
    q2 = p1 * (1.0 - t11) + p2 * (1.0 - t21) + 2.0 * w2 * lam2
    if not (0.0 <= q1 <= 1.0 and 0.0 <= q2 <= 1.0):
        return None
    transition = TransitionMatrix(((t11, 1.0 - t11), (t21, 1.0 - t21)))
    return (
        ContextStatistics((p1, p2), transition, (q1, q2)),
        LambdaPair(lam1, lam2),
    )


# ---------------------------------------------------------------------------
# predict_outcome
# ---------------------------------------------------------------------------


class TestPredictOutcome:
    def test_e1_interference(self):
        out = predict_outcome((0.5, 0.5), HALF, LambdaPair(0.5, -0.5))
        assert out == pytest.approx((0.75, 0.25), abs=1e-15)

    def test_e2_zero_coefficients_reduce_to_hand_arithmetic(self):
        out = predict_outcome((0.3, 0.7), E2_T, LambdaPair(0.0, 0.0))
        assert out == pytest.approx((0.3 * 0.2 + 0.7 * 0.6, 0.3 * 0.8 + 0.7 * 0.4), abs=1e-15)
        assert out == pytest.approx((0.48, 0.52), abs=1e-15)

    def test_e3_saturates_at_the_boundary(self):
        out = predict_outcome((0.5, 0.5), E3_T, LambdaPair(1.25, -1.25))
        assert out == (1.0, 0.0)

    def test_infeasible_coefficients_raise(self):
        with pytest.raises(OutOfRangeError):
            predict_outcome((0.5, 0.5), E3_T, LambdaPair(2.0, -2.0))

    def test_rejects_bad_prior(self):
        with pytest.raises(ValidationError):
            predict_outcome((0.5, 0.6), HALF, LambdaPair(0.0, 0.0))


# ---------------------------------------------------------------------------
# total_probability
# ---------------------------------------------------------------------------


def brute_force_marginal(weights, a_values, b_values):
    """Direct enumeration of P(A = a1), P(A = a2) on a finite space."""
    q = [0.0, 0.0]
    for w, a in zip(weights, a_values):
        q[a] += w
    return tuple(q)


class TestTotalProbability:
    def test_e2(self):
        assert total_probability((0.3, 0.7), E2_T) == pytest.approx((0.48, 0.52), abs=1e-15)

    def test_degenerate_prior_selects_first_row(self):
        assert total_probability((1.0, 0.0), E2_T) == (0.2, 0.8)

    def test_symmetric_case_against_finite_enumeration(self):
        # Kolmogorov space realizing prior (.5,.5) and rows (.8,.2),(.2,.8).
        weights = (0.4, 0.1, 0.1, 0.4)
        a_values = (0, 1, 0, 1)
        b_values = (0, 0, 1, 1)
        expected = brute_force_marginal(weights, a_values, b_values)
        assert expected == pytest.approx((0.5, 0.5), abs=1e-15)
        assert total_probability((0.5, 0.5), E3_T) == pytest.approx(expected, abs=1e-15)

    @given(
        p1=st.floats(0.0, 1.0),
        t11=st.floats(0.0, 1.0),
        t21=st.floats(0.0, 1.0),
    )
    def test_is_bitwise_identical_to_zero_coefficient_prediction(self, p1, t11, t21):
        prior = (p1, 1.0 - p1)
        transition = TransitionMatrix(((t11, 1.0 - t11), (t21, 1.0 - t21)))
        assert total_probability(prior, transition) == predict_outcome(
            prior, transition, LambdaPair(0.0, 0.0)
        )


# ---------------------------------------------------------------------------
# lambda_from_statistics
# ---------------------------------------------------------------------------


class TestLambdaFromStatistics:
    def test_e1(self):
        lam = lambda_from_statistics(E1_STATS)
        assert tuple(lam) == pytest.approx((0.5, -0.5), abs=1e-15)

    def test_e2_is_classical(self):
        assert tuple(lambda_from_statistics(E2_STATS)) == (0.0, 0.0)

    def test_deterministic_coupling_with_unexplained_outcome(self):
        stats = ContextStatistics((0.5, 0.5), IDENTITY, (0.6, 0.4))
        with pytest.raises(DegenerateContextError):
            lambda_from_statistics(stats)

    def test_zero_over_zero_defaults_to_zero(self):
        stats = ContextStatistics((0.5, 0.5), IDENTITY, (0.5, 0.5))
        assert tuple(lambda_from_statistics(stats)) == (0.0, 0.0)

    def test_zero_over_zero_raise_policy(self):
        stats = ContextStatistics((0.5, 0.5), IDENTITY, (0.5, 0.5))
        with pytest.raises(DegenerateContextError):
            lambda_from_statistics(stats, DegeneracyPolicy.RAISE)

    def test_round_trip_with_predict(self):
        lam = lambda_from_statistics(E1_STATS)
        out = predict_outcome(E1_STATS.prior, E1_STATS.transition, lam)
        assert out == pytest.approx(E1_STATS.outcome, abs=1e-12)

    @given(
        p1=st.floats(0.05, 0.95),
        t11=st.floats(0.05, 0.95),
        t21=st.floats(0.05, 0.95),
        lam1=st.floats(-3.0, 3.0),
    )
    @settings(max_examples=300)
    def test_round_trip_property(self, p1, t11, t21, lam1):
        built = consistent_statistics(p1, t11, t21, lam1)
        assume(built is not None)
        stats, lam = built
        recovered = lambda_from_statistics(stats)
        assert recovered.lambda1 == pytest.approx(lam.lambda1, abs=1e-12)
        assert recovered.lambda2 == pytest.approx(lam.lambda2, abs=1e-12)


# ---------------------------------------------------------------------------
# classify_theory
# ---------------------------------------------------------------------------


def expected_kind(l1, l2, eps):
    m1, m2 = abs(l1), abs(l2)
    if max(m1, m2) <= eps:
        return TheoryKind.CLASSICAL
    if m1 <= 1 - eps and m2 <= 1 - eps:
        return TheoryKind.TRIGONOMETRIC
    if m1 >= 1 + eps and m2 >= 1 + eps:
        return TheoryKind.HYPERBOLIC
    if (m1 <= 1 - eps) != (m2 <= 1 - eps) and (m1 >= 1 + eps or m2 >= 1 + eps):
        return TheoryKind.HYPER_TRIGONOMETRIC
    return TheoryKind.BOUNDARY


class TestClassifyTheory:
    def test_trigonometric(self):
        assert classify_theory(LambdaPair(0.5, -0.5), 1e-9).kind is TheoryKind.TRIGONOMETRIC

    def test_hyperbolic(self):
        assert classify_theory(LambdaPair(1.25, -1.25), 1e-9).kind is TheoryKind.HYPERBOLIC

    def test_classical(self):
        assert classify_theory(LambdaPair(0.0, 0.0), 1e-9).kind is TheoryKind.CLASSICAL

    def test_hyper_trigonometric_names_the_large_component(self):
        verdict = classify_theory(LambdaPair(0.5, 1.25), 1e-9)
        assert verdict.kind is TheoryKind.HYPER_TRIGONOMETRIC
        assert verdict.hyper_component == 2
        assert classify_theory(LambdaPair(-1.25, 0.5), 1e-9).hyper_component == 1

    def test_boundary_lists_components_near_one(self):
        verdict = classify_theory(LambdaPair(1.0, -0.5), 1e-9)
        assert verdict.kind is TheoryKind.BOUNDARY
        assert verdict.boundary_components == (1,)
        both = classify_theory(LambdaPair(1.0, -1.0), 1e-9)
        assert both.boundary_components == (1, 2)

    def test_exhaustive_grid(self):
        grid = (-2.0, -1.25, -1.0, -0.5, 0.0, 0.5, 1.0, 1.25, 2.0)
        eps = 1e-9
        for l1 in grid:
            for l2 in grid:
                verdict = classify_theory(LambdaPair(l1, l2), eps)
                assert verdict.kind is expected_kind(l1, l2, eps), (l1, l2)

    def test_eps_band_widens_classical(self):
        assert classify_theory(LambdaPair(1e-7, -1e-7), 1e-6).kind is TheoryKind.CLASSICAL
        assert classify_theory(LambdaPair(1e-7, -1e-7), 1e-9).kind is TheoryKind.TRIGONOMETRIC


# ---------------------------------------------------------------------------
# balance checks
# ---------------------------------------------------------------------------


class TestBalanceChecks:
    def test_row_stochastic_true(self):
        report = check_double_stochastic(E2_T, 1e-9)
        assert report.is_stochastic
        assert report.row_residuals == pytest.approx((0.0, 0.0), abs=1e-15)

    def test_row_stochastic_false_with_residuals(self):
        report = check_double_stochastic(((0.2, 0.7), (0.6, 0.4)), 1e-9)
        assert not report.is_stochastic
        assert report.row_residuals == pytest.approx((0.1, 0.0), abs=1e-12)

    def test_identity_is_row_stochastic(self):
        assert check_double_stochastic(IDENTITY, 1e-9).is_stochastic

    def test_double_stochastic_symmetric(self):
        report = check_double_stochastic(E3_T, 1e-9)
        assert report.is_double_stochastic

    def test_double_stochastic_false_with_column_residuals(self):
        report = check_double_stochastic(E2_T, 1e-9)
        assert not report.is_double_stochastic
        assert report.is_stochastic
        assert report.column_residuals == pytest.approx((0.2, 0.2), abs=1e-12)

    def test_flat_matrix(self):
        assert check_double_stochastic(HALF, 1e-9).is_double_stochastic

    def test_double_implies_row(self):
        for matrix in (E2_T, E3_T, HALF, IDENTITY, ((0.2, 0.7), (0.6, 0.4))):
            report = check_double_stochastic(matrix, 1e-9)
            assert not report.is_double_stochastic or report.is_stochastic

    def test_rejects_entries_outside_unit_interval(self):
        with pytest.raises(ValidationError):
            check_double_stochastic(((1.2, -0.2), (0.5, 0.5)), 1e-9)


# ---------------------------------------------------------------------------
# phase parametrization
# ---------------------------------------------------------------------------


class TestPhaseParametrization:
    def test_half_maps_to_third_of_pi(self):
        pair = phase_parametrization(LambdaPair(0.5, -0.5))
        assert pair.phase1.kind is PhaseKind.TRIGONOMETRIC
        assert pair.phase1.theta == pytest.approx(math.pi / 3, abs=1e-12)

    def test_hyperbolic_value(self):
        pair = phase_parametrization(LambdaPair(1.25, -1.25))
        assert pair.phase1.kind is PhaseKind.HYPERBOLIC
        assert pair.phase1.sign == 1
        assert pair.phase1.theta == pytest.approx(math.log(2.0), abs=1e-12)
        assert pair.phase2.sign == -1
        # cosh(ln 2) = (2 + 1/2) / 2
        assert math.cosh(pair.phase1.theta) == pytest.approx(1.25, abs=1e-12)

    def test_zero_maps_to_right_angle(self):
        pair = phase_parametrization(LambdaPair(0.0, 0.0))
        assert pair.phase1.theta == pytest.approx(math.pi / 2, abs=1e-15)

    def test_trig_tolerance_clamps_near_one(self):
        noisy = LambdaPair(1.0 + 5e-10, -1.0 - 5e-10)
        pair = phase_parametrization(noisy, trig_tol=1e-9)
        assert pair.all_trigonometric
        assert pair.phase1.theta == 0.0
        assert pair.phase2.theta == pytest.approx(math.pi, abs=1e-15)
        strict = phase_parametrization(noisy)
        assert not strict.all_trigonometric

    @given(lam1=st.floats(-5.0, 5.0), lam2=st.floats(-5.0, 5.0))
    @settings(max_examples=300)
    def test_coefficient_round_trip(self, lam1, lam2):
        pair = phase_parametrization(LambdaPair(lam1, lam2))
        assert pair.phase1.coefficient() == pytest.approx(lam1, abs=1e-9)
        assert pair.phase2.coefficient() == pytest.approx(lam2, abs=1e-9)


# ---------------------------------------------------------------------------
# normalization residual
# ---------------------------------------------------------------------------


class TestNormalizationResidual:
    def test_e1(self):
        assert normalization_residual(E1_STATS, LambdaPair(0.5, -0.5)) == pytest.approx(
            0.0, abs=1e-15
        )

    def test_zero_coefficients(self):
        assert normalization_residual(E2_STATS, LambdaPair(0.0, 0.0)) == 0.0

    def test_e3(self):
        stats = ContextStatistics((0.5, 0.5), E3_T, (1.0, 0.0))
        assert normalization_residual(stats, LambdaPair(1.25, -1.25)) == pytest.approx(
            0.0, abs=1e-15
        )

    @given(
        p1=st.floats(0.05, 0.95),
        t11=st.floats(0.05, 0.95),
        t21=st.floats(0.05, 0.95),
        lam1=st.floats(-3.0, 3.0),
    )
    @settings(max_examples=300)
    def test_vanishes_for_consistent_statistics(self, p1, t11, t21, lam1):
        built = consistent_statistics(p1, t11, t21, lam1)
        assume(built is not None)
        stats, _ = built
        lam = lambda_from_statistics(stats)
        assert normalization_residual(stats, lam) == pytest.approx(0.0, abs=1e-12)

    @given(q=st.floats(0.02, 0.98), p1=st.floats(0.05, 0.95), lam1=st.floats(-1.0, 1.0))
    @settings(max_examples=300)
    def test_double_stochastic_forces_opposite_coefficients(self, q, p1, lam1):
        # Doubly stochastic 2x2 matrices are exactly ((q, 1-q), (1-q, q)).
        built = consistent_statistics(p1, q, 1.0 - q, lam1)
        assume(built is not None)
        stats, _ = built
        assert check_double_stochastic(stats.transition, 1e-9).is_double_stochastic
        lam = lambda_from_statistics(stats)
        assert lam.lambda1 == pytest.approx(-lam.lambda2, abs=1e-12)


# ---------------------------------------------------------------------------
# type invariants
# ---------------------------------------------------------------------------


class TestTypes:
    def test_observable_requires_distinct_labels(self):
        with pytest.raises(ValidationError):
            DichotomicObservable("A", ("x", "x"))

    def test_transition_rows_must_be_distributions(self):
        with pytest.raises(ValidationError):
            TransitionMatrix(((0.2, 0.7), (0.6, 0.4)))
        with pytest.raises(ValidationError):
            TransitionMatrix(((1.2, -0.2), (0.5, 0.5)))

    def test_context_statistics_require_normalized_pairs(self):
        with pytest.raises(ValidationError):
            ContextStatistics((0.4, 0.7), HALF, (0.5, 0.5))
        with pytest.raises(ValidationError):
            ContextStatistics((0.5, 0.5), HALF, (0.9, 0.2))

    def test_lambda_pair_requires_finite_values(self):
        with pytest.raises(ValidationError):
            LambdaPair(float("nan"), 0.0)
        with pytest.raises(ValidationError):
            LambdaPair(0.0, float("inf"))

    def test_float_noise_is_clipped(self):
        stats = ContextStatistics((1.0 + 1e-12, -1e-12), HALF, (0.5, 0.5))
        assert stats.prior == (1.0, 0.0)
