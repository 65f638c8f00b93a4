"""Core calculus: forward/inverse transformation, classification, balance laws."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ctxprob import (
    AmplitudePair,
    ContextStatistics,
    DegenerateContextError,
    DichotomicObservable,
    ExperimentFile,
    InfeasibleLambdaError,
    KolmogorovModel,
    LambdaPair,
    Phase,
    PhaseKind,
    SyntheticModel,
    TheoryClass,
    TheoryKind,
    TransitionMatrix,
    ValidationError,
    check_double_stochastic,
    classify_theory,
    lambda_from_statistics,
    normalization_residual,
    phase_parametrization,
    predict_outcome,
    random_model,
)
from ctxprob.calculus import invert_column, phase_branch

HALF = TransitionMatrix(((0.5, 0.5), (0.5, 0.5)))
E2_T = TransitionMatrix(((0.2, 0.8), (0.6, 0.4)))
E3_T = TransitionMatrix(((0.8, 0.2), (0.2, 0.8)))
IDENTITY = TransitionMatrix(((1.0, 0.0), (0.0, 1.0)))

E1_STATS = ContextStatistics((0.5, 0.5), HALF, (0.75, 0.25))
E2_STATS = ContextStatistics((0.3, 0.7), E2_T, (0.48, 0.52))
PHASES = phase_parametrization(LambdaPair(0.0, 0.0))


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


def near_band_edges(eps):
    """Signed coefficients within 1e-15 of the band edges ``eps``, ``1 - eps`` and ``1 + eps``."""
    return st.builds(
        lambda edge, offset, sign: sign * (edge + offset),
        st.sampled_from((eps, 1.0 - eps, 1.0 + eps)),
        st.floats(-1e-15, 1e-15),
        st.sampled_from((1.0, -1.0)),
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
        with pytest.raises(InfeasibleLambdaError):
            predict_outcome((0.5, 0.5), E3_T, LambdaPair(2.0, -2.0))

    def test_rejects_bad_prior(self):
        with pytest.raises(ValidationError):
            predict_outcome((0.5, 0.6), HALF, LambdaPair(0.0, 0.0))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: TransitionMatrix(5), "transition matrix must have exactly two rows"),
        (lambda: TransitionMatrix((0.5, (0.5, 0.5))),
         "transition row 1 must have exactly two components"),
        (lambda: ContextStatistics(5, HALF, (0.5, 0.5)), "prior must have exactly two components"),
        (lambda: ContextStatistics((0.5, 0.5), 5, (0.5, 0.5)),
         "transition matrix must have exactly two rows"),
        (lambda: ContextStatistics((0.5, 0.5), HALF, None),
         "outcome must have exactly two components"),
        (lambda: TransitionMatrix(((1.2, -0.2), (0.5, 0.5))),
         r"transition row 1\[1\] must be in \[0, 1\], got 1.2"),
    ],
    ids=["matrix", "row", "prior", "transition", "outcome", "entry"],
)
def test_non_pair_statistics_are_invalid(build, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        build()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: KolmogorovModel(1, (0,), (0,)),
         "weights, a_values and b_values must be sequences"),
        (lambda: DichotomicObservable("A", 5),
         "observable 'A' labels must be two nonempty strings, got 5"),
        (lambda: SyntheticModel((0.5, 0.5), HALF.rows, 5),
         "target_lambda must have exactly two components"),
        (lambda: SyntheticModel((0.5, 0.5), HALF.rows, (0.1, 0.2, 0.3)),
         "target_lambda must have exactly two components"),
        # A string or a mapping is no sequence of values, not even of two items.
        (lambda: DichotomicObservable("A", "ab"),
         "observable 'A' labels must be two nonempty strings, got 'ab'"),
        (lambda: DichotomicObservable("A", {"a1": 0, "a2": 1}),
         r"observable 'A' labels must be two nonempty strings, got \{'a1': 0, 'a2': 1\}"),
        (lambda: ExperimentFile(observables=5, exact=E1_STATS),
         "experiment file needs exactly two observables"),
        (lambda: AmplitudePair(((1, 2), 0j), PHASES),
         r"amplitudes must be complex numbers, got \(\(1, 2\), 0j\)"),
        (lambda: AmplitudePair(("abc", 0j), PHASES),
         r"amplitudes must be complex numbers, got \('abc', 0j\)"),
        (lambda: random_model("nope", 0),
         r"unknown model kind 'nope'; have \['classical', 'qubit', "
         r"'synthetic-trigonometric', 'synthetic-hyperbolic'\]"),
    ],
    ids=["weights", "labels", "lambda", "three-lambdas", "string-labels",
         "mapping-labels", "observables", "amplitude-pair", "amplitude-string", "model-kind"],
)
def test_non_sequence_values_are_invalid(build, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        build()


TRIG, HYPER = PhaseKind.TRIGONOMETRIC, PhaseKind.HYPERBOLIC


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Phase(TRIG, 4.0), r"trigonometric theta must be in \[0, pi\], got 4.0"),
        (lambda: Phase(TRIG, 1.0, -1), "trigonometric phases carry no sign"),
        (lambda: Phase(HYPER, -1.0), "hyperbolic theta must be >= 0, got -1.0"),
        (lambda: Phase(HYPER, 1.0, 0), r"hyperbolic sign must be \+1 or -1, got 0"),
        (lambda: TheoryClass(TheoryKind.HYPER_TRIGONOMETRIC),
         "hyper-trigonometric verdict needs hyper_component 1 or 2"),
        (lambda: TheoryClass(TheoryKind.CLASSICAL, hyper_component=1),
         "hyper_component only applies to hyper-trigonometric verdicts"),
        (lambda: TheoryClass(TheoryKind.BOUNDARY),
         "boundary verdict needs at least one boundary component"),
        (lambda: TheoryClass(TheoryKind.CLASSICAL, boundary_components=(1,)),
         "boundary_components only apply to boundary verdicts"),
        (lambda: DichotomicObservable("", ("a1", "a2")),
         "observable name must be a nonempty string"),
        (lambda: LambdaPair("x", 0.0), "lambda1 must be a real number, got 'x'"),
        (lambda: KolmogorovModel((), (), ()), "model needs at least one elementary event"),
        (lambda: KolmogorovModel((1.0,), (0, 1), (0,)),
         "weights, a_values and b_values must have equal length"),
        (lambda: KolmogorovModel((1.0,), (0.5,), (0,)),
         "a_value must be an integer outcome index, got 0.5"),
        (lambda: KolmogorovModel((1.0,), (0,), (2,)), "b_value must be 0 or 1, got 2"),
        # An integer beyond the float range is refused, not left to overflow.
        (lambda: ContextStatistics((10**400, 0), HALF, (0.5, 0.5)),
         r"prior\[1\] must be finite, got an integer too large for a float"),
    ],
    ids=["trig-theta", "trig-sign", "hyper-theta", "hyper-sign", "hyper-component",
         "stray-hyper-component", "boundary-components", "stray-boundary-components",
         "observable-name", "lambda-type", "no-events", "unequal-lengths", "index-type",
         "index-value", "huge-integer"],
)
def test_constructor_contracts(build, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        build()


# ---------------------------------------------------------------------------
# total probability: predict_outcome with both coefficients zero
# ---------------------------------------------------------------------------

CLASSICAL = LambdaPair(0.0, 0.0)


def brute_force_marginal(weights, a_values, b_values):
    """Direct enumeration of P(A = a1), P(A = a2) on a finite space."""
    q = [0.0, 0.0]
    for w, a in zip(weights, a_values):
        q[a] += w
    return tuple(q)


class TestTotalProbability:
    def test_e2(self):
        out = predict_outcome((0.3, 0.7), E2_T, CLASSICAL)
        assert out == pytest.approx((0.48, 0.52), abs=1e-15)

    def test_degenerate_prior_selects_first_row(self):
        assert predict_outcome((1.0, 0.0), E2_T, CLASSICAL) == (0.2, 0.8)

    def test_symmetric_case_against_finite_enumeration(self):
        # Kolmogorov space realizing prior (.5,.5) and rows (.8,.2),(.2,.8).
        weights = (0.4, 0.1, 0.1, 0.4)
        a_values = (0, 1, 0, 1)
        b_values = (0, 0, 1, 1)
        expected = brute_force_marginal(weights, a_values, b_values)
        assert expected == pytest.approx((0.5, 0.5), abs=1e-15)
        assert predict_outcome((0.5, 0.5), E3_T, CLASSICAL) == pytest.approx(expected, abs=1e-15)


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
    if max(m1, m2) <= min(eps, 1 - eps):
        return TheoryKind.CLASSICAL
    if m1 <= 1 - eps and m2 <= 1 - eps:
        return TheoryKind.TRIGONOMETRIC
    if m1 >= 1 + eps and m2 >= 1 + eps:
        return TheoryKind.HYPERBOLIC
    if (m1 <= 1 - eps) != (m2 <= 1 - eps) and (m1 >= 1 + eps or m2 >= 1 + eps):
        return TheoryKind.HYPER_TRIGONOMETRIC
    return TheoryKind.BOUNDARY


FREQUENCY = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))


class TestInvertColumn:
    """``invert_column`` is the one inversion rule: ``lambda_from_statistics``
    applies it to floats, the bootstrap and ``sweep`` to arrays."""

    @given(st.lists(st.tuples(FREQUENCY, FREQUENCY, FREQUENCY, FREQUENCY), min_size=1,
                    max_size=10))
    @settings(max_examples=500)
    def test_rows_agree_with_scalar_inversion(self, rows):
        # (q1, p1, t11, t21) rows with their complements, as the bootstrap passes them
        q1, p1, t11, t21 = np.array(rows).T
        p1 = p1[:, None]
        coefficients, failed, _, _ = invert_column(
            np.stack((q1, 1.0 - q1), axis=1),
            p1,
            1.0 - p1,
            np.stack((t11, 1.0 - t11), axis=1),
            np.stack((t21, 1.0 - t21), axis=1),
            sqrt=np.sqrt,
            where=np.where,
        )
        for (q1, p1, t11, t21), row, row_failed in zip(rows, coefficients, failed.any(axis=1)):
            stats = ContextStatistics(
                (p1, 1.0 - p1),
                TransitionMatrix(((t11, 1.0 - t11), (t21, 1.0 - t21))),
                (q1, 1.0 - q1),
            )
            try:
                lam = lambda_from_statistics(stats)
            except DegenerateContextError:
                assert row_failed
            else:
                assert not row_failed
                assert row.tobytes() == np.array(tuple(lam)).tobytes()

    def test_scalar_form_reports_its_terms(self):
        assert invert_column(0.75, 0.5, 0.5, 0.5, 0.5) == (0.5, False, 0.25, 0.5)
        assert invert_column(0.5, 1.0, 0.0, 0.5, 0.5) == (0.0, False, 0.0, 0.0)
        assert invert_column(0.75, 1.0, 0.0, 0.5, 0.5) == (0.0, True, 0.25, 0.0)


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

    def test_boundary_between_the_bands_at_eps_one(self):
        # 1e-20 is neither at most 1 - eps = 0 nor at least 1 + eps = 2: component 1 lies
        # in no band, and 3.0 lies in the band above one.
        verdict = classify_theory(LambdaPair(1e-20, 3.0), 1.0)
        assert verdict.kind is TheoryKind.BOUNDARY
        assert verdict.boundary_components == (1,)

    @pytest.mark.parametrize("lam, eps, components", [
        ((-1.0999999999999992, 0.9), 0.1, (1,)),
        ((0.9, 1.0), 0.1, (2,)),
        ((-0.8000000000000005, -1.2), 0.2, (1,)),
    ])
    def test_boundary_lists_no_component_that_lies_in_a_band(self, lam, eps, components):
        # 0.9 <= 1 - 0.1 and 1.2 >= 1 + 0.2 hold in floats, although |m - 1| < eps does too.
        verdict = classify_theory(LambdaPair(*lam), eps)
        assert verdict.kind is TheoryKind.BOUNDARY
        assert verdict.boundary_components == components

    @given(st.floats(0.0, 3.0).flatmap(
        lambda eps: st.tuples(st.just(eps), near_band_edges(eps), near_band_edges(eps))
    ))
    @example((0.1, -1.0999999999999992, 0.9))
    @settings(max_examples=1000)
    def test_boundary_components_are_the_components_in_no_band(self, drawn):
        eps, lam1, lam2 = drawn
        verdict = classify_theory(LambdaPair(lam1, lam2), eps)
        in_no_band = tuple(
            j + 1 for j, m in enumerate((abs(lam1), abs(lam2)))
            if not (m <= 1.0 - eps or m >= 1.0 + eps)
        )
        assert (verdict.kind is TheoryKind.BOUNDARY) == bool(in_no_band)
        assert verdict.boundary_components == in_no_band

    def test_band_above_half_reads_magnitudes_near_both_ends_as_boundary(self):
        # At eps 0.6 the bands around 0 and 1 overlap, and 0.6 lies in both.
        verdict = classify_theory(LambdaPair(0.6, -0.6), 0.6)
        assert verdict.kind is TheoryKind.BOUNDARY
        assert verdict.boundary_components == (1, 2)

    def test_exhaustive_grid(self):
        grid = (-2.0, -1.25, -1.0, -0.5, 0.0, 0.5, 1.0, 1.25, 2.0)
        for eps in (1e-9, 0.6, 1.5):
            for l1 in grid:
                for l2 in grid:
                    verdict = classify_theory(LambdaPair(l1, l2), eps)
                    assert verdict.kind is expected_kind(l1, l2, eps), (l1, l2, eps)

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
        # Within the matrix's own 1e-9 row check, beyond a 1e-10 tolerance.
        report = check_double_stochastic(TransitionMatrix(((0.2, 0.8 + 5e-10), (0.6, 0.4))), 1e-10)
        assert not report.is_stochastic
        assert report.row_residuals == pytest.approx((5e-10, 0.0), abs=1e-12)

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
        for matrix in (E2_T, E3_T, HALF, IDENTITY):
            report = check_double_stochastic(matrix, 1e-9)
            assert not report.is_double_stochastic or report.is_stochastic

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
    def test_rejected_tolerance_is_named_tolerance(self, tol):
        with pytest.raises(ValidationError, match=r"^tolerance must be "):
            check_double_stochastic(HALF, tol)


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

    @given(lam1=st.floats(-5.0, 5.0), lam2=st.floats(-5.0, 5.0))
    @settings(max_examples=300)
    def test_coefficient_round_trip(self, lam1, lam2):
        pair = phase_parametrization(LambdaPair(lam1, lam2))
        for phase, lam in zip(pair, (lam1, lam2)):
            coefficient = (math.cos(phase.theta) if phase.is_trigonometric
                           else phase.sign * math.cosh(phase.theta))
            assert coefficient == pytest.approx(lam, abs=1e-9)


def branch_edges():
    """+-0 and +-1, each with the floats on either side."""
    return [sign * x for point in (0.0, 1.0)
            for x in (math.nextafter(point, -math.inf), point, math.nextafter(point, math.inf))
            for sign in (1.0, -1.0)]


def reference_branch(value):
    """The phase rule written out as branches."""
    magnitude = abs(value)
    if magnitude <= 1.0:
        return True, value
    return False, magnitude


class TestPhaseBranch:
    """``phase_branch`` is the one phase rule: ``phase_parametrization`` applies it
    to floats, ``analyze_block`` to arrays."""

    @given(st.lists(st.floats(-4.0, 4.0) | st.sampled_from(branch_edges()),
                    min_size=1, max_size=10))
    @example(branch_edges())
    @settings(max_examples=500)
    def test_float_and_array_forms_agree(self, values):
        trig, argument = phase_branch(np.array(values), where=np.where)
        for value, row_trig, row_argument in zip(values, trig.tolist(), argument.tolist()):
            scalar_trig, scalar_argument = phase_branch(value)
            expected_trig, expected_argument = reference_branch(value)
            assert (scalar_trig, scalar_argument.hex()) == (row_trig, row_argument.hex())
            assert (scalar_trig, scalar_argument.hex()) == (expected_trig, expected_argument.hex())
            phase = phase_parametrization(LambdaPair(value, value)).phase1
            angle = math.acos if scalar_trig else math.acosh
            assert (phase.is_trigonometric, phase.theta) == (scalar_trig, angle(scalar_argument))


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

    @pytest.mark.parametrize(
        "stats, thetas, expected",
        [
            (E1_STATS, (math.pi / 3, 2 * math.pi / 3), 0.0),
            (ContextStatistics((0.5, 0.5), E3_T, (0.5, 0.5)), (math.pi / 2, math.pi / 2), 0.0),
            (ContextStatistics((0.5, 0.5), HALF, (0.5, 0.5)), (0.0, math.pi / 2), 0.25),
        ],
        ids=["e1-lift", "right-angles", "violating-phases"],
    )
    def test_balance_phase_identity(self, stats, thetas, expected):
        # On a doubly stochastic matrix both weights equal w, and the residual
        # is (w/2)*(cos theta1 + cos theta2): zero exactly when the phases cancel.
        lam = LambdaPair(*(math.cos(theta) for theta in thetas))
        assert normalization_residual(stats, lam) == pytest.approx(expected, abs=1e-15)

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
