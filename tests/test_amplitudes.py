"""Amplitude lift: law-of-cosines representation and its consequences."""

import cmath
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ctxprob import (
    AmplitudePair,
    ContextStatistics,
    InfeasibleLambdaError,
    Phase,
    PhaseKind,
    PhasePair,
    TransitionMatrix,
    ValidationError,
    born_residual,
    lambda_from_statistics,
    lift_to_amplitudes,
    phase_parametrization,
)

from test_calculus import E1_STATS, consistent_statistics

E1_PHASES = PhasePair(
    Phase(PhaseKind.TRIGONOMETRIC, math.pi / 3),
    Phase(PhaseKind.TRIGONOMETRIC, 2 * math.pi / 3),
)


def trig(theta):
    return Phase(PhaseKind.TRIGONOMETRIC, theta)


class TestLift:
    def test_e1_amplitudes_match_hand_expansion(self):
        amp = lift_to_amplitudes(E1_STATS, E1_PHASES)
        expected1 = 0.5 + 0.5 * cmath.exp(1j * math.pi / 3)
        expected2 = 0.5 + 0.5 * cmath.exp(2j * math.pi / 3)
        assert amp.psi[0] == pytest.approx(expected1, abs=1e-15)
        assert amp.psi[1] == pytest.approx(expected2, abs=1e-15)
        # |a + b e^{i t}|^2 = a^2 + b^2 + 2 a b cos t
        assert abs(amp.psi[0]) ** 2 == pytest.approx(
            0.25 + 0.25 + 2 * 0.25 * math.cos(math.pi / 3), abs=1e-15
        )
        assert amp.probabilities() == pytest.approx((0.75, 0.25), abs=1e-12)

    def test_zero_phases_give_real_nonnegative_amplitudes(self):
        # lambda = (1, 1) is feasible only when both interference weights
        # vanish; deterministic coupling realizes that.
        stats = ContextStatistics(
            (0.3, 0.7), TransitionMatrix(((1.0, 0.0), (0.0, 1.0))), (0.3, 0.7)
        )
        amp = lift_to_amplitudes(stats, PhasePair(trig(0.0), trig(0.0)))
        assert amp.psi[0].imag == 0.0 and amp.psi[1].imag == 0.0
        assert amp.psi[0].real == pytest.approx(math.sqrt(0.3), abs=1e-15)
        assert amp.psi[1].real == pytest.approx(math.sqrt(0.7), abs=1e-15)
        assert born_residual(amp, stats.outcome) <= 1e-12

    def test_hyperbolic_phase_is_rejected(self):
        stats = ContextStatistics(
            (0.5, 0.5), TransitionMatrix(((0.8, 0.2), (0.2, 0.8))), (1.0, 0.0)
        )
        phases = phase_parametrization(lambda_from_statistics(stats))
        assert not phases.all_trigonometric
        with pytest.raises(InfeasibleLambdaError, match="requires trigonometric phases"):
            lift_to_amplitudes(stats, phases)

    @given(
        p1=st.floats(0.05, 0.95),
        t11=st.floats(0.05, 0.95),
        t21=st.floats(0.05, 0.95),
        lam1=st.floats(-0.999, 0.999),
    )
    @settings(max_examples=500)
    def test_born_rule_and_normalization_hold_by_construction(self, p1, t11, t21, lam1):
        built = consistent_statistics(p1, t11, t21, lam1)
        assume(built is not None)
        stats, lam = built
        assume(max(abs(lam.lambda1), abs(lam.lambda2)) <= 0.999)
        amp = lift_to_amplitudes(stats, phase_parametrization(lam))
        assert born_residual(amp, stats.outcome) <= 1e-12
        norm = abs(amp.psi[0]) ** 2 + abs(amp.psi[1]) ** 2
        assert norm == pytest.approx(1.0, abs=1e-12)


class TestBornResidual:
    def test_perfect_match(self):
        amp = AmplitudePair((1.0 + 0.0j, 0.0j), PhasePair(trig(0.0), trig(0.0)))
        assert born_residual(amp, (1.0, 0.0)) == 0.0

    def test_reports_largest_deviation(self):
        amp = AmplitudePair((1.0 + 0.0j, 0.0j), PhasePair(trig(0.0), trig(0.0)))
        assert born_residual(amp, (0.5, 0.5)) == pytest.approx(0.5, abs=1e-15)

    def test_e1_lift_residual_vanishes(self):
        amp = lift_to_amplitudes(E1_STATS, E1_PHASES)
        assert born_residual(amp, (0.75, 0.25)) <= 1e-12


class TestAmplitudePair:
    def test_rejects_unnormalized_amplitudes(self):
        with pytest.raises(ValidationError):
            AmplitudePair((0.9 + 0.0j, 0.0j), PhasePair(trig(0.0), trig(0.0)))

    @pytest.mark.parametrize("psi", [1.0, (1.0, 0.0, 0.0)], ids=["scalar", "three"])
    def test_rejects_a_non_pair(self, psi):
        with pytest.raises(ValidationError, match="^amplitude pair must have exactly two"):
            AmplitudePair(psi, PhasePair(trig(0.0), trig(0.0)))
