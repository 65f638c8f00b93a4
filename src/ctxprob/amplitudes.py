"""Lift of trigonometric statistics to complex probability amplitudes.

For a trigonometric coefficient ``lambda_j = cos(theta_j)`` the outcome
transformation is the law of cosines ``c^2 = a^2 + b^2 + 2*a*b*cos(theta)``
with ``c^2 = q_j``, ``a^2 = p1*t1j`` and ``b^2 = p2*t2j``.  Reading ``c`` as
the modulus of a sum of two complex numbers of moduli ``a`` and ``b`` at
relative phase ``theta`` gives the amplitude representation

    psi_j = sqrt(p1*t1j) + exp(i*theta_j) * sqrt(p2*t2j),

whose squared modulus reproduces the outcome probability by construction.
The first term is fixed real nonnegative, which pins the free global phase
and makes amplitudes comparable for equality.
"""

from __future__ import annotations

import cmath
import math

from ._validation import TOL_EXACT, Record, as_pair, shown
from .calculus import ContextStatistics, PhasePair
from .errors import InfeasibleLambdaError, ValidationError

__all__ = ["AmplitudePair", "lift_to_amplitudes", "born_residual"]


class AmplitudePair(Record):
    """Complex amplitudes (psi1, psi2), one per A-outcome.

    The squared moduli sum to one (inherited from outcome normalization);
    construction rejects pairs violating this within ``TOL_EXACT``.
    """

    def __init__(self, psi: tuple[complex, complex], phases: PhasePair) -> None:
        shape = "amplitude pair must have exactly two components"
        psi = as_pair(psi, shape)
        try:
            psi = tuple(map(complex, psi))
        except (TypeError, ValueError):
            raise ValidationError(f"amplitudes must be complex numbers, got {shown(psi)}") from None
        norm = abs(psi[0]) ** 2 + abs(psi[1]) ** 2
        if abs(norm - 1.0) > TOL_EXACT:
            raise ValidationError(
                f"amplitudes must satisfy |psi1|^2 + |psi2|^2 = 1, got {norm}"
            )
        self._set(psi=psi, phases=phases)

    def probabilities(self) -> tuple[float, float]:
        return (abs(self.psi[0]) ** 2, abs(self.psi[1]) ** 2)


def lift_to_amplitudes(stats: ContextStatistics, phases: PhasePair) -> AmplitudePair:
    """Build the amplitude pair for trigonometric statistics.

    ``psi_j = sqrt(p1*t1j) + exp(i*theta_j)*sqrt(p2*t2j)``.  With phases
    taken from the statistics' own coefficients, ``|psi_j|^2`` equals the
    observed outcome probability (the Born rule holds by construction).
    Raises :class:`InfeasibleLambdaError` if either phase is hyperbolic.
    """
    if not phases.all_trigonometric:
        raise InfeasibleLambdaError(
            "amplitude lift requires trigonometric phases on both components"
        )
    p1, p2 = stats.prior
    psi = []
    for j, phase in enumerate(phases):
        a = math.sqrt(p1 * stats.transition.rows[0][j])
        b = math.sqrt(p2 * stats.transition.rows[1][j])
        psi.append(a + cmath.exp(1j * phase.theta) * b)
    return AmplitudePair(psi=(psi[0], psi[1]), phases=phases)


def born_residual(amplitudes: AmplitudePair, outcome: tuple[float, float]) -> float:
    """Largest deviation between squared moduli and outcome probabilities."""
    probs = amplitudes.probabilities()
    return max(abs(probs[0] - outcome[0]), abs(probs[1] - outcome[1]))
