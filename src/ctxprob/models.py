"""Ground-truth model families producing exact context statistics.

Three independent oracles exercise the calculus from the outside:

* :class:`KolmogorovModel` -- a finite classical probability space with
  explicit point weights.  Conditioning is brute-force enumeration, so the
  resulting statistics satisfy the total-probability formula exactly and the
  extracted interference coefficients must vanish.
* :class:`QubitModel` -- a pure two-level quantum state measured in two
  orthonormal bases.  Its transition matrices are doubly stochastic and its
  coefficients trigonometric.
* :class:`SyntheticModel` -- statistics manufactured to carry a prescribed
  coefficient pair, the only practical way to reach the hyperbolic regime.

Random instances of each family are pure functions of ``(kind, seed)``.
"""

from __future__ import annotations

import cmath
import math
from enum import Enum

import numpy as np

from ._rng import ROLE_MODEL, ROLE_MODEL_CLASSICAL_CHUNK, substream
from ._validation import (
    TOL_EXACT,
    Record,
    as_pair,
    as_tuple,
    require_distribution,
    require_finite,
    require_outcome_index,
    require_probability,
    require_seed,
    shown,
    sum_residual,
)
from .calculus import (
    ContextStatistics,
    LambdaPair,
    TransitionMatrix,
    interference_terms,
    predict_outcome,
)
from .errors import DegenerateContextError, InfeasibleLambdaError, ValidationError

__all__ = [
    "KolmogorovModel",
    "QubitModel",
    "SyntheticModel",
    "ModelKind",
    "classical_statistics",
    "qubit_statistics",
    "synthesize_statistics",
    "exact_statistics",
    "random_model",
]

_MAX_POINTS = 16

#: Classical models drawn from one stream: model ``s`` is model ``s % 64`` of
#: draw chunk ``s // 64``.  Frozen with the stream layout.
CLASSICAL_CHUNK_MODELS = 64


class KolmogorovModel(Record):
    """Finite classical probability space with two dichotomic random variables.

    Parallel tuples: ``weights[k]`` is the probability of elementary event
    ``k``, ``a_values[k]`` / ``b_values[k]`` its A/B outcome indices (0 or 1).
    """

    def __init__(self, weights: tuple[float, ...], a_values: tuple[int, ...],
                 b_values: tuple[int, ...]) -> None:
        seq = "weights, a_values and b_values must be sequences"
        weights = tuple(require_probability(w, "weight") for w in as_tuple(weights, seq))
        if not weights:
            raise ValidationError("model needs at least one elementary event")
        if abs(sum(weights) - 1.0) > TOL_EXACT:
            raise ValidationError(f"weights must sum to 1, got {sum(weights)}")
        a_values = tuple(require_outcome_index(a, "a_value") for a in as_tuple(a_values, seq))
        b_values = tuple(require_outcome_index(b, "b_value") for b in as_tuple(b_values, seq))
        if not len(weights) == len(a_values) == len(b_values):
            raise ValidationError("weights, a_values and b_values must have equal length")
        self._set(weights=weights, a_values=a_values, b_values=b_values)


class QubitModel(Record):
    """Pure two-level state and measurement bases, all phases in radians.

    State ``cos(alpha)|a1> + exp(i*phi)*sin(alpha)|a2>`` in the A-eigenbasis;
    the B-eigenbasis is the A-basis rotated by ``b_rotation`` with relative
    phase ``b_phase``.  Global phases are dropped: this is a minimal complete
    chart for two-level measurement statistics.
    """

    def __init__(self, alpha: float, phi: float, b_rotation: float,
                 b_phase: float = 0.0) -> None:
        self._set(alpha=require_finite(alpha, "alpha"), phi=require_finite(phi, "phi"),
                  b_rotation=require_finite(b_rotation, "b_rotation"),
                  b_phase=require_finite(b_phase, "b_phase"))


class SyntheticModel(Record):
    """Generator triple (prior, transition, target coefficients)."""

    def __init__(self, prior: tuple[float, float], transition: TransitionMatrix,
                 target_lambda: LambdaPair) -> None:
        prior = require_distribution(prior, "prior")
        if not isinstance(transition, TransitionMatrix):
            transition = TransitionMatrix(transition)
        if not isinstance(target_lambda, LambdaPair):
            pair = as_pair(target_lambda, "target_lambda must have exactly two components")
            target_lambda = LambdaPair(*pair)
        self._set(prior=prior, transition=transition, target_lambda=target_lambda)


Model = KolmogorovModel | QubitModel | SyntheticModel


class ModelKind(str, Enum):
    CLASSICAL = "classical"
    QUBIT = "qubit"
    SYNTHETIC_TRIGONOMETRIC = "synthetic-trigonometric"
    SYNTHETIC_HYPERBOLIC = "synthetic-hyperbolic"


def classical_statistics(model: KolmogorovModel) -> ContextStatistics:
    """Exact statistics of a finite classical model by brute-force conditioning.

    Prior = marginal law of B; transition rows = conditional laws of A given
    each B-outcome; outcome = marginal law of A.  Raises
    :class:`DegenerateContextError` when a B-outcome has zero total weight, since
    the corresponding filtered ensemble cannot be prepared.
    """
    b_weight = [0.0, 0.0]
    joint = [[0.0, 0.0], [0.0, 0.0]]  # [b][a]
    a_weight = [0.0, 0.0]
    for w, a, b in zip(model.weights, model.a_values, model.b_values):
        b_weight[b] += w
        joint[b][a] += w
        a_weight[a] += w
    if min(b_weight) <= 0.0:
        empty = b_weight.index(min(b_weight))
        raise DegenerateContextError(
            f"B-outcome {empty + 1} has zero probability; filtration impossible"
        )
    rows = [[weight / b_weight[b] for weight in joint[b]] for b in (0, 1)]
    return ContextStatistics(b_weight, TransitionMatrix(rows), a_weight)


def qubit_state(alpha: float, phi: float) -> tuple[complex, complex]:
    """The state ``(cos alpha, e^{i phi} sin alpha)`` of a :class:`QubitModel`."""
    return (complex(math.cos(alpha)), cmath.exp(1j * phi) * math.sin(alpha))


def qubit_basis(b_rotation: float, b_phase: float) -> tuple[tuple, tuple]:
    """The two vectors of a :class:`QubitModel`'s B basis."""
    c, s = math.cos(b_rotation), math.sin(b_rotation)
    chi = cmath.exp(1j * b_phase)
    return ((complex(c), chi * s), (-s / chi, complex(c)))


def born(vector: tuple, psi: tuple) -> float:
    """``|<vector|psi>|^2``."""
    return abs(vector[0].conjugate() * psi[0] + vector[1].conjugate() * psi[1]) ** 2


def qubit_statistics(model: QubitModel) -> ContextStatistics:
    """Exact measurement statistics of a pure two-level state.

    Outcome ``q_j = |<a_j|psi>|^2``, prior ``p_i = |<b_i|psi>|^2``, transition
    ``t_ij = |<a_j|b_i>|^2``.  The transition matrix is doubly stochastic by
    completeness of both bases, and the implied coefficients are
    trigonometric.
    """
    psi = qubit_state(model.alpha, model.phi)
    basis = qubit_basis(model.b_rotation, model.b_phase)
    return ContextStatistics([born(b, psi) for b in basis],
                             TransitionMatrix([[abs(z) ** 2 for z in b] for b in basis]),
                             [abs(z) ** 2 for z in psi])


def synthesize_statistics(model: SyntheticModel) -> ContextStatistics:
    """Statistics carrying exactly the model's target coefficients.

    The outcome pair is the forward prediction for the target coefficients;
    inverting the finished statistics recovers the targets (up to rounding,
    where the interference weights are nondegenerate).  Raises
    :class:`InfeasibleLambdaError` when the prediction leaves [0, 1] or the
    two predictions fail to sum to one (the targets violate the cancellation
    constraint between the interference terms).
    """
    outcome = predict_outcome(model.prior, model.transition, model.target_lambda)
    if sum_residual(outcome[0], outcome[1]) > TOL_EXACT:
        raise InfeasibleLambdaError(
            f"target coefficients {tuple(model.target_lambda)} break outcome "
            f"normalization: predictions sum to {outcome[0] + outcome[1]}"
        )
    return ContextStatistics(prior=model.prior, transition=model.transition, outcome=outcome)


def exact_statistics(model: Model) -> ContextStatistics:
    """Dispatch to the family-specific exact-statistics oracle."""
    if isinstance(model, KolmogorovModel):
        return classical_statistics(model)
    if isinstance(model, QubitModel):
        return qubit_statistics(model)
    if isinstance(model, SyntheticModel):
        return synthesize_statistics(model)
    raise ValidationError(f"unknown model type {type(model).__name__}")


# ---------------------------------------------------------------------------
# Random model generation
# ---------------------------------------------------------------------------


def classical_chunk(chunk: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Unvalidated ``(model, weights, a_values, b_values)`` arrays of the classical
    models of draw chunk ``chunk``, one entry per point: point ``i`` belongs to model
    ``model[i]`` of the chunk, and each model's points are contiguous, in order.

    The chunk's ``CLASSICAL_CHUNK_MODELS`` models are drawn together from
    ``substream(chunk, ROLE_MODEL_CLASSICAL_CHUNK)``: every model's size, then every
    point's raw weight, then every point's A and B values.
    """
    rng = substream(chunk, ROLE_MODEL_CLASSICAL_CHUNK)
    sizes = rng.integers(2, _MAX_POINTS + 1, size=CLASSICAL_CHUNK_MODELS)
    # Strictly positive weights and a forced point in each filtration keep
    # every draw valid without rejection.
    raw = rng.random(int(sizes.sum())) + 1e-3
    a_values, b_values = rng.integers(0, 2, size=(2, len(raw)))
    starts = np.cumsum(sizes) - sizes
    b_values[starts], b_values[starts + 1] = 0, 1
    model = np.repeat(np.arange(CLASSICAL_CHUNK_MODELS), sizes)
    return model, raw / np.bincount(model, raw)[model], a_values, b_values


def random_classical_rows(seeds: range) -> np.ndarray:
    """The unvalidated ``(len(seeds), 8)`` block ``(p1, p2, t11, t12, t21, t22, q1, q2)``
    of ``random_model("classical", s)`` for each seed ``s`` of a nonempty range of
    consecutive seeds: bit for bit what :func:`classical_statistics` computes
    before its validation clips it.

    The first and the last seed are checked, so an out-of-range seed is reported
    as the first such seed in order.  Each draw chunk is tallied at once:
    ``np.bincount`` adds each model's weights in index order, as the scalar loop
    does.  Every draw has a point in each filtration, so no row has the zero
    B-weight that :func:`classical_statistics` refuses.
    """
    require_seed(seeds.start)
    require_seed(min(seeds[-1], 2**64))  # 2^64 is the first bad seed, if the range reaches it
    chunks = range(seeds.start // CLASSICAL_CHUNK_MODELS, seeds[-1] // CLASSICAL_CHUNK_MODELS + 1)
    block = np.empty((len(chunks), CLASSICAL_CHUNK_MODELS, 8))
    for rows, chunk in zip(block, chunks):
        model, weights, a_values, b_values = classical_chunk(chunk)

        def tally(key: np.ndarray, per_model: int) -> np.ndarray:
            return np.bincount(per_model * model + key, weights,
                               per_model * CLASSICAL_CHUNK_MODELS).reshape(-1, per_model)

        rows[:, 0:2] = b_weight = tally(b_values, 2)
        rows[:, 2:6] = tally(2 * b_values + a_values, 4) / np.repeat(b_weight, 2, axis=1)
        rows[:, 6:8] = tally(a_values, 2)
    first = seeds.start % CLASSICAL_CHUNK_MODELS
    return block.reshape(-1, 8)[first : first + len(seeds)]


def _random_qubit(rng) -> QubitModel:
    return QubitModel(
        alpha=float(rng.uniform(0.0, math.pi / 2)),
        phi=float(rng.uniform(0.0, 2.0 * math.pi)),
        b_rotation=float(rng.uniform(0.0, math.pi / 2)),
        b_phase=float(rng.uniform(0.0, 2.0 * math.pi)),
    )


def _random_synthetic(rng, hyperbolic: bool) -> SyntheticModel:
    # Symmetric transition rows (q, 1-q), (1-q, q) make the two interference
    # weights equal, so lambda2 = -lambda1 keeps the outcome normalized for
    # any prior; amplitude feasibility is then |lambda1| <= min(c, 1 - c) / w
    # for outcome 1's classical term c and weight w.  By AM-GM both c and
    # 1 - c are at least w, so every trigonometric draw is feasible.  A
    # hyperbolic draw is rejected about half the time and drawn again.
    while True:
        p1 = float(rng.uniform(0.2, 0.8))
        q = float(rng.uniform(0.6, 0.95)) if hyperbolic else float(rng.uniform(0.15, 0.85))
        prior = (p1, 1.0 - p1)
        transition = TransitionMatrix(((q, 1.0 - q), (1.0 - q, q)))
        if hyperbolic:
            classical_q1, weight = interference_terms(*prior, q, 1.0 - q)
            margin = 1.05
            reach = min(1.0 - classical_q1, classical_q1) / weight
            if reach <= margin:
                continue
            magnitude = float(rng.uniform(margin, reach))
            lam1 = magnitude if rng.random() < 0.5 else -magnitude
        else:
            lam1 = float(rng.uniform(-0.999, 0.999))
        return SyntheticModel(
            prior=prior, transition=transition, target_lambda=LambdaPair(lam1, -lam1)
        )


def random_model(kind: ModelKind | str, seed: int) -> Model:
    """Deterministic random instance of a model family.

    Pure function of ``(kind, seed)``: the same pair always yields the same
    instance, and every instance satisfies its family invariants (classical
    draws have both filtrations nonempty; synthetic draws are feasible).
    A classical model is model ``seed % CLASSICAL_CHUNK_MODELS`` of
    :func:`classical_chunk` ``seed // CLASSICAL_CHUNK_MODELS``; a qubit or
    synthetic model is drawn from the seed's own ``ROLE_MODEL`` substream.
    """
    try:
        kind = ModelKind(kind)
    except ValueError:
        raise ValidationError(
            f"unknown model kind {shown(kind)}; have {[k.value for k in ModelKind]}"
        ) from None
    require_seed(seed)
    if kind is ModelKind.CLASSICAL:
        chunk, index = divmod(seed, CLASSICAL_CHUNK_MODELS)
        model, *arrays = classical_chunk(chunk)
        start, stop = np.searchsorted(model, (index, index + 1))
        return KolmogorovModel(*(tuple(values[start:stop].tolist()) for values in arrays))
    rng = substream(seed, ROLE_MODEL)
    if kind is ModelKind.QUBIT:
        return _random_qubit(rng)
    return _random_synthetic(rng, hyperbolic=kind is ModelKind.SYNTHETIC_HYPERBOLIC)
