"""Deterministic, splittable random-number streams.

Every stochastic component of the package draws from a substream derived from
``(seed, role, *indices)`` through :class:`numpy.random.SeedSequence`.  Two
substreams with different paths are statistically independent, and the mapping
is a pure function of its arguments: results never depend on evaluation order
or on how work is distributed across workers.

Role tags are small integers so that stream derivation is stable across
releases; never renumber them.  A retired tag, or a retired use of one, is
never reused: ``ROLE_MODEL`` no longer draws classical models, one stream per
seed; they come 64 to a stream from ``ROLE_MODEL_CLASSICAL_CHUNK``.
"""

from __future__ import annotations

import numpy as np

from ._validation import require_seed

# Stream roles.  Frozen: changing a value changes every derived stream.
ROLE_MODEL = 0  # path (seed, 0): one qubit or synthetic model; retired for classical models
ROLE_A_ON_CONTEXT = 1
ROLE_B_ON_CONTEXT = 2
ROLE_A_ON_FILTERED_1 = 3
ROLE_A_ON_FILTERED_2 = 4
ROLE_BOOTSTRAP = 5  # retired: one stream per bootstrap replicate; never reuse
ROLE_STUDY = 6  # drawn only by the tests' convergence helper
ROLE_BOOTSTRAP_BLOCK = 7  # retired: replicates in blocks of 1024; never reuse
ROLE_BOOTSTRAP_EXPERIMENT = 8  # path (8, j): the tallies of experiment j, 0..3
ROLE_MODEL_CLASSICAL_CHUNK = 9  # path (c, 9): classical models 64*c .. 64*c + 63


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return the generator for substream ``(seed, *path)``."""
    require_seed(seed)
    return np.random.default_rng(np.random.SeedSequence((seed, *path)))
