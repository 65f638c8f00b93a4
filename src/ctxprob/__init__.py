"""Contextual probability calculus for dichotomic observables.

Forward and inverse evaluation of the interference-adjusted total-probability
transformation, classification of measurement statistics by their context
transition coefficients, stochasticity and statistical-balance checks,
amplitude lifts, ground-truth model oracles, and finite-ensemble simulation
with bootstrap inference.

Each module's ``__all__`` is the one list of its public names.  The package
exports every name of the modules imported below with ``*``, and of
:mod:`ctxprob.io` only the experiment file and the canonical serializer.
"""

from . import amplitudes, calculus, errors, models, report, sampling
from .amplitudes import *
from .calculus import *
from .errors import *
from .io import ExperimentFile, canonical_dumps
from .models import *
from .report import *
from .sampling import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *calculus.__all__,
    *amplitudes.__all__,
    *models.__all__,
    *sampling.__all__,
    "ExperimentFile",
    "canonical_dumps",
    *report.__all__,
    *errors.__all__,
]
