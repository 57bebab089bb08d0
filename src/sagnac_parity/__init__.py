"""Super-resolving OAM interferometry with coherent light and parity readout.

A rotation-sensing Sagnac interferometer fed with an orbital-angular-momentum
coherent state concentrates its output fringe by a factor proportional to the
topological charge.  This package provides the closed-form fringe and
sensitivity models (ideal and with preparation, loss, efficiency and
dark-count imperfections), exact photon-number distributions for
cross-checking them, Fisher-information bounds, a seeded Monte Carlo detector
model, and fringe fitting, plus a CLI that tabulates all of it.
"""

from . import detector, fit, fock, metrics, model, qfi
from .model import *
from .fock import *
from .metrics import *
from .qfi import *
from .detector import *
from .fit import *
from .cli import ExperimentConfig, run_experiment

__version__ = "0.1.0"

# the package namespace is each module's __all__, plus the experiment entry
__all__ = [
    "__version__",
    *model.__all__,
    *fock.__all__,
    *metrics.__all__,
    *qfi.__all__,
    *detector.__all__,
    *fit.__all__,
    "ExperimentConfig",
    "run_experiment",
]
