"""Super-resolving OAM interferometry with coherent light and parity readout.

A rotation-sensing Sagnac interferometer fed with an orbital-angular-momentum
coherent state concentrates its output fringe by a factor proportional to the
topological charge.  This package provides the closed-form fringe and
sensitivity models (ideal and with preparation, loss, efficiency and
dark-count imperfections), exact photon-number distributions for
cross-checking them, Fisher-information bounds, a seeded Monte Carlo detector
model, fringe fitting and the seeded end-to-end experiment, plus a CLI that
tabulates all of it.
"""

from . import detector, experiment, fit, fock, metrics, model, qfi

__version__ = "0.1.0"

# The package namespace is each module's __all__, in this order; it never
# imports cli, so `python -m sagnac_parity.cli` finds cli unloaded.
_MODULES = (model, fock, metrics, qfi, detector, fit, experiment)
__all__ = ["__version__", *(n for m in _MODULES for n in m.__all__)]
globals().update((n, getattr(m, n)) for m in _MODULES for n in m.__all__)
