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

__version__ = "0.1.0"

# The package namespace is each module's __all__, in this order, plus the
# experiment entry from cli.  cli is imported on first use of those two
# names: `python -m sagnac_parity.cli` warns if the package imported it first.
_MODULES = (model, fock, metrics, qfi, detector, fit)
_CLI_NAMES = ("ExperimentConfig", "run_experiment")
__all__ = ["__version__", *(n for m in _MODULES for n in m.__all__), *_CLI_NAMES]
globals().update((n, getattr(m, n)) for m in _MODULES for n in m.__all__)


def __getattr__(name):
    if name not in _CLI_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import cli
    return getattr(cli, name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
