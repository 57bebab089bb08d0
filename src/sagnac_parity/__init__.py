"""Super-resolving OAM interferometry with coherent light and parity readout.

A rotation-sensing Sagnac interferometer fed with an orbital-angular-momentum
coherent state concentrates its output fringe by a factor proportional to the
topological charge.  This package provides the closed-form fringe and
sensitivity models (ideal and with preparation, loss, efficiency and
dark-count imperfections), exact photon-number distributions for
cross-checking them, Fisher-information bounds, a seeded Monte Carlo detector
model, and fringe fitting, plus a CLI that tabulates all of it.
"""

import importlib

__version__ = "0.1.0"

# The package namespace is each module's __all__, in this order, plus the
# experiment entry from cli.  It is filled in on first access (PEP 562), so
# that importing the package, or a subcommand that needs no fit, does not
# load scipy; fit comes last because it is the module that loads it.
_MODULES = ("model", "fock", "metrics", "qfi", "detector", "fit")
_CLI_NAMES = ("ExperimentConfig", "run_experiment")


def _module(name):
    return importlib.import_module(f".{name}", __name__)


def __getattr__(name):
    # submodules first: `from . import metrics` asks hasattr(package,
    # "metrics"), and searching the modules for it would import fit
    if name in _MODULES or name == "cli":
        return _module(name)
    if name == "__all__":
        value = ["__version__", *(n for m in _MODULES for n in _module(m).__all__), *_CLI_NAMES]
    else:
        owner = next((m for m in _MODULES if name in _module(m).__all__), "cli" if name in _CLI_NAMES else None)
        if owner is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(_module(owner), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__getattr__("__all__")))
