"""Super-resolving OAM interferometry with coherent light and parity readout.

A rotation-sensing Sagnac interferometer fed with an orbital-angular-momentum
coherent state concentrates its output fringe by a factor proportional to the
topological charge.  This package provides the closed-form fringe and
sensitivity models (ideal and with preparation, loss, efficiency and
dark-count imperfections), exact photon-number distributions for
cross-checking them, Fisher-information bounds, a seeded Monte Carlo detector
model, and fringe fitting, plus a CLI that tabulates all of it.
"""

from .detector import DetectorModel, DetectorRun, credibility, scan, simulate
from .fit import (
    FitConvergenceError,
    FitResult,
    error_bars,
    fit_fringe,
    load_fringe_data,
    min_sensitivity_from_fit,
    sensitivity_from_fit,
)
from .fock import (
    FockTruncation,
    JointPhotonDistribution,
    TruncationError,
    attenuated_joint_distribution,
    even_odd_probabilities,
    joint_distribution,
    parity_sum,
)
from .metrics import (
    ParityCurve,
    count_fringe_peaks,
    fringe_figures,
    fwhm,
    min_sensitivity,
    parity_curve,
    sensitivity,
    super_resolution_factor,
    visibility,
)
from .model import (
    FringeModel,
    ImperfectionProfile,
    InterferometerSpec,
    dark_port_mean,
    parity_expectation,
    parity_expectation_dark,
    parity_expectation_efficiency,
    parity_expectation_ideal,
    parity_expectation_loss,
    parity_expectation_prep,
)
from .qfi import (
    QfiProtocol,
    QfiReport,
    crb_sensitivity,
    qfi_mzi,
    qfi_mzi_phase_averaged,
    qfi_report,
    qfi_si,
)
from .cli import ExperimentConfig, run_experiment

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "InterferometerSpec",
    "ImperfectionProfile",
    "FringeModel",
    "dark_port_mean",
    "parity_expectation_ideal",
    "parity_expectation_prep",
    "parity_expectation_loss",
    "parity_expectation_efficiency",
    "parity_expectation_dark",
    "parity_expectation",
    "FockTruncation",
    "TruncationError",
    "JointPhotonDistribution",
    "joint_distribution",
    "attenuated_joint_distribution",
    "parity_sum",
    "even_odd_probabilities",
    "ParityCurve",
    "parity_curve",
    "sensitivity",
    "min_sensitivity",
    "visibility",
    "fwhm",
    "super_resolution_factor",
    "fringe_figures",
    "count_fringe_peaks",
    "QfiProtocol",
    "QfiReport",
    "qfi_si",
    "qfi_mzi",
    "qfi_mzi_phase_averaged",
    "crb_sensitivity",
    "qfi_report",
    "DetectorModel",
    "DetectorRun",
    "simulate",
    "scan",
    "credibility",
    "FitResult",
    "FitConvergenceError",
    "fit_fringe",
    "error_bars",
    "sensitivity_from_fit",
    "min_sensitivity_from_fit",
    "load_fringe_data",
    "ExperimentConfig",
    "run_experiment",
]
