import sagnac_parity
from sagnac_parity import cli, detector, fit, fock, metrics, model, qfi

# the package's public names, written out so that a change to them shows here
PUBLIC_NAMES = {
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
    "ParityCurve",
    "parity_curve",
    "sensitivity",
    "min_sensitivity",
    "visibility",
    "fwhm",
    "fringe_figures",
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
}


def test_package_namespace_is_the_modules_all_lists():
    names = sagnac_parity.__all__
    modules = (model, fock, metrics, qfi, detector, fit)
    assert names == ["__version__", *(n for m in modules for n in m.__all__), "ExperimentConfig", "run_experiment"]
    assert len(names) == len(set(names)) == 45
    assert set(names) == PUBLIC_NAMES
    for module in modules:
        for name in module.__all__:
            assert getattr(sagnac_parity, name) is getattr(module, name), name
    assert sagnac_parity.ExperimentConfig is cli.ExperimentConfig
    assert sagnac_parity.run_experiment is cli.run_experiment
    assert isinstance(sagnac_parity.__version__, str)
    # the namespace is filled in on access, so listing and star-imports
    # must see the same names, and a miss must stay an AttributeError
    assert set(names) <= set(dir(sagnac_parity))
    star = {}
    exec("from sagnac_parity import *", star)
    assert set(star) - {"__builtins__"} == set(names)
    assert not hasattr(sagnac_parity, "no_such_name")
