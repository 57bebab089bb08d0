import ast
from pathlib import Path

import sagnac_parity
from sagnac_parity import cli, detector, fit, fock, metrics, model, qfi

# the package's public names, written out so that a change to them shows here
PUBLIC_NAMES = {
    "__version__",
    "InterferometerSpec",
    "ImperfectionProfile",
    "FringeModel",
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
    "qfi_si",
    "qfi_mzi",
    "qfi_mzi_phase_averaged",
    "crb_sensitivity",
    "qfi_report",
    "DetectorModel",
    "DetectorRun",
    "simulate",
    "scan",
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
    assert len(names) == len(set(names)) == 41
    assert set(names) == PUBLIC_NAMES
    for module in modules:
        for name in module.__all__:
            assert getattr(sagnac_parity, name) is getattr(module, name), name
    assert sagnac_parity.ExperimentConfig is cli.ExperimentConfig
    assert sagnac_parity.run_experiment is cli.run_experiment
    assert isinstance(sagnac_parity.__version__, str)
    assert set(names) <= set(dir(sagnac_parity))
    star = {}
    exec("from sagnac_parity import *", star)
    assert set(star) - {"__builtins__"} == set(names)
    assert not hasattr(sagnac_parity, "no_such_name")


def test_modules_share_only_the_input_rules_and_the_experiment_helpers():
    # a private name imported across modules is an API nobody declared: the
    # shared ones are the integer, charge, real and real-array checks and the fringe
    # shape, and the size caps and serializers that cli takes from experiment
    imported = set()
    for path in Path(sagnac_parity.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("sagnac_parity")):
                imported |= {alias.name for alias in node.names if alias.name.startswith("_")}
    assert imported == {"_check_integer", "_check_ell", "_check_real", "_check_reals", "_shape", "_jsonable",
                        "_write_csv", "_MAX_POINTS", "_MAX_TRIALS"}


def test_only_the_input_rules_refuse_a_bool():
    # the integer, real and real-array rules in model are the library's only bool refusals;
    # an isinstance or issubclass(..., bool) anywhere else is a second, hand-written rule for an input
    sites = []
    for module in (model, fock, qfi, detector, metrics, fit):
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        rules = [f for f in tree.body
                 if isinstance(f, ast.FunctionDef) and f.name in ("_check_integer", "_check_real", "_check_reals")]
        exempt = {id(node) for rule in rules for node in ast.walk(rule)}
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", None) in ("isinstance", "issubclass")
                and len(node.args) == 2
                and {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node.args[1])} & {"bool", "bool_"}
                and id(node) not in exempt
            ):
                sites.append(f"{module.__name__}:{node.lineno}")
    assert sites == []


def test_each_input_is_checked_by_one_call():
    # one call of an input rule states an input's whole range and returns the value to compute
    # from; a function that calls a rule twice with the same literal name checks one input twice
    repeats = []
    for path in sorted(Path(sagnac_parity.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function in ast.walk(tree):
            if not isinstance(function, ast.FunctionDef):
                continue
            names = [
                node.args[0].value
                for node in ast.walk(function)
                if isinstance(node, ast.Call)
                and getattr(node.func, "id", None) in ("_check_integer", "_check_real")
                and node.args
                and isinstance(node.args[0], ast.Constant)
            ]
            repeats += [f"{path.stem}:{function.lineno} {function.name} {name}"
                        for name in sorted(set(names)) if names.count(name) > 1]
    assert repeats == []
