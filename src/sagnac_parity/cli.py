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
import functools
import json
import math
import os
import sys
from contextlib import contextmanager, suppress
from dataclasses import fields

import numpy as np

from . import metrics, qfi
from .experiment import _MAX_POINTS, _MAX_TRIALS, ExperimentConfig, _jsonable, _write_csv, run_experiment
from .model import ImperfectionProfile, InterferometerSpec, _check_integer, parity_expectation

__all__ = ["main"]

SEED_ENV_VAR = "SAGNAC_PARITY_SEED"

# curve variant -> the fields of the flags' profile its single-family fringe keeps
_VARIANTS = {
    "ideal": (),
    "prep": ("eta",),
    "loss": ("t_a", "t_b"),
    "efficiency": ("kappa",),
    "dark": ("dark_rate", "jitter_factor"),
    "composed": tuple(f.name for f in fields(ImperfectionProfile)),
}


# --- table output ----------------------------------------------------------


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
    "points": dict(type=int, help=f"number of angle points, at most {_MAX_POINTS}"),
    "degrees": dict(action="store_true", help="angles in degrees, in flags and output"),
    "variants": dict(help=f"comma-separated fringe variants to tabulate, from {', '.join(_VARIANTS)}"),
    "table": dict(choices=("summary", "sensitivity"), help="which table"),
    "n_sweep": dict(type=float, nargs=3, metavar=("START", "STOP", "POINTS"),
                    help=f"summary rows for a linear sweep of mean photon number, at most {_MAX_POINTS} POINTS"),
    "trials": dict(type=int, help=f"repetitions: nu in the qfi bound, trials per experiment scan point "
                                  f"(at most {_MAX_TRIALS})"),
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
    """ArgumentParser whose usage errors raise ValueError, which main reports."""

    def error(self, message):
        raise ValueError(message)


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
    if len(items) == (count or len(items)) and all(_conforms(kind, row.get("choices"), v) for v in items):
        with suppress(OverflowError):  # an int past the float range is no number
            items = [kind(item) for item in items]
            return items if listed else items[0]
    expected = f"one of {', '.join(row['choices'])}" if "choices" in row else _KINDS[kind]
    expected = f"a list of {count} values, each {expected}" if count else expected
    raise ValueError(f"config {name} must be {expected}, got {value!r}")


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
    points = _check_integer("points", args.points, 2, _MAX_POINTS + 1, f"at most {_MAX_POINTS}")
    to_radians = math.radians if args.degrees else float
    lo = 0.0 if args.phi_min is None else to_radians(args.phi_min)
    hi = spec.fringe_period if args.phi_max is None else to_radians(args.phi_max)
    if not (hi > lo and math.isfinite(hi - lo)):
        raise ValueError(f"angle range [{lo}, {hi}] must be finite and non-empty")
    grid = np.linspace(lo, hi, points)
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
    cols = [phi_out]
    for name in names:
        if name not in _VARIANTS:
            raise ValueError(f"unknown variant {name!r}; choose from {', '.join(_VARIANTS)}")
        kept = ImperfectionProfile(**{field: getattr(profile, field) for field in _VARIANTS[name]})
        cols.append(parity_expectation(spec, grid, kept))
    return "curve", [phi_name] + names, zip(*(col.tolist() for col in cols))


def _cmd_metrics(args):
    profile = _from_args(ImperfectionProfile, args)

    if args.table == "sensitivity":
        spec = _spec_from(args)
        grid, phi_name, phi_out = _grid_from(args, spec)
        sens = metrics.sensitivity(profile.fringe(spec), grid)
        return "sensitivity", [phi_name, "sensitivity_rad"], zip(phi_out.tolist(), sens.tolist())

    if args.ell is None:
        raise ValueError("--ell is required (flag or config)")
    if args.n_sweep is not None:
        start, stop, count = args.n_sweep  # floats: the rule takes a whole one as the int it equals
        count = _check_integer("sweep points", int(count) if count.is_integer() else count, 1, _MAX_POINTS + 1,
                               f"at most {_MAX_POINTS}")
        ns = np.linspace(start, stop, count)
    elif args.n is None:
        raise ValueError("--n or --n-sweep is required")
    else:
        ns = [args.n]

    rows = []
    for n in ns:
        fringe = profile.fringe(InterferometerSpec(ell=args.ell, mean_photons=float(n)))
        visibility, width, factor = metrics.fringe_figures(fringe)
        phi_star, best = metrics.min_sensitivity(fringe)
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
    table = qfi.qfi_report(spec.ell, spec.mean_photons, args.trials)
    return "qfi", ["ell", "n", "trials", *table], [(spec.ell, spec.mean_photons, args.trials, *table.values())]


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
    try:
        args = _build_parser().parse_args(argv)
        _, handler, options = _COMMANDS[args.command]
        _resolve(args, options)
        table = handler(args)
        if table is not None:
            with _open_output(args.output) as out:
                _emit_table(out, args.format, *table)
        return 0
    except SystemExit:
        # --help printed its text; every usage error raised ValueError instead
        return 0
    except (ValueError, TypeError, RuntimeError, OSError, OverflowError) as exc:
        json.dump({"error": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
