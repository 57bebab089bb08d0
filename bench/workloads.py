"""Benchmark workloads: the inputs each job gets and the checks its outputs must pass.

Every job's seed and inputs derive from (workload seed, job index); the
worker receives only the generated inputs.  A check returns the list of
reasons the job's output is wrong (empty when it is right) and the sha256 of
each table or artifact the job wrote.

Why each workload, and which layer it exercises or bypasses:
- experiment-default: the ROADMAP headline run, `sagnac-parity experiment` at its defaults; over 90% `detector.scan`, so it shows detector changes and bypasses metrics/fock/qfi.
- detector-bright: sweeps of `simulate` calls with full histograms on a small saturating array in bright light; the same layer as experiment-default through another path, so a `scan`-only shortcut must show no gain here.
- analysis: CLI tables, metrics sweeps, Fisher bounds, fits of noisy CSVs and a Fock cross-check; no detector work at all, so it bypasses `detector` and exercises metrics/fit/model/fock/qfi/cli.

Not covered: ROADMAP item 4's low-trial defect (`experiment --trials 200`
exits 0 with a wrong `n_bar`).  experiment-default runs 1e5 trials per
point, where no point is all-even, so this benchmark is no evidence for or
against a fix of it.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy import stats

# experiment-default: the CLI defaults, which are the ROADMAP defaults
EXPERIMENT_N = 2.297
EXPERIMENT_ARTIFACTS = ("experiment_scan.csv", "experiment_sensitivity.csv", "experiment_fit.json")

# detector-bright
BRIGHT = {"ell": 2, "n": 20.0, "units": 64, "kappa": 0.9, "dark_rate": 0.05, "trials": 20_000}
BRIGHT_ANGLES = 8

# analysis
CURVE_VARIANTS = ("ideal", "prep", "loss", "efficiency", "dark", "composed")
CURVE_POINTS = 1024
SWEEP_POINTS = 8
FOCK_ANGLES = 8
FOCK_TAIL = 1e-13
FIT_POINTS = 128
FIT_TRIALS = 20_000
FIT_DATASETS = 2
FIT_DENSE_POINTS = 481
QFI_TRIALS = 1000
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Check thresholds.  Fits and parity means are Gaussian to good
# approximation, so a pull beyond PULL_SIGMAS is a wrong result, not bad
# luck (two-sided false-alarm rate 5.7e-7 per check).  The histogram check
# rejects when 8 n (1 - H) exceeds the chi-square quantile of the support
# size at HIST_FALSE_ALARM: 4 n sum (sqrt(x) - sqrt(y))^2 = 8 n (1 - H) is
# asymptotically chi-square with (support - 1) degrees of freedom.
PULL_SIGMAS = 5.0
HIST_FALSE_ALARM = 1e-9
# The Fock sums keep FOCK_TAIL of each Poisson tail; this bounds what is
# lost to truncation and rounding together.
CURVE_TOLERANCE = 1e-12


@dataclass(frozen=True)
class Job:
    steps: list  # what the worker runs: [{"kind": ..., "args": {...}}]
    context: dict  # what the check needs to know that the worker is not told


@dataclass(frozen=True)
class Workload:
    why: str
    make_job: Callable[[int, int, Path], Job]
    check: Callable[[Job, list, Path], tuple[list, dict]]


def job_rng(seed, index):
    return np.random.default_rng([int(seed), int(index)])


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _cli(argv):
    return {"kind": "cli", "args": {"argv": [str(a) for a in argv]}}


def _cli_failures(steps, outputs):
    return [
        f"cli {step['args']['argv'][0]} exited {out['exit']}: {out['stderr'].strip()}"
        for step, out in zip(steps, outputs)
        if step["kind"] == "cli" and out["exit"] != 0
    ]


# --- experiment-default ----------------------------------------------------


def make_experiment(seed, index, job_dir):
    job_seed = int(job_rng(seed, index).integers(0, 2**32))
    argv = ["experiment", "--seed", job_seed, "--output-dir", job_dir, "--prefix", "experiment"]
    return Job(steps=[_cli(argv)], context={"seed": job_seed})


def check_experiment_doc(doc):
    """Reasons a `*_fit.json` document is wrong physics."""
    fails = []
    n_bar = doc["derived"]["n_bar"]
    decay_stderr = doc["param_stderr"]["decay"]
    if n_bar is None or decay_stderr is None:
        return ["n_bar or its standard error is missing"]
    # n_bar = decay / 2, so its standard error is half the decay's
    pull = (n_bar - EXPERIMENT_N) / (decay_stderr / 2.0)
    if not abs(pull) <= PULL_SIGMAS:
        fails.append(f"n_bar {n_bar!r} is {pull:.1f} fit standard errors from {EXPERIMENT_N}")
    ratio = doc["ratio_to_snl"]
    if ratio is None or not math.isfinite(ratio):
        fails.append(f"ratio_to_snl {ratio!r} is not finite")
    return fails


def check_experiment(job, outputs, job_dir):
    fails = _cli_failures(job.steps, outputs)
    hashes = {}
    for name in EXPERIMENT_ARTIFACTS:
        path = Path(job_dir) / name
        if path.is_file():
            hashes[name] = sha256(path)
        else:
            fails.append(f"artifact {name} missing")
    if not fails:
        fails += check_experiment_doc(json.loads((Path(job_dir) / EXPERIMENT_ARTIFACTS[2]).read_text()))
    return fails, hashes


# --- detector-bright -------------------------------------------------------


def make_bright(seed, index, job_dir):
    """One sweep of BRIGHT_ANGLES simulate calls over a fringe period, each with its own seed.

    A whole sweep per job keeps every job the same size, so the job-time
    percentiles compare like with like.
    """
    period = math.pi / (2 * BRIGHT["ell"])
    seeds = job_rng(seed, index).integers(0, 2**63, size=BRIGHT_ANGLES)
    steps = [
        {"kind": "simulate", "args": dict(BRIGHT, phi=k * period / BRIGHT_ANGLES, seed=int(s))}
        for k, s in enumerate(seeds)
    ]
    return Job(steps=steps, context={})


def click_probability(ell, n, phi, units, kappa, dark_rate):
    """Per-unit firing probability of the on/off array: the click count is Binomial(units, p)."""
    mu = n * math.sin(2 * ell * phi) ** 2
    return 1.0 - (1.0 - dark_rate / units) * math.exp(-kappa * mu / units)


def check_histogram(dist, parity_mean, args):
    """Reasons a simulated count histogram and parity mean disagree with Binomial(M, p)."""
    units, trials = args["units"], args["trials"]
    p = click_probability(args["ell"], args["n"], args["phi"], units, args["kappa"], args["dark_rate"])
    dist = np.asarray(dist, dtype=float)
    if dist.size > units + 1:
        return [f"histogram has counts above the {units} units"]
    pmf = stats.binom.pmf(np.arange(units + 1), units, p)
    emp = np.zeros(units + 1)
    emp[: dist.size] = dist
    overlap = float(np.sqrt(emp * pmf).sum())
    stat = 8.0 * trials * (1.0 - overlap)
    limit = float(stats.chi2.isf(HIST_FALSE_ALARM, units))
    fails = []
    if not stat <= limit:
        fails.append(f"credibility {overlap!r}: 8n(1-H) = {stat:.1f} exceeds {limit:.1f}")
    expected = (1.0 - 2.0 * p) ** units
    sigma = math.sqrt((1.0 - expected * expected) / trials)
    pull = (parity_mean - expected) / sigma
    if not abs(pull) <= PULL_SIGMAS:
        fails.append(f"parity mean {parity_mean!r} is {pull:.1f} sigma from (1-2p)^M = {expected!r}")
    return fails


def check_bright(job, outputs, job_dir):
    fails = []
    digest = hashlib.sha256()
    for step, out in zip(job.steps, outputs):
        fails += check_histogram(out["empirical_dist"], out["parity_mean"], step["args"])
        digest.update(np.asarray(out["empirical_dist"], dtype=float).tobytes())
    return fails, {"empirical_dist": digest.hexdigest()}


# --- analysis --------------------------------------------------------------


def fringe_truth(ell, n, eta, t_a, t_b, kappa, r_eff):
    """(amplitude, decay, floor) of the composed fringe in the fit's shape.

    Uses cos 4x = 1 - 2 sin^2 2x on the composed closed form.
    """
    dark = math.exp(-2.0 * r_eff)
    amplitude = dark * eta * math.exp(-kappa * n * (math.sqrt(t_a) - math.sqrt(t_b)) ** 2 / 2.0)
    return amplitude, 2.0 * kappa * n * math.sqrt(t_a * t_b), dark * (1.0 - eta)


def _write_noisy_fringe(path, rng, ell, truth):
    amplitude, decay, floor = truth
    period = math.pi / (2 * ell)
    offset = rng.uniform(0.0, period)
    phi = np.linspace(0.0, period, FIT_POINTS, endpoint=False)
    s = np.sin(2 * ell * (phi - offset))
    m = amplitude * np.exp(-decay * s * s) + floor
    sigma = np.sqrt((1.0 - m * m) / FIT_TRIALS)
    y = m + sigma * rng.standard_normal(phi.size)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["phi_rad", "parity_mean", "parity_stderr"])
    writer.writerows([repr(float(a)), repr(float(b)), repr(float(c))] for a, b, c in zip(phi, y, sigma))
    Path(path).write_text(buf.getvalue())


def make_analysis(seed, index, job_dir):
    """One analysis session of a seeded apparatus.

    ell cycles through 1..4 and N follows a golden-ratio sequence over
    [1, 50] from a seeded start, so any run of jobs covers the same mix of
    sizes whatever the seed; the imperfections are drawn at random.
    """
    rng = job_rng(seed, index)
    start = np.random.default_rng(int(seed)).uniform()
    cfg = {
        "ell": 1 + index % 4,
        "n": 1.0 + 49.0 * ((start + (index // 4) * GOLDEN) % 1.0),
        "eta": float(rng.uniform(0.85, 0.99)),
        "t_a": float(rng.uniform(0.8, 0.99)),
        "t_b": float(rng.uniform(0.8, 0.99)),
        "kappa": float(rng.uniform(0.6, 0.95)),
        "dark_rate": float(rng.uniform(0.01, 0.1)),
        "jitter_factor": float(rng.uniform(1.0, 1.5)),
    }
    job_dir = Path(job_dir)
    spec = ["--ell", cfg["ell"], "--n", repr(cfg["n"])]
    profile = []
    for key in ("eta", "t_a", "t_b", "kappa", "dark_rate", "jitter_factor"):
        profile += ["--" + key.replace("_", "-"), repr(cfg[key])]
    period = math.pi / (2 * cfg["ell"])
    grid = np.linspace(0.0, period, CURVE_POINTS)
    rows = np.sort(rng.choice(CURVE_POINTS, FOCK_ANGLES, replace=False))
    r_eff = cfg["dark_rate"] * cfg["jitter_factor"]
    truth = fringe_truth(cfg["ell"], cfg["n"], cfg["eta"], cfg["t_a"], cfg["t_b"], cfg["kappa"], r_eff)
    fit_paths = [job_dir / f"fringe_{k}.csv" for k in range(FIT_DATASETS)]
    for path in fit_paths:
        _write_noisy_fringe(path, rng, cfg["ell"], truth)

    steps = [
        _cli(["curve", *spec, *profile, "--variants", ",".join(CURVE_VARIANTS), "--points", CURVE_POINTS,
              "--output", job_dir / "curve.csv"]),
        _cli(["metrics", "--ell", cfg["ell"], *profile, "--n-sweep", "1.0", repr(cfg["n"]), SWEEP_POINTS,
              "--output", job_dir / "summary.csv"]),
        _cli(["metrics", "--table", "sensitivity", *spec, *profile, "--output", job_dir / "sensitivity.csv"]),
        _cli(["qfi", *spec, "--trials", QFI_TRIALS, "--format", "json", "--output", job_dir / "qfi.json"]),
        *({"kind": "fit", "args": {"path": str(p), "ell": cfg["ell"], "dense_points": FIT_DENSE_POINTS}} for p in fit_paths),
        {"kind": "fock", "args": {
            "ell": cfg["ell"], "n": cfg["n"], "eta": cfg["eta"], "t_a": cfg["t_a"], "t_b": cfg["t_b"],
            "kappa": cfg["kappa"], "phis": [float(grid[i]) for i in rows], "tail_bound": FOCK_TAIL,
        }},
    ]
    context = dict(cfg, rows=[int(i) for i in rows], decay=truth[1])
    return Job(steps=steps, context=context)


def _read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, [[float(v) for v in row] for row in reader]


def check_curve(header, rows, cfg, fock_sums):
    """Reasons the curve table disagrees with the Fock-lattice parity sums."""
    if header != ["phi_rad", *CURVE_VARIANTS]:
        return [f"curve header {header!r}"]
    if len(rows) != CURVE_POINTS:
        return [f"curve has {len(rows)} rows, expected {CURVE_POINTS}"]
    dark = math.exp(-2.0 * cfg["dark_rate"] * cfg["jitter_factor"])
    eta = cfg["eta"]
    grid = np.linspace(0.0, math.pi / (2 * cfg["ell"]), CURVE_POINTS)
    fails = []
    for k, i in enumerate(cfg["rows"]):
        ideal = fock_sums["ideal"][k]
        expected = {
            "ideal": ideal,
            "prep": eta * ideal + (1.0 - eta),
            "loss": fock_sums["loss"][k],
            "efficiency": fock_sums["efficiency"][k],
            "dark": dark * ideal,
            "composed": dark * (eta * fock_sums["composed"][k] + (1.0 - eta)),
        }
        row = rows[i]
        if row[0] != grid[i]:
            fails.append(f"curve row {i} is at phi {row[0]!r}, expected {grid[i]!r}")
            continue
        for col, name in enumerate(CURVE_VARIANTS, start=1):
            if not abs(row[col] - expected[name]) <= CURVE_TOLERANCE:
                fails.append(f"curve {name} at phi {row[0]!r}: {row[col]!r} vs Fock {expected[name]!r}")
    return fails


def check_analysis(job, outputs, job_dir):
    cfg = job.context
    job_dir = Path(job_dir)
    fails = _cli_failures(job.steps, outputs)
    tables = ("curve.csv", "summary.csv", "sensitivity.csv", "qfi.json")
    hashes = {name: sha256(job_dir / name) for name in tables if (job_dir / name).is_file()}
    if fails or len(hashes) != len(tables):
        return fails or ["a CLI table is missing"], hashes
    ell, n = cfg["ell"], cfg["n"]

    header, rows = _read_csv(job_dir / "curve.csv")
    fails += check_curve(header, rows, cfg, outputs[-1])

    header, rows = _read_csv(job_dir / "summary.csv")
    col = header.index("min_sensitivity_rad")
    if len(rows) != SWEEP_POINTS:
        fails.append(f"summary has {len(rows)} rows, expected {SWEEP_POINTS}")
    for row in rows:
        bound = 1.0 / (4.0 * ell * math.sqrt(row[1]))
        if not (math.isfinite(row[col]) and row[col] >= bound):
            fails.append(f"summary min sensitivity {row[col]!r} at n={row[1]!r} beats the bound {bound!r}")

    header, rows = _read_csv(job_dir / "sensitivity.csv")
    bound = 1.0 / (4.0 * ell * math.sqrt(n))
    finite = [r[1] for r in rows if math.isfinite(r[1])]
    if not finite or min(finite) < bound:
        fails.append(f"sensitivity table minimum {min(finite, default=None)!r} beats the bound {bound!r}")

    doc = json.loads((job_dir / "qfi.json").read_text())
    f_si = doc["rows"][0][doc["columns"].index("f_si")]
    if f_si != 16.0 * ell * ell * n:
        fails.append(f"f_si {f_si!r} != 16 ell^2 N = {16.0 * ell * ell * n!r}")

    for k, out in enumerate(outputs[4 : 4 + FIT_DATASETS]):
        pull = (out["decay"] - cfg["decay"]) / out["decay_stderr"]
        if not abs(pull) <= PULL_SIGMAS:
            fails.append(f"fit {k}: decay {out['decay']!r} is {pull:.1f} standard errors from {cfg['decay']!r}")
        best, dense = out["min_sensitivity"], out["dense_min"]
        # the refined minimum may not lose to any point of a coarser grid
        if not (0 < best < math.inf and dense is not None and best <= dense * (1 + 1e-9)):
            fails.append(f"fit {k}: min sensitivity {best!r} vs {dense!r} on a {FIT_DENSE_POINTS}-point grid")
    return fails, hashes


WORKLOADS = {
    "experiment-default": Workload(
        why="ROADMAP headline run at its defaults; over 90% detector.scan, bypasses metrics/fock/qfi",
        make_job=make_experiment,
        check=check_experiment,
    ),
    "detector-bright": Workload(
        why="simulate with histograms on a saturating 64-unit array at N=20; detector layer by another path than scan",
        make_job=make_bright,
        check=check_bright,
    ),
    "analysis": Workload(
        why="CLI tables, metrics, qfi, fits and Fock cross-check; no detector calls, so it bypasses the detector",
        make_job=make_analysis,
        check=check_analysis,
    ),
}
