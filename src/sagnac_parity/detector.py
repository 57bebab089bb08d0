"""Monte Carlo model of a multiplexed click-detector (Gm-APD array) parity readout.

The dark-port photon number is Poisson (coherent light) of mean
mu = N sin^2(2 ell phi), so spreading it uniformly over M on/off units and
thinning it by the efficiency kappa splits it into M independent Poisson
streams of mean kappa*mu/M.  Each unit thus fires independently, from light
or from its dark trigger (r_eff/M), with p = 1 - (1 - r_eff/M) exp(-kappa mu/M);
the click count is exactly Binomial(M, p) at any M (Sperling, Vogel and
Agarwal, PRA 85, 023820 (2012)), with parity (1 - 2p)^M.  Saturation (two
photons, one click) is built in: finite M can only undercount the light.

A readout's parity is (-1)^count, so T readouts are summed up by the number k
of odd counts: the parity mean is (T - 2k)/T and its sample standard error
2 sqrt(k (T - k)/(T - 1))/T (0 at T = 1).  `simulate` returns the counts and
their histogram too; a `scan` point keeps only its odd count.

Runs are reproducible: each simulation consumes a single PCG64 stream keyed
by the model seed, and a scan derives an independent per-point seed from
(seed, grid index).  A scan runs its grid points concurrently on a thread
pool, one thread per usable CPU (numpy releases the GIL while it draws), and
its rows do not depend on the number of threads or the order points finish;
each row is the parity mean and stderr that `simulate` gives for its seed.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .model import ImperfectionProfile, _check_integer, _shape

__all__ = ["DetectorModel", "DetectorRun", "simulate", "scan", "credibility"]


@dataclass(frozen=True)
class DetectorModel:
    """Click-detector array configuration.

    units
        Number of on/off detection units M, >= 1.
    kappa
        Detection efficiency per photon, in (0, 1].
    dark_rate
        Mean dark counts r per readout window over the whole array, >= 0.
    jitter_factor
        Multiplier >= 1 on dark_rate from synchronization jitter.
    seed
        64-bit unsigned RNG seed.
    """

    units: int = 64
    kappa: float = 1.0
    dark_rate: float = 0.0
    jitter_factor: float = 1.0
    seed: int = 0

    def __post_init__(self):
        _check_integer("units", self.units)
        # the profile's range checks, and their messages, are the array's
        ImperfectionProfile(kappa=self.kappa, dark_rate=self.dark_rate, jitter_factor=self.jitter_factor)
        _check_integer("seed", self.seed, 0, 2**64, "an unsigned 64-bit integer")
        if self.effective_dark_rate / self.units > 1.0:
            raise ValueError(
                f"per-unit dark probability {self.effective_dark_rate / self.units:g} "
                "exceeds 1; the model is misconfigured"
            )

    @property
    def effective_dark_rate(self) -> float:
        return self.jitter_factor * self.dark_rate


@dataclass(frozen=True)
class DetectorRun:
    """Outcome of one simulated acquisition at a fixed rotation angle."""

    trials: int
    counts: np.ndarray
    parity_mean: float
    parity_stderr: float
    empirical_dist: np.ndarray


def _click_probability(spec, phi, model):
    # the click law of one unit at angle phi: its light x = kappa N sin^2(2 ell phi)/M and its
    # dark trigger q = r_eff/M give p = 1 - (1 - q) e^{-x}, written so it does not cancel when p is tiny
    s = float(_shape(phi, 0.0, 0.0, spec.ell)[1])
    x = model.kappa * (spec.mean_photons * s * s) / model.units
    q = model.effective_dark_rate / model.units
    return -math.expm1(-x) + q * math.exp(-x)


def _draw(spec, phi, model, seed, trials):
    # the click counts of `trials` readouts, Binomial(M, p) i.i.d., from the PCG64 stream of `seed`
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(seed))))
    return rng.binomial(model.units, _click_probability(spec, phi, model), trials)


def _parity_estimate(counts):
    # (mean, stderr) of the parities (-1)^count from the number k of odd counts alone: the T
    # values are +-1, so the mean is (T - 2k)/T and the sample stderr 2 sqrt(k (T - k)/(T - 1))/T.
    # T - 2k and k (T - k) are exact integers, so the mean is correctly rounded
    trials = counts.size
    odd = int(np.count_nonzero(counts & 1))
    stderr = 2.0 * math.sqrt(odd * (trials - odd) / (trials - 1)) / trials if trials > 1 else 0.0
    return (trials - 2 * odd) / trials, stderr


def simulate(spec, phi, model, trials):
    """Simulate `trials` parity readouts at rotation angle `phi`.

    Returns a DetectorRun; bit-identical for identical arguments.
    """
    _check_integer("trials", trials)
    counts = _draw(spec, phi, model, model.seed, trials)
    mean, stderr = _parity_estimate(counts)
    return DetectorRun(
        trials=int(trials),
        counts=counts,
        parity_mean=mean,
        parity_stderr=stderr,
        empirical_dist=np.bincount(counts, minlength=1) / trials,
    )


def _point_seed(seed, index):
    return int(np.random.SeedSequence([int(seed), int(index)]).generate_state(1, np.uint64)[0])


def scan(spec, model, phi_grid, trials_per_point):
    """Simulate a sweep over phi_grid; one derived seed per grid point.

    The points run concurrently on a pool of min(grid size, usable CPUs)
    threads.  Each point's seed comes from (seed, grid index), so the rows
    do not depend on the thread count or on the order points finish.

    Returns a list of (phi, parity_mean, parity_stderr) tuples in grid order.
    """
    from concurrent.futures import ThreadPoolExecutor

    _check_integer("trials", trials_per_point)
    phi_grid = np.asarray(phi_grid, dtype=float)
    if phi_grid.ndim != 1 or phi_grid.size == 0:
        raise ValueError("phi_grid must be a non-empty 1-D array")

    def point(indexed):
        # the draw and estimate of simulate, without its histogram
        i, phi = indexed
        counts = _draw(spec, float(phi), model, _point_seed(model.seed, i), trials_per_point)
        return (float(phi), *_parity_estimate(counts))

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    with ThreadPoolExecutor(max_workers=min(phi_grid.size, cpus)) as pool:
        return list(pool.map(point, enumerate(phi_grid)))


def credibility(empirical, theoretical):
    """Bhattacharyya overlap H = sum_i sqrt(x_i y_i) of two count histograms.

    Both inputs must be normalized probability vectors indexed by count
    value; the shorter one is zero-padded to the shared support.  Identical
    histograms give 1.0, disjoint ones 0.0.
    """
    x = np.asarray(empirical, dtype=float)
    y = np.asarray(theoretical, dtype=float)
    if x.ndim != 1 or y.ndim != 1 or x.size == 0 or y.size == 0:
        raise ValueError("histograms must be non-empty 1-D arrays")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("histogram entries must be finite")
    if np.any(x < 0) or np.any(y < 0):
        raise ValueError("histogram entries must be nonnegative")
    for name, h in (("empirical", x), ("theoretical", y)):
        if abs(h.sum() - 1.0) > 1e-6:
            raise ValueError(f"{name} histogram is not normalized (sum {h.sum():g})")
    n = max(x.size, y.size)
    xp = np.zeros(n)
    yp = np.zeros(n)
    xp[: x.size] = x
    yp[: y.size] = y
    return float(np.sqrt(xp * yp).sum())
