"""Monte Carlo model of a multiplexed click-detector (Gm-APD array) parity readout.

The dark-port photon number is Poisson (coherent light), so spreading it
uniformly over M on/off units and thinning it by the efficiency kappa splits
it into M independent Poisson streams of mean kappa*mu/M.  Each unit thus
fires independently, from light or from its dark trigger (r_eff/M), with
p = 1 - (1 - r_eff/M) exp(-kappa mu/M); the click count is exactly
Binomial(M, p) at any M, with parity (1 - 2p)^M.  Saturation (two photons,
one click) is built in: finite M can only undercount the light.

Runs are reproducible: each simulation consumes a single PCG64 stream keyed
by the model seed, and a scan derives an independent per-point seed from
(seed, grid index) so the result never depends on evaluation order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import ImperfectionProfile, dark_port_mean

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
        if not isinstance(self.units, (int, np.integer)) or self.units < 1:
            raise ValueError(f"units must be an integer >= 1, got {self.units!r}")
        # the profile's range checks, and their messages, are the array's
        ImperfectionProfile(kappa=self.kappa, dark_rate=self.dark_rate, jitter_factor=self.jitter_factor)
        if not isinstance(self.seed, (int, np.integer)) or not (0 <= self.seed < 2**64):
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")
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


def simulate(spec, phi, model, trials):
    """Simulate `trials` parity readouts at rotation angle `phi`.

    Returns a DetectorRun; bit-identical for identical arguments.
    """
    if not isinstance(trials, (int, np.integer)) or trials < 1:
        raise ValueError(f"trials must be an integer >= 1, got {trials!r}")
    mu = float(dark_port_mean(spec, phi))
    q = model.effective_dark_rate / model.units
    x = model.kappa * mu / model.units
    # p = 1 - (1 - q) e^{-x}, written so it does not cancel when p is tiny
    p = -math.expm1(-x) + q * math.exp(-x)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(model.seed))))
    counts = rng.binomial(model.units, p, trials)
    parity = 1.0 - 2.0 * (counts & 1)
    mean = float(parity.mean())
    if trials > 1:
        stderr = float(parity.std(ddof=1) / math.sqrt(trials))
    else:
        stderr = 0.0
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

    Returns a list of (phi, parity_mean, parity_stderr) tuples in grid order.
    """
    phi_grid = np.asarray(phi_grid, dtype=float)
    if phi_grid.ndim != 1 or phi_grid.size == 0:
        raise ValueError("phi_grid must be a non-empty 1-D array")
    rows = []
    for i, phi in enumerate(phi_grid):
        point_model = replace(model, seed=_point_seed(model.seed, i))
        run = simulate(spec, float(phi), point_model, trials_per_point)
        rows.append((float(phi), run.parity_mean, run.parity_stderr))
    return rows


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
