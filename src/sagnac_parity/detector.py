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
pool, one thread per usable CPU (numpy releases the GIL while it draws and
compares), and its rows do not depend on the number of threads or the order
points finish; each row is the parity mean and stderr that `simulate` gives
for its seed.

The counts are numpy's `Generator.binomial(M, p, T)` bit for bit, drawn
more cheaply.  Where numpy draws by inversion (p > 0 and M min(p, 1 - p)
<= 30, every point of the default experiment), it reads one uniform u per
readout and walks it down a fixed chain, so each count is a step function
of u: the number of thresholds t_k below u.  The uniforms come from
`Generator.random(T)` on the same stream, and `_inversion_thresholds` finds
numpy's exact t_k for (M, p) up to the first at or above 1 - 2^-j, where
2^-j is the largest power of two at or below 1 - max u.  `simulate` reads
each count from a table of 4096 slices of [0, 1) (`_count_table`), and
counts the thresholds only for the few uniforms in a slice that a threshold
splits; a scan point sums (-1)^k #(u > t_k) to its odd count without
building the counts.  numpy's own draw is taken, from the same state, at
p = 0, in its BTPE regime, and wherever a uniform would run past numpy's
bound, where numpy draws that readout again.  The tests hold the thresholds
to the installed numpy's own draw, so a numpy release that changes its
Binomial algorithm fails them instead of drifting from it.

The thresholds and the table depend on (M, p, j) alone, so both are
memoized: a sweep that repeats its angles computes them once per angle and
tail level j.  The memos are bounded, at 1024 chains of at most 86
thresholds (about 2.9 kB each, 3.0 MB in all) and 128 tables (about 34 kB
each, 4.3 MB in all).
"""
from __future__ import annotations

import bisect
import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from .model import ImperfectionProfile, _check_integer, _check_reals, _shape

__all__ = ["DetectorModel", "DetectorRun", "simulate", "scan"]

# Generator.random returns a lattice point m / 2**53, m < 2**53, as does the uniform numpy's Binomial draw reads
_LATTICE = 2**53
# _draw reads a count by the slice of [0, 1) its uniform lies in; u * 2**12 is exact
_SLICES = 4096


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
        units = _check_integer("units", self.units, 1, 2**63, "below 2**63")  # numpy draws take a C long
        # the profile's range checks, and their messages, are the array's
        profile = ImperfectionProfile(kappa=self.kappa, dark_rate=self.dark_rate, jitter_factor=self.jitter_factor)
        seed = _check_integer("seed", self.seed, 0, 2**64, "an unsigned 64-bit integer")
        vars(self).update(units=units, kappa=profile.kappa, dark_rate=profile.dark_rate,
                          jitter_factor=profile.jitter_factor, seed=seed)
        if self.effective_dark_rate / units > 1.0:
            raise ValueError(f"dark_rate * jitter_factor / units, the per-unit dark probability, must be at most 1, "
                             f"got {self.effective_dark_rate / units:g}")

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
    s = _shape(phi, 0.0, 0.0, spec.ell)[1]
    if s.ndim:  # a readout is taken at one angle
        raise ValueError(f"phi must be one angle, got an array of shape {s.shape}")
    x = model.kappa * (spec.mean_photons * s * s) / model.units
    q = model.effective_dark_rate / model.units
    return -math.expm1(-x) + q * math.exp(-x)


def _generator(seed):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(seed))))


@functools.lru_cache(maxsize=1024)
def _inversion_thresholds(n, p, j):
    # numpy draws Binomial(n, p <= 1/2) with n p <= 30 by inversion (random_binomial_inversion in its
    # distributions.c, transcribed here operation for operation): from one uniform u it stops at the
    # first X with U_X <= px_X, where U_X = u - px_0 - ... - px_{X-1} is rounded step by step.
    # Rounding is monotone in u, so each {u : U_k <= px_k} is all u up to a lattice point a_k, and
    # X > k exactly where u > t_k = max(a_0, ..., a_k).  Returns the t_k up to the first at or above
    # 1 - 2**-j, which no uniform of a draw keyed by j passes, or else up to numpy's bound, past which
    # numpy draws that readout again
    q = 1.0 - p
    px = math.exp(n * math.log1p(-p))
    mean = n * p
    cap = mean + 10.0 * math.sqrt(mean * q + 1)
    bound = n if n < cap else int(cap)
    stop = _LATTICE - (_LATTICE >> j)
    chain, thresholds, t, total = [], [], 0, 0.0
    for k in range(bound + 1):
        if k:
            px = (n - k + 1) * p * px / (k * q)
        total += px
        # a_k lies within a few lattice points of the float cumulative sum of px
        a = min(int(total * _LATTICE), _LATTICE - 1)
        while not _stops(a, chain, px):
            a -= 1
        while a < _LATTICE - 1 and _stops(a + 1, chain, px):
            a += 1
        t = max(t, a)
        thresholds.append(t / _LATTICE)
        if t >= stop:
            break
        chain.append(px)
    return tuple(thresholds)


def _stops(point, chain, px):
    # whether numpy's loop on the uniform point / 2**53, after subtracting chain, stops at px
    u = point / _LATTICE
    for x in chain:
        u -= x
    return u <= px


@functools.lru_cache(maxsize=128)
def _count_table(n, p, j):
    # the counts of _inversion_thresholds(n, p, j) by slice of [0, 1): slice i, the u with floor(u * _SLICES) = i,
    # holds the number of thresholds below its start i / _SLICES (exact), or -1 where a threshold lies in it.
    # Returns the table and the thresholds, read-only, for the uniforms in a split slice
    chain = np.array(_inversion_thresholds(n, p, j))
    table = np.searchsorted(chain, np.arange(_SLICES) / _SLICES)
    table[(chain * _SLICES).astype(np.intp)] = -1
    table.flags.writeable = chain.flags.writeable = False
    return table, chain


def _inversion(rng, n, p, size):
    # rng.binomial(n, p, size) as (u, t, key, mirrored): the draw is X = #(t < u), or n - X where
    # mirrored, over the thresholds t of _inversion_thresholds(*key) below the largest u, with
    # u = rng.random(size) from the same stream and the generator left as numpy leaves it.  None,
    # with the stream untouched, where numpy draws nothing (p = 0), draws by BTPE, or draws a
    # readout again
    mirrored = p > 0.5
    low = 1.0 - p if mirrored else p  # above 1/2 numpy draws n - Binomial(n, 1 - p)
    if p == 0.0 or not low * n <= 30.0:
        return None
    state = rng.bit_generator.state
    u = rng.random(size)
    top = float(u.max())
    # 2**-j, the largest power of two at or below 1 - top (exact, as top is a lattice point), keys
    # the tail of the chain, so one chain serves every draw whose largest uniform falls in that tail
    key = (n, low, 1 - math.frexp(1.0 - top)[1])
    chain = _inversion_thresholds(*key)
    k = bisect.bisect_left(chain, top)
    if k == len(chain):  # top lies past numpy's bound
        rng.bit_generator.state = state
        return None
    return u, chain[:k], key, mirrored


def _draw(rng, n, p, size):
    # rng.binomial(n, p, size) bit for bit, leaving rng in the same state: where numpy draws by
    # inversion, each count is read from its uniform's slice, or counted by its thresholds in a split
    # slice; numpy's own draw elsewhere
    law = _inversion(rng, n, p, size)
    if law is None:
        return rng.binomial(n, p, size)
    u, _, key, mirrored = law
    table, chain = _count_table(*key)
    counts = table.take((u * _SLICES).astype(np.intp))
    split = np.flatnonzero(counts < 0)
    counts[split] = np.searchsorted(chain, u[split])
    return n - counts if mirrored else counts


def _odd_draws(rng, n, p, size):
    # the number of odd counts in _draw(rng, n, p, size), without the counts:
    # #(X odd) = sum_k (-1)^k #(X > k), and #(X > k) = #(u > t_k).  One compare-and-count pass per
    # threshold below the largest uniform: at a default experiment's 1e5 readouts a point this way
    # takes less time than reading its counts from _draw's table
    law = _inversion(rng, n, p, size)
    if law is None:
        return int(np.count_nonzero(rng.binomial(n, p, size) & 1))
    u, t, _, mirrored = law
    odd = sum((-1) ** k * int(np.count_nonzero(u > t_k)) for k, t_k in enumerate(t))
    return size - odd if mirrored and n % 2 else odd


def _parity_estimate(odd, trials):
    # (mean, stderr) of T = trials parities (-1)^count from the number k of odd counts alone: the T
    # values are +-1, so the mean is (T - 2k)/T and the sample stderr 2 sqrt(k (T - k)/(T - 1))/T.
    # T - 2k and k (T - k) are exact integers, so the mean is correctly rounded
    stderr = 2.0 * math.sqrt(odd * (trials - odd) / (trials - 1)) / trials if trials > 1 else 0.0
    return (trials - 2 * odd) / trials, stderr


def simulate(spec, phi, model, trials):
    """Simulate `trials` parity readouts at rotation angle `phi`.

    Returns a DetectorRun; bit-identical for identical arguments.
    """
    trials = _check_integer("trials", trials)
    counts = _draw(_generator(model.seed), model.units, _click_probability(spec, phi, model), trials)
    hist = np.bincount(counts, minlength=1)
    mean, stderr = _parity_estimate(int(hist[1::2].sum()), trials)
    return DetectorRun(
        trials=trials,
        counts=counts,
        parity_mean=mean,
        parity_stderr=stderr,
        empirical_dist=hist / trials,
    )


def _point_seed(seed, index):
    return int(np.random.SeedSequence([int(seed), int(index)]).generate_state(1, np.uint64)[0])


def scan(spec, model, phi_grid, trials_per_point):
    """Simulate a sweep over phi_grid; one derived seed per grid point.

    The points run concurrently on a pool of min(grid size, usable CPUs)
    threads.  Each point's seed comes from (seed, grid index), so the rows
    do not depend on the thread count or on the order points finish, and
    each row is the parity mean and stderr that `simulate` gives for that
    seed.  A point keeps only its number of odd counts, counted from its
    uniforms' thresholds without building the counts.

    Returns a list of (phi, parity_mean, parity_stderr) tuples in grid order.
    """
    from concurrent.futures import ThreadPoolExecutor

    trials = _check_integer("trials", trials_per_point)
    phi_grid = _check_reals("phi_grid", phi_grid)
    if phi_grid.ndim != 1 or phi_grid.size == 0:
        raise ValueError("phi_grid must be a non-empty 1-D array")

    def point(indexed):
        i, phi = indexed
        rng = _generator(_point_seed(model.seed, i))
        odd = _odd_draws(rng, model.units, _click_probability(spec, phi, model), trials)
        return (phi, *_parity_estimate(odd, trials))

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    with ThreadPoolExecutor(max_workers=min(phi_grid.size, cpus)) as pool:
        return list(pool.map(point, enumerate(phi_grid.tolist())))
