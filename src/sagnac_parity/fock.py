"""Brute-force Fock-basis photon statistics for the interferometer output.

The output state of the loop is a product of two coherent states, so the
joint photon-number distribution over the output ports (A, B) factorizes
into two Poissonians.  This module builds that joint distribution on a
truncated Fock lattice and sums observables over it term by term.  It exists
as an independent cross-check of the closed forms in
:mod:`sagnac_parity.model`: nothing here reuses those formulas.

All weights are assembled in log space, log k! as the running sum of
log 1..k, so lattices up to a few hundred photons stay finite.  One numpy
Poisson law gives both the lattice weights and the tails that certify a
truncation; tests/test_fock.py checks both against special functions.
"""
from __future__ import annotations

import cmath
import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import _check_integer, _check_real

__all__ = [
    "TruncationError",
    "FockTruncation",
    "JointPhotonDistribution",
    "joint_distribution",
    "attenuated_joint_distribution",
    "parity_sum",
]

# Hard ceiling on the lattice size; log-space weights stay finite far beyond the
# ~170 where k! overflows, but a 400^2 lattice is already generous for any mean
# photon number this library targets.
N_MAX_CAP = 400


def _log_weights(n_max, mean):
    # k ln(mean) - ln k! for k = 0..n_max, ln k! the running sum of ln 1..k (ln 0! = 0)
    ks = np.arange(n_max + 1, dtype=float)
    if mean == 0.0:
        return np.where(ks == 0.0, 0.0, -np.inf)
    return ks * math.log(mean) - np.add.accumulate(np.log(np.maximum(ks, 1.0)))


def _poisson_tails(mean, n_max):
    # P(X > n) for n = 0..n_max, X ~ Poisson(mean): the pmf summed from the far end down,
    # positive terms only, so nothing cancels.  The far end lies past the mean, its term below
    # 1e-17 of the tail above n_max.  If 0..n_max holds under 1e-17 of the mass, every tail is 1
    mean = _check_real("mean_photons", mean, lambda m: m >= 0.0, ">= 0 and finite")
    end = n_max + 64
    while True:
        pmf = np.exp(_log_weights(end, mean) - mean)
        tails = np.add.accumulate(pmf[:0:-1])[::-1][: n_max + 1]
        if end > mean and pmf[end] <= 1e-17 * tails[-1]:
            return tails
        if pmf[: n_max + 1].sum() < 1e-17:
            return np.ones(n_max + 1)
        end *= 2


@functools.lru_cache(maxsize=64, typed=True)
def _tail_beyond(mean, n_max):
    # P(X > n_max), X ~ Poisson(mean), once per (mean, n_max): a cross-check certifies one
    # truncation for one mean on every lattice it builds.  A bad mean raises, and lru_cache
    # stores no exception, so it raises on every call; typed, so True never hits 1.0's entry
    return float(_poisson_tails(mean, n_max)[-1])


class TruncationError(RuntimeError):
    """Raised when no lattice within the cap meets the requested tail bound.

    Carries the smallest achievable tail mass in ``achievable_tail``.
    """

    def __init__(self, message, achievable_tail):
        super().__init__(message)
        self.achievable_tail = achievable_tail


@dataclass(frozen=True)
class FockTruncation:
    """Photon-number cutoff with a certified Poisson tail bound.

    ``n_max`` is the largest photon number kept per mode; ``tail_bound``
    bounds the Poisson mass beyond ``n_max`` for the mean photon number the
    truncation was built for.
    """

    n_max: int
    tail_bound: float = 1e-12

    def __post_init__(self):
        vars(self).update(n_max=_check_integer("n_max", self.n_max),
                          tail_bound=_check_real("tail_bound", self.tail_bound, lambda t: 0.0 < t < 1.0, "in (0, 1)"))

    @classmethod
    def for_mean_photons(cls, mean_photons, tail_bound=1e-12):
        """Smallest truncation whose Poisson(mean_photons) tail is <= tail_bound."""
        tails = _poisson_tails(mean_photons, N_MAX_CAP)
        ok = np.flatnonzero(tails <= tail_bound)
        if ok.size == 0:
            raise TruncationError(f"no n_max <= {N_MAX_CAP} reaches tail {tail_bound:g} for mean "
                                  f"{mean_photons:g}; best achievable is {tails[-1]:g}",
                                  achievable_tail=float(tails[-1]))
        return cls(n_max=max(int(ok[0]), 1), tail_bound=tail_bound)

    def check_valid_for(self, mean_photons):
        """Raise if this truncation does not certify the given mean."""
        tail = _tail_beyond(mean_photons, self.n_max)
        if tail > self.tail_bound:
            raise TruncationError(f"truncation n_max={self.n_max} leaves tail {tail:g} > "
                                  f"{self.tail_bound:g} for mean {mean_photons:g}",
                                  achievable_tail=tail)


@dataclass(frozen=True)
class JointPhotonDistribution:
    """Joint photon-number probabilities P(n, m) on the truncated lattice.

    ``probs[n, m]`` is the probability of n photons in port A and m in
    port B.  The captured mass may fall short of one by at most one Poisson
    tail per mode.
    """

    probs: np.ndarray
    truncation: FockTruncation

    def __post_init__(self):
        p = self.probs
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ValueError(f"probs must be a square matrix, got shape {p.shape}")
        if np.any(p < 0.0) or np.any(p > 1.0 + 1e-12):
            raise ValueError("probabilities outside [0, 1]")
        total = float(p.sum())
        if not (1.0 - 2.0 * self.truncation.tail_bound - 1e-9 <= total <= 1.0 + 1e-9):
            raise ValueError(f"captured mass {total!r} inconsistent with tail bound")


def joint_distribution(spec, phi, trunc):
    """Lossless (t_a = t_b = 1) case of :func:`attenuated_joint_distribution`.

    P(n, m) = e^-N [N cos^2(2 ell phi)]^n [N sin^2(2 ell phi)]^m / (n! m!).
    """
    return attenuated_joint_distribution(spec, phi, 1.0, 1.0, trunc)


def attenuated_joint_distribution(spec, phi, t_a, t_b, trunc):
    """Joint output distribution with path transmissions (t_a, t_b).

    The port means are computed from the attenuated complex output
    amplitudes directly, deliberately avoiding the trigonometric identity
    used by the closed-form model, so this remains an independent check.
    A uniform detector efficiency kappa is the special case t_a = t_b = kappa.
    """
    for name, t in (("t_a", t_a), ("t_b", t_b)):
        _check_real(name, t, lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
    trunc.check_valid_for(spec.mean_photons)
    alpha = math.sqrt(spec.mean_photons)
    rot = cmath.exp(2j * spec.ell * phi)
    a_out = 0.5j * alpha * (math.sqrt(t_a) * rot + math.sqrt(t_b) / rot)
    b_out = 0.5j * alpha * (math.sqrt(t_a) * rot - math.sqrt(t_b) / rot)
    mu_a, mu_b = abs(a_out) ** 2, abs(b_out) ** 2
    log_a = _log_weights(trunc.n_max, mu_a)
    log_b = _log_weights(trunc.n_max, mu_b)
    probs = np.exp(-(mu_a + mu_b) + log_a[:, None] + log_b[None, :])
    return JointPhotonDistribution(probs=probs, truncation=trunc)


def parity_sum(dist):
    """Brute-force parity expectation: sum of (-1)^m P(n, m) over the lattice."""
    deficit = 1.0 - float(dist.probs.sum())
    if deficit > 2.0 * dist.truncation.tail_bound:
        warnings.warn(f"truncated lattice misses probability mass {deficit:g}", stacklevel=2)
    m = np.arange(dist.probs.shape[1])
    signs = 1.0 - 2.0 * (m % 2)
    return float((dist.probs * signs[None, :]).sum())
