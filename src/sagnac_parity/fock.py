"""Brute-force Fock-basis photon statistics for the interferometer output.

The output state of the loop is a product of two coherent states, so the
joint photon-number distribution over the output ports (A, B) factorizes
into two Poissonians.  This module builds that joint distribution on a
truncated Fock lattice and sums observables over it term by term.  It exists
as an independent cross-check of the closed forms in
:mod:`sagnac_parity.model`: nothing here reuses those formulas.

All weights are assembled in log space (scipy.special.gammaln for the
factorials) so lattices up to a few hundred photons stay finite; Poisson
tails come from scipy.special.pdtrc.  scipy.special is imported by the
functions that use it, so importing this module costs numpy only.
"""
from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import _check_integer

__all__ = [
    "TruncationError",
    "FockTruncation",
    "JointPhotonDistribution",
    "joint_distribution",
    "attenuated_joint_distribution",
    "parity_sum",
]

# Hard ceiling on the lattice size; gammaln stays accurate far beyond the
# ~170 where a naive factorial would overflow, but a 400^2 lattice is
# already generous for any mean photon number this library targets.
N_MAX_CAP = 400


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
        _check_integer("n_max", self.n_max)
        if not (0.0 < self.tail_bound < 1.0):
            raise ValueError(f"tail_bound must be in (0, 1), got {self.tail_bound!r}")

    @classmethod
    def for_mean_photons(cls, mean_photons, tail_bound=1e-12):
        """Smallest truncation whose Poisson(mean_photons) tail is <= tail_bound."""
        from scipy.special import pdtrc

        if mean_photons < 0:
            raise ValueError("mean_photons must be >= 0")
        ns = np.arange(0, N_MAX_CAP + 1)
        tails = pdtrc(ns, mean_photons)
        ok = np.flatnonzero(tails <= tail_bound)
        if ok.size == 0:
            raise TruncationError(
                f"no n_max <= {N_MAX_CAP} reaches tail {tail_bound:g} for mean "
                f"{mean_photons:g}; best achievable is {tails[-1]:g}",
                achievable_tail=float(tails[-1]),
            )
        return cls(n_max=max(int(ok[0]), 1), tail_bound=tail_bound)

    def check_valid_for(self, mean_photons):
        """Raise if this truncation does not certify the given mean."""
        from scipy.special import pdtrc

        tail = float(pdtrc(self.n_max, mean_photons))
        if tail > self.tail_bound:
            raise TruncationError(
                f"truncation n_max={self.n_max} leaves tail {tail:g} > "
                f"{self.tail_bound:g} for mean {mean_photons:g}",
                achievable_tail=tail,
            )


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


def _log_weights(ks, mean):
    # k*ln(mean) - ln(k!) with the mean == 0 case pinned to a point mass at k = 0
    from scipy.special import gammaln

    if mean == 0.0:
        w = np.full(ks.shape, -np.inf)
        w[0] = 0.0
        return w
    return ks * math.log(mean) - gammaln(ks + 1.0)


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
    if not (0.0 <= t_a <= 1.0 and 0.0 <= t_b <= 1.0):
        raise ValueError("transmissions must lie in [0, 1]")
    trunc.check_valid_for(spec.mean_photons)
    alpha = math.sqrt(spec.mean_photons)
    rot = cmath.exp(2j * spec.ell * phi)
    a_out = 0.5j * alpha * (math.sqrt(t_a) * rot + math.sqrt(t_b) / rot)
    b_out = 0.5j * alpha * (math.sqrt(t_a) * rot - math.sqrt(t_b) / rot)
    mu_a, mu_b = abs(a_out) ** 2, abs(b_out) ** 2
    ks = np.arange(trunc.n_max + 1, dtype=float)
    log_a = _log_weights(ks, mu_a)
    log_b = _log_weights(ks, mu_b)
    with np.errstate(invalid="ignore"):
        probs = np.exp(-(mu_a + mu_b) + log_a[:, None] + log_b[None, :])
    # -inf + -inf -> -inf is fine, exp gives 0; nothing else can go invalid
    return JointPhotonDistribution(probs=probs, truncation=trunc)


def parity_sum(dist):
    """Brute-force parity expectation: sum of (-1)^m P(n, m) over the lattice."""
    deficit = 1.0 - float(dist.probs.sum())
    if deficit > 2.0 * dist.truncation.tail_bound:
        warnings.warn(f"truncated lattice misses probability mass {deficit:g}", stacklevel=2)
    m = np.arange(dist.probs.shape[1])
    signs = 1.0 - 2.0 * (m % 2)
    return float((dist.probs * signs[None, :]).sum())
