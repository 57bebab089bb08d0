"""Quantum Fisher information and Cramer-Rao bounds for the two topologies.

For a coherent input the QFI is four times the variance of the phase
generator.  The Sagnac loop doubles the Dove-prism phase between the
counter-propagating directions (generator 4*ell*Jz), giving F = 16 ell^2 N;
a single-prism Mach-Zehnder carries half the phase (generator 2*ell*n_a)
and F = 8 ell^2 N.  Averaging the Mach-Zehnder over an unknown reference
phase leaves the photon-number-diagonal part only, the Poisson mean
F = sum_n p_n 4 ell^2 n = 4 ell^2 N.  :func:`qfi_report` is the ``qfi``
command's table: the three informations and their Cramer-Rao bounds.
"""
from __future__ import annotations

import math

from .model import InterferometerSpec, _check_integer, _check_real

__all__ = [
    "qfi_si",
    "qfi_mzi",
    "qfi_mzi_phase_averaged",
    "crb_sensitivity",
    "qfi_report",
]


def _fisher(k, ell, mean_photons):
    # k ell^2 N, exactly 0 at N = 0, where ell^2 may overflow (inf * 0 is nan).  Where ell^2 overflows, ell N ell
    # may not.  k, a power of two, multiplies last: bit for bit k * ell * ell * N where ell^2 is finite, and the
    # three QFIs keep their 4:2:1 everywhere
    spec = InterferometerSpec(ell, mean_photons)  # checks ell and mean_photons
    ell, n = float(spec.ell), spec.mean_photons
    return k * (ell * ell * n if ell * ell < math.inf else ell * n * ell) if n else 0.0


def qfi_si(ell, mean_photons):
    """QFI of the Sagnac loop, 16 ell^2 N."""
    return _fisher(16.0, ell, mean_photons)


def qfi_mzi(ell, mean_photons):
    """QFI of the single-prism Mach-Zehnder, 8 ell^2 N."""
    return _fisher(8.0, ell, mean_photons)


def qfi_mzi_phase_averaged(ell, mean_photons):
    """QFI of the phase-averaged Mach-Zehnder, the Poisson mean sum_n p_n 4 ell^2 n = 4 ell^2 N."""
    return _fisher(4.0, ell, mean_photons)


def crb_sensitivity(fisher_information, trials=1):
    """Cramer-Rao bound 1/sqrt(trials * F), finite also where trials * F overflows; zero F gives +inf."""
    trials = _check_integer("trials", trials)
    f = _check_real("Fisher information", fisher_information, lambda f: f >= 0, ">= 0")
    if f == 0:
        return math.inf
    product = trials * f  # past the float range, take each factor's root
    return 1.0 / (math.sqrt(product) if product < math.inf else math.sqrt(trials) * math.sqrt(f))


def qfi_report(ell, mean_photons, trials=1):
    """The ``qfi`` command's table: the three informations and their Cramer-Rao bounds at ``trials`` repetitions."""
    si, mzi, avg = qfi_si(ell, mean_photons), qfi_mzi(ell, mean_photons), qfi_mzi_phase_averaged(ell, mean_photons)
    return {"f_si": si, "f_mzi": mzi, "f_phase_avg": avg, "bound_si": crb_sensitivity(si, trials),
            "bound_mzi": crb_sensitivity(mzi, trials), "bound_phase_avg": crb_sensitivity(avg, trials)}
