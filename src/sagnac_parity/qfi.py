"""Quantum Fisher information and Cramer-Rao bounds for the two topologies.

For a coherent input the QFI is four times the variance of the phase
generator.  The Sagnac loop doubles the Dove-prism phase between the
counter-propagating directions (generator 4*ell*Jz), giving F = 16 ell^2 N;
a single-prism Mach-Zehnder carries half the phase (generator 2*ell*n_a)
and F = 8 ell^2 N.  Averaging the Mach-Zehnder over an unknown reference
phase leaves the photon-number-diagonal part only, the Poisson mean
F = sum_n p_n 4 ell^2 n = 4 ell^2 N.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .model import InterferometerSpec, _check_integer, _check_real

__all__ = [
    "QfiProtocol",
    "QfiReport",
    "qfi_si",
    "qfi_mzi",
    "qfi_mzi_phase_averaged",
    "crb_sensitivity",
    "qfi_report",
]


class QfiProtocol(Enum):
    SI = "si"
    MZI = "mzi"
    MZI_PHASE_AVERAGED = "mzi-phase-averaged"


def _fisher(k, ell, mean_photons):
    # k ell^2 N, exactly 0 at N = 0, where ell^2 may overflow (inf * 0 is nan).  k, a power of two, multiplies
    # last: bit for bit k * ell * ell * N where that is finite, and the three QFIs keep their 4:2:1 where it is not
    spec = InterferometerSpec(ell, mean_photons)  # checks ell and mean_photons
    return k * (float(spec.ell) * spec.ell * spec.mean_photons) if spec.mean_photons else 0.0


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


@dataclass(frozen=True)
class QfiReport:
    """One protocol's Fisher information and the matching Cramer-Rao bound."""

    fisher_information: float
    bound: float


def qfi_report(protocol, ell, mean_photons, trials=1):
    """Build a QfiReport for one protocol at the given resources."""
    if protocol is QfiProtocol.SI:
        f = qfi_si(ell, mean_photons)
    elif protocol is QfiProtocol.MZI:
        f = qfi_mzi(ell, mean_photons)
    elif protocol is QfiProtocol.MZI_PHASE_AVERAGED:
        f = qfi_mzi_phase_averaged(ell, mean_photons)
    else:
        raise TypeError(f"unknown protocol {protocol!r}")
    return QfiReport(fisher_information=f, bound=crb_sensitivity(f, trials))
