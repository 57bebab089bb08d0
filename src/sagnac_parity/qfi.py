"""Quantum Fisher information and Cramer-Rao bounds for the two topologies.

For a coherent input the QFI is four times the variance of the phase
generator.  The Sagnac loop doubles the Dove-prism phase between the
counter-propagating directions (generator 4*ell*Jz), giving F = 16 ell^2 N;
a single-prism Mach-Zehnder carries half the phase (generator 2*ell*n_a)
and F = 8 ell^2 N.  Averaging the Mach-Zehnder over an unknown reference
phase leaves the photon-number-diagonal part only, F = sum_n p_n 4 ell^2 n,
which this module evaluates as an explicit truncated sum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .fock import FockTruncation, _log_weights
from .model import InterferometerSpec

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


def qfi_si(ell, mean_photons):
    """QFI of the Sagnac loop, 16 ell^2 N."""
    InterferometerSpec(ell, mean_photons)  # checks ell and mean_photons
    return 16.0 * ell * ell * mean_photons


def qfi_mzi(ell, mean_photons):
    """QFI of the single-prism Mach-Zehnder, 8 ell^2 N."""
    InterferometerSpec(ell, mean_photons)  # checks ell and mean_photons
    return 8.0 * ell * ell * mean_photons


def qfi_mzi_phase_averaged(ell, mean_photons, trunc=None):
    """Phase-averaged Mach-Zehnder QFI as the truncated sum 4 ell^2 sum_n p_n n.

    ``trunc`` bounds the Poisson lattice; the result sits within
    4 ell^2 N * (tail mass) of the closed form 4 ell^2 N.
    """
    InterferometerSpec(ell, mean_photons)  # checks ell and mean_photons
    if trunc is None:
        trunc = FockTruncation.for_mean_photons(mean_photons)
    else:
        trunc.check_valid_for(mean_photons)
    ns = np.arange(trunc.n_max + 1)
    p = np.exp(_log_weights(ns, mean_photons) - mean_photons)
    return 4.0 * ell * ell * float(np.dot(p, ns))


def crb_sensitivity(fisher_information, trials=1):
    """Cramer-Rao bound 1/sqrt(trials * F); zero information diverges to +inf."""
    if isinstance(trials, bool) or not isinstance(trials, (int, np.integer)) or trials < 1:
        raise ValueError(f"trials must be an integer >= 1, got {trials!r}")
    if fisher_information < 0:
        raise ValueError("Fisher information cannot be negative")
    if fisher_information == 0:
        return math.inf
    return 1.0 / math.sqrt(trials * fisher_information)


@dataclass(frozen=True)
class QfiReport:
    """One protocol's Fisher information and the matching Cramer-Rao bound."""

    protocol: QfiProtocol
    ell: int
    mean_photons: float
    trials: int
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
    return QfiReport(
        protocol=protocol,
        ell=int(ell),
        mean_photons=float(mean_photons),
        trials=int(trials),
        fisher_information=f,
        bound=crb_sensitivity(f, trials),
    )
