"""Fringe metrology: sensitivity, visibility, width, super-resolution.

Sensitivity follows from error propagation on a parity fringe m(phi),

    delta_phi = sqrt(1 - m^2) / |dm/dphi|,

evaluated on its :class:`~sagnac_parity.model.FringeModel`: the closed form
of a profile here, the fitted model in :mod:`sagnac_parity.fit`.  The
derivative is the model's analytic one, and the variance term is computed
through expm1 so the limit at the fringe peak (where m -> 1 and both
numerator and derivative vanish) stays accurate.  Points where the fringe
is stationary are reported as +inf, a deliberate sentinel distinct from
any overflow.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import ImperfectionProfile, InterferometerSpec, parity_expectation

__all__ = [
    "ParityCurve",
    "SensitivityCurve",
    "parity_curve",
    "sensitivity",
    "sensitivity_curve",
    "min_sensitivity",
    "visibility",
    "fwhm",
    "super_resolution_factor",
    "fringe_figures",
    "count_fringe_peaks",
]

# Below this derivative magnitude the working point is treated as stationary.
STATIONARY_DERIVATIVE = 1e-15


@dataclass(frozen=True)
class ParityCurve:
    """A sampled parity-expectation curve E(phi) on an increasing grid."""

    phi_grid: np.ndarray
    values: np.ndarray
    spec: InterferometerSpec | None = None
    profile: ImperfectionProfile | None = None

    def __post_init__(self):
        phi = np.asarray(self.phi_grid, dtype=float)
        val = np.asarray(self.values, dtype=float)
        if phi.ndim != 1 or phi.shape != val.shape or phi.size < 2:
            raise ValueError("phi_grid and values must be matching 1-D arrays")
        if np.any(np.diff(phi) <= 0):
            raise ValueError("phi_grid must be strictly increasing")
        # exact zeros are kept: a deep fringe underflows at its trough
        if np.any(val < 0.0) or np.any(val > 1.0 + 1e-12):
            raise ValueError("parity expectations must lie in [0, 1]")
        if not np.any(val > 0.0):
            raise ValueError("parity curve is zero everywhere; there is no fringe")
        object.__setattr__(self, "phi_grid", phi)
        object.__setattr__(self, "values", val)


@dataclass(frozen=True)
class SensitivityCurve:
    """Sampled sensitivity delta_phi(phi) plus its refined minimum."""

    phi_grid: np.ndarray
    values: np.ndarray
    minimum: tuple[float, float] = field(default=(math.nan, math.inf))

    def __post_init__(self):
        phi = np.asarray(self.phi_grid, dtype=float)
        val = np.asarray(self.values, dtype=float)
        if phi.ndim != 1 or phi.shape != val.shape:
            raise ValueError("phi_grid and values must be matching 1-D arrays")
        if np.any(val[np.isfinite(val)] <= 0.0):
            raise ValueError("sensitivities must be positive")
        object.__setattr__(self, "phi_grid", phi)
        object.__setattr__(self, "values", val)


def parity_curve(spec, profile, phi_grid):
    """Sample parity_expectation on a grid and package it as a ParityCurve."""
    phi = np.asarray(phi_grid, dtype=float)
    return ParityCurve(
        phi_grid=phi,
        values=parity_expectation(spec, phi, profile),
        spec=spec,
        profile=profile,
    )


def _sensitivity(model, phi):
    # one error-propagation formula for every FringeModel, closed-form or
    # fitted.  1 - m^2 = (1 - m)(1 + m), and 1 - m = headroom + a(1 - exp(-b u))
    # is a sum of nonnegative terms, so it never cancels even where m is
    # within 1e-16 of 1
    phi = np.asarray(phi, dtype=float)
    s = np.sin(2 * model.ell * (phi - model.offset))
    u = s * s
    one_minus = model.headroom + model.amplitude * (-np.expm1(-model.decay * u))
    m = model.amplitude * np.exp(-model.decay * u) + model.floor
    d = model.derivative(phi)
    # a derivative that underflows towards 0 overflows the quotient to inf,
    # which is the right sensitivity there
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = np.where(np.abs(d) <= STATIONARY_DERIVATIVE, np.inf, np.sqrt(one_minus * (1.0 + m)) / np.abs(d))
    if out.ndim == 0:
        return float(out)
    return out


def sensitivity(spec, profile, phi):
    """Angular sensitivity delta_phi at a working point (scalar or array).

    Stationary points of the fringe, phi = k * period/2, return +inf.
    """
    return _sensitivity(profile.fringe(spec), phi)


def _golden_min(f, lo, hi, tol):
    # plain golden-section shrink; endpoints are never evaluated, so an
    # infinite sentinel at a bracket edge is harmless
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    best = (x1, f1) if f1 <= f2 else (x2, f2)
    while hi - lo > tol:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = f(x1)
            if f1 < best[1]:
                best = (x1, f1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = f(x2)
            if f2 < best[1]:
                best = (x2, f2)
    return best


def _min_sensitivity(model, grid_points):
    # grid scan over one period plus golden-section refinement
    period = model.period
    grid = model.offset + np.linspace(0.0, period, grid_points, endpoint=False)
    vals = _sensitivity(model, grid)
    finite = np.isfinite(vals)
    if not finite.any():
        return (math.nan, math.inf)
    i = int(np.flatnonzero(finite)[np.argmin(vals[finite])])
    step = period / grid_points
    phi_star, best = _golden_min(
        lambda x: _sensitivity(model, float(x)), grid[i] - step, grid[i] + step, tol=1e-12 * max(period, 1.0)
    )
    if vals[i] < best:
        phi_star, best = float(grid[i]), float(vals[i])
    return (float(phi_star), float(best))


def min_sensitivity(spec, profile, grid_points=1024):
    """Global minimum of delta_phi over one fringe period.

    Grid scan plus golden-section refinement; returns (phi_star, delta_phi).
    A profile whose fringe is flat everywhere (eta -> 0 leaves no signal)
    has no working point and returns (nan, inf).
    """
    return _min_sensitivity(profile.fringe(spec), grid_points)


def sensitivity_curve(spec, profile, phi_grid, grid_points=1024):
    """Sample the sensitivity on a grid, bundling the refined minimum."""
    phi = np.asarray(phi_grid, dtype=float)
    vals = sensitivity(spec, profile, phi)
    return SensitivityCurve(phi_grid=phi, values=vals, minimum=min_sensitivity(spec, profile, grid_points))


def visibility(curve, period=None):
    """Fringe visibility (max - min)/(max + min) over at least one period."""
    if period is None:
        if curve.spec is None:
            raise ValueError("curve carries no spec; pass the fringe period explicitly")
        period = curve.spec.fringe_period
    span = curve.phi_grid[-1] - curve.phi_grid[0]
    if span < period * (1.0 - 1e-9):
        raise ValueError(f"grid spans {span:g} rad, less than one period {period:g} rad")
    hi = float(curve.values.max())
    lo = float(curve.values.min())
    return (hi - lo) / (hi + lo)


def _cross(phis, vals, j, k, level):
    # linear interpolation of the level crossing between samples j and k
    v0, v1 = vals[j], vals[k]
    if v1 == v0:
        return float(phis[j])
    t = (level - v0) / (v1 - v0)
    return float(phis[j] + t * (phis[k] - phis[j]))


def fwhm(curve, floor=None):
    """Full width at half maximum of the tallest fringe peak, in radians.

    The half level is referenced to the curve's additive floor,
    level = floor + (max - floor)/2, so constant offsets from imperfect
    preparation or dark counts do not corrupt the width.  ``floor`` defaults
    to the floor of the curve's profile fringe (zero for a curve without a
    profile).  Both crossings must lie inside the grid.
    """
    if floor is None:
        floor = 0.0 if curve.profile is None else curve.profile.fringe(curve.spec).floor
    vals = curve.values
    phis = curve.phi_grid
    peak = float(vals.max())
    if not floor < peak:
        raise ValueError("floor is not below the curve maximum")
    level = floor + 0.5 * (peak - floor)
    i = int(np.argmax(vals))
    j = i
    while j > 0 and vals[j] > level:
        j -= 1
    if vals[j] > level:
        raise ValueError("curve never falls to the half level left of the peak")
    left = _cross(phis, vals, j, j + 1, level)
    k = i
    last = len(vals) - 1
    while k < last and vals[k] > level:
        k += 1
    if vals[k] > level:
        raise ValueError("curve never falls to the half level right of the peak")
    right = _cross(phis, vals, k - 1, k, level)
    return right - left


def super_resolution_factor(curve, floor=None):
    """pi / FWHM: width gain over a classical single-photon fringe.

    The classical reference fringe (1 + cos phi)/2 has period 2 pi and a
    half-maximum width of pi, so the ratio is the super-resolution factor.
    """
    return math.pi / fwhm(curve, floor=floor)


def fringe_figures(model):
    """Visibility, FWHM and super-resolution factor pi/FWHM of a FringeModel.

    The model is sampled over one period centred on its peak, so both
    half-level crossings are interior to the grid.  A fringe too shallow to
    reach its half level (decay < ln 2) has no width; FWHM and factor are
    then nan.
    """
    half = model.period / 2.0
    grid = model.offset + np.linspace(-half, half, 4097)
    curve = ParityCurve(phi_grid=grid, values=model(grid))
    try:
        width = fwhm(curve, floor=model.floor)
    except ValueError:
        width = math.nan
    return visibility(curve, period=model.period), width, math.pi / width


def count_fringe_peaks(values):
    """Number of strict local maxima of a cyclically sampled curve."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size < 3:
        raise ValueError("need a 1-D array of at least 3 samples")
    left = np.roll(v, 1)
    right = np.roll(v, -1)
    return int(np.count_nonzero((v > left) & (v > right)))
