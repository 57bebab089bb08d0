"""Fringe metrology: sensitivity, visibility, width, super-resolution.

Sensitivity follows from error propagation on a parity fringe m(phi),

    delta_phi = sqrt(1 - m^2) / |dm/dphi|,

evaluated on its :class:`~sagnac_parity.model.FringeModel`: the closed form
of a profile here, the fitted model in :mod:`sagnac_parity.fit`.  The
derivative and the variance are the model's own: the variance is computed
through expm1 so the limit at the fringe peak (where m -> 1 and both
numerator and derivative vanish) stays accurate.  Points where the fringe
is stationary (derivative exactly 0) are reported as +inf, a deliberate
sentinel distinct from any overflow.

The figures of m = a y + c, y = exp(-b u), u = sin^2(2 ell (phi - phi0)),
are closed forms: visibility (1 - e^-b)/(1 + e^-b + 2c/a), FWHM
asin(sqrt(ln 2 / b))/ell and super-resolution factor pi/FWHM.  The sampled
:func:`visibility` and :func:`fwhm` measure any curve and check these.
With no headroom (a + c >= 1), 1 - m = a(1 - y) >= a b u y because
e^{bu} - 1 >= bu, and 1 + m >= 2 - a(1 - y) >= 2y; as
(dm/dphi)^2 = 16 ell^2 a^2 b^2 u (1 - u) y^2, delta_phi >= 1/(4 ell
sqrt(a b / 2)) everywhere, the limit at the peak u -> 0.  For the ideal
fringe that is the shot-noise floor 1/(4 ell sqrt(N)).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ImperfectionProfile, InterferometerSpec, parity_expectation

__all__ = [
    "ParityCurve",
    "parity_curve",
    "sensitivity",
    "min_sensitivity",
    "visibility",
    "fwhm",
    "fringe_figures",
]

# grid points of the scan that brackets the off-peak sensitivity minimum
_GRID_POINTS = 1024


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
    # fitted; the derivative is exactly 0 only at an extremum, and one that
    # underflows towards 0 overflows the quotient to inf, which is the right
    # sensitivity there
    d = model.derivative(phi)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = np.where(d == 0.0, np.inf, np.sqrt(model.variance(phi)) / np.abs(d))
    if out.ndim == 0:
        return float(out)
    return out


def sensitivity(spec, profile, phi):
    """Angular sensitivity delta_phi at a working point (scalar or array).

    Stationary points of the fringe, phi = k * period/2, return +inf.
    """
    return _sensitivity(profile.fringe(spec), phi)


def _min_sensitivity(model):
    # grid scan over one period, then the closed-form floor or a Brent refinement
    period = model.period
    grid = model.offset + np.linspace(0.0, period, _GRID_POINTS, endpoint=False)
    vals = _sensitivity(model, grid)
    finite = np.isfinite(vals)
    if not finite.any():
        return (math.nan, math.inf)
    if model.headroom == 0.0:
        # delta_phi >= 1/(4 ell sqrt(a b / 2)) (proof in the module docstring);
        # a float scan over a in [1e-6, 1], b in [1e-4, 1e3] and u in (0, 1)
        # found no ratio below 1, the least at u -> 0: the infimum is the peak
        return (float(model.offset), 1.0 / (4.0 * model.ell * math.sqrt(0.5 * model.amplitude * model.decay)))
    # only this off-peak refinement needs scipy.optimize, the costliest
    # import of the package, so it is loaded here and not with the module
    from scipy.optimize import minimize_scalar

    i = int(np.flatnonzero(finite)[np.argmin(vals[finite])])
    # search in the shift t from grid[i]: Brent's tolerance has a term
    # sqrt(eps)*|x|, which on phi itself would stop near 1e-8 rad from phi_star
    step = period / _GRID_POINTS
    res = minimize_scalar(
        lambda t: _sensitivity(model, grid[i] + t),
        bounds=(-step, step),
        method="bounded",
        options={"xatol": 1e-12 * max(period, 1.0)},
    )
    if vals[i] < res.fun:
        return (float(grid[i]), float(vals[i]))
    return (float(grid[i] + res.x), float(res.fun))


def min_sensitivity(spec, profile):
    """Infimum of delta_phi over one fringe period, as (phi_star, delta_phi).

    With no headroom (ideal, preparation, efficiency, balanced loss) it is
    the floor 1/(4 ell sqrt(a b / 2)) at the peak: phi_star is the peak
    phi0, where :func:`sensitivity` is +inf.  Otherwise a grid scan and a
    bounded Brent search find the minimum off the peak.  A fringe flat
    everywhere (zero amplitude, e.g. under dark counts that underflow
    exp(-2 r_eff)) returns (nan, inf).
    """
    return _min_sensitivity(profile.fringe(spec))


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


def fringe_figures(model):
    """Visibility, FWHM and super-resolution factor pi/FWHM of a FringeModel.

    The closed forms of the module docstring; the visibility is divided
    through by a so that a subnormal amplitude stays exact.  A fringe too
    shallow to reach its half level (b < ln 2), or flat (a = 0), has nan
    FWHM and factor.
    """
    a, b, c = model.amplitude, model.decay, model.floor
    if a == 0.0:
        if c == 0.0:
            raise ValueError("parity curve is zero everywhere; there is no fringe")
        return 0.0, math.nan, math.nan
    vis = -math.expm1(-b) / (1.0 + math.exp(-b) + 2.0 * (c / a))
    width = math.asin(math.sqrt(math.log(2.0) / b)) / model.ell if b >= math.log(2.0) else math.nan
    return vis, width, math.pi / width
