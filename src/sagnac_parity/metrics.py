"""Fringe metrology: sensitivity, visibility, width, super-resolution.

Sensitivity follows from error propagation on a parity fringe m(phi),

    delta_phi = sqrt(1 - m^2) / |dm/dphi|,

evaluated on a :class:`~sagnac_parity.model.FringeModel`, the one input of
:func:`sensitivity` and :func:`min_sensitivity`: ``profile.fringe(spec)``
for the closed form of a profile, ``FitResult.model`` for a fit.  The
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
fringe that is the shot-noise floor 1/(4 ell sqrt(N)).  With headroom the
minimum lies off the peak.  delta_phi^2 depends on phi only through u, and
one bisection on the sign of d/du ln delta_phi^2 over u in (0, 1) finds it
in scalar math; phi_star = phi0 + asin(sqrt(u*))/(2 ell) is
the twin right of the peak, phi0 < phi_star < phi0 + period/2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ImperfectionProfile, InterferometerSpec, _check_reals, parity_expectation

__all__ = [
    "ParityCurve",
    "parity_curve",
    "sensitivity",
    "min_sensitivity",
    "visibility",
    "fwhm",
    "fringe_figures",
]


@dataclass(frozen=True)
class ParityCurve:
    """A sampled parity-expectation curve E(phi) on an increasing grid."""

    phi_grid: np.ndarray
    values: np.ndarray
    spec: InterferometerSpec | None = None
    profile: ImperfectionProfile | None = None

    def __post_init__(self):
        phi, val = _check_reals("phi_grid", self.phi_grid), _check_reals("values", self.values)
        if phi.ndim != 1 or phi.shape != val.shape or phi.size < 2:
            raise ValueError("phi_grid and values must be matching 1-D arrays")
        if np.any(np.diff(phi) <= 0):
            raise ValueError("phi_grid must be strictly increasing")
        # exact zeros are kept: a deep fringe underflows at its trough
        if np.any(val < 0.0) or np.any(val > 1.0 + 1e-12):
            raise ValueError("values must be in [0, 1]")
        if not np.any(val > 0.0):
            raise ValueError("values are zero everywhere; there is no fringe")
        vars(self).update(phi_grid=phi, values=val)


def parity_curve(spec, profile, phi_grid):
    """Sample parity_expectation on a grid and package it as a ParityCurve."""
    phi = _check_reals("phi_grid", phi_grid)  # named as the grid before the fringe reads it as phi
    return ParityCurve(
        phi_grid=phi,
        values=parity_expectation(spec, phi, profile),
        spec=spec,
        profile=profile,
    )


def sensitivity(model, phi):
    """Angular sensitivity delta_phi of a FringeModel at a working point (scalar or array).

    Stationary points of the fringe, phi = phi0 + k * period/2, return +inf.
    """
    # the derivative is exactly 0 only at an extremum, and one that underflows
    # towards 0 overflows the quotient to inf, which is the right sensitivity there
    d = model.derivative(phi)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = np.where(d == 0.0, np.inf, np.sqrt(model.variance(phi)) / np.abs(d))
    if out.ndim == 0:
        return float(out)
    return out


def min_sensitivity(model):
    """Infimum of delta_phi over one fringe period of a FringeModel, as (phi_star, delta_phi).

    With no headroom (ideal, preparation, efficiency, balanced loss) it is
    the floor 1/(4 ell sqrt(a b / 2)) at the peak: phi_star is the peak
    phi0, where :func:`sensitivity` is +inf.  Otherwise a bisection in
    u = sin^2(2 ell (phi - phi0)) on the sign of the slope of delta_phi
    finds the minimum off the peak, on the twin right of it:
    phi0 < phi_star < phi0 + period/2.  A fringe flat everywhere (zero
    amplitude or decay, e.g. under dark counts that underflow exp(-2 r_eff)),
    or one whose minimum is not a positive float (it overflows), returns
    (nan, inf).
    """
    a, b, c, ell = model.amplitude, model.decay, model.floor, model.ell
    if a == 0.0 or b == 0.0:
        return (math.nan, math.inf)
    if model.headroom == 0.0:
        # delta_phi >= 1/(4 ell sqrt(a b / 2)) (proof in the module docstring);
        # a float scan over a in [1e-6, 1], b in [1e-4, 1e3] and u in (0, 1)
        # found no ratio below 1, the least at u -> 0: the infimum is the peak.
        # A subnormal a b / 2 (below 2^-1022) is scaled by an exact 2^1200 before its root
        half_ab, scale = 0.5 * b * a, 1.0
        if half_ab < 2.0**-1022:
            half_ab, scale = 0.5 * math.ldexp(a, 600) * math.ldexp(b, 600), 2.0**600
        phi, best = float(model.offset), scale / (4.0 * ell * math.sqrt(half_ab))
    else:
        # d/du ln delta_phi^2 = 2b (m - c) m / ((1 - m)(1 + m)) + 2b - 1/u + 1/(1 - u),
        # 1 - m from expm1 as in FringeModel.variance, runs from -inf at u -> 0 to
        # +inf at u -> 1 with one sign change, at u <= 1/2 as its other terms are
        # positive.  Bisect its sign, taken times u so that a root near 1/(2b) at
        # huge b does not overflow, and take the twin right of the peak
        lo, hi = 0.0, 1.0
        while lo < (u := 0.5 * (lo + hi)) < hi:
            ay = a * math.exp(-b * u)
            m, one_minus = ay + c, model.headroom - a * math.expm1(-b * u)
            slope_u = 2.0 * b * u * (ay * m / (one_minus * (1.0 + m)) + 1.0) - 1.0 + u / (1.0 - u)
            lo, hi = (u, hi) if slope_u < 0.0 else (lo, u)
        phi = model.offset + math.asin(math.sqrt(u)) / (2.0 * ell)
        best = sensitivity(model, phi)
    # a minimum that is not a positive float (it overflows at a subnormal
    # amplitude or decay) is no working point
    return (phi, best) if 0.0 < best < math.inf else (math.nan, math.inf)



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
    level = floor + 0.5 * (peak - floor)
    # a level that rounds onto the floor or the peak has no crossing between samples
    if not floor < level < peak:
        raise ValueError("floor is not below the curve maximum by more than rounding")
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
            raise ValueError("amplitude and floor are zero everywhere; there is no fringe")
        return 0.0, math.nan, math.nan
    vis = -math.expm1(-b) / (1.0 + math.exp(-b) + 2.0 * (c / a))
    width = math.asin(math.sqrt(math.log(2.0) / b)) / model.ell if b >= math.log(2.0) else math.nan
    return vis, width, math.pi / width
