"""Weighted least-squares fitting of measured parity fringes.

The model is the :class:`~sagnac_parity.model.FringeModel` family

    m(phi) = a * exp(-b * sin^2(2 ell (phi - phi0))) + c,

the exact shape of every closed-form fringe in this package, with the floor
c frozen at zero unless explicitly requested, and then held to a + c <= 1.
Amplitude and decay reparameterize as a = exp(-2 r) and b = 2 n_bar, so a
fit recovers the mean photon number at the detector and the effective dark
rate of the apparatus.

The solver is this module's own: Marquardt-damped Gauss-Newton (SIAM J.
Appl. Math. 11, 431 (1963)) in the parameters' box, its steps and covariance
solved in column-scaled coordinates (J^T J at unit diagonal) so that the
offset's column, growing with ell, cannot swamp the others.  Each column is
first scaled by the power of two that brings it to order 1, exactly, so that
J^T J cannot overflow; a fit is refused only where an entry of the Jacobian
itself does, from ell of about 2^1010.  A parameter on
a bound where the gradient points out of the box stays; the others' step is
clipped into the box and kept only if it lowers the cost.  It stops once a
kept step lowers the cost by at most 1e-10 of itself, or once a step is at
most 1e-14 of the parameters' norm (the stop of noiseless data).

A fit returns its :class:`FringeModel`, the parameters' standard errors and
the residual; the fringe's figures and sensitivity are the
:mod:`sagnac_parity.metrics` routines of that model, as for a closed form.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .metrics import min_sensitivity, sensitivity
from .model import FringeModel, _check_ell, _check_integer, _check_reals, _shape

__all__ = [
    "FitResult",
    "FitConvergenceError",
    "fit_fringe",
    "error_bars",
    "sensitivity_from_fit",
    "min_sensitivity_from_fit",
    "load_fringe_data",
]


class FitConvergenceError(RuntimeError):
    """Raised when the optimizer hits the iteration cap before converging."""


@dataclass(frozen=True)
class FitResult:
    """Fitted model, its residual RMS and its parameters' standard errors."""

    model: FringeModel
    residual_rms: float
    param_stderr: dict


def _as_data(data):
    arr = _check_reals("data", data)
    if arr.ndim != 2 or arr.shape[1] not in (2, 3) or arr.shape[0] < 4:
        raise ValueError("data must be an (n>=4, 2|3) array of (phi, value[, sigma]) rows")
    if arr.shape[1] == 2:
        arr = np.column_stack([arr, np.ones(arr.shape[0])])
    if np.any(arr[:, 2] <= 0):
        raise ValueError("data sigmas must be positive")
    return arr[np.argsort(arr[:, 0], kind="stable")]  # rows at one angle keep their order


def _initial_guess(phi, y, ell, period):
    i = int(np.argmax(y))
    a0 = float(min(max(y[i], 1e-6), 1.0))
    phi0 = float(phi[i])
    # the nearest sample at or below the half level, right of the peak or
    # else left of it, gives a width scale; the peak itself is above it
    below = np.flatnonzero(y <= 0.5 * (y.max() + y.min()))
    right, left = below[below > i], below[below < i]
    hwhm = phi[right[0]] - phi[i] if right.size else phi[i] - phi[left[-1]]
    if hwhm <= 0:
        hwhm = period / 4.0
    s = math.sin(min(2 * ell * hwhm, math.pi / 2.0))
    b0 = math.log(2.0) / max(s * s, 1e-9)
    return a0, float(min(max(b0, 1e-3), 500.0)), phi0


def fit_fringe(data, ell, fit_floor=False, max_iter=500):
    """Weighted least-squares fit of the fringe model to (phi, value[, sigma]) rows.

    Converges by the module docstring's stop rules or raises
    FitConvergenceError after ``max_iter`` function evaluations.  Requires at
    least half a period of data; the reported offset is reduced to
    [0, pi/(2 ell)).  A fitted floor keeps the peak amplitude + floor at
    most 1: when the free fit lands above, the fit is redone with the peak
    pinned at parity 1 (floor = 1 - amplitude).  A parameter the data do
    not constrain (a zero Jacobian column, the offset's at decay 0) has
    stderr inf.  ValueError refuses rows with (|value| + 2)/sigma of
    sqrt(largest float / rows) or more, as "data overflow ...": the model
    lies in [0, 2], so below that the cost cannot overflow; and an ell
    whose Jacobian overflows, as "ell of ...".
    """
    ell = _check_ell(ell)
    max_iter = _check_integer("max_iter", max_iter)
    arr = _as_data(data)
    floor = "free" if fit_floor else "zero"
    # angles, values or weights so far out of scale that the arithmetic
    # overflows would carry inf and nan through the solver to a confident
    # wrong fit, so they are refused
    try:
        with np.errstate(over="raise"):
            res = _solve(*arr.T, ell, floor, max_iter)
            # for fixed decay and offset the fit is linear in (a, c), so the
            # best fit inside a + c <= 1 lies on that edge if the free one is out
            if floor == "free" and res.status != 0 and res.x[0] + res.x[3] > 1.0 + 1e-12:
                floor = "peak"
                res = _solve(*arr.T, ell, floor, max_iter)
    except FloatingPointError:  # an entry of the offset's column 2 ell b sin(4 ell delta) a core / sigma
        raise ValueError(f"ell of {ell:g} overflows the fit's Jacobian at these data's sigmas") from None
    if res.status == 0:
        raise FitConvergenceError(f"no convergence within {max_iter} evaluations")
    return _package(res, ell, floor)


def _solve(phi, y, sig, ell, floor, max_iter):
    period = math.pi / (2.0 * ell)
    if phi[-1] - phi[0] < 0.5 * period * (1.0 - 1e-9):
        raise ValueError("data spans less than half a fringe period")
    if y.max() - y.min() < 1e-12:
        raise ValueError("data has no fringe contrast to fit")
    if np.any((np.abs(y) + 2.0) / sig >= math.sqrt(np.finfo(float).max / y.size)):
        raise ValueError("data overflow the fit's arithmetic")

    a0, b0, phi0 = _initial_guess(phi, y, ell, period)
    x0 = [a0, b0, phi0]
    lower = [1e-12, 0.0, phi0 - period / 2.0]
    upper = [1.0, 1000.0, phi0 + period / 2.0]
    if floor == "free":
        x0.append(float(max(y.min(), 0.0)))
        lower.append(0.0)
        upper.append(1.0)

    # p is (a, b, phi0[, c]); c is fitted when free, else 0 or, with the
    # peak pinned, 1 - a: then m = a (y - 1) + 1 and dm/da = y - 1
    pinned = float(floor == "peak")

    def residuals(p):
        a, b, p0, c = (*p, pinned * (1.0 - p[0]))[:4]
        return (a * _shape(phi, b, p0, ell)[2] + c - y) / sig

    def jacobian(p):
        a, b, p0 = p[:3]
        delta, s, core = _shape(phi, b, p0, ell)
        cols = [
            (core - pinned) / sig,
            -a * s * s * core / sig,
            2.0 * ell * b * np.sin(4 * ell * delta) * a * core / sig,
        ]
        if floor == "free":
            cols.append(np.ones_like(phi) / sig)
        return np.column_stack(cols)

    return least_squares(residuals, x0, jac=jacobian, bounds=(lower, upper), max_nfev=max_iter)


def least_squares(fun, x0, jac, bounds, max_nfev):
    """Minimize |fun(x)|^2 in the box bounds = (lower, upper); status 0 means max_nfev calls of fun."""
    lower, upper = np.asarray(bounds, dtype=float)
    x = np.asarray(x0, dtype=float)
    f, J = fun(x), jac(x)
    nfev, status, damping = 1, 0, 1e-3
    while status == 0 and nfev < max_nfev:
        scale = _column_scale(J)
        Js = J * scale
        g = Js.T @ f
        free = ~((x <= lower) & (g > 0) | (x >= upper) & (g < 0))
        # two copies of the free columns: numpy rounds a product of one array with its own transpose otherwise
        A, d = _unit_diagonal(Js[:, free].T @ Js[:, free])
        step = np.zeros_like(x)
        step[free] = np.linalg.lstsq(A + damping * np.eye(d.size), -g[free] / d, rcond=None)[0] / d * scale[free]
        trial = np.clip(x + step, lower, upper)
        f_trial = fun(trial)
        nfev += 1
        cost, cost_trial = f @ f, f_trial @ f_trial
        status = int(np.linalg.norm(trial - x) <= 1e-14 * np.linalg.norm(x))
        if cost_trial < cost:
            status |= cost - cost_trial <= 1e-10 * cost
            x, f, J, damping = trial, f_trial, jac(trial), damping / 10.0
        else:
            damping *= 10.0
    return SimpleNamespace(x=x, fun=f, jac=J, status=status, nfev=nfev)


def _column_scale(J):
    # per column the power of two that brings its largest entry to [0.5, 1): exact, so the solver's and the
    # covariance's arithmetic is the unscaled one bit for bit where that is finite, and J^T J cannot overflow
    return np.ldexp(1.0, -np.frexp(np.abs(J).max(axis=0))[1])


def _unit_diagonal(A):
    # A at unit diagonal, and the roots d of its diagonal that it was divided by (1 where that is 0)
    d = np.sqrt(np.where(np.diag(A) > 0.0, np.diag(A), 1.0))
    return A / np.outer(d, d), d


def _package(res, ell, floor):
    a, b, p0 = res.x[:3]
    c = {"zero": 0.0, "peak": 1.0 - float(a), "free": float(res.x[-1])}[floor]
    period = math.pi / (2.0 * ell)
    p0 = float(p0) % period
    p0 = 0.0 if p0 == period else p0  # a tiny negative p0 rounds up to the period itself
    model = FringeModel(amplitude=float(a), decay=float(b), offset=p0, ell=ell, floor=c)

    scale = _column_scale(res.jac)
    Js = res.jac * scale
    A, d = _unit_diagonal(Js.T @ Js)
    # each root is taken before the scale comes back: the squared scale may underflow
    errors = np.sqrt(np.maximum(np.diag(np.linalg.pinv(A)) / (d * d), 0.0)) * scale
    errors[~res.jac.any(axis=0)] = math.inf  # pinv reads 0 for a direction the data do not constrain
    names = ["amplitude", "decay", "offset"] + (["floor"] if floor == "free" else [])
    stderr = {k: float(v) for k, v in zip(names, errors)}
    if floor == "peak":
        stderr["floor"] = stderr["amplitude"]  # c = 1 - a

    return FitResult(
        model=model,
        residual_rms=float(np.sqrt(np.mean(res.fun**2))),
        param_stderr=stderr,
    )


def error_bars(phi, trials, model):
    """Expected standard error of a parity mean: sqrt(model.variance(phi)/trials)."""
    out = np.sqrt(model.variance(phi) / _check_integer("trials", trials))
    return float(out) if out.ndim == 0 else out


def sensitivity_from_fit(result, phi):
    """:func:`~sagnac_parity.metrics.sensitivity` of a FitResult's model."""
    return sensitivity(result.model, phi)


def min_sensitivity_from_fit(result):
    """:func:`~sagnac_parity.metrics.min_sensitivity` of a FitResult's model."""
    return min_sensitivity(result.model)


# --- reading fringe data back from CLI output -----------------------------

_PHI_COLUMNS = ("phi_rad", "phi_deg", "phi")
_VALUE_COLUMNS = ("parity_mean", "expectation", "value")
_SIGMA_COLUMNS = ("parity_stderr", "sigma", "error_bar")


def _cell(x):
    # text as its float, any other cell as given once float() takes it: the rule refuses JSON true and false
    number = float(x)
    return number if isinstance(x, str) else x


def _rows_from_columns(columns, rows):
    phi_col = next((c for c in _PHI_COLUMNS if c in columns), None)
    val_col = next((c for c in _VALUE_COLUMNS if c in columns), None)
    if phi_col is None or val_col is None:
        raise ValueError(f"no recognizable phi/value columns in {columns!r}")
    sig_col = next((c for c in _SIGMA_COLUMNS if c in columns), None)
    picks = [columns.index(c) for c in (phi_col, val_col, sig_col) if c is not None]
    try:
        cells = [[_cell(row[i]) for i in picks] for row in rows]
    except (IndexError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed data row: {exc}") from None
    if not cells:
        raise ValueError("table has no data rows")
    out = _check_reals("table cells", cells)
    if phi_col == "phi_deg":
        out[:, 0] = np.radians(out[:, 0])
    return out


def load_fringe_data(source):
    """Read (phi, value[, sigma]) rows from a CSV or JSON table.

    Accepts a path or an open text stream.  A JSON table is an object with
    a ``columns`` list and a ``rows`` list of lists; a CSV table has a
    header row, and blank lines are skipped.  Columns are picked by name:
    phi from phi_rad, phi_deg or phi (degrees are converted to radians
    here, at the boundary), the value from parity_mean, expectation or
    value, and the optional sigma from parity_stderr, sigma or error_bar.
    Of the CLI's outputs only ``experiment``'s ``*_scan.csv`` has a value
    column; ``curve`` and ``metrics`` tables raise ValueError ("no
    recognizable phi/value columns").  Short rows, non-numeric, bool or
    non-finite cells and tables without rows raise ValueError too.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source, encoding="utf-8") as fh:
            text = fh.read()
    stripped = text.lstrip()
    if not stripped:
        raise ValueError("empty input")
    if stripped[0] in "{[":
        doc = json.loads(text)
        if not (
            isinstance(doc, dict)
            and isinstance(doc.get("columns"), list)
            and isinstance(doc.get("rows"), list)
            and all(isinstance(row, list) for row in doc["rows"])
        ):
            raise ValueError("JSON table must contain a 'columns' list and a 'rows' list of lists")
        return _rows_from_columns(doc["columns"], doc["rows"])
    try:
        header, *rows = [row for row in csv.reader(io.StringIO(text)) if row]
    except csv.Error as exc:
        raise ValueError(f"malformed CSV: {exc}") from None
    return _rows_from_columns([h.strip() for h in header], rows)
