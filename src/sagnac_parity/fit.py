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
offset's column, growing with ell, cannot swamp the others.  A parameter on
a bound where the gradient points out of the box stays; the others' step is
clipped into the box and kept only if it lowers the cost.  It stops once a
kept step lowers the cost by at most 1e-10 of itself, or once a step is at
most 1e-14 of the parameters' norm (the stop of noiseless data).

Derived quantities (visibility, width, super-resolution factor) and the
fitted sensitivity are always recomputed from the fitted model through the
same :mod:`sagnac_parity.metrics` routines that serve the closed forms;
the ``*_from_fit`` pair only hands them ``result.model``.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .metrics import fringe_figures, min_sensitivity, sensitivity
from .model import FringeModel, _check_integer, _shape

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
    """Raised when the optimizer hits the iteration cap before converging.

    The best iterate reached so far is attached as ``best`` (may be None if
    it cannot even be packaged as a valid model).
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class FitResult:
    """Fitted model plus goodness-of-fit and derived physical quantities."""

    model: FringeModel
    residual_rms: float
    derived: dict
    param_stderr: dict


def _as_data(data):
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 2 or arr.shape[1] not in (2, 3) or arr.shape[0] < 4:
        raise ValueError("data must be an (n>=4, 2|3) array of (phi, value[, sigma]) rows")
    if arr.shape[1] == 2:
        arr = np.column_stack([arr, np.ones(arr.shape[0])])
    if np.any(arr[:, 2] <= 0):
        raise ValueError("sigmas must be positive")
    if not np.all(np.isfinite(arr)):
        raise ValueError("data contains non-finite entries")
    return arr[np.argsort(arr[:, 0])]


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
    pinned at parity 1 (floor = 1 - amplitude).  Fringes too shallow to
    reach their half level (decay < ln 2) fit normally but report nan for
    the derived width and resolution factor.  Data whose numbers overflow
    the fit's arithmetic raise ValueError, as do rows with
    (|value| + 2)/sigma of sqrt(largest float / rows) or more: the model
    lies in [0, 2], so below that the cost cannot overflow.
    """
    _check_integer("ell", ell)
    _check_integer("max_iter", max_iter)
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
    except FloatingPointError:
        raise ValueError("the data overflow the fit's arithmetic") from None
    if res.status == 0:
        try:
            best = _package(res, ell, floor)
        except ValueError:
            best = None
        raise FitConvergenceError(
            f"no convergence within {max_iter} evaluations", best=best
        )
    return _package(res, ell, floor)


def _solve(phi, y, sig, ell, floor, max_iter):
    period = math.pi / (2.0 * ell)
    if phi[-1] - phi[0] < 0.5 * period * (1.0 - 1e-9):
        raise ValueError("data spans less than half a fringe period")
    if y.max() - y.min() < 1e-12:
        raise ValueError("data has no fringe contrast to fit")
    if np.any((np.abs(y) + 2.0) / sig >= math.sqrt(np.finfo(float).max / y.size)):
        raise ValueError("the data overflow the fit's arithmetic")

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
        g = J.T @ f
        free = ~((x <= lower) & (g > 0) | (x >= upper) & (g < 0))
        A = J[:, free].T @ J[:, free]
        d = np.sqrt(np.where(np.diag(A) > 0.0, np.diag(A), 1.0))
        step = np.zeros_like(x)
        step[free] = np.linalg.lstsq(A / np.outer(d, d) + damping * np.eye(d.size), -g[free] / d, rcond=None)[0] / d
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


def _package(res, ell, floor):
    a, b, p0 = res.x[:3]
    c = {"zero": 0.0, "peak": 1.0 - float(a), "free": float(res.x[-1])}[floor]
    p0 = float(p0) % (math.pi / (2.0 * ell))
    model = FringeModel(amplitude=float(a), decay=float(b), offset=p0, ell=int(ell), floor=c)

    visibility, width, factor = fringe_figures(model)
    derived = {
        "n_bar": float(b) / 2.0,
        "r": abs(math.log(float(a))) / 2.0,  # 0.0, not -0.0, at a = 1
        "visibility": visibility,
        "fwhm": width,
        "super_resolution_factor": factor,
    }

    jtj = res.jac.T @ res.jac
    d = np.sqrt(np.where(np.diag(jtj) > 0.0, np.diag(jtj), 1.0))
    cov_diag = np.diag(np.linalg.pinv(jtj / np.outer(d, d))) / (d * d)
    names = ["amplitude", "decay", "offset"] + (["floor"] if floor == "free" else [])
    stderr = {k: float(math.sqrt(max(v, 0.0))) for k, v in zip(names, cov_diag)}
    if floor == "peak":
        stderr["floor"] = stderr["amplitude"]  # c = 1 - a

    return FitResult(
        model=model,
        residual_rms=float(np.sqrt(np.mean(res.fun**2))),
        derived=derived,
        param_stderr=stderr,
    )


def error_bars(phi, trials, model):
    """Expected standard error of a parity mean: sqrt(model.variance(phi)/trials)."""
    n = np.asarray(trials)
    # a bool, or a count that is not a finite number, is not a trial count
    if n.dtype.kind not in "iuf" or not np.all(np.isfinite(n)) or np.any(n != np.floor(n)) or np.any(n < 1):
        raise ValueError("trials must be positive integers")
    return np.sqrt(model.variance(phi) / n)


def sensitivity_from_fit(result, phi):
    """:func:`~sagnac_parity.metrics.sensitivity` of a FitResult's model (or of a FringeModel)."""
    return sensitivity(result.model if isinstance(result, FitResult) else result, phi)


def min_sensitivity_from_fit(result):
    """:func:`~sagnac_parity.metrics.min_sensitivity` of a FitResult's model (or of a FringeModel)."""
    return min_sensitivity(result.model if isinstance(result, FitResult) else result)


# --- reading fringe data back from CLI output -----------------------------

_PHI_COLUMNS = ("phi_rad", "phi_deg", "phi")
_VALUE_COLUMNS = ("parity_mean", "expectation", "value")
_SIGMA_COLUMNS = ("parity_stderr", "sigma", "error_bar")


def _rows_from_columns(columns, rows):
    phi_col = next((c for c in _PHI_COLUMNS if c in columns), None)
    val_col = next((c for c in _VALUE_COLUMNS if c in columns), None)
    if phi_col is None or val_col is None:
        raise ValueError(f"no recognizable phi/value columns in {columns!r}")
    sig_col = next((c for c in _SIGMA_COLUMNS if c in columns), None)
    picks = [columns.index(c) for c in (phi_col, val_col, sig_col) if c is not None]
    try:
        out = np.array([[float(row[i]) for i in picks] for row in rows], dtype=float)
    except (IndexError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed data row: {exc}") from None
    if out.size == 0:
        raise ValueError("table has no data rows")
    if not np.all(np.isfinite(out)):
        raise ValueError("table contains non-finite entries")
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
    recognizable phi/value columns").  Short rows, non-numeric or
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
