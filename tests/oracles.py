"""Reference measurements that the tests hold the package's closed forms to."""
import math

import numpy as np


def count_fringe_peaks(values):
    """Number of strict local maxima of a cyclically sampled curve."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size < 3:
        raise ValueError("need a 1-D array of at least 3 samples")
    left = np.roll(v, 1)
    right = np.roll(v, -1)
    return int(np.count_nonzero((v > left) & (v > right)))


def brent_min_sensitivity(model):
    """Off-peak sensitivity minimum of a FringeModel by a bounded Brent search.

    A 1024-point grid over the half period right of the peak, refined by
    scipy's bounded scalar minimizer on the sensitivity itself within one
    grid step of the grid minimum.  Only for fringes with headroom, whose
    minimum lies off the peak.  Returns (phi_star, value), phi_star on the
    twin right of the peak.
    """
    from scipy.optimize import minimize_scalar

    from sagnac_parity.metrics import sensitivity

    points, half = 1024, model.period / 2.0
    grid = model.offset + np.linspace(0.0, half, points, endpoint=False)
    vals = sensitivity(model, grid)
    finite = np.isfinite(vals)
    i = int(np.flatnonzero(finite)[np.argmin(vals[finite])])
    # search in the shift t from grid[i]: Brent's tolerance has a term
    # sqrt(eps)*|x|, which on phi itself would stop near 1e-8 rad from phi_star
    step = half / points
    res = minimize_scalar(
        lambda t: sensitivity(model, grid[i] + t),
        bounds=(-step, step),
        method="bounded",
        options={"xatol": 1e-12 * max(model.period, 1.0)},
    )
    if vals[i] < res.fun:
        return (float(grid[i]), float(vals[i]))
    return (float(grid[i] + res.x), float(res.fun))


def scipy_least_squares(fun, x0, jac, bounds, max_nfev):
    """scipy's bounded trust-region least squares ("trf") at tight tolerances.

    Takes and returns what the package's own solver does
    (``sagnac_parity.fit.least_squares``), so a test can swap it in.
    """
    from scipy.optimize import least_squares

    return least_squares(
        fun, x0, jac=jac, bounds=bounds, method="trf", ftol=1e-15, xtol=1e-15, gtol=1e-15, max_nfev=max_nfev
    )


def credibility(empirical, theoretical):
    """Bhattacharyya overlap H = sum_i sqrt(x_i y_i) of two count histograms.

    Both are normalized 1-D probability vectors indexed by count value; the
    shorter one is zero-padded to the shared support.  Identical histograms
    give 1.0, disjoint ones 0.0.
    """
    x, y = np.asarray(empirical, dtype=float), np.asarray(theoretical, dtype=float)
    assert all(h.ndim == 1 and abs(h.sum() - 1.0) <= 1e-6 for h in (x, y)), "need two normalized 1-D histograms"
    n = max(x.size, y.size)
    return float(np.sqrt(np.pad(x, (0, n - x.size)) * np.pad(y, (0, n - y.size))).sum())


def poisson_cutoff(mean, tail):
    """Least n_max whose cut Poisson tail P(n >= n_max) is at most ``tail``, by scipy."""
    from scipy.stats import poisson

    return int(poisson.isf(tail, mean)) + 1


def phase_averaged_qfi_sum(ell, mean_photons, n_max):
    """Phase-averaged Mach-Zehnder QFI as the explicit sum 4 ell^2 sum_{n <= n_max} p_n n.

    The Poisson weights are scipy's, not the package's Fock lattice.  The
    sum rises with n_max towards the closed form 4 ell^2 N, short of it by
    4 ell^2 N P(n >= n_max), as n p_n(N) = N p_{n-1}(N).
    """
    from scipy.stats import poisson

    ns = np.arange(n_max + 1)
    return 4.0 * ell * ell * float(np.dot(poisson.pmf(ns, mean_photons), ns))


def binomial_inversion(n, p, u):
    """numpy's Binomial(n, p) draw by inversion on the one uniform ``u``, for p <= 1/2.

    A scalar transcription of ``random_binomial_inversion`` in numpy's
    ``distributions.c``, operation for operation.  Returns None where the
    draw runs past numpy's bound, where numpy draws that readout again from
    the next uniform.
    """
    q = 1.0 - p
    qn = math.exp(n * math.log1p(-p))
    mean = n * p
    bound = int(min(n, mean + 10.0 * math.sqrt(mean * q + 1)))
    x, px = 0, qn
    while u > px:
        x += 1
        if x > bound:
            return None
        u -= px
        px = ((n - x + 1) * p * px) / (x * q)
    return x


_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def pcg64_emitting(word):
    """A numpy Generator on a PCG64 whose next 64-bit output is ``word``.

    PCG64 steps its 128-bit state s to s * multiplier + increment, then
    outputs the high and low halves XORed and rotated by the top 6 bits.  A
    stepped state with a zero high half outputs its low half unrotated, so
    the state before it is (word - increment) / multiplier mod 2**128.  Its
    ``random()`` returns (word >> 11) / 2**53 first.
    """
    bit_generator = np.random.PCG64()
    state = bit_generator.state
    before = (word - 1) * pow(_PCG64_MULTIPLIER, -1, 2**128) % 2**128
    state["state"] = {"state": before, "inc": 1}
    bit_generator.state = state
    return np.random.Generator(bit_generator)
