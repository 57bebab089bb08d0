"""Closed-form parity response of an OAM-fed Sagnac interferometer.

A coherent beam with mean photon number N and orbital angular momentum
quantum number ell enters a common-path loop where a Dove prism rotated by
phi imprints opposite phases +/- 2*ell*phi on the counter-propagating
directions.  The dark output port then carries a coherent state of mean
photon number N*sin^2(2*ell*phi), and photon-number parity read out on that
port oscillates with period pi/(2*ell): a 4*ell-fold super-resolved fringe.

Every fringe, ideal or imperfect, closed-form or fitted, has one shape,

    m(phi) = a * exp(-b sin^2(2 ell (phi - phi0))) + c,

held by :class:`FringeModel` with its analytic derivative and its parity
variance 1 - m^2.  :meth:`ImperfectionProfile.fringe` gives its
parameters under any mix of imperfections, :func:`parity_expectation`
evaluates it, and each ``parity_expectation_<family>`` function is the
single-imperfection case.  Every function accepts a scalar or ndarray
``phi`` in radians and is vectorized through numpy.  Three rules refuse an input
with a ValueError naming it: ``_check_integer`` for integers, ``_check_real`` for
reals and ``_check_reals`` for arrays of reals (never a bool, string or complex;
each kept as the Python number, or float64 array, it equals).  One call states an
input's whole range and its message names the end that failed: "an integer >= low"
below it, else the caller's requirement ("finite" past the float range by default);
inf and nan are refused as "finite" first.  ell is below 2^1022 (``_check_ell``), so
that 4*ell is a float; ``_shape`` refuses a phi or offset of 2^48/ell rad or more.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "InterferometerSpec",
    "ImperfectionProfile",
    "FringeModel",
    "parity_expectation_ideal",
    "parity_expectation_prep",
    "parity_expectation_loss",
    "parity_expectation_efficiency",
    "parity_expectation_dark",
    "parity_expectation",
]

# A phase 4*ell*(phi - phi0) within this many rounding units (relative to its
# size) of a multiple of pi is an extremum: the float phi is the nearest one
# can get to it, and the sine there is rounding noise.
_EXTREMUM_ROUNDING = 4.0 * np.finfo(float).eps

_REALS = (float, int, np.floating, np.integer)


# the least int that float() refuses: the largest float plus half its last place rounds up to 2^1024
_FLOAT_INTS_END = 2**1024 - 2**970


def _check_integer(name, value, low=1, high=_FLOAT_INTS_END, requirement="finite"):
    # one check for every integer input: a Python or numpy integer, never a bool, in [low, high),
    # returned as the Python int it equals; the message names the input and the end that failed
    number = int(value) if isinstance(value, (int, np.integer)) and not isinstance(value, bool) else None
    if number is None or number < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {_shown(value, repr)}")
    if number >= high:
        raise ValueError(f"{name} must be {requirement}, got {_shown(value, repr)}")
    return number


def _check_ell(ell):
    # the OAM charge: 4 ell, the fringe phase's factor in _shape, stays a float
    return _check_integer("ell", ell, 1, 2**1022, "below 2**1022")


def _check_real(name, value, within=math.isfinite, requirement="finite"):
    # one check for every real input: a Python or numpy real, never a bool of either kind, finite and
    # accepted by within(), returned as the Python float it equals; the message names the input and,
    # for inf, nan or an int past the float range, says "finite" before the range is checked
    try:
        number = float(value) if isinstance(value, _REALS) and not isinstance(value, bool) else None
    except OverflowError:  # an int past the float range
        number = math.inf
    if number is None or not math.isfinite(number) or not within(number):
        shown = requirement if number is None or math.isfinite(number) else "finite"
        raise ValueError(f"{name} must be {shown}, got {_shown(value, str)}")
    return number


def _check_reals(name, value):
    # _check_real for arrays: ints and floats of any width, alone or nested, returned as np.asarray(value, dtype=float).
    # Each entry's type, or the dtype, is read before numpy casts: a bool, str, complex or ragged nest is not real
    array = np.asarray(value, dtype=object if isinstance(value, (list, tuple)) else None)
    if array.dtype.kind == "O":  # a list, ints past 64 bits or other objects: named by the first entry not real
        refused = next((type(x) for x in array.flat if not isinstance(x, _REALS) or isinstance(x, bool)), None)
    elif array.dtype.kind not in "iuf":  # an ndarray is named by its scalar type, any other value by its own
        refused = array.dtype.type if isinstance(value, np.ndarray) else type(value)
    else:
        refused = None
    if refused is not None:
        raise ValueError(f"{name} must be real, got {refused.__name__}")
    try:
        with np.errstate(over="ignore"):  # a longdouble past the float range casts to inf, refused below
            numbers = np.asarray(array, dtype=float)
    except OverflowError:  # an int past the float range
        numbers = np.asarray(math.inf)
    if not np.isfinite(numbers).all():
        for x in array.flat:  # the first entry that is not finite is refused by the scalar rule, in its words
            _check_real(name, x)
    return numbers


def _shown(value, text):
    # text(value) for a refusal message; an int too long for Python to print shows its digit count
    try:
        return text(value)
    except ValueError:
        digits = int((abs(value).bit_length() - 1) * math.log10(2))
        while 10**digits <= abs(value):
            digits += 1
        return f"an integer of {digits} digits"


def _shape(phi, decay, offset, ell):
    # delta = phi - offset, s = sin(2 ell delta), exp(-decay s^2), also for fit iterates with a + c > 1.  The angle rule
    # stops where derivative's extremum cut zeroes all slopes, on the raw angles: a small delta of huge ones is no finer
    phi = _check_reals("phi", phi)
    for name, big in (("phi", np.maximum.reduce(np.abs(phi), axis=None, initial=0.0)), ("offset", abs(offset))):
        if not big < 1.0 / (4 * ell * _EXTREMUM_ROUNDING):
            raise ValueError(f"{name} of order {big:g} rad is too large to resolve the fringe period "
                             f"{math.pi / (2.0 * ell):g} rad in floating point")
    delta = phi - offset
    s = np.sin(2 * ell * delta)
    return delta, s, np.exp(-decay * s * s)


@dataclass(frozen=True)
class InterferometerSpec:
    """Ideal interferometer configuration.

    Parameters
    ----------
    ell : int
        OAM quantum number of the probe beam, >= 1.
    mean_photons : float
        Mean photon number N = |alpha|^2 of the input coherent state, >= 0.
    """

    ell: int
    mean_photons: float

    def __post_init__(self):
        vars(self)["ell"] = _check_ell(self.ell)
        vars(self)["mean_photons"] = _check_real("mean_photons", self.mean_photons, lambda n: n >= 0, ">= 0")

    @property
    def fringe_period(self) -> float:
        """Period of the parity fringe in phi: pi/(2*ell)."""
        return math.pi / (2.0 * self.ell)


@dataclass(frozen=True)
class FringeModel:
    """Parity fringe model a*exp(-b sin^2(2 ell (phi - offset))) + floor.

    ``headroom`` is 1 - amplitude - floor, the parity deficit at the peak.
    It is derived, not set: a fringe built by :meth:`ImperfectionProfile.fringe`
    carries it assembled from expm1 terms, exact even where amplitude + floor
    rounds to 1.
    """

    amplitude: float
    decay: float
    offset: float
    ell: int
    floor: float = 0.0
    headroom: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ell = _check_ell(self.ell)
        # zero is allowed: a profile's amplitude underflows to it under
        # heavy dark counts (r_eff > 372) or strongly unbalanced loss
        sum_rule = ">= 0 with amplitude + floor at most 1"  # else not a parity expectation
        a = _check_real("amplitude", self.amplitude, lambda a: 0.0 <= a <= 1.0 + 1e-12, sum_rule)
        b = _check_real("decay", self.decay, lambda b: b >= 0.0, ">= 0 and finite")
        # 2 ell decay is the slope's first factor; past the float range delta_phi reads 0 or nan
        if not math.isfinite(2.0 * ell * b):
            raise ValueError(f"decay must be >= 0 with 2*ell*decay finite, got {self.decay} at ell {ell}")
        c = _check_real("floor", self.floor, lambda c: c >= 0.0 and a + c <= 1.0 + 1e-12, sum_rule)
        offset = _check_real("offset", self.offset)
        vars(self).update(ell=ell, amplitude=a, decay=b, floor=c, offset=offset, headroom=max(1.0 - a - c, 0.0))

    @property
    def period(self) -> float:
        return math.pi / (2.0 * self.ell)

    def __call__(self, phi):
        return self.amplitude * _shape(phi, self.decay, self.offset, self.ell)[2] + self.floor

    def derivative(self, phi):
        """Analytic dm/dphi; exactly 0 within rounding of an extremum phi0 + k*period/2."""
        delta, _, y = _shape(phi, self.decay, self.offset, self.ell)
        phase = 4 * self.ell * delta
        slope = np.sin(phase)
        slope = np.where(np.abs(slope) <= _EXTREMUM_ROUNDING * np.abs(phase), 0.0, slope)
        return -2.0 * self.ell * self.decay * slope * (self.amplitude * y)

    def variance(self, phi):
        """Single-readout parity variance 1 - m^2, computed as (1 - m)(1 + m).

        1 - m = headroom + a(1 - exp(-b u)) is a sum of nonnegative terms, so
        it never cancels, even where m is within 1e-16 of 1.
        """
        _, s, y = _shape(phi, self.decay, self.offset, self.ell)
        one_minus = self.headroom + self.amplitude * -np.expm1(-self.decay * s * s)
        return one_minus * (1.0 + (self.amplitude * y + self.floor))


@dataclass(frozen=True)
class ImperfectionProfile:
    """Hardware imperfections applied on top of an ideal interferometer.

    eta
        Preparation efficiency: fraction of the input prepared in the OAM
        mode; the remainder carries no OAM and exits bright, in (0, 1].
    t_a, t_b
        Path transmissions of the two counter-propagating directions, (0, 1].
    kappa
        Detection efficiency of the parity detector, (0, 1].
    dark_rate
        Mean dark count rate r per detection window, >= 0.
    jitter_factor
        Multiplier >= 1 on dark_rate modelling synchronization jitter
        widening the accept window.
    """

    eta: float = 1.0
    t_a: float = 1.0
    t_b: float = 1.0
    kappa: float = 1.0
    dark_rate: float = 0.0
    jitter_factor: float = 1.0

    def __post_init__(self):
        values = vars(self)
        for name in ("eta", "t_a", "t_b", "kappa"):
            values[name] = _check_real(name, getattr(self, name), lambda v: 0.0 < v <= 1.0, "in (0, 1]")
        values["dark_rate"] = _check_real("dark_rate", self.dark_rate, lambda r: r >= 0.0, "finite and >= 0")
        values["jitter_factor"] = _check_real("jitter_factor", self.jitter_factor, lambda j: j >= 1.0, ">= 1")

    @property
    def effective_dark_rate(self) -> float:
        """Dark rate after jitter widening, r_eff = jitter_factor * dark_rate."""
        return self.jitter_factor * self.dark_rate

    def fringe(self, spec) -> FringeModel:
        """Parity fringe of `spec` with all of these imperfections applied.

        Loss and detection efficiency set the dark-port mean
        mu = kappa*N*(t_a + t_b - 2 sqrt(t_a t_b) cos(4 ell phi))/4, which
        cos 4x = 1 - 2 sin^2 2x splits into a constant and a sin^2 term; the
        preparation mixture adds a vacuum (always even) fraction 1 - eta,
        and dark counts multiply the result by exp(-2 r_eff):

            exp(-2 r_eff) * [eta * exp(-2 mu(phi)) + (1 - eta)]
              = a * exp(-b sin^2(2 ell phi)) + c,
            a = exp(-2 r_eff) * eta * exp(-kappa N (sqrt t_a - sqrt t_b)^2 / 2)
            b = 2 kappa N sqrt(t_a t_b)
            c = exp(-2 r_eff) * (1 - eta)

        For the ideal profile a = 1, b = 2N, c = 0, and the model evaluates
        bit-exactly as exp(-2 N sin^2(2 ell phi)).
        """
        r_eff = self.effective_dark_rate
        dark = math.exp(-2.0 * r_eff)
        gap = 0.5 * self.kappa * spec.mean_photons * (math.sqrt(self.t_a) - math.sqrt(self.t_b)) ** 2
        model = FringeModel(
            amplitude=dark * self.eta * math.exp(-gap),
            decay=2.0 * (self.kappa * math.sqrt(self.t_a * self.t_b) * spec.mean_photons),
            offset=0.0,
            ell=spec.ell,
            floor=dark * (1.0 - self.eta),
        )
        object.__setattr__(model, "headroom", -math.expm1(-2.0 * r_eff) + dark * self.eta * -math.expm1(-gap))
        return model


def parity_expectation(spec, phi, profile):
    """Parity fringe with all imperfections of `profile` applied at once.

    Evaluates ``profile.fringe(spec)``; see :meth:`ImperfectionProfile.fringe`.
    """
    return profile.fringe(spec)(phi)


def parity_expectation_ideal(spec, phi):
    """Ideal parity fringe exp(-2 N sin^2(2 ell phi))."""
    return parity_expectation(spec, phi, ImperfectionProfile())


def parity_expectation_prep(spec, phi, eta):
    """Parity fringe with imperfect OAM preparation.

    A fraction eta of the input carries the OAM mode; the rest exits the
    bright port entirely, leaving the dark port in vacuum (always even):
    eta * exp(-2 N sin^2(2 ell phi)) + (1 - eta).
    """
    return parity_expectation(spec, phi, ImperfectionProfile(eta=eta))


def parity_expectation_loss(spec, phi, t_a, t_b):
    """Parity fringe with path transmissions t_a, t_b.

    exp(N sqrt(t_a t_b) cos(4 ell phi) - (N/2)(t_a + t_b)); reduces to the
    ideal fringe at t_a = t_b = 1.
    """
    return parity_expectation(spec, phi, ImperfectionProfile(t_a=t_a, t_b=t_b))


def parity_expectation_efficiency(spec, phi, kappa):
    """Parity fringe with detector efficiency kappa: ideal fringe at N -> kappa N."""
    return parity_expectation(spec, phi, ImperfectionProfile(kappa=kappa))


def parity_expectation_dark(spec, phi, dark_rate, jitter_factor=1.0):
    """Parity fringe scaled by dark counts: exp(-2 r_eff) times the ideal fringe.

    Dark counts flip the recorded parity independently of the light, which
    multiplies the expectation by exp(-2 r_eff) with
    r_eff = jitter_factor * dark_rate.
    """
    return parity_expectation(spec, phi, ImperfectionProfile(dark_rate=dark_rate, jitter_factor=jitter_factor))
