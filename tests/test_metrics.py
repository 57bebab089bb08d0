import math
import sys

import mpmath
import numpy as np
import pytest

from sagnac_parity import (
    FringeModel,
    ImperfectionProfile,
    InterferometerSpec,
    ParityCurve,
    crb_sensitivity,
    error_bars,
    fringe_figures,
    fwhm,
    min_sensitivity,
    parity_curve,
    parity_expectation,
    qfi_si,
    sensitivity,
    visibility,
)

from oracles import brent_min_sensitivity, count_fringe_peaks

IDEAL = ImperfectionProfile()
ALL_FAMILIES = ImperfectionProfile(eta=0.8, t_a=0.9, t_b=0.6, kappa=0.7, dark_rate=0.05, jitter_factor=2.0)


def _dense_curve(spec, profile, points=4097):
    half = spec.fringe_period / 2.0
    return parity_curve(spec, profile, np.linspace(-half, half, points))


# frozen working-point sensitivities, computed by hand from
# sqrt(1 - E^2) / |dE/dphi| with E = exp(-2 N sin^2(2 ell phi))

def test_sensitivity_frozen_values():
    assert sensitivity(IDEAL.fringe(InterferometerSpec(ell=1, mean_photons=10.0)), 0.3) == pytest.approx(
        15.767046248889761, rel=1e-12
    )
    assert sensitivity(IDEAL.fringe(InterferometerSpec(ell=2, mean_photons=5.0)), 0.1) == pytest.approx(
        0.15490911792304052, rel=1e-12
    )


def test_sensitivity_is_inf_at_stationary_points():
    for ell in (1, 3):
        spec = InterferometerSpec(ell=ell, mean_photons=5.0)
        period = spec.fringe_period
        for profile in (IDEAL, ALL_FAMILIES):
            model = profile.fringe(spec)
            for phi in (0.0, period / 2, period, 2 * period):
                assert sensitivity(model, phi) == math.inf, (ell, profile, phi)
            phi = np.array([0.0, 0.4 * period, period / 2, period, 1.7 * period, 2 * period])
            values = sensitivity(model, phi)
            assert np.all(values[[0, 2, 3, 5]] == math.inf)
            assert np.all(np.isfinite(values[[1, 4]]))


@pytest.mark.parametrize("ell", [1, 2])
@pytest.mark.parametrize("profile", [IDEAL, ImperfectionProfile(eta=0.9, dark_rate=0.0253)], ids=["ideal", "prep-dark"])
def test_sensitivity_just_off_an_extremum_matches_mpmath(profile, ell):
    # the stationary cut of FringeModel.derivative is a few rounding units of the phase wide:
    # 8 to 60 ulps past the trough phi0 + period/2 and the peak phi0 + period, delta_phi is
    # finite and exact, where a cut 16 times as wide reads inf
    model = profile.fringe(InterferometerSpec(ell=ell, mean_photons=2.297))
    a, b, c, h = (mpmath.mpf(v) for v in (model.amplitude, model.decay, model.floor, model.headroom))
    for extremum in (model.offset + model.period / 2, model.offset + model.period):
        for ulps in (8, 12, 20, 40, 60):
            phi = extremum + ulps * math.ulp(extremum)
            got = sensitivity(model, phi)
            with mpmath.workdps(60):
                x = 2 * ell * (mpmath.mpf(phi) - mpmath.mpf(model.offset))
                y = mpmath.exp(-b * mpmath.sin(x) ** 2)
                variance = (h - a * mpmath.expm1(-b * mpmath.sin(x) ** 2)) * (1 + a * y + c)
                want = mpmath.sqrt(variance) / abs(2 * ell * b * mpmath.sin(2 * x) * a * y)
                assert math.isfinite(got) and abs(got / want - 1) <= 1e-12, (extremum, ulps, got, want)


@pytest.mark.parametrize("dark_rate", [1e-12, 1e-9])
@pytest.mark.parametrize("phi", [1e-7, 1e-6, 1e-5, 1e-3, 0.1, 0.3])
def test_sensitivity_near_the_peak_keeps_full_precision(dark_rate, phi):
    # 1 - E = 1 - exp(-x) must not be taken as 1 - (amplitude + floor) - ...:
    # at r = 1e-12 that subtraction alone costs five digits
    ell, n = 1, 2.297
    spec = InterferometerSpec(ell=ell, mean_photons=n)
    profile = ImperfectionProfile(dark_rate=dark_rate)
    x = 2.0 * dark_rate + 2.0 * n * math.sin(2 * ell * phi) ** 2
    variance = -math.expm1(-x) * (1.0 + math.exp(-x))
    expected = math.sqrt(variance) / (4.0 * ell * n * abs(math.sin(4 * ell * phi)) * math.exp(-x))
    model = profile.fringe(spec)
    assert sensitivity(model, phi) == pytest.approx(expected, rel=1e-13, abs=0.0)
    # the variance and the error bars read off the same cancellation-free form
    assert model.variance(phi) == pytest.approx(variance, rel=1e-13, abs=0.0)
    assert error_bars(phi, 10_000, model) == pytest.approx(math.sqrt(variance / 10_000), rel=1e-13, abs=0.0)


def test_sensitivity_approaches_shot_noise_limited_floor():
    spec = InterferometerSpec(ell=1, mean_photons=1.0)
    limit = 0.25
    samples = [sensitivity(IDEAL.fringe(spec), phi) for phi in (1e-3, 1e-4, 1e-5)]
    gaps = [abs(s - limit) for s in samples]
    assert gaps[0] > gaps[1] > gaps[2]
    assert samples[-1] == pytest.approx(limit, rel=1e-8)


def test_min_sensitivity_reaches_heisenberg_scaling_floor():
    phi_star, best = min_sensitivity(IDEAL.fringe(InterferometerSpec(ell=3, mean_photons=10.0)))
    assert best == pytest.approx(0.026352313834736494, rel=1e-9)
    assert 0.0 <= phi_star < math.pi / 6


def test_min_sensitivity_simple_case():
    _, best = min_sensitivity(IDEAL.fringe(InterferometerSpec(ell=1, mean_photons=1.0)))
    assert best == pytest.approx(0.25, rel=1e-9)


def test_prep_inefficiency_raises_the_floor():
    spec = InterferometerSpec(ell=1, mean_photons=10.0)
    degraded = sensitivity(ImperfectionProfile(eta=0.5).fringe(spec), 1e-5)
    assert degraded == pytest.approx(0.11180339887498948, rel=1e-7)
    # 1/sqrt(eta) times the ideal floor
    assert degraded == pytest.approx(sensitivity(IDEAL.fringe(spec), 1e-5) / math.sqrt(0.5), rel=1e-7)


def test_balanced_loss_rescales_the_floor():
    spec = InterferometerSpec(ell=3, mean_photons=10.0)
    _, best = min_sensitivity(ImperfectionProfile(t_a=0.5, t_b=0.5).fringe(spec))
    assert best == pytest.approx(0.037267799624996496, rel=1e-9)


def test_min_sensitivity_flat_fringe_has_no_working_point():
    # exp(-2 r_eff) underflows to 0 at r_eff = 400: the fringe is exactly flat
    spec = InterferometerSpec(ell=1, mean_photons=1.0)
    phi_star, best = min_sensitivity(ImperfectionProfile(dark_rate=400.0).fringe(spec))
    assert math.isnan(phi_star)
    assert best == math.inf
    # a subnormal amplitude (r_eff 360 ... 372.5) or decay (N = 1e-310)
    # overflows delta_phi everywhere; so does a zero amplitude or decay
    flat = [(spec, ImperfectionProfile(dark_rate=float(r))) for r in np.arange(360.0, 373.0, 0.5)]
    flat.append((InterferometerSpec(ell=1, mean_photons=1e-310), ImperfectionProfile(dark_rate=0.01)))
    flat.append((InterferometerSpec(ell=1, mean_photons=0.0), ImperfectionProfile(dark_rate=0.01)))
    for case_spec, profile in flat:
        phi_star, best = min_sensitivity(profile.fringe(case_spec))
        assert math.isnan(phi_star) and best == math.inf, (case_spec, profile)
    for amplitude, decay, floor in ((0.0, 2.0, 0.5), (0.0, 2.0, 1.0), (0.5, 0.0, 0.2), (1.0, 0.0, 0.0)):
        # with headroom and without
        model = FringeModel(amplitude=amplitude, decay=decay, offset=0.3, ell=1, floor=floor)
        phi_star, best = min_sensitivity(model)
        assert math.isnan(phi_star) and best == math.inf, model
    # a faint fringe is not flat: eta = 1e-16 leaves no headroom, so its
    # minimum is the floor 1/(4 ell sqrt(a b / 2)) at the peak
    phi_star, best = min_sensitivity(ImperfectionProfile(eta=1e-16).fringe(spec))
    assert phi_star == 0.0
    assert best == pytest.approx(2.5e7, rel=1e-15)


def test_faint_fringe_off_the_peak_has_a_finite_minimum():
    # at r = 20 the amplitude is e^-40 ~ 4e-18, so every |dm/dphi| is below
    # 1e-15; only an exact zero derivative is stationary
    spec = InterferometerSpec(ell=1, mean_photons=2.0)
    profile = ImperfectionProfile(dark_rate=20.0)
    model = profile.fringe(spec)
    phi_star, best = min_sensitivity(model)
    assert 0.0 < phi_star < spec.fringe_period / 2
    assert best == pytest.approx(min(sensitivity(model, np.linspace(0.01, 0.7, 2001))), rel=1e-6)
    assert sensitivity(model, 0.2) == pytest.approx(7.5e16, rel=0.01)


def test_min_sensitivity_respects_quantum_bound():
    for ell, n in ((1, 1.0), (2, 5.0), (4, 10.0)):
        spec = InterferometerSpec(ell=ell, mean_photons=n)
        _, best = min_sensitivity(IDEAL.fringe(spec))
        bound = crb_sensitivity(qfi_si(ell, n))
        assert best >= bound * (1.0 - 1e-9)
        assert best / bound == pytest.approx(1.0, rel=1e-6)


def test_composed_sensitivity_agrees_with_finite_difference():
    spec = InterferometerSpec(ell=1, mean_photons=3.0)
    profile = ImperfectionProfile(eta=0.8, dark_rate=0.1)
    phi = 0.25
    h = 1e-5
    d = (parity_expectation(spec, phi + h, profile) - parity_expectation(spec, phi - h, profile)) / (2 * h)
    e = parity_expectation(spec, phi, profile)
    expected = math.sqrt(1.0 - e * e) / abs(d)
    assert sensitivity(profile.fringe(spec), phi) == pytest.approx(expected, rel=1e-7)


ZERO_HEADROOM = {
    "ideal": IDEAL,
    "prep": ImperfectionProfile(eta=0.6),
    "efficiency": ImperfectionProfile(kappa=0.7),
    "balanced loss": ImperfectionProfile(t_a=0.5, t_b=0.5),
}


@pytest.mark.parametrize("ell", [1, 2, 3])
@pytest.mark.parametrize("name", list(ZERO_HEADROOM))
def test_zero_headroom_minimum_is_the_floor_at_the_peak(name, ell):
    profile = ZERO_HEADROOM[name]
    n = 2.297
    spec = InterferometerSpec(ell=ell, mean_photons=n)
    model = profile.fringe(spec)
    assert model.headroom == 0.0
    floor = 1.0 / (4.0 * ell * math.sqrt(0.5 * model.amplitude * model.decay))
    assert min_sensitivity(model) == (0.0, floor)
    # a b / 2 is the detected photon number eta kappa sqrt(t_a t_b) N
    detected = profile.eta * profile.kappa * math.sqrt(profile.t_a * profile.t_b) * n
    assert floor == pytest.approx(1.0 / (4.0 * ell * math.sqrt(detected)), rel=1e-14)
    # the floor is an infimum: no working point beats it, near the peak or not
    period = spec.fringe_period
    offsets = 10.0 ** np.arange(-9.0, -2.0)
    phi = np.concatenate([np.linspace(0.0, period, 4096, endpoint=False), offsets, -offsets, period - offsets])
    values = sensitivity(model, phi)
    assert np.all(values >= floor * (1.0 - 1e-12))


@pytest.mark.parametrize(
    "ell, n, eta", [(1, 1.0, 5e-324), (1, 0.2, 5e-324), (2, 3.0, 1e-310), (3, 1e5, 5e-324), (1, 1e-300, 1e-10)]
)
def test_zero_headroom_floor_stays_finite_where_a_b_over_2_underflows(ell, n, eta):
    spec = InterferometerSpec(ell=ell, mean_photons=n)
    model = ImperfectionProfile(eta=eta).fringe(spec)
    assert model.headroom == 0.0 and 0.5 * model.amplitude * model.decay < sys.float_info.min
    phi_star, best = min_sensitivity(model)
    with mpmath.workprec(200):
        exact = 1 / (4 * ell * mpmath.sqrt(mpmath.mpf(model.amplitude) * mpmath.mpf(model.decay) / 2))
        assert phi_star == 0.0
        assert abs(mpmath.mpf(best) / exact - 1) <= 1e-15


# 50-digit mpmath minima of sqrt(1 - m^2)/|dm/dphi| at ell = 1, N = 2.297, on
# the twin right of the peak
@pytest.mark.parametrize(
    "profile, phi_ref, best_ref",
    [
        (ImperfectionProfile(dark_rate=0.0253), 0.097805604140181052128, 0.21466819718403002957),
        (
            ImperfectionProfile(eta=0.9, t_a=0.9, t_b=0.6, kappa=0.8, dark_rate=0.05, jitter_factor=1.5),
            0.15898864280106719846,
            0.40253443031913691362,
        ),
    ],
    ids=["default experiment", "all families"],
)
def test_min_sensitivity_off_the_peak_matches_mpmath(profile, phi_ref, best_ref):
    spec = InterferometerSpec(ell=1, mean_photons=2.297)
    model = profile.fringe(spec)
    assert model.headroom > 0.0
    phi_star, best = min_sensitivity(model)
    assert best == pytest.approx(best_ref, rel=4e-16, abs=0.0)
    assert phi_star == pytest.approx(phi_ref, rel=0.0, abs=1e-8)


def test_off_peak_minimum_matches_a_brent_search_on_random_profiles():
    # the bisection on the analytic slope against scipy's bounded Brent search
    # on the sensitivity itself, over profiles with every family active; both
    # take the twin right of the peak
    rng = np.random.default_rng(20261018)
    for _ in range(600):
        spec = InterferometerSpec(ell=int(rng.integers(1, 5)), mean_photons=float(rng.uniform(0.5, 60.0)))
        profile = ImperfectionProfile(
            eta=float(rng.uniform(0.5, 0.999)),
            t_a=float(rng.uniform(0.5, 0.999)),
            t_b=float(rng.uniform(0.5, 0.999)),
            kappa=float(rng.uniform(0.3, 0.999)),
            dark_rate=float(10.0 ** rng.uniform(-4.0, math.log10(3.0))),
            jitter_factor=float(rng.uniform(1.0, 2.0)),
        )
        model = profile.fringe(spec)
        assert model.headroom > 0.0
        phi_ref, best_ref = brent_min_sensitivity(model)
        phi_star, best = min_sensitivity(model)
        assert best == pytest.approx(best_ref, rel=1e-15, abs=0.0), (spec, profile)
        assert phi_star == pytest.approx(phi_ref, rel=0.0, abs=1e-8), (spec, profile)
        assert 0.0 < phi_star < spec.fringe_period / 2, (spec, profile)


def test_off_peak_minimum_within_one_grid_step_of_the_peak():
    # at large N the minimum lies within a thousandth of a period of the peak,
    # where the slope's 1/u term dominates
    spec = InterferometerSpec(ell=2, mean_photons=1e4)
    profile = ImperfectionProfile(dark_rate=1e-4)
    model = profile.fringe(spec)
    phi_ref, best_ref = brent_min_sensitivity(model)
    assert 0.0 < phi_ref < model.period / 1024
    phi_star, best = min_sensitivity(model)
    assert best == pytest.approx(best_ref, rel=1e-15, abs=0.0)
    assert phi_star == pytest.approx(phi_ref, rel=0.0, abs=1e-8)


def test_off_peak_minimum_at_a_decay_near_overflow():
    # at N = 2e307 the root u* ~ 1e-309 is subnormal and 1/u* overflows; the
    # bisection runs on u times the slope, which stays finite
    spec = InterferometerSpec(ell=1, mean_photons=2e307)
    profile = ImperfectionProfile(dark_rate=0.01)
    model = profile.fringe(spec)
    phi_star, best = min_sensitivity(model)
    assert 0.0 < phi_star < 1e-150
    assert np.all(best < sensitivity(model, phi_star * np.array([0.99, 1.01])))
    # once 2 ell b passes 1.8e308 the derivative would overflow and read
    # delta_phi 0 off the peak, so the fringe itself is refused
    with pytest.raises(ValueError, match="decay must be >= 0"):
        profile.fringe(InterferometerSpec(ell=4, mean_photons=2e307))


FIGURE_PROFILES = {
    "ideal": IDEAL,
    "prep": ImperfectionProfile(eta=0.8),
    "loss": ImperfectionProfile(t_a=0.9, t_b=0.6),
    "dark": ImperfectionProfile(dark_rate=0.05),
    "all families": ALL_FAMILIES,
}


@pytest.mark.parametrize("n", [0.5, 2.297, 10.0])
@pytest.mark.parametrize("ell", [1, 3])
@pytest.mark.parametrize("name", list(FIGURE_PROFILES))
def test_fringe_figures_match_the_sampled_curve(name, ell, n):
    profile = FIGURE_PROFILES[name]
    spec = InterferometerSpec(ell=ell, mean_photons=n)
    vis, width, factor = fringe_figures(profile.fringe(spec))
    curve = _dense_curve(spec, profile, points=65537)
    assert vis == pytest.approx(visibility(curve), rel=1e-12)
    if profile.fringe(spec).decay < math.log(2.0):
        # too shallow to reach the half level (all families at N = 0.5)
        assert math.isnan(width) and math.isnan(factor)
        with pytest.raises(ValueError, match="half level"):
            fwhm(curve)
    else:
        assert width == pytest.approx(fwhm(curve), rel=1e-8)
        assert factor == math.pi / width


def test_fringe_figures_of_a_flat_fringe_with_a_floor():
    # no amplitude: zero visibility and no width, but not an all-zero curve
    flat = FringeModel(amplitude=0.0, decay=2.0, offset=0.0, ell=1, floor=0.3)
    visibility, width, factor = fringe_figures(flat)
    assert visibility == 0.0 and math.isnan(width) and math.isnan(factor)
    with pytest.raises(ValueError, match="^amplitude and floor are zero everywhere; there is no fringe$"):
        fringe_figures(FringeModel(amplitude=0.0, decay=2.0, offset=0.0, ell=1))


def test_fringe_figures_of_a_deep_fringe_match_mpmath():
    # 50-digit mpmath asin(sqrt(ln 2 / 800)); a 4097-point grid misses it by 3e-5
    _, width, factor = fringe_figures(FringeModel(amplitude=1.0, decay=800.0, offset=0.0, ell=1))
    assert width == pytest.approx(0.029439502837899407, rel=1e-15)
    assert factor == math.pi / width


def test_visibility_of_ideal_fringe():
    spec = InterferometerSpec(ell=2, mean_photons=10.0)
    expected = (1.0 - math.exp(-20.0)) / (1.0 + math.exp(-20.0))
    assert visibility(_dense_curve(spec, IDEAL)) == pytest.approx(expected, rel=1e-12)


def test_visibility_with_prep_floor_tends_to_one_third():
    spec = InterferometerSpec(ell=1, mean_photons=20.0)
    curve = _dense_curve(spec, ImperfectionProfile(eta=0.5))
    assert visibility(curve) == pytest.approx(1.0 / 3.0, rel=1e-9)


def test_visibility_is_unchanged_by_dark_count_scaling():
    spec = InterferometerSpec(ell=1, mean_photons=2.297)
    curve = _dense_curve(spec, ImperfectionProfile(dark_rate=0.0253))
    expected = (1.0 - math.exp(-4.594)) / (1.0 + math.exp(-4.594))
    assert visibility(curve) == pytest.approx(expected, rel=1e-10)
    assert visibility(curve) == pytest.approx(0.9799778147960428, rel=1e-10)


def test_visibility_requires_a_full_period():
    spec = InterferometerSpec(ell=1, mean_photons=5.0)
    short = parity_curve(spec, IDEAL, np.linspace(0.0, 0.4 * spec.fringe_period, 128))
    with pytest.raises(ValueError):
        visibility(short)


def test_visibility_needs_spec_or_explicit_period():
    grid = np.linspace(0.0, math.pi / 2, 257)
    values = np.exp(-2 * 5.0 * np.sin(2 * grid) ** 2)
    curve = ParityCurve(phi_grid=grid, values=values)
    with pytest.raises(ValueError):
        visibility(curve)
    expected = (1.0 - math.exp(-10.0)) / (1.0 + math.exp(-10.0))
    assert visibility(curve, period=math.pi / 2) == pytest.approx(expected, rel=1e-12)


def test_fwhm_matches_closed_form():
    # ideal fringe crosses half maximum at sin^2(2 ell phi) = ln2/(2N)
    spec = InterferometerSpec(ell=3, mean_photons=10.0)
    expected = (1.0 / 3.0) * math.asin(math.sqrt(math.log(2.0) / 20.0))
    assert fwhm(_dense_curve(spec, IDEAL)) == pytest.approx(expected, abs=1e-7)

    spec = InterferometerSpec(ell=1, mean_photons=2.297)
    expected = math.asin(math.sqrt(math.log(2.0) / 4.594))
    assert fwhm(_dense_curve(spec, IDEAL)) == pytest.approx(expected, abs=1e-7)


def test_fwhm_halves_when_charge_doubles():
    narrow = fwhm(_dense_curve(InterferometerSpec(ell=2, mean_photons=5.0), IDEAL))
    wide = fwhm(_dense_curve(InterferometerSpec(ell=1, mean_photons=5.0), IDEAL))
    assert 2.0 * narrow == pytest.approx(wide, rel=1e-6)


def test_fwhm_raises_when_fringe_never_reaches_half_level():
    spec = InterferometerSpec(ell=1, mean_photons=0.01)
    with pytest.raises(ValueError):
        fwhm(_dense_curve(spec, IDEAL))
    # a curve still rising at the right end of its grid has no right-hand crossing
    rising = ParityCurve(phi_grid=np.array([0.0, 0.5, 1.0]), values=np.array([0.2, 0.5, 1.0]))
    with pytest.raises(ValueError, match="right of the peak"):
        fwhm(rising)
    with pytest.raises(ValueError, match="floor is not below the curve maximum"):
        fwhm(rising, floor=1.0)
    # a floor within rounding of the peak puts the half level on the peak itself
    for values in ([0.2, 0.5, 1.0], [1.0, 0.5, 0.2], [0.2, 1.0, 1.0, 0.2], [0.2, 1.0, 0.2]):
        curve = ParityCurve(phi_grid=np.arange(len(values), dtype=float), values=np.array(values))
        with pytest.raises(ValueError, match="floor is not below the curve maximum"):
            fwhm(curve, floor=math.nextafter(1.0, 0.0))


def test_fwhm_is_floor_referenced_for_prep_offset():
    spec = InterferometerSpec(ell=1, mean_photons=5.0)
    ideal_width = fwhm(_dense_curve(spec, IDEAL))
    prep_width = fwhm(_dense_curve(spec, ImperfectionProfile(eta=0.6)))
    assert prep_width == pytest.approx(ideal_width, rel=1e-9)
    # referencing zero instead of the floor would fatten the peak
    assert fwhm(_dense_curve(spec, ImperfectionProfile(eta=0.6)), floor=0.0) > prep_width


def test_fwhm_is_unchanged_by_dark_count_scaling():
    spec = InterferometerSpec(ell=1, mean_photons=5.0)
    ideal_width = fwhm(_dense_curve(spec, IDEAL))
    dark_width = fwhm(_dense_curve(spec, ImperfectionProfile(dark_rate=0.05)))
    assert dark_width == pytest.approx(ideal_width, rel=1e-9)


def test_super_resolution_factor_reference_case():
    spec = InterferometerSpec(ell=1, mean_photons=2.297)
    assert math.pi / fwhm(_dense_curve(spec, IDEAL)) == pytest.approx(7.875017096786658, rel=1e-5)


def test_super_resolution_factor_grows_with_charge():
    factors = [
        math.pi / fwhm(_dense_curve(InterferometerSpec(ell=ell, mean_photons=5.0), IDEAL))
        for ell in (1, 2, 4)
    ]
    assert factors[1] == pytest.approx(2 * factors[0], rel=1e-6)
    assert factors[2] == pytest.approx(4 * factors[0], rel=1e-6)


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_peak_count_over_full_turn(ell):
    spec = InterferometerSpec(ell=ell, mean_photons=5.0)
    grid = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
    values = parity_expectation(spec, grid, IDEAL)
    assert count_fringe_peaks(values) == 4 * ell


def test_peak_count_input_validation():
    with pytest.raises(ValueError):
        count_fringe_peaks(np.ones((3, 3)))
    with pytest.raises(ValueError):
        count_fringe_peaks([1.0, 2.0])


def test_parity_curve_validation():
    with pytest.raises(ValueError):
        ParityCurve(phi_grid=np.array([0.0, 0.0, 1.0]), values=np.array([0.5, 0.5, 0.5]))
    with pytest.raises(ValueError, match="matching 1-D arrays"):
        ParityCurve(phi_grid=np.array([0.0, 0.5, 1.0]), values=np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match=r"^values must be in \[0, 1\]$"):
        ParityCurve(phi_grid=np.array([0.0, 1.0]), values=np.array([0.5, 1.5]))
    with pytest.raises(ValueError, match=r"^values must be in \[0, 1\]$"):
        ParityCurve(phi_grid=np.array([0.0, 1.0]), values=np.array([0.5, -0.1]))
    with pytest.raises(ValueError, match="^values are zero everywhere; there is no fringe$"):
        ParityCurve(phi_grid=np.array([0.0, 1.0]), values=np.array([0.0, 0.0]))
    for grid, values in (([0.0, 1.0, 2.0], [math.nan, 0.5, 1.0]), ([0.0, math.nan, 2.0], [0.2, 0.5, 1.0]),
                         ([0.0, 1.0, math.inf], [0.2, 0.5, 1.0])):
        with pytest.raises(ValueError, match="must be finite"):
            ParityCurve(phi_grid=np.array(grid), values=np.array(values))
    # a fringe that underflows at its trough is still a curve
    curve = ParityCurve(phi_grid=np.array([0.0, 0.5, 1.0]), values=np.array([1.0, 0.0, 1.0]))
    assert visibility(curve, period=1.0) == 1.0
