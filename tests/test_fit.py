import dataclasses
import io
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import scipy_least_squares

from sagnac_parity import (
    ExperimentConfig,
    FitConvergenceError,
    FitResult,
    FringeModel,
    ImperfectionProfile,
    InterferometerSpec,
    error_bars,
    fit_fringe,
    fringe_figures,
    load_fringe_data,
    min_sensitivity_from_fit,
    run_experiment,
    sensitivity,
    sensitivity_from_fit,
)
from sagnac_parity import experiment, fit
from sagnac_parity.fit import least_squares

REFERENCE = FringeModel(amplitude=0.9507, decay=4.594, offset=0.7022, ell=1)


def _period_grid(model, points, endpoint=False):
    start = model.offset - model.period / 2.0
    return start + np.linspace(0.0, model.period, points, endpoint=endpoint)


def _noiseless_data(model, points):
    phi = _period_grid(model, points)
    return np.column_stack([phi, model(phi)])


def test_exact_recovery_from_noiseless_samples():
    truth = FringeModel(amplitude=0.8, decay=6.0, offset=0.3, ell=2)
    result = fit_fringe(_noiseless_data(truth, 40), ell=2)
    assert result.model.amplitude == pytest.approx(0.8, rel=1e-8)
    assert result.model.decay == pytest.approx(6.0, rel=1e-8)
    assert result.model.offset == pytest.approx(0.3, rel=1e-8)
    assert result.residual_rms < 1e-10


def test_reference_fringe_recovery_and_derived_quantities():
    result = fit_fringe(_noiseless_data(REFERENCE, 60), ell=1)
    assert result.model.amplitude == pytest.approx(0.9507, rel=1e-6)
    assert result.model.decay == pytest.approx(4.594, rel=1e-6)
    assert result.model.offset == pytest.approx(0.7022, rel=1e-6)
    visibility, fwhm, factor = fringe_figures(result.model)
    r = abs(math.log(result.model.amplitude)) / 2
    assert result.model.decay / 2 == pytest.approx(2.297, rel=1e-6)
    assert r == pytest.approx(-math.log(0.9507) / 2.0, rel=1e-6)
    assert abs(r - 0.0253) < 1e-4
    assert visibility == pytest.approx(0.9799778147960428, rel=1e-6)
    assert fwhm == pytest.approx(0.39893153436729634, abs=1e-6)
    assert factor == pytest.approx(7.875017096786658, rel=1e-5)
    assert set(result.param_stderr) == {"amplitude", "decay", "offset"}
    assert [f.name for f in dataclasses.fields(FitResult)] == ["model", "residual_rms", "param_stderr"]


def test_round_trip_over_random_models():
    rng = np.random.default_rng(123)
    for i in range(20):
        ell = int(i % 4 + 1)
        period = math.pi / (2 * ell)
        truth = FringeModel(
            amplitude=float(rng.uniform(0.5, 1.0)),
            decay=float(rng.uniform(0.5, 40.0)),
            offset=float(rng.uniform(0.0, period)),
            ell=ell,
        )
        result = fit_fringe(_noiseless_data(truth, 48), ell=ell)
        assert result.model.amplitude == pytest.approx(truth.amplitude, rel=1e-6)
        assert result.model.decay == pytest.approx(truth.decay, rel=1e-6)
        gap = abs(result.model.offset - truth.offset)
        assert min(gap, period - gap) < 1e-6 * period


def test_shallow_fringe_fits_but_has_no_width():
    truth = FringeModel(amplitude=0.9, decay=0.55, offset=0.4, ell=1)
    result = fit_fringe(_noiseless_data(truth, 40), ell=1)
    assert result.model.decay == pytest.approx(0.55, rel=1e-6)
    visibility, fwhm, factor = fringe_figures(result.model)
    assert math.isnan(fwhm)
    assert math.isnan(factor)
    assert visibility > 0.0


def test_fringe_that_underflows_at_its_trough_fits():
    # exp(-800 sin^2) is exactly 0.0 over most of the period
    truth = FringeModel(amplitude=0.9, decay=800.0, offset=0.3, ell=1)
    data = _noiseless_data(truth, 200)
    assert np.any(data[:, 1] == 0.0)
    result = fit_fringe(data, ell=1)
    assert result.model.decay == pytest.approx(800.0, rel=1e-6)
    assert fringe_figures(result.model)[0] == 1.0


def test_shifting_the_data_shifts_only_the_offset():
    truth = FringeModel(amplitude=0.9, decay=8.0, offset=0.4, ell=1)
    phi = _period_grid(truth, 50)
    y = truth(phi)
    base = fit_fringe(np.column_stack([phi, y]), ell=1)
    shifted = fit_fringe(np.column_stack([phi + 0.2, y]), ell=1)
    assert shifted.model.amplitude == pytest.approx(base.model.amplitude, rel=1e-8)
    assert shifted.model.decay == pytest.approx(base.model.decay, rel=1e-8)
    expected = math.fmod(0.4 + 0.2, truth.period)
    assert shifted.model.offset == pytest.approx(expected, abs=1e-8)


def test_reported_offset_lands_in_the_principal_period():
    truth = FringeModel(amplitude=0.9, decay=5.0, offset=0.3, ell=1)
    phi = 3.0 + np.linspace(0.0, truth.period, 50, endpoint=False)
    result = fit_fringe(np.column_stack([phi, truth(phi)]), ell=1)
    assert 0.0 <= result.model.offset < truth.period
    assert result.model.offset == pytest.approx(0.3, abs=1e-8)


def test_an_offset_just_below_zero_is_reported_as_zero_not_the_period():
    # the fit lands a hair below 0, where p0 % period rounds up to the period itself
    phi = np.linspace(0.0, math.pi / 2, 12, endpoint=False)
    result = fit_fringe(np.column_stack([phi, 0.97 + 0.02 * (-1.0) ** np.arange(12)]), ell=1)
    assert result.model.offset == 0.0


def test_floor_fit_recovers_an_offset_fringe():
    truth = FringeModel(amplitude=0.6, decay=5.0, offset=0.2, ell=1, floor=0.2)
    result = fit_fringe(_noiseless_data(truth, 50), ell=1, fit_floor=True)
    assert result.model.amplitude == pytest.approx(0.6, rel=1e-6)
    assert result.model.decay == pytest.approx(5.0, rel=1e-6)
    assert result.model.offset == pytest.approx(0.2, abs=1e-6)
    assert result.model.floor == pytest.approx(0.2, abs=1e-6)
    assert "floor" in result.param_stderr


def test_floor_fit_of_a_fringe_peaking_at_parity_one_stays_a_parity():
    # noise pushes about half of the free fits of this fringe above
    # amplitude + floor = 1; those must come back on that edge, and no fit
    # may be worse than the truth, which is inside the box
    truth = FringeModel(amplitude=0.7, decay=4.0, offset=0.3, ell=1, floor=0.3)
    phi = np.linspace(0.0, truth.period, 24, endpoint=False)
    on_edge = 0
    for seed in range(300):
        values = truth(phi) + np.random.default_rng(seed).normal(0.0, 0.05, phi.size)
        result = fit_fringe(np.column_stack([phi, values, np.full(phi.size, 0.05)]), ell=1, fit_floor=True)
        model = result.model
        assert model.amplitude + model.floor <= 1.0 + 1e-12
        on_edge += model.headroom == 0.0
        truth_rms = math.sqrt(np.mean(((truth(phi) - values) / 0.05) ** 2))
        assert result.residual_rms <= truth_rms * (1.0 + 1e-9)
        assert set(result.param_stderr) == {"amplitude", "decay", "offset", "floor"}
    assert on_edge >= 100


def test_error_bars_values():
    dim = FringeModel(amplitude=1.0, decay=50.0, offset=0.0, ell=1)
    assert error_bars(math.pi / 4, 100, dim) == pytest.approx(0.1, rel=1e-12)
    assert type(error_bars(math.pi / 4, 100, dim)) is float  # as sensitivity's, for a scalar phi
    at_peak = error_bars(REFERENCE.offset, 10_000, REFERENCE)
    assert at_peak == pytest.approx(0.00310112092637485, rel=1e-12)
    bright = FringeModel(amplitude=1.0, decay=4.0, offset=0.3, ell=1)
    assert error_bars(0.3, 100, bright) == 0.0


def test_error_bars_rejects_bad_trials():
    # bool and non-finite counts too, scalar or array
    for trials in (0, -1, 2.5, True, [True, True], math.inf, math.nan, [100, math.inf]):
        with pytest.raises(ValueError, match="^trials must be"):
            error_bars(0.1, trials, REFERENCE)


def test_fitted_sensitivity_matches_closed_form_for_ideal_shape():
    spec = InterferometerSpec(ell=2, mean_photons=3.5)
    model = FringeModel(amplitude=1.0, decay=2 * 3.5, offset=0.0, ell=2)
    ideal = ImperfectionProfile()
    phis = np.linspace(0.05, 0.35, 7)
    got = sensitivity(model, phis)
    want = sensitivity(ideal.fringe(spec), phis)
    np.testing.assert_allclose(got, want, rtol=1e-8)


def test_fitted_sensitivity_diverges_at_the_fringe_peak():
    assert sensitivity(REFERENCE, REFERENCE.offset) == math.inf
    # every later peak too, though offset + k * period only rounds to one
    for k in (-1, 1, 2):
        assert sensitivity(REFERENCE, REFERENCE.offset + k * REFERENCE.period) == math.inf
    vals = sensitivity(REFERENCE, np.array([REFERENCE.offset, 0.3]))
    assert math.isinf(vals[0]) and math.isfinite(vals[1])


def test_minimum_fitted_sensitivity_of_the_reference_fringe():
    result = fit_fringe(_noiseless_data(REFERENCE, 60), ell=1)
    phi_star, best = min_sensitivity_from_fit(result)
    assert best == pytest.approx(0.21464248040649966, rel=1e-6)
    assert sensitivity_from_fit(result, phi_star) == pytest.approx(best, rel=1e-9)
    # 30% above the shot-noise limit 1/(4 sqrt(n_bar)) for this amplitude/decay
    assert best * 4.0 * math.sqrt(2.297) == pytest.approx(1.3012362916884255, rel=1e-6)


def _experiment_rows(monkeypatch, tmp_path, seed, **changes):
    # the rows a seeded run_experiment hands to its fit
    rows = []
    with monkeypatch.context() as m:
        m.setattr(experiment, "fit_fringe", lambda data, ell: rows.append(data) or fit_fringe(data, ell))
        run_experiment(ExperimentConfig(seed=seed, output_dir=str(tmp_path), **changes))
    return rows[0]


def test_fits_match_the_scipy_trust_region_oracle(monkeypatch, tmp_path):
    # the noiseless rows of the tests above, seeded noisy rows at ell 1-4 with
    # and without a floor, floor fits of a fringe peaking at parity 1, and the
    # rows of seeded experiments, the last one's amplitude on its bound 1
    cases = [
        (_noiseless_data(truth, points), truth.ell, truth.floor > 0.0)
        for truth, points in [
            (REFERENCE, 60),
            (FringeModel(amplitude=0.8, decay=6.0, offset=0.3, ell=2), 40),
            (FringeModel(amplitude=0.9, decay=0.55, offset=0.4, ell=1), 40),
            (FringeModel(amplitude=0.9, decay=800.0, offset=0.3, ell=1), 200),
            (FringeModel(amplitude=0.6, decay=5.0, offset=0.2, ell=1, floor=0.2), 50),
        ]
    ]
    rng = np.random.default_rng(2024)
    for ell in (1, 2, 3, 4):
        for fit_floor in (False, True):
            for sigma in (0.001, 0.01, 0.05):
                amplitude = rng.uniform(0.5, 1.0)
                floor = rng.uniform(0.0, 1.0 - amplitude) if fit_floor else 0.0
                truth = FringeModel(amplitude, rng.uniform(0.5, 40.0), rng.uniform(0.0, 1.5 / ell), ell, floor)
                phi = _period_grid(truth, 40)
                data = np.column_stack([phi, truth(phi) + rng.normal(0.0, sigma, phi.size), np.full(phi.size, sigma)])
                cases.append((data, ell, fit_floor))
    edge = FringeModel(amplitude=0.7, decay=4.0, offset=0.3, ell=1, floor=0.3)
    phi = np.linspace(0.0, edge.period, 24, endpoint=False)
    for seed in range(6):
        values = edge(phi) + np.random.default_rng(seed).normal(0.0, 0.05, phi.size)
        cases.append((np.column_stack([phi, values, np.full(phi.size, 0.05)]), 1, True))
    for seed in (0, 2, 8, 11):
        cases.append((_experiment_rows(monkeypatch, tmp_path, seed), 1, False))
    cases.append((_experiment_rows(monkeypatch, tmp_path, 2, points=4, trials_per_point=1000, units=64), 1, False))

    for data, ell, fit_floor in cases:
        ours = fit_fringe(data, ell, fit_floor=fit_floor)
        with monkeypatch.context() as m:
            m.setattr(fit, "least_squares", scipy_least_squares)
            oracle = fit_fringe(data, ell, fit_floor=fit_floor)
        # a weighted cost at most 1e-9 above the oracle's, or at rounding level
        # for noiseless rows; each parameter within 1e-4 of its standard error
        assert ours.residual_rms**2 <= oracle.residual_rms**2 * (1.0 + 1e-9) + 1e-30
        for name, stderr in oracle.param_stderr.items():
            assert abs(getattr(ours.model, name) - getattr(oracle.model, name)) <= 1e-4 * stderr, name
    assert ours.model.amplitude == 1.0


def test_iteration_cap_raises_naming_the_budget():
    with pytest.raises(FitConvergenceError, match=r"^no convergence within 1 evaluations$"):
        fit_fringe(_noiseless_data(REFERENCE, 60), ell=1, max_iter=1)


def test_rejects_contrastless_data():
    phi = np.linspace(0.0, 1.0, 20)
    with pytest.raises(ValueError, match="contrast"):
        fit_fringe(np.column_stack([phi, np.full(20, 0.5)]), ell=1)


def test_rejects_too_few_rows():
    with pytest.raises(ValueError):
        fit_fringe([[0.0, 1.0], [0.1, 0.9], [0.2, 0.5]], ell=1)


def test_rejects_short_angular_span():
    truth = FringeModel(amplitude=0.9, decay=4.0, offset=0.25, ell=1)
    phi = np.linspace(0.0, 0.5, 30)  # half a period would be ~0.785
    with pytest.raises(ValueError, match="half a fringe period"):
        fit_fringe(np.column_stack([phi, truth(phi)]), ell=1)


def test_rejects_angles_too_large_to_resolve_the_period():
    # at 1e16 rad the float spacing is 2 rad, so phi0 +- period/2 rounds to
    # phi0 and leaves the offset no room to fit
    phi = 1e16 + np.linspace(0.0, math.pi / 2, 40)
    with pytest.raises(ValueError, match=r"^phi of order 1e\+16 rad .* fringe period 1.5708 rad"):
        fit_fringe(np.column_stack([phi, np.exp(-2.0 * np.sin(2.0 * phi) ** 2)]), ell=1)


def test_a_second_row_at_the_peak_angle_starts_the_width_at_a_quarter_period():
    # the row below the half level at the peak's own angle gives no width, so the initial guess takes
    # period/4; rows at one angle keep the order given, which puts it right after the peak
    truth = ImperfectionProfile().fringe(InterferometerSpec(ell=1, mean_photons=2.0))
    phi = np.linspace(-math.pi / 4, math.pi / 4, 13)
    data = np.insert(np.column_stack([phi, truth(phi), np.full(13, 0.01)]), 7, [0.0, 0.05, 0.01], axis=0)
    rows = fit._as_data(data)
    assert rows[6:8, :2].tolist() == [[0.0, 1.0], [0.0, 0.05]]
    guess = fit._initial_guess(rows[:, 0], rows[:, 1], 1, math.pi / 2)
    assert guess == (1.0, math.log(2.0) / math.sin(math.pi / 4) ** 2, 0.0)
    result = fit_fringe(data, ell=1)
    model = result.model
    figures = (model.decay / 2, abs(math.log(model.amplitude)) / 2, *fringe_figures(model))
    assert all(math.isfinite(v) for v in (result.residual_rms, *figures))


def test_rejects_non_finite_entries_and_bad_sigmas():
    data = _noiseless_data(REFERENCE, 20)
    bad = data.copy()
    bad[3, 1] = math.nan
    with pytest.raises(ValueError):
        fit_fringe(bad, ell=1)
    with_sig = np.column_stack([data, np.ones(len(data))])
    with_sig[5, 2] = 0.0
    with pytest.raises(ValueError, match="^data sigmas must be positive$"):
        fit_fringe(with_sig, ell=1)



def test_rejects_a_bool_entry_by_its_type_not_its_container():
    rows = _noiseless_data(REFERENCE, 20).tolist()
    rows[0][1] = True
    with pytest.raises(ValueError, match="^data must be real, got bool$"):
        fit_fringe(rows, ell=1)

def test_rejects_data_that_overflow_the_fit():
    # a value of 1.3e154 squares past the float range in the solver's cost,
    # which then ran on through inf and nan to a fit with inf residual_rms
    data = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 1.34078079e154]])
    with pytest.raises(ValueError, match="^data overflow the fit's arithmetic$"):
        fit_fringe(data, ell=1)
    phi = np.linspace(0.0, 1.0, 8)
    with pytest.raises(ValueError, match="^data overflow the fit's arithmetic$"):
        fit_fringe(np.column_stack([phi, np.linspace(0.0, 1.0, 8), np.full(8, 1e-300)]), ell=1)


def _sharp_fringe(ell, points=40, sigma=1e-3):
    # a noiseless fringe over one period, with the offset column of the
    # Jacobian growing with ell against the amplitude and decay columns
    truth = FringeModel(amplitude=0.9, decay=4.0, offset=0.3 * math.pi / (2 * ell), ell=ell)
    phi = _period_grid(truth, points)
    return np.column_stack([phi, truth(phi), np.full(points, sigma)])


@pytest.mark.parametrize("ell", [10**6, 10**7, 10**8, 10**12, pytest.param(10**155, id="1e155"),
                                 pytest.param(2**520, id="2**520"), pytest.param(2**1000, id="2**1000")])
def test_recovers_a_fringe_at_large_ell(ell):
    # from ell = 1e7 on, steps solved in unscaled coordinates lose the amplitude
    # and decay directions to lstsq's cutoff and stop, as converged, near decay 3.2
    result = fit_fringe(_sharp_fringe(ell), ell=ell)
    assert result.model.amplitude == pytest.approx(0.9, rel=1e-9)
    assert result.model.decay == pytest.approx(4.0, rel=1e-9)
    assert result.residual_rms < 1e-6
    # the samples sit at the same phases of the fringe at every ell, so the standard
    # errors are ell = 1's, the offset's over ell; an unscaled pinv misses them from 1e6 on
    ref = fit_fringe(_sharp_fringe(1), ell=1).param_stderr
    assert result.param_stderr["amplitude"] == pytest.approx(ref["amplitude"], rel=1e-6)
    assert result.param_stderr["decay"] == pytest.approx(ref["decay"], rel=1e-6)
    assert result.param_stderr["offset"] * ell == pytest.approx(ref["offset"], rel=1e-6)


def test_a_fringe_whose_jacobian_overflows_is_refused():
    # unscaled, J^T J passes the float range from ell of about 2^500; with its columns scaled by powers of two
    # first, the fit is refused only where an entry of the offset column itself passes it
    result = fit_fringe(_sharp_fringe(10**155), ell=10**155)
    assert (result.model.amplitude, result.model.decay) == pytest.approx((0.9, 4.0), rel=1e-9)
    assert result.param_stderr["offset"] > 0.0
    # there the rows are an ordinary fringe with sigma 1e-3: the overflow is ell's, in the offset's column
    message = r"^ell of 7\.02224e\+305 overflows the fit's Jacobian at these data's sigmas$"
    with pytest.raises(ValueError, match=message):
        fit_fringe(_sharp_fringe(2**1016), ell=2**1016)


def test_a_parameter_the_data_do_not_constrain_has_stderr_inf(tmp_path):
    # a flat fit (decay 0) has a zero offset column, where pinv read a stderr of 0: an offset known exactly
    phi = np.linspace(0.0, math.pi / 2, 12, endpoint=False)
    result = fit_fringe(np.column_stack([phi, 0.97 + 0.02 * (-1.0) ** np.arange(12)]), ell=1)
    assert result.model.decay == 0.0
    assert result.param_stderr["offset"] == math.inf
    assert math.isfinite(result.param_stderr["amplitude"]) and math.isfinite(result.param_stderr["decay"])
    # a run with no light on the port fits decay 0 too, and its document reads null
    doc = run_experiment(ExperimentConfig(mean_photons=1e-300, points=12, trials_per_point=100, units=64,
                                          output_dir=str(tmp_path)))
    assert doc["parameters"]["decay"] == 0.0
    assert doc["param_stderr"]["offset"] is None


def test_experiment_n_bar_does_not_depend_on_ell(tmp_path):
    # one seed draws the same counts at every ell over one period, so the fits agree
    docs = [run_experiment(ExperimentConfig(ell=ell, points=24, trials_per_point=20000, offset=0.0,
                                            output_dir=str(tmp_path / str(ell))))
            for ell in (10**4, 10**6)]
    assert docs[1]["derived"]["n_bar"] == pytest.approx(docs[0]["derived"]["n_bar"], rel=1e-9)


@pytest.mark.parametrize("max_iter", [2.5, True, "5", 0, -1, None])
def test_rejects_bad_iteration_caps(max_iter):
    # 2.5 used to run without end; None used to mean the solver's own default
    with pytest.raises(ValueError, match="max_iter must be an integer >= 1"):
        fit_fringe(_noiseless_data(REFERENCE, 20), ell=1, max_iter=max_iter)


@pytest.mark.parametrize("ell", [0, -2, 1.5, True])
def test_rejects_bad_charge(ell):
    with pytest.raises(ValueError):
        fit_fringe(_noiseless_data(REFERENCE, 20), ell=ell)


def test_decay_error_bar_covers_the_truth():
    phi = _period_grid(REFERENCE, 60)
    truth = REFERENCE(phi)
    sig = error_bars(phi, 100_000, REFERENCE)
    hits = 0
    for i in range(50):
        rng = np.random.default_rng(np.random.SeedSequence([7, i]))
        y = truth + rng.normal(0.0, sig)
        result = fit_fringe(np.column_stack([phi, y, sig]), ell=1)
        if abs(result.model.decay - 4.594) <= 3.0 * result.param_stderr["decay"]:
            hits += 1
    assert hits >= 47


def test_load_csv_round_trip(tmp_path):
    path = tmp_path / "scan.csv"
    path.write_text(
        "phi_rad,parity_mean,parity_stderr\n"
        "0.1,0.85,0.01\n"
        "0.2,0.6,0.02\n",
        encoding="utf-8",
    )
    data = load_fringe_data(path)
    np.testing.assert_allclose(data, [[0.1, 0.85, 0.01], [0.2, 0.6, 0.02]])


def test_load_converts_degrees_to_radians(tmp_path):
    path = tmp_path / "scan_deg.csv"
    path.write_text("phi_deg,parity_mean\n90.0,0.5\n45.0,0.9\n", encoding="utf-8")
    data = load_fringe_data(path)
    assert data.shape == (2, 2)
    assert data[0, 0] == pytest.approx(math.pi / 2)
    assert data[1, 0] == pytest.approx(math.pi / 4)


def test_load_json_table(tmp_path):
    doc = {
        "schema_version": 1,
        "table": "curve",
        "columns": ["phi_rad", "expectation"],
        "rows": [[0.2, 0.8], [0.4, 0.3], [0.6, 0.1]],
    }
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    data = load_fringe_data(path)
    np.testing.assert_allclose(data, [[0.2, 0.8], [0.4, 0.3], [0.6, 0.1]])


def test_load_accepts_open_streams():
    stream = io.StringIO("phi,value,sigma\n0.0,1.0,0.1\n0.3,0.4,0.1\n")
    data = load_fringe_data(stream)
    np.testing.assert_allclose(data, [[0.0, 1.0, 0.1], [0.3, 0.4, 0.1]])


def test_load_rejects_unrecognized_columns():
    with pytest.raises(ValueError, match="columns"):
        load_fringe_data(io.StringIO("x,y\n1,2\n"))


def test_load_rejects_empty_input():
    with pytest.raises(ValueError):
        load_fringe_data(io.StringIO(""))


@pytest.mark.parametrize(
    "text, message",
    [
        ("phi_rad,parity_mean\n0.1,0.5\n0.2,inf\n", "^table cells must be finite, got inf$"),
        # one field past csv's default limit of 131072 characters
        ("phi_rad,parity_mean\n0.1," + "5" * 131073 + "\n", "malformed CSV"),
        # JSON true and false are not numbers, though float() reads them as 1.0 and 0.0
        ('{"columns": ["phi_rad", "parity_mean"], "rows": [[0.0, true], [0.1, false], [true, 0.5]]}',
         "^table cells must be real, got bool$"),
    ],
    ids=["inf-cell", "oversized-field", "bool-cell"],
)
def test_load_rejects_malformed_tables(text, message):
    with pytest.raises(ValueError, match=message):
        load_fringe_data(io.StringIO(text))


def test_load_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_fringe_data(str(tmp_path / "absent.csv"))


def test_loaded_scan_refits_to_the_generating_model(tmp_path):
    phi = _period_grid(REFERENCE, 40)
    path = tmp_path / "ref.csv"
    lines = ["phi_rad,parity_mean"]
    lines += [f"{float(p)!r},{float(v)!r}" for p, v in zip(phi, REFERENCE(phi))]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    result = fit_fringe(load_fringe_data(path), ell=1)
    assert result.model.decay == pytest.approx(4.594, rel=1e-8)


# --- fuzzing: a fit or a load succeeds with finite fields, or fails the
# documented way (ValueError, or FitConvergenceError from the iteration cap)

_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)


@st.composite
def _fringe_samples(draw):
    # rows of a noisy fringe over part of a period, or rows of arbitrary floats
    ell = draw(st.integers(1, 4))
    columns = draw(st.sampled_from([2, 3]))
    if draw(st.sampled_from([True, True, True, False])):
        rows = draw(st.integers(3, 40))
        truth = FringeModel(
            amplitude=draw(st.floats(0.01, 1.0)),
            decay=draw(st.floats(0.0, 60.0)),
            offset=draw(st.floats(-3.0, 3.0)),
            ell=ell,
        )
        span = draw(st.floats(0.1, 2.5)) * truth.period
        phi = draw(st.floats(-3.0, 3.0)) + np.linspace(0.0, span, rows)
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        noise = draw(st.sampled_from([0.0, 1e-6, 1e-3, 0.05]))
        value = truth(phi) + noise * rng.standard_normal(rows)
        sigma = np.full(rows, max(noise, 1e-3))
        data = np.column_stack([phi, value, sigma][:columns])
    else:
        data = np.array(draw(st.lists(st.lists(_ANY_FLOAT, min_size=columns, max_size=columns), max_size=40)))
    return data, ell


@settings(max_examples=200)
@given(
    sample=_fringe_samples(),
    # None fits with the sample's own ell
    ell=st.sampled_from([None] * 6 + [-1, 0, 6, 1.0, 2.5, True]),
    fit_floor=st.booleans(),
    max_iter=st.sampled_from([1, 5, 500, 500]),
)
def test_fit_fringe_fails_only_the_documented_way(sample, ell, fit_floor, max_iter):
    data, true_ell = sample
    solved = []  # the solver's results, the last of them the one the fit reports

    def solve(*args, **kwargs):
        solved.append(least_squares(*args, **kwargs))
        return solved[-1]

    try:
        with mock.patch.object(fit, "least_squares", solve):
            result = fit_fringe(data, true_ell if ell is None else ell, fit_floor=fit_floor, max_iter=max_iter)
    except (ValueError, FitConvergenceError):
        return
    model = result.model
    assert all(math.isfinite(v) for v in (model.amplitude, model.decay, model.offset, model.floor))
    assert math.isfinite(result.residual_rms)
    # a stderr is finite, and inf exactly where the data do not constrain its parameter: a zero Jacobian column
    unconstrained = dict(zip(["amplitude", "decay", "offset", "floor"], (~solved[-1].jac.any(axis=0)).tolist()))
    unconstrained.setdefault("floor", unconstrained["amplitude"])  # a pinned floor is 1 - amplitude
    for name, stderr in result.param_stderr.items():
        assert stderr == math.inf if unconstrained[name] else math.isfinite(stderr), (name, stderr)
    visibility, fwhm, factor = fringe_figures(model)
    assert all(math.isfinite(v) for v in (model.decay / 2, abs(math.log(model.amplitude)) / 2, visibility))
    # nan width and factor are documented for fringes that never reach their half level
    if model.decay >= math.log(2.0):
        assert math.isfinite(fwhm) and math.isfinite(factor)
    else:
        assert math.isnan(fwhm) and math.isnan(factor)


_JUNK = st.one_of(
    _ANY_FLOAT, st.integers(-(10**400), 10**400), st.text(max_size=3), st.none(), st.booleans()
)


@st.composite
def _tables(draw):
    # a well-formed CSV or JSON table, then perhaps one kind of damage
    columns = [
        draw(st.sampled_from(["phi_rad", "phi_deg", "phi"])),
        draw(st.sampled_from(["parity_mean", "expectation", "value"])),
    ]
    columns = draw(st.permutations(columns + draw(st.lists(st.sampled_from(["sigma", "fit_value", "x"]), max_size=2))))
    width = len(columns)
    rows = draw(st.lists(st.lists(st.floats(-10, 10), min_size=width, max_size=width), max_size=8))
    damage = draw(st.sampled_from([None, None, None, "cell", "row", "column", "document"]))
    if damage == "cell" and rows:
        rows[draw(st.integers(0, len(rows) - 1))][draw(st.integers(0, width - 1))] = draw(_JUNK)
    elif damage == "row" and rows:
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] = draw(st.one_of(_JUNK, st.just(rows[i][: draw(st.integers(0, width - 1))])))
    elif damage == "column":
        columns[draw(st.integers(0, width - 1))] = draw(st.text(max_size=4))
    if draw(st.booleans()):
        doc = {"columns": columns, "rows": rows}
        if damage == "document":
            doc[draw(st.sampled_from(["columns", "rows"]))] = draw(_JUNK)
        return json.dumps(doc)
    if damage == "document":
        return draw(st.text(max_size=40))
    lines = [columns] + [row if isinstance(row, list) else [row] for row in rows]
    return "\n".join(",".join(str(cell) for cell in line) for line in lines) + "\n"


@settings(max_examples=300)
@given(text=_tables())
def test_load_fringe_data_fails_only_the_documented_way(text):
    try:
        data = load_fringe_data(io.StringIO(text))
    except ValueError:
        return
    assert data.ndim == 2 and data.shape[0] >= 1 and data.shape[1] in (2, 3)
    assert np.all(np.isfinite(data))
