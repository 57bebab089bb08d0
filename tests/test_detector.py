import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from sagnac_parity import DetectorModel, InterferometerSpec, credibility, scan, simulate
from sagnac_parity.detector import _point_seed
from sagnac_parity.model import dark_port_mean


def _stderr_bound(expectation, trials):
    return math.sqrt((1.0 - expectation * expectation) / trials)


def _reference_counts(spec, phi, model, trials, rng):
    # independent oracle for simulate's Binomial(M, p) draw: the array
    # simulated photon by photon.  Poisson photons, kappa thinning, uniform
    # landing on the units (np.unique counts the distinct units hit), then
    # dark triggers on the units left empty
    k = rng.poisson(dark_port_mean(spec, phi), trials)
    survivors = rng.binomial(k, model.kappa)
    unit_ix = rng.integers(0, model.units, size=int(survivors.sum()))
    trial_ix = np.repeat(np.arange(trials), survivors)
    keys = np.unique(trial_ix * model.units + unit_ix)
    occupied = np.bincount(keys // model.units, minlength=trials)
    q = model.effective_dark_rate / model.units
    return occupied + rng.binomial(model.units - occupied, q)


def test_dark_port_stays_silent_without_noise():
    spec = InterferometerSpec(ell=1, mean_photons=5.0)
    run = simulate(spec, 0.0, DetectorModel(units=64, seed=1), trials=5000)
    assert np.all(run.counts == 0)
    assert run.parity_mean == 1.0
    assert run.parity_stderr == 0.0
    np.testing.assert_array_equal(run.empirical_dist, [1.0])


def test_identical_arguments_reproduce_bit_identically():
    spec = InterferometerSpec(ell=2, mean_photons=3.0)
    model = DetectorModel(units=64, kappa=0.8, dark_rate=0.01, seed=42)
    first = simulate(spec, 0.31, model, trials=4000)
    second = simulate(spec, 0.31, model, trials=4000)
    np.testing.assert_array_equal(first.counts, second.counts)
    assert first.parity_mean == second.parity_mean
    assert first.parity_stderr == second.parity_stderr


def test_different_seeds_decorrelate_runs():
    spec = InterferometerSpec(ell=1, mean_photons=4.0)
    a = simulate(spec, 0.4, DetectorModel(units=256, seed=0), trials=3000)
    b = simulate(spec, 0.4, DetectorModel(units=256, seed=1), trials=3000)
    assert not np.array_equal(a.counts, b.counts)


def test_parity_mean_tracks_closed_form_fringe():
    # half the photons reach the dark port at this angle: <Pi> = exp(-10)
    spec = InterferometerSpec(ell=3, mean_photons=10.0)
    run = simulate(spec, math.pi / 24, DetectorModel(units=4096, seed=9), trials=1_000_000)
    expected = math.exp(-10.0)
    assert abs(run.parity_mean - expected) < 3.0 * _stderr_bound(expected, 1_000_000)


def test_kappa_thinning_rescales_the_fringe():
    spec = InterferometerSpec(ell=1, mean_photons=10.0)
    run = simulate(spec, math.pi / 4, DetectorModel(units=4096, kappa=0.5, seed=5), trials=100_000)
    expected = math.exp(-10.0)
    assert abs(run.parity_mean - expected) < 4.0 * _stderr_bound(expected, 100_000)


def test_dark_counts_damp_parity_at_the_bright_point():
    spec = InterferometerSpec(ell=1, mean_photons=2.297)
    run = simulate(spec, 0.0, DetectorModel(units=64, dark_rate=0.0253, seed=12), trials=1_000_000)
    expected = math.exp(-0.0506)
    assert abs(run.parity_mean - expected) < 3.0 * _stderr_bound(expected, 1_000_000)


def test_single_unit_detector_follows_click_law():
    # one unit clicks or not: <Pi> = 2 P(no click) - 1 = 2 exp(-mu) - 1
    spec = InterferometerSpec(ell=1, mean_photons=2.0)
    run = simulate(spec, math.pi / 4, DetectorModel(units=1, seed=3), trials=200_000)
    expected = 2.0 * math.exp(-2.0) - 1.0
    assert abs(run.parity_mean - expected) < 4.0 * _stderr_bound(expected, 200_000)


def test_single_unit_dark_probability_at_bright_point():
    spec = InterferometerSpec(ell=1, mean_photons=1.0)
    run = simulate(spec, 0.0, DetectorModel(units=1, dark_rate=0.1, seed=8), trials=200_000)
    expected = 1.0 - 2.0 * 0.1
    assert abs(run.parity_mean - expected) < 4.0 * _stderr_bound(expected, 200_000)


def test_saturation_eases_with_more_units():
    spec = InterferometerSpec(ell=1, mean_photons=10.0)
    means = []
    for units in (8, 64, 512):
        run = simulate(spec, math.pi / 4, DetectorModel(units=units, seed=77), trials=20_000)
        means.append(run.counts.mean())
    assert means[0] < means[1] < means[2]


def test_parity_estimator_is_unbiased_across_seeds():
    spec = InterferometerSpec(ell=1, mean_photons=2.297)
    phi = 0.35
    expected = math.exp(-2.0 * 2.297 * math.sin(2 * phi) ** 2)
    trials, reps = 2000, 100
    means = [
        simulate(spec, phi, DetectorModel(units=4096, seed=seed), trials).parity_mean
        for seed in range(reps)
    ]
    grand = float(np.mean(means))
    tol = 4.0 * _stderr_bound(expected, trials * reps)
    assert abs(grand - expected) < tol


def test_model_validation():
    with pytest.raises(ValueError):
        DetectorModel(units=0)
    with pytest.raises(ValueError):
        DetectorModel(units=64, kappa=0.0)
    with pytest.raises(ValueError):
        DetectorModel(units=4, dark_rate=5.0)  # per-unit dark probability above 1
    with pytest.raises(ValueError):
        DetectorModel(units=64, seed=-1)


def test_simulate_rejects_bad_trials():
    spec = InterferometerSpec(ell=1, mean_photons=1.0)
    model = DetectorModel(units=8)
    with pytest.raises(ValueError):
        simulate(spec, 0.1, model, trials=0)
    with pytest.raises(ValueError):
        simulate(spec, 0.1, model, trials=2.5)


def test_scan_reruns_bit_identically_and_derives_per_point_seeds():
    spec = InterferometerSpec(ell=1, mean_photons=2.0)
    model = DetectorModel(units=64, seed=11)
    grid = np.linspace(0.1, 0.7, 5)
    rows = scan(spec, model, grid, trials_per_point=2000)
    again = scan(spec, model, grid, trials_per_point=2000)
    assert rows == again
    assert [r[0] for r in rows] == pytest.approx(list(grid))

    point = simulate(spec, float(grid[2]), replace(model, seed=_point_seed(11, 2)), 2000)
    assert rows[2][1] == point.parity_mean
    assert rows[2][2] == point.parity_stderr


def test_scan_point_seeds_differ():
    assert _point_seed(0, 0) != _point_seed(0, 1)
    assert _point_seed(1, 0) != _point_seed(0, 0)


def test_scan_rejects_empty_grid():
    spec = InterferometerSpec(ell=1, mean_photons=1.0)
    with pytest.raises(ValueError):
        scan(spec, DetectorModel(units=8), np.array([]), 100)


def test_credibility_limits():
    assert credibility([0.2, 0.8], [0.2, 0.8]) == pytest.approx(1.0, rel=1e-15)
    assert credibility([1.0, 0.0], [0.0, 1.0]) == 0.0
    assert credibility([1.0], [1.0, 0.0]) == pytest.approx(1.0, rel=1e-15)


def test_credibility_input_validation():
    with pytest.raises(ValueError):
        credibility([0.5, 0.4], [0.5, 0.5])
    with pytest.raises(ValueError):
        credibility([-0.1, 1.1], [0.5, 0.5])
    with pytest.raises(ValueError):
        credibility([], [1.0])


def test_counting_histogram_is_credible_against_poisson():
    spec = InterferometerSpec(ell=1, mean_photons=2.297)
    run = simulate(spec, math.pi / 4, DetectorModel(units=64, seed=2), trials=100_000)
    ks = np.arange(max(run.empirical_dist.size, 30))
    theory = stats.poisson.pmf(ks, 2.297)
    overlap = credibility(run.empirical_dist, theory)
    assert 0.99 <= overlap < 1.0


@pytest.mark.parametrize("units", [1, 4, 64, 4096])
@pytest.mark.parametrize("sixteenths", [0, 1, 2, 4])
def test_click_histogram_matches_the_photon_by_photon_reference(units, sixteenths):
    spec = InterferometerSpec(ell=1, mean_photons=4.0)
    phi = sixteenths * math.pi / 16.0
    model = DetectorModel(units=units, kappa=0.8, dark_rate=0.05, seed=100 * units + sixteenths)
    trials = 100_000
    counts = simulate(spec, phi, model, trials).counts
    reference = _reference_counts(spec, phi, model, trials, np.random.default_rng([units, sixteenths]))
    size = int(max(counts.max(), reference.max())) + 1
    table = np.array([np.bincount(counts, minlength=size), np.bincount(reference, minlength=size)])
    table = table[:, table.sum(axis=0) > 0]
    assert stats.chi2_contingency(table).pvalue > 1e-6
