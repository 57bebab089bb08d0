import math
import os
from bisect import bisect_left
from dataclasses import replace
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from oracles import credibility
from sagnac_parity import DetectorModel, InterferometerSpec, scan, simulate
from sagnac_parity.detector import (
    _SLICES, _TOP, _click_probability, _count_table, _draw, _inversion, _inversion_thresholds, _odd_draws,
    _parity_estimate, _point_seed,
)
from sagnac_parity.experiment import ExperimentConfig


def _stderr_bound(expectation, trials):
    return math.sqrt((1.0 - expectation * expectation) / trials)


def _reference_counts(spec, phi, model, trials, rng):
    # independent oracle for simulate's Binomial(M, p) draw: the array
    # simulated photon by photon.  Poisson photons, kappa thinning, uniform
    # landing on the units (np.unique counts the distinct units hit), then
    # dark triggers on the units left empty
    k = rng.poisson(spec.mean_photons * math.sin(2 * spec.ell * phi) ** 2, trials)
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


def _estimator_cases():
    # 200 seeded count arrays, T log-uniform in [1, 2e5] and odd fractions from 0 to 1,
    # then the edges: all even, all odd, a single odd readout, T = 1 and T = 2
    rng = np.random.default_rng(1500)
    cases = []
    for _ in range(200):
        trials = int(round(10.0 ** rng.uniform(0.0, math.log10(2e5))))
        cases.append(rng.binomial(64, rng.uniform(0.0, 1.0), trials))
    cases += [np.full(1000, 4), np.full(999, 3), np.eye(1, 5000, 1234, dtype=np.int64)[0]]
    cases += [np.array([c]) for c in (0, 1)] + [np.array(c) for c in ((0, 2), (1, 0), (3, 5))]
    return cases


def test_parity_estimate_matches_the_sample_mean_and_an_exact_stderr():
    for counts in _estimator_cases():
        trials = counts.size
        odd = int(np.count_nonzero(counts & 1))
        mean, stderr = _parity_estimate(odd, trials)
        parity = 1.0 - 2.0 * (counts & 1)
        assert mean == parity.mean(), trials
        if trials == 1:
            assert stderr == 0.0
            continue
        with mpmath.workprec(200):
            exact = 2 * mpmath.sqrt(mpmath.mpf(odd * (trials - odd)) / (trials - 1)) / trials
            assert abs(mpmath.mpf(stderr) - exact) <= 2 * math.ulp(float(exact)), (trials, odd)
        assert abs(stderr - parity.std(ddof=1) / math.sqrt(trials)) <= 4 * math.ulp(stderr), (trials, odd)


def test_model_validation():
    with pytest.raises(ValueError):
        DetectorModel(units=0)
    with pytest.raises(ValueError):
        DetectorModel(units=64, kappa=0.0)
    with pytest.raises(ValueError):
        DetectorModel(units=4, dark_rate=5.0)  # per-unit dark probability above 1
    with pytest.raises(ValueError):
        DetectorModel(units=64, seed=-1)
    # a bool is not an integer input; the seed spans the unsigned 64-bit range
    with pytest.raises(ValueError, match="units"):
        DetectorModel(units=True)
    with pytest.raises(ValueError, match="kappa"):
        DetectorModel(kappa=True)
    # nor is a numpy bool, a string or None a real input; the profile's rule refuses them
    for field, value in (("kappa", np.True_), ("dark_rate", np.True_), ("dark_rate", np.False_),
                         ("jitter_factor", np.True_), ("kappa", "0.5"), ("dark_rate", None)):
        with pytest.raises(ValueError, match=f"{field} must be"):
            DetectorModel(**{field: value})
    # numpy draws the click counts with a C long
    with pytest.raises(ValueError, match=r"units must be below 2\*\*63"):
        DetectorModel(units=2**63)
    with pytest.raises(ValueError, match=r"^units must be below 2\*\*63, got an integer of 5001 digits$"):
        DetectorModel(units=10**5000)
    assert simulate(InterferometerSpec(ell=1, mean_photons=1.0), 0.1, DetectorModel(units=2**63 - 1), 3).trials == 3
    with pytest.raises(ValueError, match="seed"):
        DetectorModel(seed=False)
    with pytest.raises(ValueError, match="seed"):
        DetectorModel(seed=2**64)
    assert DetectorModel(seed=np.uint64(2**64 - 1)).seed == 2**64 - 1
    # the profile's floats are the array's, whatever numpy width they came in
    model = DetectorModel(kappa=np.float16(0.5), dark_rate=np.int64(1), jitter_factor=np.float32(1.5))
    assert [type(v) for v in (model.kappa, model.dark_rate, model.jitter_factor)] == [float] * 3


def test_simulate_rejects_bad_trials():
    spec = InterferometerSpec(ell=1, mean_photons=1.0)
    model = DetectorModel(units=8)
    with pytest.raises(ValueError):
        simulate(spec, 0.1, model, trials=0)
    with pytest.raises(ValueError):
        simulate(spec, 0.1, model, trials=2.5)
    # a bool is not a trial count (numpy's binomial would raise TypeError)
    with pytest.raises(ValueError, match="trials"):
        simulate(spec, 0.1, model, trials=True)


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


def test_scan_matches_the_sequential_loop_row_for_row():
    # a scan point counts its odd draws from the thresholds of its uniforms,
    # without the counts; simulate counts them in the counts it returns.  The
    # points run on a thread pool; a grid longer than the pool makes threads
    # take several points each, in no fixed order
    spec = InterferometerSpec(ell=1, mean_photons=2.297)
    model = DetectorModel(units=4096, dark_rate=0.0253, seed=7)
    grid = 0.7022 + np.linspace(-math.pi / 4, math.pi / 4, max(9, 2 * (os.cpu_count() or 1) + 1))
    sequential = []
    for i, phi in enumerate(grid):
        run = simulate(spec, float(phi), replace(model, seed=_point_seed(7, i)), 5000)
        sequential.append((float(phi), run.parity_mean, run.parity_stderr))
    assert scan(spec, model, grid, 5000) == sequential


@settings(max_examples=40)
@given(cpus=st.integers(1, 8), grid=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=12),
       units=st.integers(1, 256), mean_photons=st.floats(0.0, 200.0), dark_rate=st.floats(0.0, 1.0),
       trials=st.integers(1, 200), seed=st.integers(0, 2**64 - 1))
def test_scan_rows_are_the_serial_simulate_loop_at_any_pool_size(cpus, grid, units, mean_photons, dark_rate, trials,
                                                                 seed):
    # the pool has min(points, usable CPUs) threads; units past 60 and bright light reach numpy's BTPE draw too.
    # Empty memos make the pool's threads miss on the same keys at once
    spec = InterferometerSpec(ell=1, mean_photons=mean_photons)
    model = DetectorModel(units=units, dark_rate=dark_rate, seed=seed)
    _inversion_thresholds.cache_clear()
    _count_table.cache_clear()
    with mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cpus)), create=True):
        rows = scan(spec, model, grid, trials)
    runs = [simulate(spec, phi, replace(model, seed=_point_seed(seed, i)), trials) for i, phi in enumerate(grid)]
    assert rows == [(phi, run.parity_mean, run.parity_stderr) for phi, run in zip(grid, runs)]


def _draw_cases():
    # units from one to far past numpy's float-exact range, where 1 - p rounds to 1; p at 0 and
    # tiny, at numpy's inversion limit 30/n from either end, on either side of 1/2 and at 1;
    # seeded sizes log-uniform from 1 to 1e5
    rng = np.random.default_rng(2700)
    for n in (1, 2, 3, 4, 16, 64, 4096, 10**6, 2**62):
        edge = min(30.0 / n, 1.0)
        for p in (0.0, 1e-300, 2.0**-60, 0.5 * edge, edge, 0.5 - 2.0**-54, 0.5, 0.5 + 2.0**-53, 0.7,
                  1.0 - edge, 1.0 - 0.5 * edge, 1.0 - 2.0**-53, 1.0):
            yield n, p, round(10.0 ** rng.uniform(0.0, 5.0)), int(rng.integers(2**64, dtype=np.uint64))


def test_draws_are_numpys_binomial_stream_bit_for_bit():
    # the counts, their odd count and the generator's state afterwards, against rng.binomial
    for n, p, size, seed in _draw_cases():
        ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
        want = numpys.binomial(n, p, size)
        got = _draw(ours, n, p, size)
        assert got.dtype == want.dtype and np.array_equal(got, want), (n, p, size)
        assert ours.bit_generator.state == numpys.bit_generator.state, (n, p, size)
        ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
        assert _odd_draws(ours, n, p, size) == np.count_nonzero(numpys.binomial(n, p, size) & 1), (n, p, size)
        assert ours.bit_generator.state == numpys.bit_generator.state, (n, p, size)


_SEVEN = [(1, 0.3), (3, 0.5), (16, 0.25), (64, 0.46), (4096, 30 / 4096), (10**6, 2.3e-6), (2**62, 2.0**-60)]


def _law_keys():
    # (n, p <= 1/2): the default experiment's 60 points, a bright saturating 64-unit array's 8 angles (the
    # benchmark's detector-bright) and 60 seeded keys of numpy's inversion regime, n below 300 and above
    config = ExperimentConfig()
    spec = InterferometerSpec(ell=config.ell, mean_photons=config.mean_photons)
    model = DetectorModel(units=config.units, dark_rate=config.dark_rate)
    period = spec.fringe_period
    grid = config.offset - period / 2.0 + np.linspace(0.0, period, config.points, endpoint=False)
    probabilities = [(config.units, _click_probability(spec, phi, model)) for phi in grid.tolist()]
    spec, model = InterferometerSpec(ell=2, mean_photons=20.0), DetectorModel(units=64, kappa=0.9, dark_rate=0.05)
    probabilities += [(64, _click_probability(spec, k * math.pi / 32, model)) for k in range(8)]
    rng = np.random.default_rng(3600)
    for n in [*rng.integers(1, 300, 30).tolist(), *rng.integers(300, 10**6, 30).tolist()]:
        probabilities.append((n, float(rng.uniform(0.0, min(0.5, 30.0 / n)))))
    return [(n, 1.0 - p if p > 0.5 else p) for n, p in probabilities]


def test_thresholds_are_the_binomial_cdf_within_64_ulps():
    # t_k sums numpy's pmf recurrence in float, so it carries the rounding of every term before it, and first
    # of px_0 = exp(n log1p(-p)), whose relative error is about |n log1p(-p)| (up to 37 here) ulps of 1.
    # Measured: at most 5 ulps at the default experiment's keys, 15 at the bright array's, 51 at the random ones
    for n, p in _law_keys():
        chain = _inversion_thresholds(n, p, 53)
        with mpmath.workdps(60):
            exact, cdf = mpmath.mpf(p), mpmath.mpf(0)
            for k, t_k in enumerate(chain):
                cdf += mpmath.binomial(n, k) * exact**k * (1 - exact) ** (n - k)
                assert abs(mpmath.mpf(t_k) - cdf) <= 64 * math.ulp(t_k), (n, p, k)


def test_generator_random_is_the_top_53_bits_of_each_pcg64_word():
    # so the uniforms the counts are read from depend on PCG64's bit stream alone
    for seed in (0, 27, 2**64 - 1):
        rng, words = np.random.default_rng(seed), np.random.default_rng(seed).bit_generator
        u = rng.random(1000)
        assert u.tobytes() == ((words.random_raw(1000) >> np.uint64(11)) * 2.0**-53).tobytes()
        assert rng.bit_generator.state == words.state


def _drawing(u):
    # a stand-in generator whose next uniforms are u
    return mock.Mock(random=lambda size: np.array(u[:size], dtype=float))


def test_a_chain_whose_sum_reaches_one_is_held_below_the_last_slice():
    # the float sum reaches 1.0 exactly; held at _TOP, which no uniform passes, it splits the last slice
    # instead of indexing one past it
    table, chain = _count_table(257, 0.10154433988671784, 53)
    assert chain[-1] == _TOP and table[-1] == -1
    assert _draw(_drawing([_TOP, 0.0]), 257, 0.10154433988671784, 2).tolist() == [len(chain) - 1, 0]


def test_a_count_stops_at_numpys_cap():
    # the sum never reaches 1 - 2**-53, so the chain holds all int(np + 10 sqrt(np q + 1)) = 82 thresholds, and
    # a uniform past the last counts 82, where numpy draws that readout again
    n, p = 288, 0.10284133784770058
    chain = _inversion_thresholds(n, p, 53)
    assert len(chain) == 82 and chain[-1] < _TOP
    u = [_TOP, math.nextafter(chain[-1], 1.0), math.nextafter(chain[0], 1.0), 0.0]
    assert _draw(_drawing(u), n, p, 4).tolist() == [82, 82, 1, 0]
    assert _odd_draws(_drawing(u), n, p, 4) == 1


@pytest.mark.parametrize("n, p", _SEVEN)
def test_each_unsplit_slice_holds_numpys_count_at_both_ends(n, p):
    # the slices that hold a threshold are marked split; every other one reads the count of its first and
    # its last lattice point, the number of thresholds below each
    table, chain = _count_table(n, p, 40)
    assert np.array_equal(table == -1, np.isin(np.arange(_SLICES), (chain * _SLICES).astype(int)))
    thresholds = _inversion_thresholds(n, p, 40)
    for i in np.flatnonzero(table >= 0).tolist():
        ends = (i / _SLICES, (i + 1) / _SLICES - 2.0**-53)
        assert [bisect_left(thresholds, u) for u in ends] == [table[i]] * 2, i


def test_the_memos_stay_bounded_past_their_size():
    # a sweep of more distinct (n, p) than either memo holds
    limit = max(_inversion_thresholds.cache_info().maxsize, _count_table.cache_info().maxsize)
    for i in range(limit + 8):
        _draw(np.random.default_rng(i), 4, (i + 1) / (2 * limit + 16), 10)
    for memo in (_inversion_thresholds, _count_table):
        assert memo.cache_info().currsize == memo.cache_info().maxsize


@pytest.mark.parametrize("n, p", [(100, 0.35), (100, 0.65), (4096, 0.5), (64, 0.0)])
def test_outside_numpys_inversion_regime_the_stream_is_left_to_numpy(n, p):
    # numpy draws nothing at p = 0 and draws by BTPE past n min(p, 1 - p) = 30
    rng = np.random.default_rng(27)
    assert _inversion(rng, n, p, 1000) is None
    assert rng.bit_generator.state == np.random.default_rng(27).bit_generator.state


@pytest.mark.parametrize("trials", [0, 2.5, True])
def test_scan_rejects_bad_trials(trials):
    spec = InterferometerSpec(ell=1, mean_photons=1.0)
    with pytest.raises(ValueError, match="trials"):
        scan(spec, DetectorModel(units=8), np.linspace(0.1, 0.7, 9), trials)


def test_scan_rejects_a_nan_angle():
    # and an infinite one, before np.sin can warn of it; simulate too
    spec = InterferometerSpec(ell=1, mean_photons=1.0)
    for bad in (math.nan, math.inf, -math.inf):
        grid = np.linspace(0.1, 0.7, 9)
        grid[5] = bad
        with pytest.raises(ValueError, match="phi"):
            scan(spec, DetectorModel(units=8), grid, 100)
        with pytest.raises(ValueError, match="phi"):
            simulate(spec, bad, DetectorModel(units=8), 100)
    with pytest.raises(ValueError, match="^phi must be real, got complex$"):
        simulate(spec, 1j, DetectorModel(), 5)


def test_simulate_reads_out_at_one_angle():
    # an array of angles raised numpy's TypeError
    spec = InterferometerSpec(ell=1, mean_photons=1.0)
    for phi in ([0.1, 0.2], [0.3], np.array([[0.3]])):
        with pytest.raises(ValueError, match=r"^phi must be one angle, got an array of shape \("):
            simulate(spec, phi, DetectorModel(units=8), 5)
    zero_d, scalar = (simulate(spec, phi, DetectorModel(units=8), 5) for phi in (np.array(0.3), 0.3))
    assert repr(zero_d) == repr(scalar)


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


def _occupancy_pmf(mean, units, q, n_max):
    # the click-count law summed photon by photon: n ~ Poisson(mean) photons land uniformly on M
    # units, j of them occupied with P(j | n) = C(M, j) j! S(n, j) / M^n (S the Stirling numbers
    # of the second kind), then each of the M - j empty units fires a dark trigger with probability q
    stirling = [[1] + [0] * units]
    for n in range(1, n_max + 1):
        row = stirling[-1]
        stirling.append([0] + [j * row[j] + row[j - 1] for j in range(1, units + 1)])
    pmf = [0.0] * (units + 1)
    for n in range(n_max + 1):
        weight = math.exp(-mean) * mean**n / math.factorial(n)
        for j in range(min(n, units) + 1):
            occupied = math.comb(units, j) * math.factorial(j) * stirling[n][j] / units**n
            for k in range(j, units + 1):
                dark = math.comb(units - j, k - j) * q ** (k - j) * (1.0 - q) ** (units - k)
                pmf[k] += weight * occupied * dark
    return np.array(pmf)


@pytest.mark.parametrize("units", [1, 2, 3, 8])
def test_click_probability_gives_the_occupancy_law(units):
    # Binomial(M, p) with p from _click_probability against the occupancy sum (Sperling, Vogel
    # and Agarwal, PRA 85, 023820 (2012)), with the dark-port mean written out here
    for n, kappa, dark_rate in ((4.0, 0.8, 0.05), (20.0, 1.0, 0.5), (0.3, 0.5, 0.0)):
        spec = InterferometerSpec(ell=2, mean_photons=n)
        model = DetectorModel(units=units, kappa=kappa, dark_rate=dark_rate)
        for phi in (0.0, 0.05, math.pi / 16, 0.3):
            mean = kappa * n * math.sin(2 * spec.ell * phi) ** 2
            want = _occupancy_pmf(mean, units, dark_rate / units, n_max=int(mean + 20.0 * math.sqrt(mean) + 40))
            p = _click_probability(spec, phi, model)
            got = stats.binom.pmf(np.arange(units + 1), units, p)
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14, err_msg=f"{units} {n} {phi}")


@pytest.mark.parametrize("phi", [0.0, math.pi / 32], ids=["0", "pi/32"])
def test_parity_mean_pulls_are_calibrated_on_a_bright_saturating_array(phi):
    # a saturating 64-unit array in bright light (p*M of order 1 at pi/32):
    # over K seeds the pulls of the parity mean against the exact click law
    # (1 - 2p)^M, in units of the binomial sigma sqrt((1 - m^2)/T), must be
    # centred on 0 with unit spread
    ell, n, units, kappa, dark_rate, trials, seeds = 2, 20.0, 64, 0.9, 0.05, 20_000, 400
    p = 1.0 - (1.0 - dark_rate / units) * math.exp(-kappa * n * math.sin(2 * ell * phi) ** 2 / units)
    expected = (1.0 - 2.0 * p) ** units
    sigma = _stderr_bound(expected, trials)
    spec = InterferometerSpec(ell=ell, mean_photons=n)
    means = np.array([
        simulate(spec, phi, DetectorModel(units=units, kappa=kappa, dark_rate=dark_rate, seed=seed), trials).parity_mean
        for seed in range(seeds)
    ])
    pulls = (means - expected) / sigma
    assert abs(pulls.mean()) < 4.0 / math.sqrt(seeds)
    assert 0.8 <= pulls.std(ddof=1) <= 1.25
