import math

import numpy as np
import pytest
from scipy import stats

from sagnac_parity import (
    FockTruncation,
    InterferometerSpec,
    JointPhotonDistribution,
    TruncationError,
    attenuated_joint_distribution,
    joint_distribution,
    parity_sum,
)


def _trunc(n):
    return FockTruncation.for_mean_photons(n)


def test_truncation_is_minimal_for_the_tail_bound():
    for mean in (0.5, 2.297, 10.0, 20.0):
        trunc = FockTruncation.for_mean_photons(mean, tail_bound=1e-12)
        assert stats.poisson.sf(trunc.n_max, mean) <= 1e-12
        assert stats.poisson.sf(trunc.n_max - 1, mean) > 1e-12


def test_truncation_error_reports_achievable_tail():
    with pytest.raises(TruncationError) as exc:
        FockTruncation.for_mean_photons(150.0, tail_bound=1e-300)
    assert exc.value.achievable_tail > 0.0
    assert exc.value.achievable_tail > 1e-300


def test_truncation_rejects_uncertified_mean():
    trunc = FockTruncation.for_mean_photons(1.0)
    with pytest.raises(TruncationError):
        trunc.check_valid_for(50.0)


def test_joint_distribution_normalizes():
    spec = InterferometerSpec(ell=2, mean_photons=5.0)
    dist = joint_distribution(spec, 0.3, _trunc(5.0))
    assert dist.probs.sum() == pytest.approx(1.0, abs=5e-12)


def test_dark_port_is_vacuum_at_zero_rotation():
    spec = InterferometerSpec(ell=1, mean_photons=5.0)
    dist = joint_distribution(spec, 0.0, _trunc(5.0))
    assert np.all(dist.probs[:, 1:] == 0.0)
    ks = np.arange(dist.probs.shape[0])
    np.testing.assert_allclose(dist.probs[:, 0], stats.poisson.pmf(ks, 5.0), rtol=1e-11, atol=1e-300)


def test_marginals_are_poisson_with_split_means():
    spec = InterferometerSpec(ell=2, mean_photons=8.0)
    phi = 0.11
    dist = joint_distribution(spec, phi, _trunc(8.0))
    ks = np.arange(dist.probs.shape[0])
    mu_a = 8.0 * math.cos(2 * 2 * phi) ** 2
    mu_b = 8.0 * math.sin(2 * 2 * phi) ** 2
    np.testing.assert_allclose(dist.probs.sum(axis=1), stats.poisson.pmf(ks, mu_a), rtol=1e-10, atol=1e-15)
    np.testing.assert_allclose(dist.probs.sum(axis=0), stats.poisson.pmf(ks, mu_b), rtol=1e-10, atol=1e-15)


def test_parity_sum_matches_closed_form():
    # ell=3 at pi/24 puts half the photons in each port: <Pi> = exp(-2*N/2)
    spec = InterferometerSpec(ell=3, mean_photons=10.0)
    dist = joint_distribution(spec, math.pi / 24, _trunc(10.0))
    assert parity_sum(dist) == pytest.approx(math.exp(-10.0), abs=1e-11)


def test_even_odd_probabilities_bracket_parity():
    spec = InterferometerSpec(ell=3, mean_photons=10.0)
    dist = joint_distribution(spec, math.pi / 24, _trunc(10.0))
    # port-B photon number m even (columns 0, 2, ...) and odd
    even, odd = dist.probs[:, 0::2].sum(), dist.probs[:, 1::2].sum()
    assert even == pytest.approx(0.5 * (1.0 + math.exp(-10.0)), abs=1e-11)
    assert odd == pytest.approx(0.5 * (1.0 - math.exp(-10.0)), abs=1e-11)
    assert even + odd == pytest.approx(1.0, abs=5e-12)


def test_even_odd_approach_half_at_large_photon_number():
    spec = InterferometerSpec(ell=1, mean_photons=20.0)
    dist = joint_distribution(spec, math.pi / 4, _trunc(20.0))
    # port-B photon number m even (columns 0, 2, ...) and odd
    even, odd = dist.probs[:, 0::2].sum(), dist.probs[:, 1::2].sum()
    assert even == pytest.approx(0.5, abs=1e-10)
    assert odd == pytest.approx(0.5, abs=1e-10)


def test_attenuated_distribution_reduces_to_lossless():
    spec = InterferometerSpec(ell=2, mean_photons=6.0)
    trunc = _trunc(6.0)
    plain = joint_distribution(spec, 0.21, trunc)
    attenuated = attenuated_joint_distribution(spec, 0.21, 1.0, 1.0, trunc)
    np.testing.assert_allclose(attenuated.probs, plain.probs, rtol=1e-9, atol=1e-18)


def test_attenuated_parity_frozen_value():
    # at phi = 0 the dark-port amplitude is (sqrt(t_a) - sqrt(t_b))/2 of alpha
    spec = InterferometerSpec(ell=1, mean_photons=10.0)
    dist = attenuated_joint_distribution(spec, 0.0, 0.9, 0.4, _trunc(10.0))
    assert parity_sum(dist) == pytest.approx(0.6065306597126334, abs=1e-11)


def test_attenuated_rejects_transmission_above_one():
    spec = InterferometerSpec(ell=1, mean_photons=2.0)
    with pytest.raises(ValueError):
        attenuated_joint_distribution(spec, 0.1, 1.2, 0.5, _trunc(2.0))


def test_port_swap_symmetry_at_quarter_period_shift():
    spec = InterferometerSpec(ell=2, mean_photons=4.0)
    trunc = _trunc(4.0)
    phi = 0.07
    shifted = joint_distribution(spec, phi + math.pi / (4 * spec.ell), trunc)
    base = joint_distribution(spec, phi, trunc)
    np.testing.assert_allclose(shifted.probs, base.probs.T, rtol=1e-9, atol=1e-18)


def test_distribution_periodicity():
    spec = InterferometerSpec(ell=2, mean_photons=4.0)
    trunc = _trunc(4.0)
    phi = 0.13
    np.testing.assert_allclose(
        joint_distribution(spec, phi + spec.fringe_period, trunc).probs,
        joint_distribution(spec, phi, trunc).probs,
        rtol=1e-9,
        atol=1e-18,
    )


def test_distribution_validation_rejects_wrong_shape_and_mass():
    spec = InterferometerSpec(ell=1, mean_photons=1.0)
    trunc = FockTruncation(n_max=1, tail_bound=1e-12)
    with pytest.raises(ValueError):
        JointPhotonDistribution(probs=np.zeros((2, 3)), phi=0.0, spec=spec, truncation=trunc)
    with pytest.raises(ValueError):
        JointPhotonDistribution(probs=np.full((2, 2), 0.1), phi=0.0, spec=spec, truncation=trunc)


def test_parity_sum_warns_on_missing_mass():
    spec = InterferometerSpec(ell=1, mean_photons=1.0)
    trunc = FockTruncation(n_max=1, tail_bound=1e-12)
    probs = np.array([[1.0 - 5e-10, 0.0], [0.0, 0.0]])
    dist = JointPhotonDistribution(probs=probs, phi=0.0, spec=spec, truncation=trunc)
    with pytest.warns(UserWarning, match="misses probability mass"):
        parity_sum(dist)
