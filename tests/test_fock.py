import math

import numpy as np
import pytest
from scipy import stats
from scipy.special import gammaln, pdtrc

from sagnac_parity import (
    FockTruncation,
    InterferometerSpec,
    JointPhotonDistribution,
    TruncationError,
    attenuated_joint_distribution,
    joint_distribution,
    parity_sum,
)
from sagnac_parity.fock import N_MAX_CAP, _log_weights, _poisson_tails


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


@pytest.mark.parametrize("n_max", [0, 2.5, True])
def test_truncation_rejects_a_cutoff_that_is_not_a_positive_integer(n_max):
    with pytest.raises(ValueError, match="n_max"):
        FockTruncation(n_max=n_max)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: FockTruncation(n_max=3, tail_bound=0.0), "tail_bound must be in"),
        (lambda: FockTruncation(n_max=3, tail_bound=1.0), "tail_bound must be in"),
        (lambda: FockTruncation.for_mean_photons(-1.0), "mean_photons must be >= 0"),
        (lambda: FockTruncation(n_max=3, tail_bound="1e-12"), "tail_bound must be in"),
        (lambda: FockTruncation.for_mean_photons(None), "mean_photons must be >= 0"),
    ],
    ids=["tail-0", "tail-1", "negative-mean", "tail-str", "none-mean"],
)
def test_truncation_rejects_out_of_range_inputs(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_poisson_tails_match_scipy_pdtrc():
    # scipy.special is the oracle of the numpy tail: relatively wherever scipy's
    # tail is above 1e-300 (worst seen 2.4e-12), and as negligible where it is not.
    # Means past the cap cover the lattice that holds almost none of the mass
    ns = np.arange(N_MAX_CAP + 1)
    means = np.concatenate((np.linspace(0.0, 350.0, 2001), np.geomspace(1e-9, 1.0, 10),
                            np.geomspace(350.0, 1e6, 9), [1e300]))
    for mean in means:
        got, want = _poisson_tails(mean, N_MAX_CAP), pdtrc(ns, mean)
        far = want > 1e-300
        np.testing.assert_allclose(got[far], want[far], rtol=1e-11, atol=0.0, err_msg=f"mean {mean!r}")
        assert np.all(got[~far] <= 2e-300), mean
        assert np.all(np.diff(got) <= 0.0), mean


def test_log_weights_match_scipy_gammaln():
    # at mean 1 the weights are -ln k!, the running sum of ln 1..k (worst seen 1.4e-15).
    # An absolute error in a log weight is the relative error of its Poisson term (worst seen 2.3e-12)
    ks = np.arange(N_MAX_CAP + 1, dtype=float)
    np.testing.assert_allclose(-_log_weights(N_MAX_CAP, 1.0), gammaln(ks + 1.0), rtol=4e-15, atol=0.0)
    for mean in (0.01, 2.297, 57.0, 350.0):
        want = ks * math.log(mean) - gammaln(ks + 1.0)
        np.testing.assert_allclose(_log_weights(N_MAX_CAP, mean), want, rtol=0.0, atol=1e-11)
    assert np.array_equal(_log_weights(3, 0.0), [0.0, -np.inf, -np.inf, -np.inf])


@pytest.mark.parametrize("tail_bound", [1e-6, 1e-9, 1e-12, 1e-13])
def test_truncation_picks_the_cutoff_that_scipy_pdtrc_picks(tail_bound):
    ns = np.arange(N_MAX_CAP + 1)
    for mean in np.linspace(0.0, 350.0, 2001):
        ok = np.flatnonzero(pdtrc(ns, mean) <= tail_bound)
        if ok.size == 0:
            with pytest.raises(TruncationError):
                FockTruncation.for_mean_photons(mean, tail_bound)
            continue
        trunc = FockTruncation.for_mean_photons(mean, tail_bound)
        assert trunc.n_max == max(int(ok[0]), 1), mean
        trunc.check_valid_for(mean)


def test_truncation_error_at_the_cap_reports_the_deepest_tail():
    # the tail beyond the cap at mean 300, printed by a refused `qfi --n 300`
    with pytest.raises(TruncationError, match=r"best achievable is 1\.63944e-08$") as exc:
        FockTruncation.for_mean_photons(300.0)
    assert exc.value.achievable_tail == pytest.approx(pdtrc(N_MAX_CAP, 300.0), rel=1e-11)
    with pytest.raises(TruncationError, match="best achievable is 1$"):
        FockTruncation.for_mean_photons(1e9)


@pytest.mark.parametrize("mean", [-1.0, math.nan, math.inf, np.True_, 10**400],
                         ids=["negative", "nan", "inf", "numpy-true", "huge-int"])
def test_truncation_rejects_a_mean_that_is_negative_or_not_finite(mean):
    # inf, nan and an int past the float range are refused as not finite before the range is checked
    message = f"mean_photons must be {'>= 0 and finite' if mean is np.True_ or mean == -1.0 else 'finite'}"
    with pytest.raises(ValueError, match=message):
        FockTruncation.for_mean_photons(mean)
    # a certificate cached for the mean 1.0 certifies no bool equal to it
    FockTruncation(n_max=20).check_valid_for(1.0)
    with pytest.raises(ValueError, match=message):
        FockTruncation(n_max=20).check_valid_for(mean)


def test_truncation_rejects_uncertified_mean():
    trunc = FockTruncation.for_mean_photons(1.0)
    with pytest.raises(TruncationError):
        trunc.check_valid_for(50.0)


def test_a_certified_tail_does_not_certify_a_later_call():
    # check_valid_for remembers each (mean, n_max) tail: a certified call must not
    # let a later call on the same truncation pass with a larger mean, a tighter
    # bound on the same n_max, or a NaN mean
    trunc = FockTruncation.for_mean_photons(1.0)
    for _ in range(2):
        trunc.check_valid_for(1.0)
        with pytest.raises(TruncationError):
            trunc.check_valid_for(50.0)
        with pytest.raises(TruncationError):
            FockTruncation(trunc.n_max, tail_bound=trunc.tail_bound / 1e3).check_valid_for(1.0)
        with pytest.raises(ValueError, match="mean_photons must be finite"):
            trunc.check_valid_for(math.nan)


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
    # joint_distribution is the t_a = t_b = 1 case itself, so compare balanced
    # transmission t with the lossless lattice of the thinned mean t N
    spec = InterferometerSpec(ell=2, mean_photons=6.0)
    trunc = _trunc(6.0)
    plain = joint_distribution(InterferometerSpec(ell=2, mean_photons=0.49 * 6.0), 0.21, trunc)
    attenuated = attenuated_joint_distribution(spec, 0.21, 0.49, 0.49, trunc)
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
    # the message names the transmission; a bool of either kind, a string or None is none
    for t_a, t_b, name in ((0.5, 1.5, "t_b"), (True, 0.5, "t_a"), (0.1, np.True_, "t_b"), ("0.5", 0.5, "t_a"),
                           (0.5, None, "t_b")):
        with pytest.raises(ValueError, match=rf"{name} must be in \[0, 1\], got"):
            attenuated_joint_distribution(spec, 0.1, t_a, t_b, _trunc(2.0))


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
    trunc = FockTruncation(n_max=1, tail_bound=1e-12)
    with pytest.raises(ValueError):
        JointPhotonDistribution(probs=np.zeros((2, 3)), truncation=trunc)
    with pytest.raises(ValueError):
        JointPhotonDistribution(probs=np.full((2, 2), 0.1), truncation=trunc)
    # a total mass of one made of cells outside [0, 1]
    with pytest.raises(ValueError, match="outside"):
        JointPhotonDistribution(probs=np.array([[1.5, -0.5], [0.0, 0.0]]), truncation=trunc)


def test_parity_sum_warns_on_missing_mass():
    trunc = FockTruncation(n_max=1, tail_bound=1e-12)
    probs = np.array([[1.0 - 5e-10, 0.0], [0.0, 0.0]])
    dist = JointPhotonDistribution(probs=probs, truncation=trunc)
    with pytest.warns(UserWarning, match="misses probability mass"):
        parity_sum(dist)
