import dataclasses
import math

import numpy as np
import pytest

from sagnac_parity import (
    FockTruncation,
    FringeModel,
    ImperfectionProfile,
    InterferometerSpec,
    attenuated_joint_distribution,
    parity_expectation,
    parity_expectation_dark,
    parity_expectation_efficiency,
    parity_expectation_ideal,
    parity_expectation_loss,
    parity_expectation_prep,
    parity_sum,
    sensitivity,
)


@pytest.mark.parametrize("ell,period", [(1, math.pi / 2), (2, math.pi / 4), (5, math.pi / 10)])
def test_fringe_period_scales_inversely_with_charge(ell, period):
    spec = InterferometerSpec(ell=ell, mean_photons=3.0)
    assert spec.fringe_period == pytest.approx(period, rel=1e-15)


@pytest.mark.parametrize("ell", [0, -1, 1.5, True])
def test_spec_rejects_bad_charge(ell):
    with pytest.raises((TypeError, ValueError)):
        InterferometerSpec(ell=ell, mean_photons=1.0)


def test_spec_rejects_negative_mean_photons():
    with pytest.raises(ValueError):
        InterferometerSpec(ell=1, mean_photons=-0.5)
    with pytest.raises(ValueError, match="mean_photons must be finite"):
        InterferometerSpec(ell=1, mean_photons=math.nan)
    # an int past the float range is no finite mean either
    with pytest.raises(ValueError, match="mean_photons must be finite"):
        InterferometerSpec(ell=1, mean_photons=10**400)
    # Python prints no int of more than 4300 digits; the refusal gives its digit count
    with pytest.raises(ValueError, match="^mean_photons must be finite, got an integer of 5001 digits$"):
        InterferometerSpec(ell=1, mean_photons=10**5000)
    with pytest.raises(ValueError, match="^mean_photons must be finite, got an integer of 5000 digits$"):
        InterferometerSpec(ell=1, mean_photons=-(10**5000 - 1))


@pytest.mark.parametrize("n", [True, False])
def test_spec_rejects_a_bool_mean_photons(n):
    # a bool is no photon number, as it is no charge or other integer input
    with pytest.raises(ValueError, match="mean_photons"):
        InterferometerSpec(ell=1, mean_photons=n)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"amplitude": -0.1}, "amplitude must be >= 0"),
        ({"decay": -1.0}, "decay must be >= 0"),
        ({"floor": -0.1}, "floor must be >= 0"),
        ({"offset": math.inf}, "offset must be finite"),
        ({"offset": math.nan}, "offset must be finite"),
        ({"decay": math.inf}, "decay must be finite"),
        # 2 ell decay, the slope's factor, overflows; decay 5e307 at ell 1 is fine
        ({"decay": 5e307, "ell": 2}, "decay must be >= 0"),
        # a bool is no real parameter, as it is no integer input in _check_integer
        ({"amplitude": True}, "amplitude must be >= 0"),
        ({"decay": False}, "decay must be >= 0"),
        ({"floor": False}, "floor must be >= 0"),
        ({"offset": False}, "offset must be finite"),
        # nor is a numpy bool, a string or None
        ({"amplitude": np.True_}, "amplitude must be >= 0"),
        ({"amplitude": np.False_}, "amplitude must be >= 0"),
        ({"decay": np.True_}, "decay must be >= 0"),
        ({"decay": np.False_}, "decay must be >= 0"),
        ({"floor": np.True_}, "floor must be >= 0"),
        ({"floor": np.False_}, "floor must be >= 0"),
        ({"offset": np.True_}, "offset must be finite"),
        ({"offset": np.False_}, "offset must be finite"),
        ({"amplitude": "0.5"}, "amplitude must be >= 0"),
        ({"decay": None}, "decay must be >= 0"),
        ({"floor": None}, "floor must be >= 0"),
        ({"offset": "0"}, "offset must be finite"),
        # an int past the float range, and int64 parameters whose int64 sum wraps negative
        ({"offset": 10**400}, "offset must be finite"),
        ({"amplitude": np.int64(2**62), "decay": 1e-3, "floor": np.int64(2**62)}, "amplitude \\+ floor at most 1"),
    ],
)
def test_fringe_model_rejects_out_of_range_parameters(kwargs, message):
    params = dict(amplitude=0.5, decay=2.0, offset=0.0, ell=1, floor=0.1) | kwargs
    with pytest.raises(ValueError, match=message):
        FringeModel(**params)


@pytest.mark.parametrize(
    "kwargs",
    [{"eta": 0.0}, {"eta": 1.2}, {"t_a": 0.0}, {"kappa": -0.1}, {"dark_rate": -1.0}, {"jitter_factor": 0.5},
     {"eta": True}, {"t_a": True}, {"t_b": True}, {"kappa": True}, {"dark_rate": True}, {"dark_rate": False},
     {"jitter_factor": True}, {"eta": np.True_}, {"t_a": np.True_}, {"t_b": np.True_}, {"kappa": np.True_},
     {"dark_rate": np.True_}, {"dark_rate": np.False_}, {"jitter_factor": np.True_}, {"eta": None}, {"t_a": "1"},
     {"t_b": None}, {"kappa": "0.5"}, {"dark_rate": None}, {"jitter_factor": "2"}, {"dark_rate": 10**400},
     {"jitter_factor": 10**400}],
)
def test_profile_rejects_out_of_range_values(kwargs):
    with pytest.raises(ValueError, match=f"{next(iter(kwargs))} must be"):
        ImperfectionProfile(**kwargs)


def test_real_inputs_are_kept_as_python_floats():
    # a real of any numpy width is checked and stored as the Python float it equals,
    # so no fringe is computed in float16, float32 or wrapping int64 arithmetic
    spec = InterferometerSpec(ell=1, mean_photons=np.float32(2.297))
    fringe = FringeModel(np.int64(1), np.float16(2.0), np.float32(0.25), 1, floor=np.int64(0))
    profile = ImperfectionProfile(eta=np.float32(0.9), t_a=np.float16(0.5), dark_rate=np.int64(1))
    values = [spec.mean_photons, fringe.amplitude, fringe.decay, fringe.offset, fringe.floor,
              *(getattr(profile, f.name) for f in dataclasses.fields(profile))]
    assert all(type(v) is float for v in values)
    assert spec.mean_photons == float(np.float32(2.297)) and fringe.offset == 0.25
    assert profile.t_a == 0.5 and profile.dark_rate == 1.0


def test_effective_dark_rate_is_jitter_scaled():
    profile = ImperfectionProfile(dark_rate=0.02, jitter_factor=2.5)
    assert profile.effective_dark_rate == pytest.approx(0.05, rel=1e-15)


# frozen fringe values; each was computed from the published closed form
# with plain scalar arithmetic before the module existed

def test_ideal_fringe_frozen_values():
    spec = InterferometerSpec(ell=1, mean_photons=1.0)
    assert parity_expectation_ideal(spec, math.pi / 4) == pytest.approx(0.1353352832366127, rel=1e-14)
    spec = InterferometerSpec(ell=2, mean_photons=5.0)
    assert parity_expectation_ideal(spec, math.pi / 8) == pytest.approx(4.5399929762484854e-05, rel=1e-13)
    spec = InterferometerSpec(ell=1, mean_photons=2.297)
    assert parity_expectation_ideal(spec, math.pi / 4) == pytest.approx(0.010112328054554321, rel=1e-13)
    assert parity_expectation_ideal(spec, 0.0) == 1.0


def test_prep_fringe_frozen_value():
    spec = InterferometerSpec(ell=2, mean_photons=5.0)
    value = parity_expectation_prep(spec, math.pi / 8, eta=0.5)
    assert value == pytest.approx(0.5000226999648812, rel=1e-13)


def test_loss_fringe_frozen_values():
    spec = InterferometerSpec(ell=1, mean_photons=5.0)
    assert parity_expectation_loss(spec, 0.2, 0.9, 0.7) == pytest.approx(0.2908257566704716, rel=1e-13)
    assert parity_expectation_loss(spec, math.pi / 4, 0.9, 0.7) == pytest.approx(0.00034615394067826746, rel=1e-12)
    spec10 = InterferometerSpec(ell=1, mean_photons=10.0)
    assert parity_expectation_loss(spec10, 0.0, 0.9, 0.4) == pytest.approx(0.6065306597126334, rel=1e-13)


def test_dark_fringe_scales_ideal_by_constant():
    spec = InterferometerSpec(ell=3, mean_photons=4.0)
    phi = np.linspace(0, spec.fringe_period, 17)
    scaled = parity_expectation_dark(spec, phi, dark_rate=0.01, jitter_factor=2.0)
    expected = math.exp(-0.04) * parity_expectation_ideal(spec, phi)
    np.testing.assert_allclose(scaled, expected, rtol=1e-15)


def test_efficiency_fringe_is_photon_number_rescaling():
    spec = InterferometerSpec(ell=2, mean_photons=10.0)
    rescaled = InterferometerSpec(ell=2, mean_photons=7.0)
    phi = np.linspace(0, spec.fringe_period, 33)
    np.testing.assert_allclose(
        parity_expectation_efficiency(spec, phi, kappa=0.7),
        parity_expectation_ideal(rescaled, phi),
        rtol=1e-14,
    )


def test_composed_degenerates_bit_exactly_to_single_families():
    spec = InterferometerSpec(ell=2, mean_photons=5.0)
    phi = np.linspace(0, spec.fringe_period, 64)

    ideal = parity_expectation(spec, phi, ImperfectionProfile())
    assert np.array_equal(ideal, parity_expectation_ideal(spec, phi))

    eff = parity_expectation(spec, phi, ImperfectionProfile(kappa=0.7))
    assert np.array_equal(eff, parity_expectation_efficiency(spec, phi, 0.7))

    balanced = parity_expectation(spec, phi, ImperfectionProfile(t_a=0.5, t_b=0.5))
    assert np.array_equal(balanced, parity_expectation_efficiency(spec, phi, 0.5))


def test_composed_matches_manual_composition():
    # the light's parity from the Fock lattice (kappa folds into both
    # transmissions), mixed with the vacuum fraction and damped by dark counts
    spec = InterferometerSpec(ell=1, mean_photons=3.0)
    profile = ImperfectionProfile(eta=0.8, t_a=0.9, t_b=0.7, kappa=0.6, dark_rate=0.02, jitter_factor=1.5)
    phi = np.linspace(0, spec.fringe_period, 41)
    trunc = FockTruncation.for_mean_photons(3.0, tail_bound=1e-15)
    light = [parity_sum(attenuated_joint_distribution(spec, p, 0.6 * 0.9, 0.6 * 0.7, trunc)) for p in phi]
    manual = math.exp(-2 * 0.03) * (0.8 * np.array(light) + 0.2)
    np.testing.assert_allclose(parity_expectation(spec, phi, profile), manual, rtol=1e-14)


def test_composed_peak_with_dark_counts():
    spec = InterferometerSpec(ell=1, mean_photons=2.297)
    profile = ImperfectionProfile(dark_rate=0.0253)
    assert parity_expectation(spec, 0.0, profile) == pytest.approx(0.9506588580330708, rel=1e-14)


def test_fringe_values_stay_in_unit_interval():
    spec = InterferometerSpec(ell=2, mean_photons=8.0)
    phi = np.linspace(-1.0, 7.0, 501)
    for profile in (
        ImperfectionProfile(),
        ImperfectionProfile(eta=0.6),
        ImperfectionProfile(t_a=0.4, t_b=0.9),
        ImperfectionProfile(kappa=0.3, dark_rate=0.1),
    ):
        values = parity_expectation(spec, phi, profile)
        assert np.all(values > 0.0)
        assert np.all(values <= 1.0)


def test_underflowing_amplitude_gives_a_zero_fringe():
    # exp(-2 r_eff) underflows to 0 at r_eff = 400; the fringe is then 0,
    # not an invalid model
    spec = InterferometerSpec(ell=1, mean_photons=2.0)
    phi = np.linspace(0.0, spec.fringe_period, 5)
    assert np.all(parity_expectation(spec, phi, ImperfectionProfile(dark_rate=400.0)) == 0.0)
    assert np.all(parity_expectation_dark(spec, phi, dark_rate=400.0) == 0.0)


def test_fringe_periodicity():
    spec = InterferometerSpec(ell=3, mean_photons=6.0)
    phi = np.linspace(0, 1.0, 50)
    np.testing.assert_allclose(
        parity_expectation_ideal(spec, phi + spec.fringe_period),
        parity_expectation_ideal(spec, phi),
        rtol=1e-12,
        atol=1e-15,
    )


def test_balanced_loss_relaxes_the_fringe_toward_one():
    # T_A = T_B = T only rescales the photon number, so less light reaches
    # the dark port and the parity stays closer to +1 everywhere
    spec = InterferometerSpec(ell=1, mean_photons=4.0)
    phi = np.linspace(0, spec.fringe_period, 101)
    lossy = parity_expectation_loss(spec, phi, 0.8, 0.8)
    ideal = parity_expectation_ideal(spec, phi)
    assert np.all(lossy >= ideal - 1e-15)
    assert parity_expectation_loss(spec, 0.0, 0.8, 0.8) == pytest.approx(1.0, abs=1e-15)


def test_unbalanced_loss_damps_the_fringe_peak():
    # sqrt(T_A T_B) < (T_A + T_B)/2 whenever the transmissions differ
    spec = InterferometerSpec(ell=1, mean_photons=4.0)
    assert parity_expectation_loss(spec, 0.0, 0.9, 0.4) < 1.0


def test_fringe_falls_away_from_peak():
    spec = InterferometerSpec(ell=2, mean_photons=5.0)
    phi = np.linspace(0, math.pi / 8, 40)
    values = parity_expectation_ideal(spec, phi)
    assert np.all(np.diff(values) < 0)


@pytest.mark.parametrize("ell", [1, 4])
def test_one_angle_rule_refuses_angles_from_2_to_the_48_over_ell(ell):
    # past 4 ell |phi| = 2^50 the derivative's extremum cut zeroes every slope:
    # the fringe evaluates just below the edge and is refused at it, as is a
    # huge offset, wherever the fringe is evaluated; a nan phi and an int past
    # the float range are refused first, as not finite
    spec = InterferometerSpec(ell=ell, mean_photons=2.0)
    edge = 2**48 / ell
    assert 0.0 <= parity_expectation(spec, math.nextafter(edge, 0), ImperfectionProfile()) <= 1.0
    for phi in (edge, -edge, np.array([0.0, edge])):
        with pytest.raises(ValueError, match="^phi of order .* rad is too large to resolve the fringe period"):
            parity_expectation(spec, phi, ImperfectionProfile())
    with pytest.raises(ValueError, match="phi must be finite"):
        sensitivity(ImperfectionProfile(dark_rate=0.01).fringe(spec), math.nan)
    for phi in (10**400, [0.0, -(10**400)]):  # ints past the float range
        with pytest.raises(ValueError, match="^phi must be finite, got -?10{400}$"):
            sensitivity(ImperfectionProfile(dark_rate=0.01).fringe(spec), phi)
    with pytest.raises(ValueError, match="^offset of order 1e\\+300 rad is too large"):
        FringeModel(amplitude=0.9, decay=4.0, offset=1e300, ell=ell)(0.0)
    with pytest.raises(ValueError, match="^phi of order 1e\\+301 rad is too large"):  # both: phi is named first
        FringeModel(amplitude=0.9, decay=4.0, offset=1e300, ell=ell)(1e301)


def test_the_angle_rule_refuses_an_angle_that_is_not_real():
    model = ImperfectionProfile(dark_rate=0.01).fringe(InterferometerSpec(ell=1, mean_photons=2.0))
    for phi, kind in ((1j, "complex"), (object(), "object"), ([0.1, 1j], "complex")):
        with pytest.raises(ValueError, match=f"^phi must be real, got {kind}$"):
            sensitivity(model, phi)
