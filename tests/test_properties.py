"""The input contract, as properties over every kind of number, and the closed forms' symmetries.

Each scalar numeric input of the library is fed Python ints of any size
(including ints past the float range), numpy ints of every width, floats of
every width with nan and both infinities, and both kinds of bool.  The call
then does one of two things.  It keeps the input as the Python int or float it
equals, and computes exactly what it computes from that Python number.  Or it
raises a ValueError whose message starts with the input's name.  It never
raises OverflowError or TypeError, and it never warns.

Each array input is fed lists, tuples and ndarrays of those numbers, with one
entry that is nan, infinite, past the float range, a bool, a string, None,
complex or a ragged nest.  It computes exactly what the float64 array
``np.asarray(value, dtype=float)`` computes, where a refusal of the values, such
as "values must be in [0, 1]", names the input first; or it is refused as
"<name> must be real" or "<name> must be finite".  It too never raises
OverflowError or TypeError and never warns.

The fringe is even about its offset, an OAM charge 2^k is the charge-1 fringe
on angles divided by 2^k, and the three Fisher informations are in ratio 4:2:1,
each bit for bit.  The fit of noiseless data at charge 2^k is the charge-1 fit
with the angles divided by 2^k, bit for bit too.  The fringe repeats after one
period to the rounding of its phase, and the fit of data shifted by one period
returns the same parameters.
"""
import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sagnac_parity import (
    DetectorModel,
    FitConvergenceError,
    FringeModel,
    ImperfectionProfile,
    InterferometerSpec,
    ParityCurve,
    crb_sensitivity,
    error_bars,
    fit_fringe,
    fringe_figures,
    min_sensitivity,
    parity_curve,
    parity_expectation,
    qfi_mzi,
    qfi_mzi_phase_averaged,
    qfi_si,
    scan,
    sensitivity,
    simulate,
)

_NUMPY_INTS = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64)
_NUMPY_FLOATS = (np.float16, np.float32, np.float64)
# ints either side of the ends that the rules state: ell's 2**1022, numpy's C long and seed, the float range
_EDGES = (10**400, -(10**400), 2**1021, 2**1022, 2**63, 2**64, 2**1024 - 2**970 - 1, 2**1024 - 2**970,
          math.nan, math.inf, -math.inf, True, False, np.True_, np.False_)


def _numbers(largest=2**1100):
    return st.one_of(
        st.integers(-largest, largest),
        st.sampled_from(_EDGES),
        st.floats(),
        *(st.integers(int(np.iinfo(kind).min), int(np.iinfo(kind).max)).map(kind) for kind in _NUMPY_INTS),
        *(st.floats(width=np.finfo(kind).bits).map(kind) for kind in _NUMPY_FLOATS),
    )


def _python(value):
    # the Python number a numpy scalar equals
    return value.item() if isinstance(value, np.generic) else value


_Refused = object()  # the outcome of a refusal by name


def _outcome(name, call):
    # call()'s result, or _Refused where it refused the input with a ValueError that names it first;
    # a warning is an error here, and so is any other exception
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return call()
        except ValueError as exc:
            assert str(exc).startswith(f"{name} "), (name, str(exc))
            return _Refused


def _computed(call):
    # what a model computes, an exception included, as text that tells floats and nan apart
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return repr(call())
        except ValueError as exc:
            return f"ValueError: {exc}"


def _assert_python_fields(obj):
    for f in dataclasses.fields(obj):
        assert type(getattr(obj, f.name)) is {"int": int, "float": float}[f.type], f.name


def _assert_kept(obj, name, value):
    # the stored field is the Python number the input equals
    _assert_python_fields(obj)
    assert getattr(obj, name) == _python(value)


@given(st.sampled_from(["ell", "mean_photons"]), _numbers())
@example("ell", 10**400)
@example("ell", 2**1021)
def test_interferometer_spec(name, value):
    spec = _outcome(name, lambda: InterferometerSpec(**{"ell": 2, "mean_photons": 1.5, name: value}))
    if spec is not _Refused:
        _assert_kept(spec, name, value)
        assert type(spec.fringe_period) is float


@given(st.sampled_from(["amplitude", "decay", "offset", "ell", "floor"]), _numbers())
@example("ell", np.uint8(100))
@example("ell", 10**400)
@example("floor", 0.6)
def test_fringe_model(name, value):
    # floor 0 and decay 1 leave amplitude, and ell up to 2**1022, to their own rules
    params = {"amplitude": 0.5, "decay": 1.0, "offset": 0.0, "ell": 3, "floor": 0.0}
    model = _outcome(name, lambda: FringeModel(**{**params, name: value}))
    if model is _Refused:
        return
    _assert_kept(model, name, value)
    twin = FringeModel(**{**params, name: _python(value)})
    for figures in (min_sensitivity, fringe_figures, lambda m: m(np.array([0.0, 1e-3])).tolist()):
        assert _computed(lambda: figures(model)) == _computed(lambda: figures(twin))


@given(st.sampled_from(["eta", "t_a", "t_b", "kappa", "dark_rate", "jitter_factor"]), _numbers())
@example("jitter_factor", math.inf)
def test_imperfection_profile(name, value):
    profile = _outcome(name, lambda: ImperfectionProfile(**{name: value}))
    if profile is not _Refused:
        _assert_kept(profile, name, value)


@given(st.sampled_from(["units", "kappa", "dark_rate", "jitter_factor", "seed"]), _numbers())
@example("seed", 2**64)
@example("dark_rate", 1e3)
def test_detector_model(name, value):
    model = _outcome(name, lambda: DetectorModel(**{name: value}))
    if model is not _Refused:
        _assert_kept(model, name, value)


@given(st.sampled_from([qfi_si, qfi_mzi, qfi_mzi_phase_averaged]), st.sampled_from(["ell", "mean_photons"]),
       _numbers())
@example(qfi_mzi, "ell", np.uint64(3))
@example(qfi_si, "ell", 10**400)
def test_fisher_information(qfi, name, value):
    args = {"ell": 2, "mean_photons": 1.5}
    result = _outcome(name, lambda: qfi(**{**args, name: value}))
    if result is not _Refused:
        assert type(result) is float
        assert repr(result) == repr(qfi(**{**args, name: _python(value)}))


@given(st.sampled_from(["fisher_information", "trials"]), _numbers())
@example("trials", 10**400)
@example("trials", 2**1024 - 2**970 - 1)  # the largest int that float() takes
def test_cramer_rao_bound(name, value):
    args = {"fisher_information": 4.0, "trials": 1}
    # the message calls the first argument by what it is
    label = "Fisher information" if name == "fisher_information" else name
    result = _outcome(label, lambda: crb_sensitivity(**{**args, name: value}))
    if result is not _Refused:
        assert type(result) is float
        assert repr(result) == repr(crb_sensitivity(**{**args, name: _python(value)}))


def _noiseless_fringe(ell, amplitude=0.9, decay=4.0, where=0.3):
    # 13 noiseless rows over one period about the truth's offset, where * period
    period = math.pi / (2 * ell)
    truth = FringeModel(amplitude, decay, where * period, ell)
    phi = truth.offset + np.linspace(-period / 2.0, period / 2.0, 13, endpoint=False)
    return np.column_stack([phi, truth(phi)])


@given(st.sampled_from(["ell", "max_iter"]),
       # the truth's 2 ell decay, decay 4, is past the float range from ell = 2**1021 on: no noiseless fringe
       # of such a charge can be built, and the fit of another charge's data would test nothing
       _numbers().filter(lambda v: not (type(v) is int and 2**1020 < v < 2**1022)))
@example("ell", np.uint8(100))
@example("ell", 10**400)
@example("ell", 2**1020)
@example("max_iter", np.int8(3))
def test_fit(name, value):
    # noiseless data of the charge the fit is given, where that is an integer it could accept
    ell = int(value) if name == "ell" and isinstance(value, (int, np.integer)) and 1 <= value <= 2**1020 else 3
    args = {"data": _noiseless_fringe(ell), "ell": ell, "max_iter": 500}

    def fit(**given):
        # a budget too small to converge is the documented FitConvergenceError, the same for either number
        try:
            return fit_fringe(**{**args, **given})
        except FitConvergenceError as exc:
            return f"FitConvergenceError: {exc}"

    result = _outcome(name, lambda: fit(**{name: value}))
    if result is _Refused:
        return
    if isinstance(result, str):  # only a small max_iter stops the fit of noiseless data
        assert name == "max_iter"
    else:
        _assert_python_fields(result.model)
        model = result.model
        figures = (model.decay / 2, abs(math.log(model.amplitude)) / 2, *fringe_figures(model))
        assert all(type(v) is float for v in (result.residual_rms, *figures, *result.param_stderr.values()))
    assert repr(result) == repr(fit(**{name: _python(value)}))


@given(_numbers())
@example(np.uint8(100))
@example(math.inf)
def test_error_bars(trials):
    model = FringeModel(0.9, 4.0, 0.0, 1)
    scalar = _outcome("trials", lambda: error_bars(0.3, trials, model))
    if scalar is _Refused:
        return
    assert type(scalar) is float
    assert repr(scalar) == repr(error_bars(0.3, _python(trials), model))
    phi = np.array([0.1, 0.3])
    array = error_bars(phi, trials, model)
    assert array.dtype == np.float64 and array.tolist() == error_bars(phi, _python(trials), model).tolist()


# --- array inputs --------------------------------------------------------------

_FRINGE = FringeModel(0.9, 4.0, 0.2, 1, 0.05)
_SPEC = InterferometerSpec(1, 2.0)
_DATA = np.column_stack([np.linspace(0.0, 1.5, 13), FringeModel(0.9, 4.0, 0.5, 1)(np.linspace(0.0, 1.5, 13))])
# (name, call, base): each call feeds one array input, of which base is a valid value
_ARRAY_INPUTS = {
    "sensitivity": ("phi", lambda v: sensitivity(_FRINGE, v), [0.1, 0.3]),
    "error_bars": ("phi", lambda v: error_bars(v, 100, _FRINGE), [0.1, 0.3]),
    "parity_expectation": ("phi", lambda v: parity_expectation(_SPEC, v, ImperfectionProfile(eta=0.9)), [0.1, 2.0]),
    "FringeModel": ("phi", _FRINGE, [[0.1, 0.2], [0.3, 0.4]]),
    "FringeModel.derivative": ("phi", _FRINGE.derivative, [[0.1, 0.2], [0.3, 0.4]]),
    "FringeModel.variance": ("phi", _FRINGE.variance, [0.2, 1.0]),
    "simulate": ("phi", lambda v: simulate(_SPEC, v, DetectorModel(units=8), 5), [0.3]),
    "scan": ("phi_grid", lambda v: scan(_SPEC, DetectorModel(units=8), v, 5), [0.0, 1.0]),
    "parity_curve": ("phi_grid", lambda v: parity_curve(_SPEC, ImperfectionProfile(), v), [0.0, 1.0, 2.0]),
    "ParityCurve.phi_grid": ("phi_grid", lambda v: ParityCurve(v, [1.0, 0.5, 0.25]), [0.0, 1.0, 2.0]),
    "ParityCurve.values": ("values", lambda v: ParityCurve([0.0, 1.0, 2.0], v), [1.0, 0.5, 0.25]),
    "fit_fringe": ("data", lambda v: fit_fringe(v, 1), _DATA.tolist()),
}
_FLOAT_WIDTHS = (float, *_NUMPY_FLOATS, np.longdouble)
_NOT_FINITE = (math.nan, math.inf, -math.inf, 10**400, -(10**400), np.float32(math.inf), np.longdouble("1e4000"))
_NOT_REAL = (True, False, np.True_, "0.5", b"1", None, 1j, complex(0.2, 0.0), np.complex64(0.5), object())


def _numpy_scalars(array):
    # array as nested lists of its numpy scalars
    return [_numpy_scalars(row) for row in array] if array.ndim > 1 else list(array)


@st.composite
def _array_values(draw, base):
    # (value, verdict, refused): base in one width of number, in a list, a tuple or an ndarray, perhaps with one bad
    # entry; the verdict is what the array rule must make of it, "real", "not real" or "not finite", and refused the
    # type a "not real" refusal names: the bad entry's, or a whole array's scalar type
    width = draw(st.sampled_from((*_FLOAT_WIDTHS, int, *_NUMPY_INTS)))
    numbers = np.asarray(base, dtype=float)
    array = (numbers if width in _FLOAT_WIDTHS else np.rint(numbers)).astype(width)
    leaves = array.tolist() if width in (float, int) else _numpy_scalars(array)
    container = draw(st.sampled_from([list, tuple, np.ndarray]))
    verdict = draw(st.sampled_from(["real", "not finite", "not real", "ragged"]))
    if verdict == "real":
        return (array if container is np.ndarray else container(leaves)), verdict, None
    if verdict == "not real" and container is np.ndarray and draw(st.booleans()):
        # a whole array of a dtype that is not real, complex with no imaginary part included
        kind, refused = draw(st.sampled_from([(bool, "bool"), (str, "str_"), (np.complex64, "complex64"),
                                              (np.complex128, "complex128")]))
        return (array + 1j if kind is np.complex64 else array).astype(kind), verdict, refused
    index = draw(st.integers(0, array.size - 1))
    flat = list(np.asarray(leaves, dtype=object).flat)
    entries = {"not finite": _NOT_FINITE, "not real": _NOT_REAL, "ragged": [[flat[index], [flat[index]]]]}[verdict]
    flat[index] = draw(st.sampled_from(entries))
    if verdict == "not finite" and container is np.ndarray and width in _FLOAT_WIDTHS and type(flat[index]) is float:
        array = array.copy()
        array.flat[index] = flat[index]  # a float array holding nan or an infinity
        return array, verdict, None
    nested = np.empty(array.size, dtype=object)  # filled entry by entry, so that a ragged entry stays one entry
    nested[:] = flat
    nested = nested.reshape(array.shape).tolist()
    value = np.array(nested, dtype=object) if container is np.ndarray else container(nested)
    if verdict == "not finite":
        return value, verdict, None
    return value, "not real", "list" if verdict == "ragged" else type(flat[index]).__name__


def _exact(result):
    # a result as exact text: arrays by dtype, shape and bytes, dataclasses field by field
    if isinstance(result, np.ndarray):
        return result.dtype.str, result.shape, result.tobytes()
    if dataclasses.is_dataclass(result):
        return type(result).__name__, [_exact(getattr(result, f.name)) for f in dataclasses.fields(result)]
    if isinstance(result, (list, tuple)):
        return [_exact(item) for item in result]
    return repr(result)


def _array_outcome(call, value):
    # call(value) as exact text, or the text of a ValueError or FitConvergenceError; a warning is an error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = call(value)
        except (ValueError, FitConvergenceError) as exc:
            return f"{type(exc).__name__}: {exc}"
    assert not isinstance(result, np.ndarray) or result.dtype == np.float64, result.dtype
    return _exact(result)


@pytest.mark.parametrize("key", sorted(_ARRAY_INPUTS))
@settings(max_examples=20)
@given(data=st.data())
def test_array_input(key, data):
    name, call, base = _ARRAY_INPUTS[key]
    value, verdict, refused = data.draw(_array_values(base))
    outcome = _array_outcome(call, value)
    if verdict == "real":
        assert outcome == _array_outcome(call, np.asarray(value, dtype=float))
        if str(outcome).startswith("ValueError: "):  # a refusal of the values themselves
            assert outcome.startswith(f"ValueError: {name} "), outcome
    elif verdict == "not real":
        assert outcome == f"ValueError: {name} must be real, got {refused}"
    else:
        assert outcome.startswith(f"ValueError: {name} must be finite, got "), outcome


@pytest.mark.parametrize("key", sorted(_ARRAY_INPUTS))
def test_a_complex_array_input_is_refused_by_name_not_cut_to_its_real_part(key):
    name, call, base = _ARRAY_INPUTS[key]
    listed = np.asarray(base, dtype=object)
    listed.flat[-1] = 1j
    for value, refused in ((listed.tolist(), "complex"), (np.asarray(base) + 1j, "complex128")):
        assert _array_outcome(call, value) == f"ValueError: {name} must be real, got {refused}"


# --- the closed forms' symmetries, bit for bit -----------------------------------

# angles and offsets are 0 or of at least 1e-200 rad, so that dividing one by 2^k, k <= 100, is exact
_ANGLES = st.floats(-10.0, 10.0).filter(lambda x: x == 0.0 or abs(x) > 1e-200)


@st.composite
def _fringes(draw, offset=_ANGLES, ell=st.integers(1, 2**40)):
    a = draw(st.floats(0.0, 1.0))
    return FringeModel(a, draw(st.floats(0.0, 1e3)), draw(offset), draw(ell), draw(st.floats(0.0, 1.0)) * (1.0 - a))


@settings(max_examples=50)
@given(_fringes(offset=st.just(0.0)), st.lists(_ANGLES, min_size=1, max_size=8))
def test_a_fringe_at_offset_0_is_even(model, phi):
    phi = np.array(phi)
    assert model(-phi).tobytes() == model(phi).tobytes()


@settings(max_examples=50)
@given(_fringes(ell=st.just(1)), st.integers(0, 100), st.lists(_ANGLES, min_size=1, max_size=8))
def test_a_charge_of_2_to_the_k_is_the_charge_1_fringe_on_angles_divided_by_2_to_the_k(model, k, phi):
    scaled = dataclasses.replace(model, offset=model.offset / 2**k, ell=2**k)
    phi = np.array(phi)
    assert scaled(phi / 2**k).tobytes() == model(phi).tobytes()
    (phi_star, best), (scaled_star, scaled_best) = min_sensitivity(model), min_sensitivity(scaled)
    if best == math.inf:  # a flat fringe, or a minimum past the float range: there is no float to divide
        return
    assert repr(scaled_star) == repr(phi_star / 2**k)
    # off the peak delta_phi is read from the slope there, and a slope below the normal floats is rounded to a
    # fixed quantum, not a relative one: there the two minima agree to rounding, elsewhere bit for bit
    if abs(float(model.derivative(phi_star))) < np.finfo(float).tiny and model.headroom > 0.0:
        assert scaled_best == pytest.approx(best / 2**k, rel=1e-12)
    else:
        assert repr(scaled_best) == repr(best / 2**k)


@settings(max_examples=50)
@given(_fringes(), st.lists(_ANGLES, min_size=1, max_size=8))
def test_a_fringe_repeats_after_one_period_to_the_rounding_of_its_phase(model, phi):
    # the phase 2 ell (phi - offset) is rounded to a few eps of 2 ell (|phi| + period + |offset|), and the fringe
    # moves by at most a * decay per radian of it; the exponential and the floor add a few eps of their own
    phi, period = np.array(phi), math.pi / (2 * model.ell)
    rounding = 4.0 * np.finfo(float).eps * 2 * model.ell * (np.abs(phi) + period + abs(model.offset))
    gap = np.abs(model(phi + period) - model(phi))
    assert np.all(gap <= model.amplitude * model.decay * rounding + 4.0 * np.finfo(float).eps), gap


# amplitude, decay and where in the period the offset lies
_TRUTHS = st.tuples(st.floats(0.05, 1.0), st.floats(0.1, 100.0), st.floats(0.0, 1.0, exclude_max=True))


@settings(max_examples=50)
@given(st.integers(0, 1000), _TRUTHS)
def test_a_fit_at_charge_2_to_the_k_is_the_charge_1_fit_on_angles_divided_by_2_to_the_k(k, truth):
    # the fit's offset column grows as 2^k: unscaled, its square in J^T J passes the float range from k of about 500
    data, scaled = _noiseless_fringe(1, *truth), _noiseless_fringe(2**k, *truth)
    assert (scaled * [2.0**k, 1.0]).tobytes() == data.tobytes()
    fit, fit_k = fit_fringe(data, 1), fit_fringe(scaled, 2**k)
    assert fit_k.model == dataclasses.replace(fit.model, offset=fit.model.offset / 2**k, ell=2**k)
    assert fit_k.residual_rms == fit.residual_rms
    assert fit_k.param_stderr == {**fit.param_stderr, "offset": fit.param_stderr["offset"] / 2**k}
    # the width is an angle, and the factor is pi over it
    visibility, fwhm, factor = fringe_figures(fit.model)
    assert repr(fringe_figures(fit_k.model)) == repr((visibility, fwhm / 2**k, factor * 2**k))


@settings(max_examples=50)
@given(st.integers(1, 2**20), _TRUTHS)
def test_a_fit_of_data_shifted_by_one_period_returns_the_same_parameters(ell, truth):
    data, period = _noiseless_fringe(ell, *truth), math.pi / (2 * ell)
    fit, shifted = (fit_fringe(rows, ell).model for rows in (data, data + [period, 0.0]))
    # the largest gap measured is 8e-15 relative; the reported offset is reduced to one period
    assert shifted.amplitude == pytest.approx(fit.amplitude, rel=1e-10)
    assert shifted.decay == pytest.approx(fit.decay, rel=1e-10)
    assert abs(math.remainder(shifted.offset - fit.offset, period)) <= 1e-10 * period


@given(st.one_of(st.integers(1, 2**1022 - 1), st.sampled_from([2**510, int(2**510 * 1.2), 2**600, 2**1021])),
       st.one_of(st.floats(0.0, allow_infinity=False), st.sampled_from([0.0, 5e-324, 1e-10])))
@example(2**600, 0.0)
@example(int(2**510 * 1.2), 1e-10)  # where 16 ell^2 alone overflows and 8 ell^2 does not
def test_the_fisher_informations_are_in_ratio_4_2_1(ell, mean_photons):
    si, mzi, averaged = (qfi(ell, mean_photons) for qfi in (qfi_si, qfi_mzi, qfi_mzi_phase_averaged))
    assert si == 2.0 * mzi == 4.0 * averaged


# --- the cases that the properties above pin, stated once each ----------------


def test_a_narrow_integer_charge_computes_as_the_int_it_equals():
    narrow, wide = (FringeModel(0.9, 4.0, 0.001, ell, 0.05) for ell in (np.uint8(100), 100))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for figures in (min_sensitivity, fringe_figures):
            got, want = figures(narrow), figures(wide)
            assert all(type(v) is float for v in got)
            assert repr(got) == repr(want)
        data = _noiseless_fringe(100)
        assert repr(fit_fringe(data, ell=np.uint8(100))) == repr(fit_fringe(data, ell=100))


@pytest.mark.parametrize("ell", [10**400, 2**1022])
def test_a_charge_from_2_to_the_1022_is_refused_by_name(ell):
    # past it 4 ell, the fringe phase's factor, is no float
    for call in (lambda: InterferometerSpec(ell, 1.0), lambda: FringeModel(0.9, 1e-300, 0.0, ell),
                 lambda: qfi_si(ell, 1.0), lambda: fit_fringe(_noiseless_fringe(3), ell)):
        with pytest.raises(ValueError, match=r"^ell must be below 2\*\*1022, got "):
            call()
    assert FringeModel(0.9, 1e-300, 0.0, 2**1021)(0.0) == 0.9


def test_a_non_finite_real_is_refused_as_not_finite_before_its_range():
    with pytest.raises(ValueError, match="^jitter_factor must be finite, got inf$"):
        ImperfectionProfile(jitter_factor=math.inf)
    with pytest.raises(ValueError, match="^jitter_factor must be >= 1, got 0.5$"):
        ImperfectionProfile(jitter_factor=0.5)


def test_an_angle_array_that_is_complex_or_bool_is_refused_as_not_real():
    # it was cut to its real part with a ComplexWarning, and a bool array computed at 0 and 1 rad
    model = FringeModel(0.9, 4.0, 0.0, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for phi, refused in ((np.array([0.2 + 1j]), "complex128"), (np.array([True, False]), "bool")):
            with pytest.raises(ValueError, match=f"^phi must be real, got {refused}$"):
                sensitivity(model, phi)
