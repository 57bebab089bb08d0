"""The input contract, as properties over every kind of scalar number.

Each scalar numeric input of the library is fed Python ints of any size
(including ints past the float range), numpy ints of every width, floats of
every width with nan and both infinities, and both kinds of bool.  The call
then does one of two things.  It keeps the input as the Python int or float it
equals, and computes exactly what it computes from that Python number.  Or it
raises a ValueError whose message starts with the input's name.  It never
raises OverflowError or TypeError, and it never warns.
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
    crb_sensitivity,
    error_bars,
    fit_fringe,
    fringe_figures,
    min_sensitivity,
    qfi_mzi,
    qfi_mzi_phase_averaged,
    qfi_si,
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


_SETTINGS = settings(derandomize=True, database=None, deadline=None)


@_SETTINGS
@given(st.sampled_from(["ell", "mean_photons"]), _numbers())
@example("ell", 10**400)
@example("ell", 2**1021)
def test_interferometer_spec(name, value):
    spec = _outcome(name, lambda: InterferometerSpec(**{"ell": 2, "mean_photons": 1.5, name: value}))
    if spec is not _Refused:
        _assert_kept(spec, name, value)
        assert type(spec.fringe_period) is float


@_SETTINGS
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


@_SETTINGS
@given(st.sampled_from(["eta", "t_a", "t_b", "kappa", "dark_rate", "jitter_factor"]), _numbers())
@example("jitter_factor", math.inf)
def test_imperfection_profile(name, value):
    profile = _outcome(name, lambda: ImperfectionProfile(**{name: value}))
    if profile is not _Refused:
        _assert_kept(profile, name, value)


@_SETTINGS
@given(st.sampled_from(["units", "kappa", "dark_rate", "jitter_factor", "seed"]), _numbers())
@example("seed", 2**64)
@example("dark_rate", 1e3)
def test_detector_model(name, value):
    model = _outcome(name, lambda: DetectorModel(**{name: value}))
    if model is not _Refused:
        _assert_kept(model, name, value)


@_SETTINGS
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


@_SETTINGS
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


def _noiseless_fringe(ell):
    period = math.pi / (2 * ell)
    truth = FringeModel(0.9, 4.0, 0.3 * period, ell)
    phi = truth.offset + np.linspace(-period / 2.0, period / 2.0, 13, endpoint=False)
    return np.column_stack([phi, truth(phi)])


@_SETTINGS
@given(st.sampled_from(["ell", "max_iter"]),
       # the fit's offset column grows with ell, and its square overflows past ell of about 2**500
       _numbers().filter(lambda v: not (type(v) is int and 2**64 < v < 2**1022)))
@example("ell", np.uint8(100))
@example("ell", 10**400)
@example("max_iter", np.int8(3))
def test_fit(name, value):
    # noiseless data of the charge the fit is given, where that is an integer it could accept
    ell = int(value) if name == "ell" and isinstance(value, (int, np.integer)) and 1 <= value <= 2**64 else 3
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
        assert all(type(v) is float for v in (result.residual_rms, *result.derived.values(),
                                              *result.param_stderr.values()))
    assert repr(result) == repr(fit(**{name: _python(value)}))


@_SETTINGS
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
