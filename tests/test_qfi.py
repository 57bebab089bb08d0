import math

import numpy as np
import pytest
from scipy import stats

from sagnac_parity import (
    crb_sensitivity,
    qfi_mzi,
    qfi_mzi_phase_averaged,
    qfi_report,
    qfi_si,
)

from oracles import phase_averaged_qfi_sum, poisson_cutoff


@pytest.mark.parametrize(
    "ell,n,expected_si,expected_mzi",
    # a float16 N is computed in double precision, where 16 N does not overflow
    [(1, 1.0, 16.0, 8.0), (2, 5.0, 320.0, 160.0), (5, 20.0, 8000.0, 4000.0),
     (1, np.float16(60000), 960000.0, 480000.0)],
)
def test_closed_form_fisher_information(ell, n, expected_si, expected_mzi):
    assert type(qfi_si(ell, n)) is type(qfi_mzi(ell, n)) is type(qfi_mzi_phase_averaged(ell, n)) is float
    assert qfi_si(ell, n) == expected_si
    assert qfi_mzi(ell, n) == expected_mzi
    assert qfi_si(ell, n) == 2.0 * qfi_mzi(ell, n)


@pytest.mark.parametrize("ell", [1, 2**510, 2**600, 2**1021], ids=["1", "2**510", "2**600", "2**1021"])
def test_no_photons_carry_no_information_at_any_charge(ell):
    # 16 ell^2 overflows from ell of about 2^510, and inf * 0 was nan
    assert qfi_si(ell, 0.0) == qfi_mzi(ell, 0.0) == qfi_mzi_phase_averaged(ell, 0.0) == 0.0
    table = qfi_report(ell, 0.0)
    assert table == {"f_si": 0.0, "f_mzi": 0.0, "f_phase_avg": 0.0,
                     "bound_si": math.inf, "bound_mzi": math.inf, "bound_phase_avg": math.inf}


def test_fisher_information_is_finite_where_only_ell_squared_overflows():
    # ell^2 = 2^1200 overflows, and 16 ell^2 N read inf; ell N ell = 2^1200 1e-300 does not
    ell, n = 2**600, 1e-300
    assert qfi_si(ell, n) == math.ldexp(n, 1204) == pytest.approx(2.755e62, rel=1e-3)  # scaling by 2^k is exact
    assert qfi_si(ell, n) == 2.0 * qfi_mzi(ell, n) == 4.0 * qfi_mzi_phase_averaged(ell, n)
    table = qfi_report(ell, n, trials=10)
    assert table["bound_si"] == 1.0 / math.sqrt(10 * table["f_si"])
    # where ell^2 is finite the product is still ell * ell * N, bit for bit
    assert qfi_si(2**510, 1.1) == 16.0 * (2.0**510 * 2.0**510 * 1.1)


def test_phase_averaged_fisher_information_frozen_values():
    assert qfi_mzi_phase_averaged(1, 1.0) == 4.0
    assert qfi_mzi_phase_averaged(1, 2.297) == 4.0 * 2.297


def test_phase_averaged_sum_converges_to_closed_form():
    for n in (1.0, 5.0, 10.0, 20.0):
        oracle = phase_averaged_qfi_sum(1, n, poisson_cutoff(n, 1e-12))
        assert qfi_mzi_phase_averaged(1, n) == pytest.approx(oracle, abs=1e-9)


def test_phase_averaged_scales_with_charge_squared():
    base = qfi_mzi_phase_averaged(1, 7.0)
    for ell in (2, 3, 5):
        assert qfi_mzi_phase_averaged(ell, 7.0) == pytest.approx(ell * ell * base, rel=1e-14)


def test_phase_averaged_sum_is_monotone_in_cutoff():
    coarse = phase_averaged_qfi_sum(1, 3.0, 5)
    finer = phase_averaged_qfi_sum(1, 3.0, 10)
    assert coarse < finer < qfi_mzi_phase_averaged(1, 3.0) == 12.0


@pytest.mark.parametrize("ell,n", [(1, 1.0), (2, 2.297), (3, 20.0), (1, 300.0)])
@pytest.mark.parametrize("tail", [1e-3, 1e-6])
def test_phase_averaged_sum_falls_short_by_at_most_its_tail(ell, n, tail):
    # the sum cut after n_max misses 4 ell^2 sum_{n > n_max} n p_n = 4 ell^2 N P(n >= n_max)
    n_max = poisson_cutoff(n, tail)
    assert stats.poisson.sf(n_max - 1, n) <= tail
    closed = qfi_mzi_phase_averaged(ell, n)
    gap = closed - phase_averaged_qfi_sum(ell, n, n_max)
    assert 0.0 <= gap <= closed * (tail + 1e-13)


def test_phase_averaging_costs_a_factor_of_two():
    n = 5.0
    averaged = qfi_mzi_phase_averaged(1, n)
    assert averaged <= qfi_mzi(1, n) / 2.0
    assert averaged == pytest.approx(qfi_mzi(1, n) / 2.0, abs=1e-8)


def test_zero_photons_carry_no_information():
    assert qfi_si(1, 0.0) == 0.0
    assert qfi_mzi_phase_averaged(1, 0.0) == 0.0
    assert crb_sensitivity(0.0) == math.inf


@pytest.mark.parametrize("bad_ell", [0, -2, 1.5, True])
def test_validation_rejects_bad_charge(bad_ell):
    with pytest.raises(ValueError):
        qfi_si(bad_ell, 1.0)


def test_validation_rejects_negative_photons():
    with pytest.raises(ValueError):
        qfi_mzi(1, -1.0)
    with pytest.raises(ValueError, match="mean_photons must be finite"):
        qfi_si(1, 10**400)


def test_crb_sensitivity_values():
    assert crb_sensitivity(16.0) == 0.25
    assert crb_sensitivity(16.0, trials=4) == 0.125
    assert crb_sensitivity(8.0) == pytest.approx(0.35355339059327373, rel=1e-15)


@pytest.mark.parametrize("bad_trials", [0, -1, 2.5, True, pytest.param(10**400, id="huge-int"),
                                        pytest.param(10**5000, id="unprintable-int")])
def test_crb_sensitivity_rejects_bad_trials(bad_trials):
    with pytest.raises(ValueError, match="^trials must be"):
        crb_sensitivity(4.0, trials=bad_trials)


def test_crb_sensitivity_rejects_negative_information():
    with pytest.raises(ValueError, match=r"Fisher information must be >= 0, got -1\.0"):
        crb_sensitivity(-1.0)


@pytest.mark.parametrize("information", [math.nan, math.inf, -math.inf, np.True_, np.False_, "1", None],
                         ids=["nan", "inf", "-inf", "numpy-true", "numpy-false", "str", "none"])
def test_crb_sensitivity_rejects_non_finite_information(information):
    # a non-finite number is refused as such before the range; what is no real number gets the range
    finite = isinstance(information, float)
    with pytest.raises(ValueError, match=f"^Fisher information must be {'finite' if finite else '>= 0'}, got "):
        crb_sensitivity(information)


def test_crb_sensitivity_stays_finite_where_trials_times_information_overflows():
    # 1e12 * 1.6e308 overflows to inf, whose bound would read 0; the roots of the factors do not overflow
    assert crb_sensitivity(1.6e308, trials=10**12) == 1.0 / (1e6 * math.sqrt(1.6e308))
    assert crb_sensitivity(1.6e308, trials=10**12) == pytest.approx(7.905694150420948e-161, rel=1e-15)
    # a numpy information gives the same bound, with no overflow warning on the way
    assert crb_sensitivity(np.float64(1.6e308), trials=10**12) == crb_sensitivity(1.6e308, trials=10**12)
    assert qfi_report(ell=1, mean_photons=1e307, trials=10**12)["bound_phase_avg"] > 0.0
    # below the overflow the bound is the plain 1/sqrt(trials * F), bit for bit
    assert crb_sensitivity(1.6e295, trials=10**12) == 1.0 / math.sqrt(10**12 * 1.6e295)


def test_report_builder_covers_all_protocols():
    # the qfi command's value columns, in its column order
    table = qfi_report(ell=2, mean_photons=5.0, trials=100)
    assert list(table) == ["f_si", "f_mzi", "f_phase_avg", "bound_si", "bound_mzi", "bound_phase_avg"]
    assert all(type(v) is float for v in table.values())
    assert table["f_si"] == 320.0
    assert table["bound_si"] == pytest.approx(1.0 / math.sqrt(100 * 320.0), rel=1e-15)
    assert table["f_mzi"] == 160.0
    assert table["bound_mzi"] == 1.0 / math.sqrt(100 * 160.0)

    avg = qfi_report(ell=2, mean_photons=5.0)
    assert avg["f_phase_avg"] == pytest.approx(4.0 * 4 * 5.0, abs=1e-8)
    assert avg["bound_phase_avg"] == pytest.approx(1.0 / math.sqrt(avg["f_phase_avg"]), rel=1e-12)


def test_report_refuses_as_its_first_column_would():
    # the three informations, the loop's first, are taken before the bounds: each refusal is the qfi command's
    with pytest.raises(ValueError, match="^ell must be"):
        qfi_report(0, 1.0)
    with pytest.raises(ValueError, match="^trials must be an integer >= 1, got 0$"):
        qfi_report(1, 1.0, trials=0)
    with pytest.raises(ValueError, match="^Fisher information must be finite, got inf$"):
        qfi_report(1, 1e308)
