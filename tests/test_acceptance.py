"""End-to-end acceptance checks.

Each test prints a single [PASS]/[FAIL] line with the measured figure; run
with ``pytest -v -s tests/test_acceptance.py`` to see the lines as the suite
executes.  Tolerances and runtime budgets are asserted, not just reported.
"""
import math
import time

import numpy as np
from scipy import stats

from sagnac_parity import (
    DetectorModel,
    ExperimentConfig,
    FockTruncation,
    FringeModel,
    ImperfectionProfile,
    InterferometerSpec,
    attenuated_joint_distribution,
    credibility,
    fit_fringe,
    joint_distribution,
    min_sensitivity,
    parity_expectation,
    parity_expectation_dark,
    parity_expectation_efficiency,
    parity_expectation_ideal,
    parity_expectation_loss,
    parity_expectation_prep,
    parity_sum,
    qfi_mzi,
    qfi_mzi_phase_averaged,
    qfi_si,
    run_experiment,
    simulate,
)

from oracles import count_fringe_peaks

PHOTON_GRID = (1.0, 5.0, 10.0, 20.0)
CHARGE_GRID = (1, 2, 3, 4, 5)


def _report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_01_closed_forms_match_fock_sums():
    start = time.perf_counter()
    eta, kappa, t_a, t_b = 0.5, 0.7, 0.9, 0.6
    composed = ImperfectionProfile(eta=eta, t_a=t_a, t_b=t_b, kappa=kappa, dark_rate=0.02, jitter_factor=1.5)
    dark = math.exp(-2.0 * composed.effective_dark_rate)
    worst = 0.0
    for n in PHOTON_GRID:
        trunc = FockTruncation.for_mean_photons(n)
        for ell in CHARGE_GRID:
            spec = InterferometerSpec(ell=ell, mean_photons=n)
            scaled = InterferometerSpec(ell=ell, mean_photons=kappa * n)
            for phi in np.linspace(0.0, spec.fringe_period, 64, endpoint=False):
                phi = float(phi)
                brute = parity_sum(joint_distribution(spec, phi, trunc))
                worst = max(worst, abs(brute - parity_expectation_ideal(spec, phi)))
                worst = max(
                    worst,
                    abs(eta * brute + (1 - eta) - parity_expectation_prep(spec, phi, eta)),
                )
                worst = max(
                    worst,
                    abs(
                        parity_sum(joint_distribution(scaled, phi, trunc))
                        - parity_expectation_efficiency(spec, phi, kappa)
                    ),
                )
                worst = max(
                    worst,
                    abs(
                        parity_sum(attenuated_joint_distribution(spec, phi, t_a, t_b, trunc))
                        - parity_expectation_loss(spec, phi, t_a, t_b)
                    ),
                )
                # every family at once: the detector sees kappa N with
                # transmissions t_a, t_b, mixed with vacuum, then dark-damped
                lossy = parity_sum(attenuated_joint_distribution(scaled, phi, t_a, t_b, trunc))
                worst = max(
                    worst,
                    abs(dark * (eta * lossy + 1 - eta) - parity_expectation(spec, phi, composed)),
                )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    _report(
        "criterion 1, closed forms vs Fock-basis sums",
        ok,
        f"worst |diff| {worst:.2e} (tol 1e-10), {elapsed:.1f}s (budget 10s)",
    )


def test_criterion_02_ideal_minimum_sensitivity_saturates_the_bound():
    start = time.perf_counter()
    ideal = ImperfectionProfile()
    worst = 0.0
    for n in PHOTON_GRID:
        for ell in CHARGE_GRID:
            spec = InterferometerSpec(ell=ell, mean_photons=n)
            _, best = min_sensitivity(spec, ideal)
            worst = max(worst, abs(best * math.sqrt(16.0 * ell * ell * n) - 1.0))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 1.0
    _report(
        "criterion 2, minimum sensitivity saturates 1/sqrt(16 ell^2 N)",
        ok,
        f"worst |ratio-1| {worst:.2e} (tol 1e-6), {elapsed:.2f}s (budget 1s)",
    )


def test_criterion_03_fringe_multiplicity_is_four_ell():
    start = time.perf_counter()
    grid = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
    counts = {}
    for ell in (1, 2, 3):
        spec = InterferometerSpec(ell=ell, mean_photons=5.0)
        counts[ell] = count_fringe_peaks(parity_expectation_ideal(spec, grid))
    elapsed = time.perf_counter() - start
    ok = all(counts[ell] == 4 * ell for ell in counts) and elapsed < 1.0
    _report(
        "criterion 3, 4*ell fringes per turn",
        ok,
        f"peak counts {counts} (want {{1: 4, 2: 8, 3: 12}}), {elapsed:.2f}s (budget 1s)",
    )


def test_criterion_04_balanced_loss_equals_detection_efficiency():
    spec = InterferometerSpec(ell=2, mean_photons=10.0)
    grid = np.linspace(0.0, spec.fringe_period, 512)
    worst = 0.0
    for t in (0.1, 0.5, 0.9):
        gap = np.abs(
            parity_expectation_loss(spec, grid, t, t)
            - parity_expectation_efficiency(spec, grid, t)
        )
        worst = max(worst, float(gap.max()))
    ok = worst <= 1e-12
    _report(
        "criterion 4, balanced loss T=T equals efficiency kappa=T",
        ok,
        f"worst |diff| {worst:.2e} (tol 1e-12)",
    )


def test_criterion_05_fisher_information_table():
    start = time.perf_counter()
    closed_ok = True
    for n in PHOTON_GRID:
        for ell in CHARGE_GRID:
            closed_ok &= qfi_si(ell, n) == 16.0 * ell * ell * n
            closed_ok &= qfi_mzi(ell, n) == 8.0 * ell * ell * n
    worst_sum = max(abs(qfi_mzi_phase_averaged(1, n) - 4.0 * n) for n in PHOTON_GRID)
    worst_scaling = 0.0
    for n in PHOTON_GRID:
        base = qfi_mzi_phase_averaged(1, n)
        for ell in (2, 3, 4, 5):
            ratio = qfi_mzi_phase_averaged(ell, n) / base
            worst_scaling = max(worst_scaling, abs(ratio / (ell * ell) - 1.0))
    elapsed = time.perf_counter() - start
    ok = closed_ok and worst_sum <= 1e-9 and worst_scaling <= 1e-13 and elapsed < 1.0
    _report(
        "criterion 5, Fisher information table",
        ok,
        f"closed forms exact: {closed_ok}, |sum - 4N| {worst_sum:.2e} (tol 1e-9), "
        f"ell^2 scaling off by {worst_scaling:.2e} (tol 1e-13), {elapsed:.2f}s (budget 1s)",
    )


def test_criterion_06_reference_pipeline_recovers_bench_figures(tmp_path):
    start = time.perf_counter()
    doc = run_experiment(ExperimentConfig(output_dir=str(tmp_path)))
    elapsed = time.perf_counter() - start
    a = doc["parameters"]["amplitude"]
    b = doc["parameters"]["decay"]
    vis = doc["derived"]["visibility"]
    srf = doc["derived"]["super_resolution_factor"]
    ratio = doc["ratio_to_snl"]
    checks = {
        "decay": abs(b - 4.594) <= 0.05,
        "amplitude": abs(a - 0.9507) <= 0.005,
        "visibility": abs(vis - 0.98) <= 0.02,
        "srf": abs(srf - 7.88) <= 0.5,
        "ratio": 1.0 <= ratio <= 1.3,
        "runtime": elapsed < 60.0,
    }
    ok = all(checks.values())
    _report(
        "criterion 6, seeded pipeline recovers the bench figures",
        ok,
        f"b={b:.4f} (4.594+-0.05) a={a:.4f} (0.9507+-0.005) vis={vis:.4f} (0.98+-0.02) "
        f"srf={srf:.3f} (7.88+-0.5) ratio={ratio:.4f} ([1.0, 1.3]) {elapsed:.1f}s (budget 60s)"
        + ("" if ok else f"; failed: {[k for k, v in checks.items() if not v]}"),
    )


def test_criterion_07_detector_histogram_credibility():
    start = time.perf_counter()
    spec = InterferometerSpec(ell=1, mean_photons=2.297)
    run = simulate(spec, math.pi / 4, DetectorModel(units=64, seed=2), trials=100_000)
    ks = np.arange(max(run.empirical_dist.size, 40))
    overlap = credibility(run.empirical_dist, stats.poisson.pmf(ks, 2.297))
    elapsed = time.perf_counter() - start
    ok = overlap >= 0.99 and elapsed < 10.0
    _report(
        "criterion 7, count histogram credibility vs Poisson(2.297)",
        ok,
        f"H = {overlap:.4f} (need >= 0.99), {elapsed:.1f}s (budget 10s)",
    )


def test_criterion_08_dark_count_limit_law():
    spec = InterferometerSpec(ell=1, mean_photons=2.297)
    results = []
    ok = True
    for r_eff, seed in ((1e-3, 21), (1e-2, 22)):
        run = simulate(
            spec, 0.0, DetectorModel(units=4096, dark_rate=r_eff, seed=seed), trials=1_000_000
        )
        expected = math.exp(-2.0 * r_eff)
        sigma = math.sqrt((1.0 - expected * expected) / 1_000_000)
        pull = abs(run.parity_mean - expected) / sigma
        results.append(f"r_eff={r_eff:g}: pull {pull:.2f} sigma")
        ok &= pull <= 4.0
    _report(
        "criterion 8, parity at the bright fringe follows exp(-2 r_eff)",
        ok,
        "; ".join(results) + " (need <= 4 sigma)",
    )


def test_criterion_09_analytic_derivatives_match_finite_differences():
    h = 1e-5
    cases = []
    for ell, n in ((1, 1.0), (1, 10.0), (3, 1.0), (3, 10.0)):
        spec = InterferometerSpec(ell=ell, mean_photons=n)
        cases.append(
            (
                f"ideal ell={ell} N={n:g}",
                spec,
                lambda p, s=spec: parity_expectation_ideal(s, p),
                ImperfectionProfile(),
            )
        )
    spec = InterferometerSpec(ell=1, mean_photons=2.0)
    cases.append(
        (
            "prep eta=0.8",
            spec,
            lambda p, s=spec: parity_expectation_prep(s, p, 0.8),
            ImperfectionProfile(eta=0.8),
        )
    )
    spec = InterferometerSpec(ell=2, mean_photons=5.0)
    cases.append(
        (
            "loss 0.9/0.7",
            spec,
            lambda p, s=spec: parity_expectation_loss(s, p, 0.9, 0.7),
            ImperfectionProfile(t_a=0.9, t_b=0.7),
        )
    )
    spec = InterferometerSpec(ell=3, mean_photons=10.0)
    cases.append(
        (
            "efficiency kappa=0.7",
            spec,
            lambda p, s=spec: parity_expectation_efficiency(s, p, 0.7),
            ImperfectionProfile(kappa=0.7),
        )
    )
    cases.append(
        (
            "dark r_eff=0.1",
            spec,
            lambda p, s=spec: parity_expectation_dark(s, p, 0.1),
            ImperfectionProfile(dark_rate=0.1),
        )
    )

    worst = 0.0
    worst_name = ""
    for name, spec, f, profile in cases:
        grid = np.linspace(0.0, spec.fringe_period, 257)
        mask = np.abs(np.sin(4 * spec.ell * grid)) > 1e-3
        phi = grid[mask]
        numeric = (f(phi + h) - f(phi - h)) / (2.0 * h)
        analytic = profile.fringe(spec).derivative(phi)
        rel = float(np.max(np.abs(numeric - analytic) / np.abs(analytic)))
        if rel > worst:
            worst, worst_name = rel, name
    ok = worst <= 1e-6
    _report(
        "criterion 9, analytic derivatives vs central differences",
        ok,
        f"worst rel err {worst:.2e} ({worst_name}; tol 1e-6)",
    )


def test_criterion_10_fit_round_trip_across_the_admissible_box():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        ell = int(rng.integers(1, 5))
        period = math.pi / (2.0 * ell)
        truth = FringeModel(
            amplitude=float(rng.uniform(0.5, 1.0)),
            decay=float(rng.uniform(0.5, 40.0)),
            offset=float(rng.uniform(0.0, period)),
            ell=ell,
        )
        phi = truth.offset - period / 2.0 + np.linspace(0.0, period, 48, endpoint=False)
        result = fit_fringe(np.column_stack([phi, truth(phi)]), ell=ell)
        worst = max(
            worst,
            abs(result.model.amplitude - truth.amplitude) / truth.amplitude,
            abs(result.model.decay - truth.decay) / truth.decay,
        )
        gap = abs(result.model.offset - truth.offset)
        worst = max(worst, min(gap, period - gap) / period)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 30.0
    _report(
        "criterion 10, noiseless fit round-trip over 100 random models",
        ok,
        f"worst rel err {worst:.2e} (tol 1e-6), {elapsed:.1f}s (budget 30s)",
    )
