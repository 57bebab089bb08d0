"""
Click-detector Monte Carlo vs closed forms
==========================================

The detector model counts photons with an array of M on/off units.  Coherent
light spread over the units makes each one fire independently, from a
photon (two on the same unit merge into one click) or from a dark trigger,
with p = 1 - (1 - r_eff/M) exp(-kappa mu/M); the click count is drawn as
Binomial(M, p), and its parity estimates the fringe.  Seeded runs are
bit-reproducible; here they are checked against the analytic expectations
they should follow.
"""
import math

import numpy as np
from scipy import stats

from sagnac_parity import (
    DetectorModel,
    InterferometerSpec,
    parity_expectation_dark,
    parity_expectation_ideal,
    scan,
    simulate,
)

spec = InterferometerSpec(ell=1, mean_photons=2.297)

# a short scan across one fringe: Monte Carlo parity vs closed form
model = DetectorModel(units=4096, seed=7)
grid = np.linspace(0.05, 0.75, 8)
rows = scan(spec, model, grid, trials_per_point=50_000)
print("fringe scan, 50k trials per point (M=4096, no dark counts):")
print(f"  {'phi':>6} {'simulated':>10} {'analytic':>10} {'pull':>6}")
for phi, mean, stderr in rows:
    exact = parity_expectation_ideal(spec, phi)
    pull = (mean - exact) / stderr
    print(f"  {phi:6.3f} {mean:10.5f} {exact:10.5f} {pull:6.2f}")

# photon-number histogram at the dark-port maximum vs Poisson(N)
run = simulate(spec, math.pi / 4.0, DetectorModel(units=64, seed=2), trials=100_000)
ks = np.arange(max(run.empirical_dist.size, 40))
poisson = stats.poisson.pmf(ks, spec.mean_photons)
# the Bhattacharyya overlap H = sum_k sqrt(p_k q_k), the histogram zero-padded to the Poisson support
overlap = float(np.sqrt(np.pad(run.empirical_dist, (0, ks.size - run.empirical_dist.size)) * poisson).sum())
print()
print(f"count histogram vs Poisson({spec.mean_photons}): credibility H = {overlap:.4f}")
print(f"  counts 0..6 simulated: "
      + " ".join(f"{p:.4f}" for p in run.empirical_dist[:7]))
print(f"  counts 0..6 Poisson:   "
      + " ".join(f"{p:.4f}" for p in stats.poisson.pmf(np.arange(7), spec.mean_photons)))

# dark counts at the bright fringe: parity falls as exp(-2 r_eff)
print()
print("dark-count law at the bright fringe (M=4096, 200k trials):")
for r_eff in (0.01, 0.05, 0.2):
    noisy = DetectorModel(units=4096, dark_rate=r_eff, seed=11)
    run = simulate(spec, 0.0, noisy, trials=200_000)
    exact = parity_expectation_dark(spec, 0.0, r_eff)
    print(f"  r_eff={r_eff:4.2f}: simulated {run.parity_mean:+.5f}  "
          f"exp(-2 r_eff) = {exact:+.5f}  (stderr {run.parity_stderr:.5f})")

# saturation: a small array undercounts bright light, a large one does not
bright = InterferometerSpec(ell=1, mean_photons=10.0)
print()
print("mean click count vs array size at 10 photons on the port:")
for units in (8, 64, 512, 4096):
    run = simulate(bright, math.pi / 4.0, DetectorModel(units=units, seed=3), trials=20_000)
    print(f"  M={units:>4}: {run.counts.mean():7.4f} clicks "
          f"(true mean photon number 10)")

# reproducibility: the same seed gives the same run, bit for bit
a = simulate(spec, 0.3, DetectorModel(units=64, seed=42), trials=10_000)
b = simulate(spec, 0.3, DetectorModel(units=64, seed=42), trials=10_000)
print()
print(f"same seed, same run: counts identical = {bool(np.array_equal(a.counts, b.counts))}")
