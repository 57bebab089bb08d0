"""
Fringes under realistic imperfections
=====================================

Each hardware imperfection deforms the ideal fringe in its own way:
imperfect OAM preparation (eta) lifts the fringe onto a floor, path loss
and finite detection efficiency wash out the decay, and dark counts damp
the whole curve by exp(-2 r_eff).  The sensitivity floor 1/(4 ell sqrt(N))
degrades accordingly.
"""
import math

from sagnac_parity import (
    ImperfectionProfile,
    InterferometerSpec,
    fringe_figures,
    min_sensitivity,
    parity_expectation,
    parity_expectation_ideal,
)

spec = InterferometerSpec(ell=1, mean_photons=10.0)

profiles = {
    "ideal": ImperfectionProfile(),
    "prep eta=0.8": ImperfectionProfile(eta=0.8),
    "loss Ta=0.9 Tb=0.6": ImperfectionProfile(t_a=0.9, t_b=0.6),
    "efficiency k=0.7": ImperfectionProfile(kappa=0.7),
    "dark r=0.05 j=2": ImperfectionProfile(dark_rate=0.05, jitter_factor=2.0),
    "all of the above": ImperfectionProfile(
        eta=0.8, t_a=0.9, t_b=0.6, kappa=0.7, dark_rate=0.05, jitter_factor=2.0
    ),
}

snl = 1.0 / (4.0 * spec.ell * math.sqrt(spec.mean_photons))
print(f"ell={spec.ell}, N={spec.mean_photons:g}, shot-noise limit {snl:.6f} rad")
print()
print(f"  {'profile':<20} {'peak':>8} {'trough':>8} {'visibility':>11} "
      f"{'fwhm':>8} {'best dphi':>10} {'x SNL':>7}")
for name, profile in profiles.items():
    fringe = profile.fringe(spec)
    # the peak sits at the fringe offset, the trough half a period away
    top = fringe(fringe.offset)
    bottom = fringe(fringe.offset + fringe.period / 2.0)
    visibility, width, _ = fringe_figures(fringe)
    _, best = min_sensitivity(profile.fringe(spec))
    print(
        f"  {name:<20} {top:8.4f} {bottom:8.4f} {visibility:11.4f} "
        f"{width:8.4f} {best:10.6f} {best / snl:7.3f}"
    )

# a prep infidelity of eta leaves a 1-eta pedestal that parity cannot
# distinguish from signal, so the best sensitivity scales like 1/sqrt(eta)
print()
print("preparation fidelity vs sensitivity penalty (expect 1/sqrt(eta)):")
for eta in (1.0, 0.8, 0.5, 0.25):
    _, best = min_sensitivity(ImperfectionProfile(eta=eta).fringe(spec))
    print(f"  eta={eta:5.2f}: best {best:.6f} rad  penalty {best / snl:.4f} "
          f"vs 1/sqrt(eta) = {1.0 / math.sqrt(eta):.4f}")

# dark counts multiply the fringe without moving its half-level crossings,
# so the width survives even when the amplitude drops
print()
print("dark counts damp the amplitude but preserve the width:")
_, clean_width, _ = fringe_figures(ImperfectionProfile().fringe(spec))
for r in (0.0, 0.1, 0.5):
    fringe = ImperfectionProfile(dark_rate=r).fringe(spec)
    _, width, _ = fringe_figures(fringe)
    print(f"  r_eff={r:4.2f}: peak {fringe(fringe.offset):.4f}  "
          f"fwhm {width:.6f} (ideal {clean_width:.6f})")

# the composed curve is the product of its family factors
phi = 0.2
composed = parity_expectation(spec, phi, profiles["all of the above"])
print()
print(f"composed expectation at phi={phi}: {composed:.6f} "
      f"(ideal would be {parity_expectation_ideal(spec, phi):.6f})")
