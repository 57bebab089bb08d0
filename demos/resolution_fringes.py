"""
Parity fringes and 4*ell-fold super-resolution
==============================================

A coherent OAM beam through the rotation loop produces parity fringes
exp(-2 N sin^2(2 ell phi)): one fringe per quarter turn of the analyzer
per unit of topological charge, 4*ell peaks per full turn, each peak
narrowing as the photon number grows.
"""
import math

import numpy as np

from sagnac_parity import ImperfectionProfile, InterferometerSpec, fringe_figures, parity_expectation_ideal

ideal = ImperfectionProfile()

# one full turn of the Dove prism, three charges
turn = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
print("peaks per turn (expect 4*ell):")
for ell in (1, 2, 3):
    spec = InterferometerSpec(ell=ell, mean_photons=5.0)
    values = parity_expectation_ideal(spec, turn)
    # strict local maxima of the cyclically sampled turn
    peaks = np.count_nonzero((values > np.roll(values, 1)) & (values > np.roll(values, -1)))
    print(f"  ell={ell}: {peaks}")

# fringe narrowing with photon number at fixed charge
print()
print("ell=1 fringe width vs mean photon number:")
print(f"  {'N':>6} {'fwhm (rad)':>12} {'visibility':>11} {'resolution factor':>18}")
for n in (1.0, 2.297, 5.0, 10.0, 20.0):
    visibility, width, factor = fringe_figures(ideal.fringe(InterferometerSpec(ell=1, mean_photons=n)))
    print(f"  {n:6.3f} {width:12.6f} {visibility:11.6f} {factor:18.3f}")

# the classical cos^2 fringe has width pi; the parity fringe beats it by
# the resolution factor, which grows like 2 ell sqrt(2 N / ln 2)
print()
print("charge scaling at N=10 (width halves per unit of ell):")
for ell in (1, 2, 4):
    _, width, _ = fringe_figures(ideal.fringe(InterferometerSpec(ell=ell, mean_photons=10.0)))
    print(f"  ell={ell}: fwhm {width:.6f} rad, ell*fwhm {ell * width:.6f}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    plt = None

if plt is not None:
    phi = np.linspace(0.0, math.pi, 2000)
    fig, ax = plt.subplots(figsize=(7, 4))
    for ell, n in ((1, 2.297), (1, 10.0), (2, 10.0)):
        spec = InterferometerSpec(ell=ell, mean_photons=n)
        ax.plot(phi, parity_expectation_ideal(spec, phi), label=f"ell={ell}, N={n:g}")
    ax.plot(phi, np.cos(phi) ** 2, ":", color="gray", label="classical cos^2")
    ax.set_xlabel("rotation angle phi (rad)")
    ax.set_ylabel("parity expectation")
    ax.legend(loc="upper right", fontsize=8)
    fig.tight_layout()
    fig.savefig("resolution_fringes.png", dpi=120)
    print()
    print("wrote resolution_fringes.png")
