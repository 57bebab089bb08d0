"""
Fisher information and the Cramer-Rao bound
===========================================

The rotation loop's quantum Fisher information is F = 16 ell^2 N, twice
the single-pass Mach-Zehnder value 8 ell^2 N; averaging the Mach-Zehnder
over an unknown optical phase halves it again to 4 ell^2 N.  The parity
readout saturates the loop's bound: its best sensitivity over the fringe
equals 1/sqrt(F) exactly.
"""
import math

import numpy as np

from sagnac_parity import (
    FockTruncation,
    ImperfectionProfile,
    InterferometerSpec,
    crb_sensitivity,
    joint_distribution,
    min_sensitivity,
    qfi_mzi,
    qfi_mzi_phase_averaged,
    qfi_report,
    qfi_si,
)

print("Fisher information at N=10:")
print(f"  {'ell':>4} {'loop':>8} {'Mach-Zehnder':>13} {'phase-averaged':>15}")
for ell in (1, 2, 3, 5):
    print(
        f"  {ell:>4} {qfi_si(ell, 10.0):8.1f} {qfi_mzi(ell, 10.0):13.1f} "
        f"{qfi_mzi_phase_averaged(ell, 10.0):15.6f}"
    )

# the parity readout achieves the loop bound: compare the minimum of the
# error-propagation sensitivity against 1/sqrt(16 ell^2 N)
print()
print("parity readout vs quantum bound (nu = 1 trial):")
ideal = ImperfectionProfile()
print(f"  {'ell':>4} {'N':>6} {'achieved dphi':>14} {'bound 1/sqrt(F)':>16} {'ratio':>8}")
for ell, n in ((1, 1.0), (1, 10.0), (3, 10.0), (5, 20.0)):
    spec = InterferometerSpec(ell=ell, mean_photons=n)
    _, achieved = min_sensitivity(ideal.fringe(spec))
    bound = crb_sensitivity(qfi_si(ell, n))
    print(f"  {ell:>4} {n:6.1f} {achieved:14.8f} {bound:16.8f} {achieved / bound:8.5f}")

# repeated trials tighten the bound by 1/sqrt(nu)
print()
print("bound vs number of repetitions (ell=1, N=2.297):")
for nu in (1, 10, 100, 10_000):
    bound = qfi_report(1, 2.297, trials=nu)["bound_si"]
    print(f"  nu={nu:>6}: dphi_min = {bound:.6f} rad")

# the phase-averaged information is 4 ell^2 times the mean photon number:
# summed term by term over the truncated Fock lattice, sum_n p_n 4 ell^2 n
# falls short of the closed form by the lattice's cut tail
print()
print("Fock-lattice sum vs closed form 4N (ell=1):")
for n in (1.0, 5.0, 20.0):
    trunc = FockTruncation.for_mean_photons(n)
    probs = joint_distribution(InterferometerSpec(ell=1, mean_photons=n), 0.0, trunc).probs
    photons = np.add.outer(np.arange(trunc.n_max + 1), np.arange(trunc.n_max + 1))
    value = 4.0 * float(np.sum(probs * photons))
    closed = qfi_mzi_phase_averaged(1, n)
    print(f"  N={n:5.1f}: sum {value:.12f}  closed form {closed:.1f}  gap {closed - value:.2e}")

# loop vs Mach-Zehnder advantage is a constant factor sqrt(2) in dphi
print()
gain = crb_sensitivity(qfi_mzi(1, 10.0)) / crb_sensitivity(qfi_si(1, 10.0))
print(f"loop improves dphi over the Mach-Zehnder by {gain:.6f} (sqrt(2) = {math.sqrt(2):.6f})")
