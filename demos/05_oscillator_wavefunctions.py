"""
Harmonic-oscillator bicoherent wavefunctions in closed form
===========================================================

The rank-one projector map T = 1 + i|e_0><e_0| has the closed-form
inverse 1 - (1+i)/2 |e_0><e_0|, and the resulting bicoherent pair has
explicit coordinate-space wavefunctions.  This script evaluates them,
checks the pairing integral, cross-validates against the number-basis
route, and writes plot-ready CSV files.
"""

from pathlib import Path

import numpy as np

from pseudoboson import (
    FockSpace,
    coherent_wavefunction,
    cross_validate,
    example_wavefunctions,
    gauss_hermite_grid,
    hermite_stack,
    projector_map,
    rbcs,
    write_wavefunction_csv,
)

print("ground state at the origin:", hermite_stack(0, 0.0)[0, 0], "= pi^(-1/4)")

z = 1.0
phi0, psi0 = example_wavefunctions(z, np.array([0.0]))
print(f"\nclosed forms at x = 0, z = {z}:")
print("  phi_z(0) =", phi0[0])
print("  psi_z(0) =", psi0[0])

# The coherent profile is normalized and solves the annihilation
# eigen-relation (checked by central differences elsewhere).
x, w = gauss_hermite_grid(80)
for zz in (1.0, 1 + 1j, 2j):
    profile = coherent_wavefunction(zz, x)
    norm = np.sum(w * np.abs(profile) ** 2)
    phi, psi = example_wavefunctions(zz, x)
    pairing = np.sum(w * np.conj(phi) * psi)
    print(f"z = {zz}: ||Phi_z||^2 = {norm:.12f},  integral conj(phi) psi = {pairing:.12f}")

# Cross-validation: the bicoherent pair built from number-basis coefficients
# (T and (T^-1)^dag applied to the truncated coherent vector, expanded over
# Hermite functions) matches the closed forms in L2.
print("\ncross-validation against the number-basis route (dim = 64):")
space = FockSpace(64)
riesz = projector_map(space, space.basis_vector(0))
for zz in (1.0, 1 + 1j, 2j):
    cv = cross_validate(rbcs(riesz, zz))
    print(f"  z = {zz}: L2 deviations {cv.l2_dev_phi:.2e} / {cv.l2_dev_psi:.2e}, "
          f"pairing - 1 = {abs(cv.pairing - 1):.2e}")

# Plot-ready CSVs, one per amplitude.
out = Path("wavefunctions_out")
out.mkdir(exist_ok=True)
grid = np.linspace(-6.0, 6.0, 601)
for i, zz in enumerate((1.0, 1 + 1j, 2j)):
    path = write_wavefunction_csv(out / f"wavefunctions_z{i}.csv", zz, grid)
    print("wrote", path)
