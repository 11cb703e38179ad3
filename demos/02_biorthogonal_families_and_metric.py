"""
Biorthogonal families and the metric operator
=============================================

The columns phi_n = S e_n and psi_n = (S^-1)^dag e_n are exactly
biorthogonal in finite dimension.  The positive metric operator maps one
family onto the other, equals the rank-one sum over the dual family, and
conjugates a into b^dag.  The ladder pair raises and lowers the columns.
The families are the map's own columns and the metric is held by the map,
all read here as dense views.
"""

import numpy as np

from pseudoboson import (
    FockSpace,
    ladder_check,
    make_pair,
    number_operator_check,
    random_riesz_map,
    theta_conjugacy_check,
)
from pseudoboson.reports import default_tolerance

space = FockSpace(32)
riesz = random_riesz_map(space, target_cond=10.0, seed=7)
phi, psi = riesz.S.mat, riesz.S_inv.mat.conj().T  # columns phi_n and psi_n

print("biorthogonality: max |<phi_n, psi_m> - delta_nm| =",
      np.abs(phi.conj().T @ psi - np.eye(space.dim)).max())

# Metric operator: positive, self-adjoint, Theta phi_n = psi_n.
theta, theta_inv = riesz.theta.mat, riesz.theta_inv.mat
eigs = np.linalg.eigvalsh(theta)
A, B = riesz.frame_bounds
print("\nmetric spectrum inside [1/B, 1/A]:",
      eigs[0] >= 1 / B - 1e-12 and eigs[-1] <= 1 / A + 1e-12)
print("max ||Theta phi_n - psi_n|| =",
      np.linalg.norm(theta @ phi - psi, axis=0).max())

print("||sum |psi><psi| - Theta|| =",
      np.linalg.norm(psi @ psi.conj().T - theta, 2))
print("||sum |phi><phi| - Theta^-1|| =",
      np.linalg.norm(phi @ phi.conj().T - theta_inv, 2))

# Weak resolution of the identity through the family.
rng = np.random.default_rng(0)
f = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
g = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
direct = np.vdot(f, g)
via_phi = (f.conj() @ phi) @ (psi.conj().T @ g)
via_psi = (f.conj() @ psi) @ (phi.conj().T @ g)
print("\nquasi-basis check: |direct - via families| =",
      abs(direct - via_phi), abs(direct - via_psi))

# The columns satisfy all four ladder relations plus N phi_n = n phi_n.
pair = make_pair(riesz)
print("\nworst ladder residual:",
      max(r.max() for r in ladder_check(pair).values()))
print("worst number-operator residual:",
      max(r.max() for r in number_operator_check(pair)))

# Metric conjugation a = Theta^-1 b^dag Theta below the truncation corner.
residual = theta_conjugacy_check(pair)
print("\nmetric-conjugation residual:", residual,
      "(tolerance", f"{default_tolerance('theta_conjugacy', riesz.cond):.1e})")
