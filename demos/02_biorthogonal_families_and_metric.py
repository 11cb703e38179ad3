"""
Biorthogonal families and the metric operator
=============================================

The columns phi_n = S e_n and psi_n = (S^-1)^dag e_n are exactly
biorthogonal in finite dimension.  The positive metric operator maps one
family onto the other, equals the rank-one sum over the dual family, and
conjugates a into b^dag.  The ladder recursion reproduces the columns.
"""

import numpy as np

from pseudoboson import (
    SafeSubspace,
    biorthogonal_family,
    excited_states,
    ladder_check,
    make_pair,
    make_space,
    metric_operator,
    number_operator_check,
    quasi_basis_check,
    random_riesz_map,
    theta_conjugacy_check,
    theta_rank_one_sums,
    vacua_from_map,
)
from pseudoboson.reports import default_tolerance

space = make_space(32)
riesz = random_riesz_map(space, target_cond=10.0, seed=7)
fam = biorthogonal_family(riesz)

print("biorthogonality: max |<phi_n, psi_m> - delta_nm| =",
      np.abs(fam.gram() - np.eye(space.dim)).max())

# Metric operator: positive, self-adjoint, Theta phi_n = psi_n.
met = metric_operator(riesz)
eigs = np.linalg.eigvalsh(met.theta.mat)
A, B = riesz.frame_bounds
print("\nmetric spectrum inside [1/B, 1/A]:",
      eigs[0] >= 1 / B - 1e-12 and eigs[-1] <= 1 / A + 1e-12)
print("max ||Theta phi_n - psi_n|| =",
      np.linalg.norm(met.theta.mat @ fam.phi - fam.psi, axis=0).max())

theta_sum, theta_inv_sum = theta_rank_one_sums(fam)
print("||sum |psi><psi| - Theta|| =",
      np.linalg.norm(theta_sum.mat - met.theta.mat, 2))
print("||sum |phi><phi| - Theta^-1|| =",
      np.linalg.norm(theta_inv_sum.mat - met.theta_inv.mat, 2))

# Weak resolution of the identity through the family.
rng = np.random.default_rng(0)
f = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
g = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
direct, via_phi, via_psi = quasi_basis_check(fam, f, g)
print("\nquasi-basis check: |direct - via families| =",
      abs(direct - via_phi), abs(direct - via_psi))

# The excited families grown by the ladder recursion agree with the
# columns, and satisfy all four ladder relations plus N phi_n = n phi_n.
pair = make_pair(riesz)
grown = excited_states(pair, vacua_from_map(riesz), n_max=space.dim // 2)
dev = np.linalg.norm(grown.phi - fam.phi[:, : space.dim // 2 + 1], axis=0).max()
print("\nladder-recursion vs columns, max deviation:", dev)
print("worst ladder residual:",
      max(r.max() for r in ladder_check(pair, fam).values()))
print("worst number-operator residual:",
      max(r.max() for r in number_operator_check(pair, fam)))

# Metric conjugation a = Theta^-1 b^dag Theta on the safe subspace.
residual = theta_conjugacy_check(pair, met, SafeSubspace(space, space.dim - 1))
print("\nmetric-conjugation residual:", residual,
      "(tolerance", f"{default_tolerance('theta_conjugacy', riesz.cond):.1e})")
