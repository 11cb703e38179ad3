"""
Pseudo-bosonic pairs on a truncated Fock space
==============================================

A walk through the core construction: the canonical ladder pair with its
hard-cutoff corner defect, an invertible map S, the transported pair
(a, b) = (S c S^-1, S c^dag S^-1) with b != a^dag, and the verification
of the vacuum assumptions by singular-vector extraction.
"""

import numpy as np

from pseudoboson import (
    FockSpace,
    ladder_c,
    ladder_c_dag,
    make_pair,
    random_riesz_map,
    vacua,
)

# A truncated space keeps the first `dim` number states.
space = FockSpace(16)
c = ladder_c(space)
c_dag = ladder_c_dag(space)

print("lowering operator acts as c e_n = sqrt(n) e_(n-1):")
print(np.round(c.mat[:4, :4].real, 6))

# The hard cutoff confines the commutator defect to one corner entry;
# the safe subspace is the block below it, k = dim - 1.
k = space.dim - 1
comm = c.mat @ c_dag.mat - c_dag.mat @ c.mat
print("\n[c, c^dag] diagonal:", np.round(np.diag(comm).real, 12))
print("||[c, c^dag] - I|| below the corner:",
      np.linalg.norm(comm[:k, :k] - np.eye(k), 2))

# Transport through a random invertible map: the pair satisfies the same
# commutation relation, but b is no longer the adjoint of a.
riesz = random_riesz_map(space, target_cond=10.0, seed=1)
pair = make_pair(riesz)
print("\nrandom map: cond(S) =", round(riesz.cond, 12))
print("||b - a^dag|| =", round(np.linalg.norm(pair.b.mat - pair.a.mat.conj().T, 2), 4),
      " (genuinely non-self-adjoint pair)")
a, b = pair.a.mat, pair.b.mat
print("||[a, b] - I|| on the safe subspace:",
      np.linalg.norm((a @ b - b @ a)[:k, :k] - np.eye(k), 2))

# The vacua are *found*, not assumed: right-singular vectors of a and
# b^dag for their smallest singular values, then compared against the
# closed forms S e_0 and (S^-1)^dag e_0.
phi0, psi0 = vacua(pair)
print("\n||a phi_0|| =", np.linalg.norm(pair.a.mat @ phi0))
print("||b^dag psi_0|| =", np.linalg.norm(pair.b.mat.conj().T @ psi0))
print("<phi_0, psi_0> =", np.vdot(phi0, psi0))
direction = riesz.S.mat[:, 0] / np.linalg.norm(riesz.S.mat[:, 0])
overlap = np.vdot(phi0, direction)
print("extracted phi_0 vs S e_0 direction (up to phase):",
      np.linalg.norm(phi0 * overlap / abs(overlap) - direction))
