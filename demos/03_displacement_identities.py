"""
Displacement operators: similarity, factorization, intertwining
===============================================================

The unitary displacement W(z) and its non-unitary relatives
U(z) = S W(z) S^-1 and V(z) = (S^-1)^dag W(z) S^dag.  Every identity is
quantified: powers of the generator transport through S exactly, the
normal-ordered factorization holds up to a truncation tail that dies as
the space grows, and S S^dag intertwines V into U to roundoff.
"""

import numpy as np

from pseudoboson import (
    FockSpace,
    bch_factorization_check,
    displaced_pair,
    intertwining_check,
    make_pair,
    power_similarity_check,
    projector_map,
    weyl,
)

space = FockSpace(64)
riesz = projector_map(space, space.basis_vector(0))
pair = make_pair(riesz)
z = 1.0 + 1.0j

W = weyl(space, z).mat
print("||W(z)^dag W(z) - I|| =", np.linalg.norm(W.conj().T @ W - np.eye(64), 2))
print("||W(z) W(-z) - I||   =", np.linalg.norm(W @ weyl(space, -z).mat - np.eye(64), 2))

U = riesz.S.mat @ W @ riesz.S_inv.mat
print("\n||U(z)|| =", round(np.linalg.norm(U, 2), 6), "<= cond(S) =", round(riesz.cond, 6))

# Powers of the generator: S (z c^dag - conj(z) c)^k S^-1 = (z b - conj(z) a)^k.
print("\npower-similarity relative residuals, k = 0..5:")
for k, residual in enumerate(power_similarity_check(pair, z)):
    print(f"  k={k}: {residual:.3e}")

# Normal-ordered factorization on the levels :8: exact under the
# commutation relation, so the residual is pure truncation tail.  At dim 16
# the cutoff 8 lies above the margin min(dim // 2, dim - ceil(4|z|^2) - 6) = 6,
# and the check warns (AccuracyRegimeWarning) that the tail is not suppressed.
print("\nfactorization residuals at half-space cutoffs, fixed z = 1:")
for dim in (16, 32, 64):
    sp = FockSpace(dim)
    rz = projector_map(sp, sp.basis_vector(0))
    r_u, r_v = bch_factorization_check(displaced_pair(rz, 1.0), 8)
    print(f"  dim={dim:3d}: {max(r_u, r_v):.3e}")

# Intertwining: S S^dag V(z) = U(z) S S^dag, exact in truncation.  The set
# holds the strips of U and V where they differ from W(z), which are all
# that intertwining reads; the factorization forms the block of W it reads.
disp = displaced_pair(riesz, z)
print("\nintertwining relative residual:", intertwining_check(disp))

# Group law with its metaplectic phase.
w = 0.5 - 0.25j
lhs = weyl(space, z).mat @ weyl(space, w).mat
rhs = np.exp(1j * (z * np.conj(w)).imag) * weyl(space, z + w).mat
print("group-law residual on the half-space:",
      np.linalg.norm((lhs - rhs)[:32, :32], 2))
