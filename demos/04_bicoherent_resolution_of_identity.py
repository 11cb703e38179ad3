"""
Bicoherent states and the quadrature resolution of the identity
===============================================================

The pair eta(z) = S Phi(z), xi(z) = (S^-1)^dag Phi(z) keeps unit pairing,
solves the eigen-relations of (a, b^dag), and resolves the identity under
the planar integral, realized here by Gauss-Laguerre x uniform-angle
quadrature that integrates every matrix element exactly.  Halving the
radial rule to a quarter of the dimension destroys the top moments; that
degradation is the guard against miscounted Gaussian weights.
"""

import warnings

import numpy as np

from pseudoboson import (
    FockSpace,
    UnderResolvedWarning,
    coherent,
    coherent_tail_bound,
    eigen_check,
    make_pair,
    make_quadrature,
    random_riesz_map,
    rbcs,
    resolution_of_identity,
    resolution_operator,
    series_route,
    weyl,
)

space = FockSpace(64)
riesz = random_riesz_map(space, target_cond=10.0, seed=3)
pair = make_pair(riesz)
z = 1.0 + 1.0j

# Two routes to the same coherent state: matrix exponential vs series.
print("Weyl route vs series route:",
      np.linalg.norm(weyl(space, z).mat[:, 0] - coherent(space, z)))
print("truncation tail bound:", coherent_tail_bound(space.dim, z))

# Bicoherent pair: unit pairing and eigen-relations.
bc = rbcs(riesz, z)
print("\n<eta(z), xi(z)> =", np.vdot(bc.eta, bc.xi))
r_eta, r_xi = eigen_check(pair, bc)
print("eigen residuals  a eta = z eta:", r_eta, "  b^dag xi = z xi:", r_xi)

# Third route: the coherent series over the excited families.
[(phi_s, psi_s)] = series_route(pair, [bc])
print("series route vs mapped route:",
      np.linalg.norm(phi_s - bc.eta), np.linalg.norm(psi_s - bc.xi))

# Resolution of the identity by exact quadrature.
quad = make_quadrature(space.dim, space.dim, 2 * space.dim + 1)
print("\nradial moment rule passes k! test up to k = dim (validated at build)")
print("||R - I|| at full resolution:", resolution_of_identity(riesz, quad))

rng = np.random.default_rng(1)
f = rng.standard_normal(64) + 1j * rng.standard_normal(64)
g = rng.standard_normal(64) + 1j * rng.standard_normal(64)
direct, integrated = np.vdot(f, g), np.vdot(f, resolution_operator(riesz, quad).mat @ g)
print("weak pairing <f,g> vs integral:", abs(direct - integrated))

# Negative control: a quarter-resolution rule loses the top moments.
print("\nunder-resolution study (deviation ||R - I||):")
for radial in (space.dim, space.dim // 2, space.dim // 4):
    reduced = make_quadrature(radial, radial, 2 * space.dim + 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnderResolvedWarning)
        dev = resolution_of_identity(riesz, reduced)
    note = "(exact: n nodes integrate moments up to 2n-1)" if radial >= space.dim // 2 else "(degraded)"
    print(f"  radial={radial:3d}: {dev:.3e} {note}")
