"""Displacement operators and their similarity, factorization, and
intertwining identities.

``W(z) = exp(z c^dag - conj(z) c)`` is unitary in truncation because the
hard-cutoff ladder pair keeps the generator exactly anti-self-adjoint.
The non-unitary displacements are defined by similarity,
``U(z) = S W(z) S^{-1}`` and ``V(z) = (S^{-1})^dag W(z) S^dag``, which is
exact in finite dimension; exponentiating ``z b - conj(z) a`` directly is
the roundoff-prone route and appears only inside the checks that
quantify it.

Amplitudes obey the accuracy regime ``|z|^2 <= dim/4``, where the
truncated coherent tail is below 1e-12.  Calls outside the regime warn
(:class:`AccuracyRegimeWarning`) instead of failing so convergence
studies can cross the boundary deliberately.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .algebra import PseudoBosonPair
from .errors import AccuracyRegimeWarning, ProvenanceError
from .fock import FockSpace, Operator, SafeSubspace, ladder_c
from .riesz import MetricOperator, RieszMap

__all__ = [
    "DisplacementSet",
    "in_accuracy_regime",
    "weyl",
    "displaced_pair",
    "power_similarity_check",
    "bch_factorization_check",
    "intertwining_check",
]


@dataclass(frozen=True, eq=False)
class DisplacementSet:
    """The three displacement operators at a common amplitude ``z``."""

    z: complex
    W: Operator
    U: Operator
    V: Operator
    source: RieszMap
    in_regime: bool


def in_accuracy_regime(space: FockSpace, z: complex) -> bool:
    """True when ``|z|^2 <= dim/4``."""
    return abs(z) ** 2 <= space.dim / 4.0


def _warn_if_out_of_regime(space: FockSpace, z: complex) -> bool:
    ok = in_accuracy_regime(space, z)
    if not ok:
        warnings.warn(
            f"|z|^2 = {abs(z)**2:.2f} exceeds dim/4 = {space.dim / 4:.2f}; "
            "truncation tails are no longer below 1e-12",
            AccuracyRegimeWarning,
            stacklevel=3,
        )
    return ok


def weyl(space: FockSpace, z: complex) -> Operator:
    """Unitary displacement ``W(z) = exp(z c^dag - conj(z) c)``.

    Uses scaling-and-squaring Pade exponentiation of the (exactly
    anti-self-adjoint) truncated generator.
    """
    _warn_if_out_of_regime(space, z)
    c = ladder_c(space).mat
    generator = z * c.conj().T + (-np.conj(z)) * c
    return Operator(space, expm(generator))


def displaced_pair(riesz: RieszMap, z: complex) -> DisplacementSet:
    """Build ``U(z) = S W(z) S^{-1}`` and ``V(z) = (S^{-1})^dag W(z) S^dag``
    by similarity from the unitary displacement."""
    space = riesz.space
    in_regime = in_accuracy_regime(space, z)
    W = weyl(space, z)
    Sm, Sim = riesz.S.mat, riesz.S_inv.mat
    U = Operator(space, Sm @ W.mat @ Sim)
    V = Operator(space, Sim.conj().T @ W.mat @ Sm.conj().T)
    return DisplacementSet(z=complex(z), W=W, U=U, V=V, source=riesz, in_regime=in_regime)


def _relative_norm(diff: np.ndarray, ref: np.ndarray, sub: SafeSubspace) -> float:
    """``||diff|| / ||ref||`` on ``sub`` (spectral norms)."""
    k = sub.cutoff
    scale = max(float(np.linalg.norm(ref[:k, :k], 2)), 1e-300)
    return float(np.linalg.norm(diff[:k, :k], 2)) / scale


def power_similarity_check(pair: PseudoBosonPair, z: complex, k_max: int = 5) -> np.ndarray:
    """Relative residuals of
    ``S (z c^dag - conj(z) c)^k S^{-1} = (z b - conj(z) a)^k``,
    indexed by ``k = 0 .. k_max``, evaluated on the safe subspace with a
    ``k_max``-level top margin.
    """
    if not 0 <= k_max <= 12:
        raise ValueError(f"k_max must be in [0, 12], got {k_max}")
    space = pair.space
    sub = SafeSubspace(space, space.dim - k_max) if k_max > 0 else SafeSubspace(space, space.dim - 1)
    c = ladder_c(space).mat
    G = z * c.conj().T + (-np.conj(z)) * c
    D = z * pair.b.mat + (-np.conj(z)) * pair.a.mat
    Sm, Sim = pair.source.S.mat, pair.source.S_inv.mat
    Gk = np.eye(space.dim, dtype=complex)
    Dk = np.eye(space.dim, dtype=complex)
    residuals = np.zeros(k_max + 1)
    for k in range(k_max + 1):
        # k = 0 is the exact identity on both sides; evaluating the product
        # would only re-measure inverse roundoff
        lhs = np.eye(space.dim, dtype=complex) if k == 0 else Sm @ Gk @ Sim
        residuals[k] = _relative_norm(lhs - Dk, Dk, sub)
        Gk = G @ Gk
        Dk = D @ Dk
    return residuals


def bch_factorization_check(
    pair: PseudoBosonPair, disp: DisplacementSet, sub: SafeSubspace
) -> tuple[float, float]:
    """Relative residuals ``(r_u, r_v)`` of the normal-ordered factorizations
    ``U(z) = e^{-|z|^2/2} e^{z b} e^{-conj(z) a}`` and
    ``V(z) = e^{-|z|^2/2} e^{z a^dag} e^{-conj(z) b^dag}`` on ``sub``.

    ``U`` and ``V`` come from ``disp``; the exponentials of the pair are
    computed here, since they are the independent route this check
    tests.  The factorization is exact under the commutation relation,
    so the restricted residual measures pure truncation tail; ``sub``
    should leave a margin of at least ``ceil(4 |z|^2)`` levels, otherwise
    an :class:`AccuracyRegimeWarning` is issued.  Raises
    :class:`ProvenanceError` if ``pair`` and ``disp`` come from different
    maps.
    """
    if not np.array_equal(pair.source.S.mat, disp.source.S.mat):
        raise ProvenanceError("pair and displacements come from different maps")
    z = disp.z
    margin = pair.space.dim - math.ceil(4 * abs(z) ** 2)
    if sub.cutoff > margin:
        warnings.warn(
            f"cutoff {sub.cutoff} exceeds dim - ceil(4|z|^2) = {margin}; "
            "factorization residual will include unsuppressed tail",
            AccuracyRegimeWarning,
            stacklevel=2,
        )
    gauss = np.exp(-abs(z) ** 2 / 2)
    a, b = pair.a.mat, pair.b.mat
    U, V = disp.U.mat, disp.V.mat
    U_fact = gauss * (expm(z * b) @ expm(-np.conj(z) * a))
    V_fact = gauss * (expm(z * a.conj().T) @ expm(-np.conj(z) * b.conj().T))
    return _relative_norm(U - U_fact, U, sub), _relative_norm(V - V_fact, V, sub)


def intertwining_check(
    disp: DisplacementSet, metric: MetricOperator, sub: SafeSubspace
) -> float:
    """Residual of ``S S^dag V(z) = U(z) S S^dag`` on ``sub``, relative
    to ``||S S^dag||``.  Both sides telescope to ``S W(z) S^dag``, so the
    residual is pure roundoff.  Raises :class:`ProvenanceError` if
    ``disp`` and ``metric`` come from different maps."""
    if not np.array_equal(disp.source.S.mat, metric.source.S.mat):
        raise ProvenanceError("displacements and metric operator come from different maps")
    M = metric.theta_inv.mat  # S S^dag
    k = sub.cutoff
    diff = float(np.linalg.norm((M @ disp.V.mat - disp.U.mat @ M)[:k, :k], 2))
    return diff / float(np.linalg.norm(M, 2))
