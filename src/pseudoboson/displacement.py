"""Displacement operators and their similarity, factorization, and
intertwining identities.

``W(z) = exp(z c^dag - conj(z) c)`` is unitary in truncation because the
hard-cutoff ladder pair keeps the generator exactly anti-self-adjoint.
It is evaluated spectrally: the generator is ``-i sqrt(2)|z| D X D^*``
with the real tridiagonal position matrix ``X = (c + c^dag)/sqrt(2)``
and the diagonal unitary ``D = diag((i e^{i arg z})^n)``, so one
eigendecomposition ``X = Q diag(lam) Q^T`` per dimension (the
Golub-Welsch matrix of Gauss-Hermite quadrature) serves every amplitude.
The non-unitary displacements are defined by similarity,
``U(z) = S W(z) S^{-1}`` and ``V(z) = (S^{-1})^dag W(z) S^dag``, which is
exact in finite dimension.

The normal-ordered factor ``e^{-|z|^2/2} e^{z c^dag} e^{-conj(z) c}`` is
the low block of the untruncated displacement, whose entries are the
Laguerre closed form of Cahill & Glauber (Phys. Rev. 177, 1857, 1969);
no matrix exponential is formed anywhere.

Amplitudes obey the accuracy regime ``|z|^2 <= dim/4``, where the
truncated coherent tail is below 1e-12.  Calls outside the regime warn
(:class:`AccuracyRegimeWarning`) instead of failing so convergence
studies can cross the boundary deliberately.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .algebra import PseudoBosonPair
from .errors import AccuracyRegimeWarning, ProvenanceError
from .fock import FockSpace, Operator, SafeSubspace, _spectral_norm
from .riesz import MetricOperator, RieszMap, _cotransport, _lmul, _rmul, _transport

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


@functools.lru_cache(maxsize=4)
def _position_spectrum(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and orthonormal eigenvectors of the truncated position
    matrix ``X = (c + c^dag)/sqrt(2)``, as read-only arrays."""
    off = np.sqrt(np.arange(1, dim) / 2.0)
    lam, Q = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    lam.setflags(write=False)
    Q.setflags(write=False)
    return lam, Q


def _phase_powers(u: complex, n: int) -> np.ndarray:
    """``u^k`` for ``k < n`` and a unit ``u``, as ``e^{i k arg u}``.

    The angle is split into a 24-bit head, whose products with ``k`` are
    exact, and a tiny remainder; rounding ``k arg u`` directly would put
    phase errors near ``k * 1e-16`` (1e-13 at ``k = 512``) into every
    entry of ``W``.
    """
    theta = float(np.angle(u))
    head = math.ldexp(round(math.ldexp(theta, 24)), -24)
    k = np.arange(n)
    return np.exp(1j * (k * head)) * np.exp(1j * (k * (theta - head)))


def weyl(space: FockSpace, z: complex) -> Operator:
    """Unitary displacement ``W(z) = exp(z c^dag - conj(z) c)``.

    Evaluated as ``D Q e^{-i sqrt(2)|z| diag(lam)} Q^T D^*`` from the
    cached spectrum of the position matrix (module docstring);
    ``W(0)`` is the exact identity.
    """
    _warn_if_out_of_regime(space, z)
    d = space.dim
    if z == 0:
        return Operator(space, np.eye(d))
    lam, Q = _position_spectrum(d)
    angle = -math.sqrt(2.0) * abs(z) * lam
    middle = (Q * np.cos(angle)) @ Q.T + 1j * ((Q * np.sin(angle)) @ Q.T)
    diag = _phase_powers(1j * z / abs(z), d)
    return Operator(space, (diag[:, None] * middle) * diag.conj())


def displaced_pair(riesz: RieszMap, z: complex) -> DisplacementSet:
    """Build ``U(z) = S W(z) S^{-1}`` and ``V(z) = (S^{-1})^dag W(z) S^dag``
    by similarity from the unitary displacement."""
    space = riesz.space
    in_regime = in_accuracy_regime(space, z)
    W = weyl(space, z)
    U = Operator(space, _transport(riesz, W.mat))
    V = Operator(space, _cotransport(riesz, W.mat))
    return DisplacementSet(z=complex(z), W=W, U=U, V=V, source=riesz, in_regime=in_regime)


def _relative_norm(diff: np.ndarray, ref: np.ndarray) -> float:
    """``||diff|| / ||ref||`` (spectral norms)."""
    return _spectral_norm(diff) / max(_spectral_norm(ref), 1e-300)


def _times_generator(T: np.ndarray, z: complex) -> np.ndarray:
    """``T G`` for the tridiagonal ``G = z c^dag - conj(z) c``, in O(T.size):
    column ``n`` of the product is
    ``z sqrt(n+1) T[:, n+1] - conj(z) sqrt(n) T[:, n-1]``."""
    s = np.sqrt(np.arange(1.0, T.shape[1]))
    out = np.zeros_like(T)
    out[:, :-1] = (z * s) * T[:, 1:]
    out[:, 1:] -= (np.conj(z) * s) * T[:, :-1]
    return out


def power_similarity_check(pair: PseudoBosonPair, z: complex, k_max: int = 5) -> np.ndarray:
    """Relative residuals of
    ``S (z c^dag - conj(z) c)^k S^{-1} = (z b - conj(z) a)^k``,
    indexed by ``k = 0 .. k_max``, evaluated on the safe subspace with a
    ``k_max``-level top margin.

    Both powers are carried row-restricted to that subspace:
    ``S G^k`` by a banded update per ``k`` (``G`` is tridiagonal) and
    ``D^k`` by one product with ``D = z b - conj(z) a`` per ``k > 1``.  ``k = 0`` is
    the exact identity on both sides and reads 0, as does every ``k`` at
    ``z = 0``, where both generators vanish.

    Each residual is homogeneous of degree 0 in ``z``, so both powers are
    carried at ``z 2^-floor(log2 |z|)``, of modulus in ``[1, 2)``: scaling
    by a power of two rounds nothing, and no ``|z|`` overflows the powers.
    """
    if not 0 <= k_max <= 12:
        raise ValueError(f"k_max must be in [0, 12], got {k_max}")
    if z == 0:
        return np.zeros(k_max + 1)
    shift = 1 - math.frexp(abs(z))[1]
    z = complex(math.ldexp(z.real, shift), math.ldexp(z.imag, shift))
    space = pair.space
    cut = SafeSubspace(space, space.dim - max(k_max, 1)).cutoff
    D = z * pair.b.mat + (-np.conj(z)) * pair.a.mat
    p = pair.source.block
    S_inv_block = pair.source.S_inv.mat[:p, :p]
    SGk = pair.source.S.mat[:cut]
    residuals = np.zeros(k_max + 1)
    for k in range(1, k_max + 1):
        SGk = _times_generator(SGk, z)
        Dk = Dk @ D if k > 1 else D[:cut]
        residuals[k] = _relative_norm(_rmul(SGk, S_inv_block, cut) - Dk[:, :cut], Dk[:, :cut])
    return residuals


def _displacement_block(z: complex, d: int) -> np.ndarray:
    """The ``d x d`` block ``<m|D(z)|n>`` of the untruncated displacement,
    ``sqrt(n!/m!) z^{m-n} e^{-|z|^2/2} L_n^{(m-n)}(|z|^2)`` for ``m >= n``
    and its mirror ``(-conj z)^{n-m}`` above the diagonal.

    Each diagonal ``k = m - n`` runs the three-term Laguerre recurrence on
    the scaled entries ``e_n = sqrt(n!/(n+k)!) |z|^k e^{-|z|^2/2}
    L_n^{(k)}(|z|^2)``, all diagonals at once.  Up to a phase they are
    entries of a unitary, hence at most 1 in size, so nothing overflows;
    far diagonals underflow to 0 where the entries are negligible.  The
    recurrence runs in long double: for small ``|z|`` its coefficients
    nearly cancel and float64 drifts to 2e-12 at ``d = 512``.
    """
    if z == 0:
        return np.eye(d, dtype=complex)
    x = np.longdouble(abs(z) ** 2)
    k = np.arange(d, dtype=np.longdouble)
    log_fact = np.array([math.lgamma(j + 1.0) for j in range(d)], dtype=np.longdouble)
    e_prev = np.zeros(d, dtype=np.longdouble)
    e = np.exp(k * np.longdouble(math.log(abs(z))) - log_fact / 2 - x / 2)
    scaled = np.zeros((d, d))  # scaled[n + k, n] = e_n on diagonal k
    for n in range(d):
        live = d - n  # diagonals that still reach column n
        scaled[n:, n] = e[:live]
        kl = k[:live]
        step = (2 * n + 1 + kl - x) * e[:live] - np.sqrt(n * (n + kl)) * e_prev[:live]
        e_prev, e = e[:live], step / np.sqrt((n + 1) * (n + 1 + kl))
    offset = np.subtract.outer(np.arange(d), np.arange(d))
    lower = _phase_powers(z / abs(z), d)
    upper = _phase_powers(-np.conj(z) / abs(z), d)
    return np.where(
        offset >= 0, scaled * lower[np.abs(offset)], scaled.T * upper[np.abs(offset)]
    )


def bch_factorization_check(
    pair: PseudoBosonPair, disp: DisplacementSet, sub: SafeSubspace
) -> tuple[float, float]:
    """Relative residuals ``(r_u, r_v)`` of the normal-ordered factorizations
    ``U(z) = e^{-|z|^2/2} e^{z b} e^{-conj(z) a}`` and
    ``V(z) = e^{-|z|^2/2} e^{z a^dag} e^{-conj(z) b^dag}`` on ``sub``.

    ``U`` and ``V`` come from ``disp``.  The check tests the canonical
    normal-ordered factorization carried through ``S``: since
    ``a = S c S^{-1}`` and ``b = S c^dag S^{-1}``, the right-hand sides
    are ``S E S^{-1}`` and ``(S^{-1})^dag E S^dag`` with
    ``E = e^{-|z|^2/2} e^{z c^dag} e^{-conj(z) c}``.  The truncated
    product's inner sum stops at ``min(m, n)``, so ``E`` is exactly the
    low block of the untruncated displacement, computed in closed form.
    The factorization is exact under the commutation relation, so the
    restricted residual measures pure truncation tail of ``W``; ``sub``
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
    k = sub.cutoff
    E = _displacement_block(z, pair.space.dim)
    U, V = disp.U.mat[:k, :k], disp.V.mat[:k, :k]
    U_fact = _transport(pair.source, E, k)
    V_fact = _cotransport(pair.source, E, k)
    return _relative_norm(U - U_fact, U), _relative_norm(V - V_fact, V)


def intertwining_check(
    disp: DisplacementSet, metric: MetricOperator, sub: SafeSubspace
) -> float:
    """Residual of ``S S^dag V(z) = U(z) S S^dag`` on ``sub``, relative
    to ``||S S^dag|| = sigma_max(S)^2``, the map's upper frame bound.
    Both sides telescope to ``S W(z) S^dag``, so the residual is pure
    roundoff.  Raises :class:`ProvenanceError` if ``disp`` and ``metric``
    come from different maps."""
    if not np.array_equal(disp.source.S.mat, metric.source.S.mat):
        raise ProvenanceError("displacements and metric operator come from different maps")
    k, p = sub.cutoff, metric.source.block
    M = metric.theta_inv.mat[:p, :p]  # the deformed block of S S^dag
    diff = _lmul(M, disp.V.mat[:, :k], k) - _rmul(disp.U.mat[:k], M, k)
    return _spectral_norm(diff) / metric.source.frame_bounds[1]
