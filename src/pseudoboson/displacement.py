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

The power-similarity check reads the pair's border only: ``z b - conj(z) a``
differs from ``z c^dag - conj(z) c`` in a leading block, so both sides of
the identity are carried on a strip of rows of width ``max(p, q)`` plus the
power, and the rest of the reference's rows are the generator's powers,
carried by their diagonals.

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

from .algebra import PseudoBosonPair, _lowering_lead, _raising_lead
from .errors import AccuracyRegimeWarning
from .fock import FockSpace, Operator, SafeSubspace, _spectral_lower_bound, _spectral_norm
from .riesz import RieszMap, _blockdiag, _cotransport, _lmul, _rmul, _transport

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
    """The displacements ``U(z) = S W(z) S^{-1}`` and
    ``V(z) = (S^{-1})^dag W(z) S^dag`` of the map ``source``.  ``W(z)``
    itself is not kept; :func:`weyl` rebuilds it."""

    z: complex
    U: Operator
    V: Operator
    source: RieszMap


def in_accuracy_regime(space: FockSpace, z: complex) -> bool:
    """True when ``|z|^2 <= dim/4``."""
    return abs(z) ** 2 <= space.dim / 4.0


@functools.lru_cache(maxsize=4)
def _position_spectrum(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and orthonormal eigenvectors of the truncated position
    matrix ``X = (c + c^dag)/sqrt(2)``, as read-only arrays."""
    off = np.sqrt(np.arange(1, dim) / 2.0)
    lam, Q = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    lam.setflags(write=False)
    Q.setflags(write=False)
    return lam, Q


def _binary_scaled(z: complex) -> complex:
    """``z 2^-floor(log2 |z|)``, of modulus in ``[1, 2)``: exactly ``z``'s phase
    (a power of two rounds nothing), with no subnormal or huge ``|z|``."""
    shift = 1 - math.frexp(abs(z))[1]
    return complex(math.ldexp(z.real, shift), math.ldexp(z.imag, shift))


def _phase_powers(w: complex, n: int) -> np.ndarray:
    """``u^k`` for ``k < n`` and ``u = w / |w|``, as ``e^{i k arg u}``; ``u`` comes
    from :func:`_binary_scaled` ``w``, so a subnormal ``w`` has a finite one.

    The angle is split into a 24-bit head, whose products with ``k`` are
    exact, and a tiny remainder; rounding ``k arg u`` directly would put
    phase errors near ``k * 1e-16`` (1e-13 at ``k = 512``) into every
    entry of ``W``.
    """
    scaled = _binary_scaled(w)
    theta = float(np.angle(scaled / abs(scaled)))
    head = math.ldexp(round(math.ldexp(theta, 24)), -24)
    k = np.arange(n)
    return np.exp(1j * (k * head)) * np.exp(1j * (k * (theta - head)))


def weyl(space: FockSpace, z: complex) -> Operator:
    """Unitary displacement ``W(z) = exp(z c^dag - conj(z) c)``.

    Evaluated as ``D Q e^{-i sqrt(2)|z| diag(lam)} Q^T D^*`` from the
    cached spectrum of the position matrix (module docstring);
    ``W(0)`` is the exact identity.
    """
    if not in_accuracy_regime(space, z):
        warnings.warn(
            f"|z|^2 = {abs(z)**2:.2f} exceeds dim/4 = {space.dim / 4:.2f}; "
            "truncation tails are no longer below 1e-12",
            AccuracyRegimeWarning,
            stacklevel=2,
        )
    d = space.dim
    if z == 0:
        return Operator(space, np.eye(d))
    lam, Q = _position_spectrum(d)
    angle = -math.sqrt(2.0) * abs(z) * lam
    middle = (Q * np.cos(angle)) @ Q.T + 1j * ((Q * np.sin(angle)) @ Q.T)
    diag = _phase_powers(1j * z, d)
    return Operator(space, (diag[:, None] * middle) * diag.conj())


def displaced_pair(riesz: RieszMap, z: complex) -> DisplacementSet:
    """Build ``U(z) = S W(z) S^{-1}`` and ``V(z) = (S^{-1})^dag W(z) S^dag``
    by similarity from the unitary displacement."""
    space = riesz.space
    W = weyl(space, z)
    U = Operator(space, _transport(riesz, W.mat))
    V = Operator(space, _cotransport(riesz, W.mat))
    return DisplacementSet(z=complex(z), U=U, V=V, source=riesz)


def _relative_norm(diff: np.ndarray, ref: np.ndarray) -> float:
    """``||diff|| / lo(ref)``: the exact spectral norm of ``diff`` over the
    certified lower bound :func:`~pseudoboson.fock._spectral_lower_bound`
    of ``||ref||``, so no SVD of ``ref`` is taken.  The value is never below
    the exact ``||diff|| / ||ref||`` and at most ``sqrt(min(ref.shape))``
    times it: a grade on it can turn a pass into a fail, never the reverse."""
    return _spectral_norm(diff) / max(_spectral_lower_bound(ref), 1e-300)


def _times_generator(T: np.ndarray, z: complex) -> np.ndarray:
    """``T G`` for the tridiagonal ``G = z c^dag - conj(z) c``, in O(T.size):
    column ``n`` of the product is
    ``z sqrt(n+1) T[:, n+1] - conj(z) sqrt(n) T[:, n-1]``."""
    s = np.sqrt(np.arange(1.0, T.shape[1]))
    out = np.zeros_like(T)
    out[:, :-1] = (z * s) * T[:, 1:]
    out[:, 1:] -= (np.conj(z) * s) * T[:, :-1]
    return out


def _strip_powers(pair: PseudoBosonPair, z: complex, rows: int, cols: int, k_max: int):
    """``D^k[:rows, :cols]`` for ``D = z b - conj(z) a``, ``k = 1 .. k_max``, with
    ``rows + k_max <= cols`` or ``cols = dim``, so that no entry leaves the
    strip: ``D^{k-1} G`` (:func:`_times_generator`) with its columns
    ``:q+1`` redone as ``D^{k-1}[:, :q+2] D[:q+2, :q+1]``, since ``D = G``
    outside ``D[:q+1, :q+1]`` for the pair's border ``q``."""
    d, q = pair.space.dim, pair.border
    m, lead = min(q + 1, d), min(q + 2, d)
    D = (z * _raising_lead(pair.b_border, lead, m)
         + (-np.conj(z)) * _lowering_lead(pair.a_border, lead, m))  # D[:q+2, :q+1]
    Dk = np.eye(rows, cols, dtype=complex)
    for _ in range(k_max):
        head = Dk[:, :lead] @ D
        Dk = _times_generator(Dk, z)
        Dk[:, :m] = head
        yield Dk


def _generator_band(z: complex, d: int, first: int, last: int, k_max: int):
    """Rows ``first:last`` of ``G^k``, ``G = z c^dag - conj(z) c``, for
    ``k = 1 .. k_max``, as ``(V, J)``: row ``first + i`` holds ``V[i, t]`` at
    column ``J[i, t]``, on the ``2 k_max + 1`` diagonals about it.  Each power
    is carried from the last,
    ``G^k[i, j] = G^{k-1}[i, j-1] G[j-1, j] + G^{k-1}[i, j+1] G[j+1, j]``, and
    columns outside ``[0, d)`` hold 0."""
    J = np.arange(first, last)[:, None] + np.arange(-k_max, k_max + 1)
    up = np.where((J >= 1) & (J < d), -np.conj(z) * np.sqrt(np.abs(J)), 0)  # G[j-1, j]
    down = np.where((J >= 0) & (J < d - 1), z * np.sqrt(np.abs(J + 1.0)), 0)  # G[j+1, j]
    V = np.zeros(J.shape, dtype=complex)
    V[:, k_max] = 1.0
    for _ in range(k_max):
        prev, V = V, np.zeros_like(V)
        V[:, 1:] = prev[:, :-1] * up[:, 1:]
        V[:, :-1] += prev[:, 1:] * down[:, :-1]
        yield V, J


def power_similarity_check(pair: PseudoBosonPair, z: complex, k_max: int = 5) -> np.ndarray:
    """Relative residuals of
    ``S (z c^dag - conj(z) c)^k S^{-1} = (z b - conj(z) a)^k``,
    indexed by ``k = 0 .. k_max``, evaluated on the safe subspace with a
    ``k_max``-level top margin, ``cut = dim - k_max``.

    With ``G = z c^dag - conj(z) c`` and ``D = z b - conj(z) a``, ``D = G``
    outside the pair's border and ``S`` is the identity outside its block,
    so both sides equal ``G^k`` outside their leading ``r x r`` block,
    ``r = min(cut, max(p, q) + k_max)``, and the residual is the exact
    spectral norm of the difference of those blocks.  Both sides are carried
    on the ``r x (r + k_max)`` strip of rows ``:r``: ``S G^k`` by a banded
    update per ``k`` (``G`` is tridiagonal), ``D^k`` by
    :func:`_strip_powers`.  ``k = 0`` is the exact identity on both sides and
    reads 0, as does every ``k`` at ``z = 0``, where both generators vanish.

    The reference is the certified lower bound of ``||D^k[:cut, :cut]||``
    (:func:`~pseudoboson.fock._spectral_lower_bound`), taken from the strip
    and rows ``r:cut`` of ``G^k`` (:func:`_generator_band`), so each residual
    is never below the exact relative residual.  It is homogeneous of degree
    0 in ``z``, so both powers are carried at :func:`_binary_scaled` ``z``,
    and no ``|z|`` overflows them.
    """
    if not 0 <= k_max <= 12:
        raise ValueError(f"k_max must be in [0, 12], got {k_max}")
    if z == 0:
        return np.zeros(k_max + 1)
    z = _binary_scaled(z)
    d, riesz = pair.space.dim, pair.source
    cut = SafeSubspace(pair.space, d - max(k_max, 1)).cutoff
    r = min(cut, max(riesz.block, pair.border) + k_max)
    width = min(d, r + k_max)
    SGk = _blockdiag(riesz.S_block, width, r)
    residuals = np.zeros(k_max + 1)
    powers = zip(_strip_powers(pair, z, r, width, k_max), _generator_band(z, d, r, cut, k_max))
    for k, (Dk, tail) in enumerate(powers, 1):
        SGk = _times_generator(SGk, z)
        diff = _rmul(SGk, riesz.S_inv_block, r) - Dk[:, :r]
        residuals[k] = _spectral_norm(diff) / max(
            _spectral_lower_bound(Dk[:, :cut], tail, cut), 1e-300)
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
    lower = _phase_powers(z, d)
    upper = _phase_powers(-np.conj(z), d)
    return np.where(
        offset >= 0, scaled * lower[np.abs(offset)], scaled.T * upper[np.abs(offset)]
    )


def bch_factorization_check(disp: DisplacementSet, sub: SafeSubspace) -> tuple[float, float]:
    """Relative residuals ``(r_u, r_v)`` of the normal-ordered factorizations
    ``U(z) = e^{-|z|^2/2} e^{z b} e^{-conj(z) a}`` and
    ``V(z) = e^{-|z|^2/2} e^{z a^dag} e^{-conj(z) b^dag}`` on ``sub``: the
    exact spectral norm of each difference over the certified lower bound of
    ``||U[:k, :k]||`` or ``||V[:k, :k]||`` (:func:`_relative_norm`), never
    below the exact relative residual.

    ``U`` and ``V`` come from ``disp``, and ``S`` is its map.  The check
    tests the canonical normal-ordered factorization carried through
    ``S``: since ``a = S c S^{-1}`` and ``b = S c^dag S^{-1}``, the
    right-hand sides are ``S E S^{-1}`` and ``(S^{-1})^dag E S^dag`` with
    ``E = e^{-|z|^2/2} e^{z c^dag} e^{-conj(z) c}``.  The truncated
    product's inner sum stops at ``min(m, n)``, so ``E`` is exactly the
    low block of the untruncated displacement, computed in closed form.
    The factorization is exact under the commutation relation, so the
    restricted residual measures pure truncation tail of ``W``; ``sub``
    should leave a margin of at least ``ceil(4 |z|^2)`` levels, otherwise
    an :class:`AccuracyRegimeWarning` is issued.
    """
    z, riesz = disp.z, disp.source
    margin = riesz.dim - math.ceil(4 * abs(z) ** 2)
    if sub.cutoff > margin:
        warnings.warn(
            f"cutoff {sub.cutoff} exceeds dim - ceil(4|z|^2) = {margin}; "
            "factorization residual will include unsuppressed tail",
            AccuracyRegimeWarning,
            stacklevel=2,
        )
    k = sub.cutoff
    E = _displacement_block(z, max(k, riesz.block))  # all the transports read
    U, V = disp.U.mat[:k, :k], disp.V.mat[:k, :k]
    U_fact = _transport(riesz, E, k)
    V_fact = _cotransport(riesz, E, k)
    return _relative_norm(U - U_fact, U), _relative_norm(V - V_fact, V)


def intertwining_check(disp: DisplacementSet, sub: SafeSubspace) -> float:
    """Residual of ``S S^dag V(z) = U(z) S S^dag`` on ``sub``, with ``S`` the
    displacements' own map, relative to ``||S S^dag|| = sigma_max(S)^2``, the
    map's upper frame bound.  Both sides telescope to ``S W(z) S^dag``, so
    the residual is pure roundoff."""
    k, M = sub.cutoff, disp.source.theta_inv_block  # the deformed block of S S^dag
    diff = _lmul(M, disp.V.mat[:, :k], k) - _rmul(disp.U.mat[:k], M, k)
    return _spectral_norm(diff) / disp.source.frame_bounds[1]
