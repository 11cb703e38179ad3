"""Displacement operators and their similarity, factorization, and
intertwining identities.

``W(z) = exp(z c^dag - conj(z) c)`` is unitary in truncation because the
hard-cutoff ladder pair keeps the generator exactly anti-self-adjoint.
It is evaluated spectrally: the generator is ``-i sqrt(2)|z| D X D^*``
with the real tridiagonal position matrix ``X = (c + c^dag)/sqrt(2)``
and the diagonal unitary ``D = diag((i e^{i arg z})^n)``, so one
eigendecomposition ``X = Q diag(lam) Q^T`` per dimension (the
Golub-Welsch matrix of Gauss-Hermite quadrature) serves every amplitude.
``X`` has a zero diagonal, so it couples only levels of opposite number
parity: ``cos`` of it is zero on entries with ``m + n`` odd and ``sin`` of it
on entries with ``m + n`` even.  One routine, :func:`_parity_frame`, forms
any block of ``W`` in the frame of its phases by one product of rows of
``Q`` per pair of row and column parities; the frame is symmetric, so a
square block on the diagonal takes three, and all of ``W`` three.

The non-unitary displacements are defined by similarity,
``U(z) = S W(z) S^{-1}`` and ``V(z) = (S^{-1})^dag W(z) S^dag``, which is
exact in finite dimension.  With ``S = blockdiag(S_p, 1)`` both equal
``W(z)`` outside rows ``:p`` and columns ``:p``, bit for bit, so
:class:`DisplacementSet` holds only their strips there, each entry once.
:func:`displaced_pair` forms the ``p``-wide strips of ``W`` they are
carried from by two products of rows of ``Q``, the square block ``[:p, :p]``
and the rows ``[:p, p:]`` beside it, and takes the columns below as those
rows' transpose in the frame; it never forms the rest of ``W``.  Its strips
of ``U`` and ``V`` take the products of the dense transports
(:func:`~pseudoboson.riesz._transport`), bit for bit.  The factorization,
the one check that reads ``U`` and ``V`` outside the strips, forms the
block of ``W`` it reads there itself, with :func:`weyl`'s routine for a
block on the diagonal.

The power-similarity check reads the pair's border only: ``z b - conj(z) a``
differs from ``z c^dag - conj(z) c`` in a leading block, so both sides of
the identity, and the rows of the reference it divides by, are carried on
a strip of rows of width ``q`` plus the power.

The normal-ordered factor ``e^{-|z|^2/2} e^{z c^dag} e^{-conj(z) c}`` is
the low block of the untruncated displacement, whose entries are the
Laguerre closed form of Cahill & Glauber (Phys. Rev. 177, 1857, 1969);
no matrix exponential is formed anywhere.

Amplitudes obey the accuracy regime ``|z|^2 <= dim/4``.  At its edge the
truncated coherent tail (``bicoherent.coherent_tail_bound``) is 2.2e-3 at
dim 16, 3.7e-10 at dim 64 and 4.5e-19 at dim 128, below 1e-12 only from
dim 83.  The factorization's cutoff obeys :func:`_bch_margin`.  Calls
outside either warn (:class:`AccuracyRegimeWarning`) instead of failing
so convergence studies can cross the boundary deliberately.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .algebra import PseudoBosonPair, _lowering_lead, _raising_lead, _sqrt_range
from .errors import AccuracyRegimeWarning, DimensionMismatchError, InvalidDimensionError
from .fock import FockSpace, Operator, _freeze, _graded_norm, _spectral_lower_bound
from .riesz import RieszMap, _blockdiag, _lmul, _rmul, _transport

__all__ = [
    "DisplacementSet",
    "in_accuracy_regime",
    "weyl",
    "displaced_pair",
    "power_similarity_check",
    "bch_factorization_check",
    "intertwining_check",
]


_STRIPS = ("U_rows", "U_below", "V_rows", "V_below")

#: The largest power ``k`` of the generator that :func:`power_similarity_check` grades.
_K_MAX = 5


@dataclass(frozen=True, eq=False)
class DisplacementSet:
    """The displacements ``U(z) = S W(z) S^{-1}`` and
    ``V(z) = (S^{-1})^dag W(z) S^dag`` of the map ``source``, held as the
    rows ``U_rows = U[:q, :]`` and ``V_rows = V[:q, :]`` and the columns
    ``:q`` below them, ``U_below = U[q:, :q]`` and ``V_below = V[q:, :q]``:
    outside these, ``U`` and ``V`` are ``W(z)``, which a check that reads
    them there forms itself.

    ``q`` is the width of the strips given, from ``p``, the map's block
    (``q = p`` from :func:`displaced_pair`), up to ``dim``.  The arrays are
    kept as given, read-only.  Entries are not checked for finiteness: a
    non-finite one reaches the checks, which read it as NaN.

    Raises
    ------
    DimensionMismatchError
        If the strips are not ``q x dim`` and ``(dim - q) x q`` for some
        ``p <= q <= dim``.
    """

    z: complex
    U_rows: np.ndarray
    U_below: np.ndarray
    V_rows: np.ndarray
    V_below: np.ndarray
    source: RieszMap

    def __post_init__(self):
        d, p = self.source.dim, self.source.block
        _freeze(self, *_STRIPS, dtype=complex)
        strips = [getattr(self, name) for name in _STRIPS]
        q = len(strips[0])
        if not p <= q <= d or any(
                x.shape != shape for x, shape in zip(strips, [(q, d), (d - q, q)] * 2)):
            raise DimensionMismatchError(
                f"strips {[x.shape for x in strips]} are not q x {d} and ({d} - q) x q "
                f"for some {p} <= q <= {d}")

    border = property(lambda self: len(self.U_rows))


def in_accuracy_regime(space: FockSpace, z: complex) -> bool:
    """True when ``|z|^2 <= dim/4``, with ``|z|^2 = Re(z)^2 + Im(z)^2``: exact
    where ``abs(z) ** 2`` rounds up (``|1+i|^2`` to 2.0000000000000004)."""
    return z.real**2 + z.imag**2 <= space.dim / 4.0


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


def _parity_frame(d: int, r: float, out: np.ndarray, row: int, col: int) -> np.ndarray:
    """``out`` filled with the block of ``F = e^{-i sqrt(2) r X}
    = Q e^{-i sqrt(2) r diag(lam)} Q^T`` on ``d`` levels that starts at
    ``F[row, col]``; the rest of ``F`` is never formed.  ``F`` is the
    displacement ``W(z)`` of ``|z| = r`` in the frame of its phases,
    ``D^* W(z) D``.

    Its real part ``cos(sqrt(2) r X)`` lives on the entries ``(j, k)`` with
    ``j + k`` even and its imaginary part ``-sin(sqrt(2) r X)`` on those
    with ``j + k`` odd (module docstring), so the entries of one pair of
    row and column parities are one product ``Q[j::2] cos Q[k::2]^T`` or
    ``Q[j::2] sin Q[k::2]^T`` of rows of ``Q``, and each entry is exactly
    real or exactly imaginary.  ``F`` is symmetric, so on a square block on
    the diagonal the odd-even entries are the transpose of the even-odd
    ones: all of ``F`` takes three products, ``1.5 d^3`` flops instead of
    ``4 d^3``, and any other block four.  An entry summed by a smaller
    product than all of ``F``'s may differ from ``F``'s by a few
    roundoffs, since BLAS may pick another kernel, and so another order,
    for another shape."""
    lam, Q = _position_spectrum(d)
    angle = -math.sqrt(2.0) * r * lam
    cos, sin = np.cos(angle), np.sin(angle)
    h, w = out.shape
    rows, cols = Q[row:row + h], Q[col:col + w]
    for j, k in ((0, 0), (1, 1), (0, 1), (1, 0)):
        part = out[j::2, k::2]  # levels row + j, row + j + 2, ... by col + k, ...
        if (row + j + col + k) % 2 == 0:
            part[...] = (rows[j::2] * cos) @ cols[k::2].T
        elif row == col and h == w and j > k:
            part[...] = out[k::2, j::2].T
        else:
            np.multiply(1j, (rows[j::2] * sin) @ cols[k::2].T, out=part)
    return out


def _warn_outside_regime(space: FockSpace, z: complex):
    """An :class:`AccuracyRegimeWarning`, at the caller's caller, when ``z`` is
    outside :func:`in_accuracy_regime`."""
    if not in_accuracy_regime(space, z):
        warnings.warn(
            f"|z|^2 = {abs(z)**2:.2f} exceeds dim/4 = {space.dim / 4:.2f}; "
            "truncation tails are outside the accuracy regime",
            AccuracyRegimeWarning,
            stacklevel=3,
        )


def _weyl_block(d: int, z: complex, out: np.ndarray, lo: int = 0) -> np.ndarray:
    """``out``, square, filled with the block ``W(z)[lo:lo+h, lo:lo+h]`` on
    the diagonal: the frame's block (:func:`_parity_frame`, three products)
    with the phases ``D = diag(u^n)``, ``u = i e^{i arg z}``, applied,
    ``W = D F D^*``; at ``z = 0`` the identity's, exactly.  An empty ``out``
    takes no work."""
    if len(out) == 0:
        return out
    if z == 0:
        out[...] = np.eye(len(out))
        return out
    _parity_frame(d, abs(z), out, lo, lo)
    diag = _phase_powers(1j * z, d)[lo:lo + len(out)]
    out *= diag[:, None]
    out *= diag.conj()
    return out


def weyl(space: FockSpace, z: complex) -> Operator:
    """Unitary displacement ``W(z) = exp(z c^dag - conj(z) c)``.

    Evaluated as ``D Q e^{-i sqrt(2)|z| diag(lam)} Q^T D^*`` from the
    cached spectrum of the position matrix, the middle factor by parity
    blocks (:func:`_weyl_block`); ``W(0)`` is the exact identity.
    """
    _warn_outside_regime(space, z)
    W = _weyl_block(space.dim, z, np.empty((space.dim, space.dim), dtype=complex))
    W.setflags(write=False)
    return Operator(space, W)


def displaced_pair(riesz: RieszMap, z: complex) -> DisplacementSet:
    """Build ``U(z) = S W(z) S^{-1}`` and ``V(z) = (S^{-1})^dag W(z) S^dag``
    by similarity from the unitary displacement.

    The set holds their strips of width ``p``, the map's block: ``S`` and
    ``S^{-1}`` touch nothing else.  Of ``W(z)`` only its strips ``W[:p]``
    and ``W[p:, :p]`` are formed: the rows as the frame's square block
    ``F[:p, :p]`` and the block ``F[:p, p:]`` beside it, the columns below
    as that block's transpose (``F`` is symmetric), all phased.
    ``U[:p]`` is ``_transport(S, W[:p], S^{-1})`` and ``U[p:, :p]`` is
    ``_rmul(W[p:, :p], S^{-1})``, ``V``'s the same with ``(S^{-1})^dag`` and
    ``S^dag``, each handed to the set read-only and unsliced, so uncopied.
    """
    d, p = riesz.dim, riesz.block
    _warn_outside_regime(riesz.space, z)
    if z == 0:
        top, side = np.eye(p, d, dtype=complex), np.zeros((d - p, p), dtype=complex)
    else:
        top = np.empty((p, d), dtype=complex)
        _parity_frame(d, abs(z), top[:, :p], 0, 0)
        side = _parity_frame(d, abs(z), top[:, p:], 0, p).T.copy()
        diag = _phase_powers(1j * z, d)
        for part, rows, cols in ((top, diag[:p], diag), (side, diag[p:], diag[:p])):
            part *= rows[:, None]
            part *= cols.conj()
    S, S_inv, parts = riesz.S_block, riesz.S_inv_block, []
    for left, right in ((S, S_inv), (S_inv.conj().T, S.conj().T)):
        parts += [_transport(left, top, right), _rmul(side, right)]
    for part in parts:  # read-only, so the set keeps them uncopied
        part.setflags(write=False)
    return DisplacementSet(complex(z), *parts, source=riesz)


def _times_generator(T: np.ndarray, z: complex) -> np.ndarray:
    """``T G`` for the tridiagonal ``G = z c^dag - conj(z) c``, in O(T.size):
    column ``n`` of the product is
    ``z sqrt(n+1) T[:, n+1] - conj(z) sqrt(n) T[:, n-1]``.  The first term
    is written straight into an uninitialised array whose last column alone
    is zeroed, with ``s = sqrt(1 .. width - 1)`` read from the cache of
    :func:`~pseudoboson.algebra._sqrt_range`."""
    s = _sqrt_range(1, T.shape[1])
    out = np.empty_like(T)
    np.multiply(z * s, T[:, 1:], out=out[:, :-1])
    out[:, -1:] = 0
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


def power_similarity_check(pair: PseudoBosonPair, z: complex, *, tol: float = 0.0) -> np.ndarray:
    """Relative residuals of
    ``S (z c^dag - conj(z) c)^k S^{-1} = (z b - conj(z) a)^k``,
    indexed by ``k = 0 .. 5`` (``_K_MAX``), on the levels below a top margin
    of ``_K_MAX`` levels, ``cut = dim - _K_MAX`` (at least 1).

    With ``G = z c^dag - conj(z) c`` and ``D = z b - conj(z) a``, both sides
    equal ``G^k`` outside their leading ``r x r`` block,
    ``r = min(cut, q + _K_MAX)`` for the pair's border ``q``, so both are
    carried on the ``r x (r + _K_MAX)`` strip of rows ``:r``: ``S G^k`` by a
    banded update per ``k``, ``D^k`` by :func:`_strip_powers`.  Each ``k`` is
    graded on its own (:func:`~pseudoboson.fock._graded_norm`): the norm of
    the ``r x r`` difference over the certified lower bound of
    ``||D^k[:s, :cut]||``, ``s = min(cut, p + _K_MAX)``, rows fixed by the
    map, not by the border.
    No submatrix's norm exceeds ``||D^k[:cut, :cut]||``, so each value is
    never below the exact relative residual.  ``k = 0``, and every ``k`` at
    ``z = 0``, read 0.  The residual is homogeneous of degree 0 in ``z``, so
    the powers are carried at :func:`_binary_scaled` ``z`` and no ``|z|``
    overflows them.
    """
    if z == 0:
        return np.zeros(_K_MAX + 1)
    z = _binary_scaled(z)
    d, riesz = pair.space.dim, pair.source
    cut = max(d - _K_MAX, 1)
    r = min(cut, pair.border + _K_MAX)
    s = min(cut, riesz.block + _K_MAX)
    width = min(d, r + _K_MAX)
    SGk = _blockdiag(riesz.S_block, width, r)
    residuals = np.zeros(_K_MAX + 1)
    for k, Dk in enumerate(_strip_powers(pair, z, r, width, _K_MAX), 1):
        SGk = _times_generator(SGk, z)
        diff = _rmul(SGk, riesz.S_inv_block, r) - Dk[:, :r]
        residuals[k] = _graded_norm(diff, _spectral_lower_bound(Dk[:s, :cut]), tol)
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
    nearly cancel and float64 drifts to 2e-12 at ``d = 512``.  Its
    coefficients are tables built before it, each entry rounded once as
    the step would round it: ``2n + 1 + k - x`` by ``j = 2n + 1 + k`` and
    ``sqrt(n m)`` by ``(n, m)``, ``m = n + k``.
    """
    if z == 0:
        return np.eye(d, dtype=complex)
    x = np.longdouble(abs(z) ** 2)
    k = np.arange(d, dtype=np.longdouble)
    log_fact = np.array([math.lgamma(j + 1.0) for j in range(d)], dtype=np.longdouble)
    e_prev = np.zeros(d, dtype=np.longdouble)
    e = np.exp(k * np.longdouble(math.log(abs(z))) - log_fact / 2 - x / 2)
    shift = np.arange(2 * d + 1, dtype=np.longdouble) - x  # shift[j] = j - x
    levels = np.arange(d + 1, dtype=np.longdouble)
    root = np.multiply.outer(levels, levels)  # exact products n m
    np.sqrt(root, out=root)  # root[n, m] = sqrt(n m)
    scaled = np.zeros((d, d))  # scaled[n + k, n] = e_n on diagonal k
    for n in range(d):
        live = d - n  # diagonals that still reach column n
        scaled[n:, n] = e[:live]
        step = shift[2 * n + 1:2 * n + 1 + live] * e[:live] - root[n, n:d] * e_prev[:live]
        e_prev, e = e[:live], step / root[n + 1, n + 1:]
    del root
    scaled += np.triu(scaled.T, 1)  # the mirror above the diagonal
    # phase[m, n] = z-phase^(m-n) for m >= n and (-conj(z)-phase)^(n-m) above,
    # a read-only Toeplitz view of the two power sequences
    ext = np.concatenate([_phase_powers(-np.conj(z), d)[:0:-1], _phase_powers(z, d)])
    stride = ext.strides[0]
    phase = np.lib.stride_tricks.as_strided(ext[d - 1:], (d, d), (stride, -stride),
                                            writeable=False)
    return scaled * phase


def _bch_margin(dim: int, z: complex) -> int:
    """The largest cutoff at which the factorization at ``z`` is graded: the
    half-space, less a top margin of ``ceil(4 |z|^2) + 6`` levels, with
    ``|z|^2`` squared as in :func:`in_accuracy_regime`; below 1 when ``dim``
    leaves none."""
    return min(dim // 2, dim - math.ceil(4 * (z.real**2 + z.imag**2)) - 6)


def bch_factorization_check(disp: DisplacementSet, cutoff: int, *,
                            tol: float = 0.0) -> tuple[float, float]:
    """Relative residuals ``(r_u, r_v)`` of the normal-ordered factorizations
    ``U(z) = e^{-|z|^2/2} e^{z b} e^{-conj(z) a}`` and
    ``V(z) = e^{-|z|^2/2} e^{z a^dag} e^{-conj(z) b^dag}`` on the levels
    ``:cutoff``, ``1 <= cutoff < dim`` (else :class:`InvalidDimensionError`):
    the spectral norm of each difference over the certified lower bound
    :func:`~pseudoboson.fock._spectral_lower_bound` of ``||U[:k, :k]||`` or
    ``||V[:k, :k]||``, so no value is below the exact relative residual and
    no SVD of a reference is taken.  A residual at most ``tol`` may be the
    Frobenius bound of the difference; one above it is exact.

    ``U[:k, :k]`` and ``V[:k, :k]`` are ``disp``'s strips of width ``q``
    written over the block ``W(z)[q:k, q:k]``, formed once for both
    (:func:`_weyl_block`, no work when ``k <= q``), and ``S`` is the set's
    map.  The check tests the canonical normal-ordered factorization
    carried through ``S``: since ``a = S c S^{-1}`` and
    ``b = S c^dag S^{-1}``, the right-hand sides are ``S E S^{-1}`` and
    ``(S^{-1})^dag E S^dag`` with
    ``E = e^{-|z|^2/2} e^{z c^dag} e^{-conj(z) c}``.  The truncated
    product's inner sum stops at ``min(m, n)``, so ``E`` is exactly the
    low block of the untruncated displacement, computed in closed form.
    The factorization is exact under the commutation relation, so the
    restricted residual measures pure truncation tail of ``W``; a cutoff
    above :func:`_bch_margin` issues an :class:`AccuracyRegimeWarning`.
    """
    z, riesz, k, q = disp.z, disp.source, cutoff, disp.border
    if not 1 <= k < riesz.dim:
        raise InvalidDimensionError(
            f"cutoff must satisfy 1 <= cutoff < dim, got {k} (dim {riesz.dim})")
    margin = _bch_margin(riesz.dim, z)
    if k > margin:
        warnings.warn(f"cutoff {k} exceeds min(dim // 2, dim - ceil(4|z|^2) - 6) = {margin}; "
                      "factorization residual will include unsuppressed tail",
                      AccuracyRegimeWarning, stacklevel=2)
    E = _displacement_block(z, max(k, riesz.block))  # all the transports read
    S, S_inv = riesz.S_block, riesz.S_inv_block
    diffs = [_transport(S, E, S_inv, k, k), _transport(S_inv.conj().T, E, S.conj().T, k, k)]
    # E is read no more: its memory holds each side's reference in turn, so
    # that at most three k x k arrays are alive at once
    ref = E[:k, :k]
    _weyl_block(riesz.dim, z, ref[q:, q:], q)  # U = V = W(z) outside the strips
    lows = []
    for diff, top, below in zip(diffs, (disp.U_rows, disp.V_rows), (disp.U_below, disp.V_below)):
        ref[:q], ref[q:, :q] = top[:k, :k], below[:max(k - q, 0), :k]
        lows.append(_spectral_lower_bound(ref))
        np.subtract(ref, diff, out=diff)  # the difference, over the transport
    del E, ref  # freed before the grading's temporaries
    return tuple(_graded_norm(diff, lo, tol) for diff, lo in zip(diffs, lows))


def intertwining_check(disp: DisplacementSet, *, tol: float = 0.0) -> float:
    """Residual of ``S S^dag V(z) = U(z) S S^dag`` on the levels ``:k``,
    ``k = dim - 1``, below the truncation corner, with ``S`` the
    displacements' own map, relative to ``||S S^dag|| = sigma_max(S)^2``, the
    map's upper frame bound.  Both sides telescope to ``S W(z) S^dag``, so
    the residual is pure roundoff, and it cannot see ``W`` itself.

    ``S S^dag`` is the identity outside its ``p x p`` block and ``U = V = W``
    outside the set's border ``q >= p``, so the residual is exactly zero
    outside rows ``:t`` and columns ``:t``, ``t = min(q, k)``.  Only its rows
    ``:t`` and the block ``[t:k, :t]`` below them are formed, from the
    set's strips, and graded as the bordered difference
    (:func:`~pseudoboson.fock._graded_norm`): the Frobenius bound
    ``sqrt(||top||^2 + ||left||^2)`` over the frame bound where that is at
    most ``tol``, else the exact norm of the parts' reduction."""
    riesz, k = disp.source, disp.source.dim - 1
    M = riesz.theta_inv_block  # the deformed block of S S^dag
    t = min(disp.border, k)
    return _graded_norm(  # top and left as temporaries, so the grader frees them before an SVD
        _lmul(M, disp.V_rows[:, :k], t) - _rmul(disp.U_rows[:t], M, k),
        riesz.frame_bounds[1], tol,
        disp.V_below[:k - t, :t] - _rmul(disp.U_below[:k - t], M, t))
