"""Pseudo-bosonic operator pairs and their verification checks.

A pair ``(a, b)`` with ``a = S c S^{-1}`` and ``b = S c^dag S^{-1}``
satisfies the commutation relation ``[a, b] = 1`` below the truncation
corner, with ``b != a^dag`` whenever ``S`` is not unitary.  The checks in
this module quantify, in floating point, the identities the pair is
supposed to satisfy: annihilated vacua, ladder action on the excited
families, integer spectrum of the number operator ``N = b a``, and the
metric conjugation ``a = Theta^{-1} b^dag Theta``.  The families are
the map's columns ``phi_n = S e_n`` and ``psi_n = (S^{-1})^dag e_n``:
:func:`vacua` extracts ``phi_0`` and ``psi_0`` by SVD, and the ladder
recursions start from the map's.

The pair is held as its border.  With ``S = blockdiag(S_p, 1)``, ``a`` is
``c`` outside ``a[:p, :p+1]`` and ``b`` is ``c^dag`` outside ``b[:p+1, :p]``,
bit for bit, so :class:`PseudoBosonPair` keeps only those leading borders,
of side ``q >= p``, and every check here works on them: each identity holds
exactly, by construction, outside a leading block of side about ``q``, and
only that block is formed.  No ``dim x dim`` matrix is built unless the
pair is dense (``q = dim``) or a caller reads ``pair.a`` or ``pair.b``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateKernelError,
    DimensionMismatchError,
    OrthogonalVacuaError,
    ValidationError,
)
from .fock import Operator, _freeze, _graded_norm
from .riesz import RieszMap, _blockdiag, _lmul, _rmul, _transport

__all__ = [
    "PseudoBosonPair",
    "make_pair",
    "vacua",
    "ladder_check",
    "number_operator_check",
    "theta_conjugacy_check",
]


def _lowering_lead(border: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Dense ``X[:rows, :cols]`` (at most ``dim`` each) of the lowering-type
    ``X`` that is ``border`` on ``X[:q, :q+1]`` and ``c`` elsewhere: ``a``
    from ``a_border`` or ``b^dag`` from ``b_border^dag``."""
    out = np.zeros((rows, cols), dtype=complex)
    n = np.arange(min(rows, cols - 1))
    out[n, n + 1] = np.sqrt(n + 1.0)  # c[:rows, :cols]
    out[:len(border), :len(border) + 1] = border[:rows, :cols]
    return out


def _raising_lead(border: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Dense ``X[:rows, :cols]`` of the raising-type ``X`` that is ``border``
    on ``X[:q+1, :q]`` and ``c^dag = c^T`` elsewhere: ``b`` from
    ``b_border`` or ``a^dag`` from ``a_border^dag``."""
    return _lowering_lead(border.T, cols, rows).T


@functools.lru_cache(maxsize=16)
def _sqrt_range(start: int, stop: int) -> np.ndarray:
    """``sqrt(n)`` for ``n = start .. stop - 1``, read-only: the entries of
    ``c`` and ``c^dag`` past a border."""
    out = np.sqrt(np.arange(start, stop, dtype=float))
    out.setflags(write=False)
    return out


def _lower(border: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``X v`` for the lowering-type ``X`` of :func:`_lowering_lead`, in
    ``O(q^2 + dim)``: ``border @ v[:q+1]`` on rows ``:q``, then
    ``(X v)_i = sqrt(i+1) v_{i+1}``, and 0 on the top row below the border."""
    q, d = len(border), len(v)
    out = np.zeros(d, dtype=complex)
    np.matmul(border, v[:q + 1], out=out[:q])
    np.multiply(_sqrt_range(q + 1, d), v[q + 1:], out=out[q:d - 1])
    return out


def _raise(border: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``X v`` for the raising-type ``X`` of :func:`_raising_lead`:
    ``border @ v[:q]`` on rows ``:q+1``, then ``(X v)_i = sqrt(i) v_{i-1}``.
    A stack of borders applies pairwise to a stack of vectors,
    ``border[j]`` to ``v[j]``."""
    q, d = border.shape[-1], v.shape[-1]
    out = np.empty(v.shape, dtype=complex)
    np.matmul(border, v[..., :q, None], out=out[..., :q + 1, None])
    np.multiply(_sqrt_range(q + 1, d), v[..., q:d - 1], out=out[..., q + 1:])
    return out


@dataclass(frozen=True, eq=False)
class PseudoBosonPair:
    """The pair ``a = S c S^{-1}``, ``b = S c^dag S^{-1}`` of the map
    ``source``, held as its leading borders ``a_border = a[:q, :q+1]`` and
    ``b_border = b[:q+1, :q]`` (``q + 1`` capped at ``dim``): outside them
    ``a`` is ``c`` and ``b`` is ``c^dag``, bit for bit.

    ``q`` is the side of the borders given, from ``p``, the map's block
    (``q = p`` from :func:`make_pair`), up to ``dim`` for the dense
    matrices; they are kept as given, read-only.  The dense ``a`` and
    ``b`` are built on each access; ``space`` is the map's.

    Raises
    ------
    DimensionMismatchError
        If the borders are not ``q x min(q+1, dim)`` and its transpose
        for one ``p <= q <= dim``.
    ValidationError
        If an entry is not finite.
    """

    a_border: np.ndarray
    b_border: np.ndarray
    source: RieszMap

    def __post_init__(self):
        d, p = self.source.dim, self.source.block
        _freeze(self, "a_border", "b_border", dtype=complex)
        a, b = self.a_border, self.b_border
        q = len(a)
        if (a.ndim != 2 or not p <= q <= d or a.shape != (q, min(q + 1, d))
                or b.shape != a.shape[::-1]):
            raise DimensionMismatchError(
                f"borders {a.shape} and {b.shape} are not q x min(q+1, {d}) and its "
                f"transpose for one {p} <= q <= {d}")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValidationError("operator entries must be finite")

    space = property(lambda self: self.source.space)
    border = property(lambda self: len(self.a_border))
    a = property(lambda self: Operator(self.space, _lowering_lead(
        self.a_border, self.source.dim, self.source.dim)))
    b = property(lambda self: Operator(self.space, _raising_lead(
        self.b_border, self.source.dim, self.source.dim)))

    @functools.cached_property
    def number_block(self) -> np.ndarray:
        """``(b a)[:m, :m] = b_border @ a_border``, ``m = min(q + 1, dim)``,
        read-only: outside it ``b a`` is ``diag(m, ..., dim - 1)``, since
        ``a`` is ``c`` on rows ``>= q`` and ``b`` is ``c^dag`` on columns
        ``>= q``."""
        N = self.b_border @ self.a_border
        N.setflags(write=False)
        return N


def _borders(S_block: np.ndarray, S_inv_block: np.ndarray, d: int):
    """``(a[:p, :p+1], b[:p+1, :p])`` (``p + 1`` capped at ``d``) for the map
    ``blockdiag(S_block, 1)`` on ``d`` levels:
    ``S_p c[:p, :p+1] blockdiag(S_p^{-1}, 1)`` and
    ``blockdiag(S_p, 1) c^dag[:p+1, :p] S_p^{-1}``, one ``p x p`` product
    each."""
    p = len(S_block)
    up = _sqrt_range(1, min(p + 1, d))  # c[n, n+1] = c^dag[n+1, n] = sqrt(n+1)
    S_c = np.zeros((p, len(up) + 1), dtype=complex)  # S_p c[:p, :p+1]
    S_c[:, 1:] = S_block[:, :len(up)] * up
    c_S_inv = np.zeros((len(up) + 1, p), dtype=complex)  # c^dag[:p+1, :p] S_p^{-1}
    c_S_inv[1:] = up[:, None] * S_inv_block[:len(up)]
    return _rmul(S_c, S_inv_block), _lmul(S_block, c_S_inv)


def make_pair(riesz: RieszMap) -> PseudoBosonPair:
    """Transport the canonical ladder pair through ``S``:
    ``a = S c S^{-1}``, ``b = S c^dag S^{-1}``, as their borders.

    With ``S = blockdiag(S_p, 1)``, ``a`` is ``c`` outside ``a[:p, :p+1]``
    and ``b`` is ``c^dag`` outside ``b[:p+1, :p]``; :func:`_borders` forms
    those with no ``dim x dim`` transport."""
    a, b = _borders(riesz.S_block, riesz.S_inv_block, riesz.dim)
    return PseudoBosonPair(a_border=a, b_border=b, source=riesz)


def _commutator_block(pair: PseudoBosonPair) -> np.ndarray:
    """``[a, b][:m, :m]`` for ``m = min(q + 1, dim)``; outside it ``[a, b]`` is
    ``diag(1, ..., 1, -(dim - 1))``, the canonical commutator.  ``a b`` is
    ``blockdiag(a_border b_border, diag(q + 1, ..., dim - 1, 0))``."""
    q, N = pair.border, pair.number_block
    ab = np.diag(np.arange(1.0, len(N) + 1)).astype(complex)
    ab[:q, :q] = pair.a_border @ pair.b_border
    return ab - N


def _smallest_singular_vector(M: np.ndarray, tail: np.ndarray, what: str) -> np.ndarray:
    """Right-singular vector for the smallest singular value of the
    ``dim x dim`` matrix with the leading border ``M`` (``q x (q+1)``, or
    ``dim x dim``) whose only other entries are ``tail`` on the
    superdiagonal, ``tail[i]`` at ``(q + i, q + i + 1)``; fails if the two
    smallest singular values cannot be separated.  The matrix is
    ``blockdiag(M, T)`` and ``T``'s only entries are ``tail``, so its
    singular values are ``M``'s, zeros up to ``M``'s column count, and
    ``|tail|``."""
    _, sigma, Vh = np.linalg.svd(M)
    sigma = np.sort(np.concatenate([sigma, np.zeros(len(Vh) - len(sigma)), np.abs(tail)]))
    if sigma[1] - sigma[0] < 1e-8:
        raise DegenerateKernelError(
            f"two smallest singular values of {what} are within 1e-8 "
            f"({sigma[0]:.3e}, {sigma[1]:.3e}): vacuum is ambiguous"
        )
    return np.pad(np.conj(Vh[-1]), (0, len(tail)))


def _fix_phase(v: np.ndarray) -> np.ndarray:
    """Rotate so the largest-magnitude component is real and positive."""
    k = int(np.argmax(np.abs(v)))
    phase = v[k] / abs(v[k])
    return v * np.conj(phase)


def vacua(pair: PseudoBosonPair) -> tuple[np.ndarray, np.ndarray]:
    """Extract the vacua ``(phi0, psi0)`` by singular-vector computation.

    ``phi0`` is the right-singular vector of ``a`` for its smallest
    singular value (the numerical kernel direction) and ``psi0`` the
    analogue for ``b^dag``; this verifies the vacuum assumptions instead
    of assuming the closed forms ``S e_0`` and ``(S^{-1})^dag e_0`` that
    the checks compare them with.  The phase of ``phi0`` is fixed by
    making its largest-magnitude component real positive, and ``psi0`` is
    rescaled so ``<phi0, psi0> = 1``.  Both SVDs are of the pair's border:
    outside it ``a`` and ``b^dag`` are ``c``, whose superdiagonal enters as
    known singular values.

    Raises
    ------
    DegenerateKernelError
        If either kernel direction is ambiguous.
    OrthogonalVacuaError
        If ``|<phi0, psi0>| < 1e-10`` before rescaling.
    """
    tail = _sqrt_range(pair.border + 1, pair.space.dim)  # c beyond the border
    phi0 = _fix_phase(_smallest_singular_vector(pair.a_border, tail, "a"))
    psi0_raw = _smallest_singular_vector(pair.b_border.conj().T, tail, "b^dag")
    overlap = complex(np.vdot(phi0, psi0_raw))
    if abs(overlap) < 1e-10:
        raise OrthogonalVacuaError(
            f"vacua are numerically orthogonal: |<phi0, psi0>| = {abs(overlap):.3e}"
        )
    return phi0, psi0_raw / overlap


def _map_vacua(riesz: RieszMap) -> tuple[np.ndarray, np.ndarray]:
    """The map's vacua ``S e_0`` and ``(S^{-1})^dag e_0``, paired to 1."""
    e_0 = riesz.space.basis_vector(0)
    return _lmul(riesz.S_block, e_0), _lmul(riesz.S_inv_block.conj().T, e_0)


def ladder_check(pair: PseudoBosonPair) -> dict[str, np.ndarray]:
    """Residuals of the four ladder relations on the map's families
    ``phi_n = S e_n`` and ``psi_n = (S^{-1})^dag e_n``, keyed by relation
    and indexed by level ``n``.

    ``b_raise[n]`` and ``adag_raise[n]`` are the residuals of
    ``b phi_n = sqrt(n+1) phi_{n+1}`` and its dual below the top level,
    where raising leaves the family; ``a_lower[n]`` and ``bdag_lower[n]``
    those of ``a phi_n = sqrt(n) phi_{n-1}`` (with ``a phi_0 = 0``) and
    its dual on every level.  A family is ``blockdiag(B, 1)`` for ``B`` the
    map's ``S_block`` or ``S_inv_block^dag``, and outside the pair's border
    the operators are ``c`` and ``c^dag``, so every relation holds exactly
    from level ``w = q + 1`` on and reads 0 there; below it each operator's
    dense leading block is multiplied on the block's columns.
    """
    d = pair.space.dim
    w = min(pair.border + 1, d)
    w1, top = min(w + 1, d), min(w, d - 1)
    up = np.sqrt(np.arange(1.0, d))  # sqrt(n + 1) for n < dim - 1

    def residuals(raising, lowering, block):
        v = _blockdiag(block, w1)  # the family's leading block, column n is v_n
        lowered = np.pad(v[:w, :w - 1] * up[:w - 1], ((0, 0), (1, 0)))  # sqrt(n) v_{n-1}
        r_raise, r_lower = np.zeros(d - 1), np.zeros(d)
        r_raise[:top] = np.linalg.norm(_rmul(raising, block, top) - v[:, 1:top + 1] * up[:top],
                                       axis=0)
        r_lower[:w] = np.linalg.norm(_rmul(lowering, block) - lowered, axis=0)
        return r_raise, r_lower

    a_dag, b_dag = pair.a_border.conj().T, pair.b_border.conj().T
    b_raise, a_lower = residuals(_raising_lead(pair.b_border, w1, w),
                                 _lowering_lead(pair.a_border, w, w), pair.source.S_block)
    adag_raise, bdag_lower = residuals(_raising_lead(a_dag, w1, w), _lowering_lead(b_dag, w, w),
                                       pair.source.S_inv_block.conj().T)
    return {"b_raise": b_raise, "adag_raise": adag_raise,
            "a_lower": a_lower, "bdag_lower": bdag_lower}


def number_operator_check(pair: PseudoBosonPair) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvector residuals of the number operator ``N = b a``, indexed
    by level: ``N phi_n = n phi_n`` and ``N^dag psi_n = n psi_n`` for all
    levels below the truncation edge (``n <= dim - 2``), on the map's
    families.  ``N`` is ``blockdiag(number_block, diag(m, ..., dim - 1))``
    (:attr:`PseudoBosonPair.number_block`), so both relations hold exactly
    from level ``m`` on and read 0 there; below it ``N`` is multiplied on the
    block's columns only."""
    d, N = pair.space.dim, pair.number_block
    m = len(N)
    top = min(m, d - 1)
    levels = np.arange(float(top))

    def residuals(op, block):
        out = np.zeros(d - 1)
        v = _blockdiag(block, m)[:, :top]
        out[:top] = np.linalg.norm(_rmul(op, block, top) - v * levels, axis=0)
        return out

    return (residuals(N, pair.source.S_block),
            residuals(N.conj().T, pair.source.S_inv_block.conj().T))


def theta_conjugacy_check(pair: PseudoBosonPair, *, tol: float = 0.0) -> float:
    """Residual of ``a = Theta^{-1} b^dag Theta`` on the levels ``:dim - 1``
    below the truncation corner, with the metric of the pair's own map.
    Outside the pair's border ``b^dag`` is ``c``, and ``Theta`` is the
    identity outside its ``p x p`` block (``p <= q``), so the residual
    vanishes outside rows ``:q`` and columns ``:q+1``; only that block is
    formed.

    Each factor of ``S`` or its inverse can amplify roundoff by the
    condition number, hence the runner's ``cond^3`` tolerance.  The norm is
    graded against ``tol`` (:func:`~pseudoboson.fock._graded_norm`): a value
    at most ``tol`` may be the Frobenius bound, one above it is exact.
    """
    riesz, d, q = pair.source, pair.space.dim, pair.border
    rows, cols = min(q, d - 1), min(q + 1, d - 1)
    conjugated = _transport(
        riesz.theta_inv_block, _lowering_lead(pair.b_border.conj().T, q, min(q + 1, d)),
        riesz.theta_block, rows, cols)
    return _graded_norm(_lowering_lead(pair.a_border, rows, cols) - conjugated, 1.0, tol)
