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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateKernelError,
    InvalidDimensionError,
    OrthogonalVacuaError,
    ValidationError,
)
from .fock import Operator, SafeSubspace, _spectral_norm, ladder_c
from .riesz import RieszMap, _blockdiag, _lmul, _rmul, _transport

__all__ = [
    "PseudoBosonPair",
    "make_pair",
    "vacua",
    "excited_states",
    "ladder_check",
    "number_operator_check",
    "theta_conjugacy_check",
]


@dataclass(frozen=True, eq=False)
class PseudoBosonPair:
    """Operators ``(a, b)`` together with the map they were built from;
    ``space`` is the map's."""

    a: Operator
    b: Operator
    source: RieszMap

    space = property(lambda self: self.source.space)


def make_pair(riesz: RieszMap) -> PseudoBosonPair:
    """Transport the canonical ladder pair through ``S``:
    ``a = S c S^{-1}``, ``b = S c^dag S^{-1}``."""
    space = riesz.space
    c = ladder_c(space).mat
    a = Operator(space, _transport(riesz, c))
    b = Operator(space, _transport(riesz, c.conj().T))
    return PseudoBosonPair(a=a, b=b, source=riesz)


def _smallest_singular_vector(M: np.ndarray, what: str) -> np.ndarray:
    """Right-singular vector for the smallest singular value; fails if the
    two smallest singular values cannot be separated.  For ``q`` the least
    index with every nonzero ``M[i, j]`` off the superdiagonal at ``i < q``,
    ``j <= q``, ``M = blockdiag(M[:q, :q+1], T)`` and ``T``'s only entries
    are the ``M[i, i+1]``, ``i >= q``; so ``sigma(M)`` is the block's, zeros
    up to its column count, and the ``|M[i, i+1]|``."""
    off = M != 0
    np.fill_diagonal(off[:, 1:], False)
    rows, cols = np.flatnonzero(off.any(axis=1)), np.flatnonzero(off.any(axis=0))
    q = max(rows[-1] + 1 if rows.size else 0, cols[-1] if cols.size else 0)
    _, sigma, Vh = np.linalg.svd(M[:q, :q + 1])
    sigma = np.sort(np.concatenate(
        [sigma, np.zeros(len(Vh) - len(sigma)), np.abs(np.diag(M, 1)[q:])]))
    if sigma[1] - sigma[0] < 1e-8:
        raise DegenerateKernelError(
            f"two smallest singular values of {what} are within 1e-8 "
            f"({sigma[0]:.3e}, {sigma[1]:.3e}): vacuum is ambiguous"
        )
    return np.pad(np.conj(Vh[-1]), (0, len(M) - len(Vh)))


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
    rescaled so ``<phi0, psi0> = 1``.

    Raises
    ------
    DegenerateKernelError
        If either kernel direction is ambiguous.
    OrthogonalVacuaError
        If ``|<phi0, psi0>| < 1e-10`` before rescaling.
    """
    phi0 = _fix_phase(_smallest_singular_vector(pair.a.mat, "a"))
    psi0_raw = _smallest_singular_vector(pair.b.mat.conj().T, "b^dag")
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


def excited_states(pair: PseudoBosonPair, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Families grown from the map's vacua ``phi0 = S e_0`` and
    ``psi0 = (S^{-1})^dag e_0`` by ladder action, as the column stacks
    ``phi[:, n] = b^n phi0 / sqrt(n!)`` and
    ``psi[:, n] = (a^dag)^n psi0 / sqrt(n!)`` for ``n <= n_max``.

    Built iteratively as ``phi_{n+1} = b phi_n / sqrt(n+1)`` so no
    factorial-sized intermediate ever appears.  The stacks reproduce the
    map's columns ``S e_n`` and ``(S^{-1})^dag e_n`` to roundoff.

    Raises
    ------
    InvalidDimensionError
        If ``n_max`` is outside ``[0, dim - 1]``.
    ValidationError
        If an entry of either stack is not finite.
    """
    d = pair.space.dim
    if not 0 <= n_max <= d - 1:
        raise InvalidDimensionError(f"n_max must be in [0, {d - 1}], got {n_max}")
    # Extended-precision pipeline: each ladder application amplifies the
    # off-kernel error of the starting vector by roughly ||b|| / sqrt(n+1),
    # which costs several digits by n ~ dim/2 in double precision.  The
    # operators and the vacua are rebuilt in long-double precision (one
    # Newton correction of the cached inverse), so the recursion starts on
    # the exact kernel directions with no off-kernel rounding to amplify.
    work = np.clongdouble
    S = pair.source.S_block.astype(work)
    S_inv = pair.source.S_inv_block.astype(work)
    S_inv = S_inv @ (2.0 * np.eye(len(S), dtype=work) - S @ S_inv)
    lower = np.diag(np.sqrt(np.arange(1, d, dtype=np.longdouble)), 1).astype(work)
    b = _rmul(_lmul(S, lower.conj().T), S_inv)
    a_dag = _rmul(_lmul(S, lower), S_inv).conj().T
    e_0 = np.eye(d, 1, dtype=work)[:, 0]
    phi = np.empty((d, n_max + 1), dtype=work)
    psi = np.empty((d, n_max + 1), dtype=work)
    phi[:, 0] = _lmul(S, e_0)  # ker(a) = span{S e_0}
    psi[:, 0] = _lmul(S_inv.conj().T, e_0)  # ker(b^dag) = span{(S^-1)^dag e_0}
    for n in range(n_max):
        scale = 1.0 / np.sqrt(np.longdouble(n + 1))
        phi[:, n + 1] = scale * (b @ phi[:, n])
        psi[:, n + 1] = scale * (a_dag @ psi[:, n])
    phi, psi = phi.astype(complex), psi.astype(complex)
    for arr, name in ((phi, "phi"), (psi, "psi")):
        if not np.all(np.isfinite(arr)):
            raise ValidationError(f"{name} entries must be finite")
    return phi, psi


def ladder_check(pair: PseudoBosonPair) -> dict[str, np.ndarray]:
    """Residuals of the four ladder relations on the map's families
    ``phi_n = S e_n`` and ``psi_n = (S^{-1})^dag e_n``, keyed by relation
    and indexed by level ``n``.

    ``b_raise[n]`` and ``adag_raise[n]`` are the residuals of
    ``b phi_n = sqrt(n+1) phi_{n+1}`` and its dual below the top level,
    where raising leaves the family; ``a_lower[n]`` and ``bdag_lower[n]``
    those of ``a phi_n = sqrt(n) phi_{n-1}`` (with ``a phi_0 = 0``) and
    its dual on every level.  A family is ``blockdiag(B, 1)`` for ``B`` the
    map's ``S_block`` or ``S_inv_block^dag``, so an operator is multiplied
    on the block's columns only and its other columns are read as they are.
    """
    a, b = pair.a.mat, pair.b.mat
    d = pair.space.dim
    up = np.sqrt(np.arange(1.0, d))  # sqrt(n + 1) for n < dim - 1

    def residuals(raising, lowering, block):
        v = _blockdiag(block, d)  # the family, column n is v_n
        lowered = np.pad(v[:, :-1] * up, ((0, 0), (1, 0)))  # sqrt(n) v_{n-1}, zero at n = 0
        return (np.linalg.norm(_rmul(raising, block, d - 1) - v[:, 1:] * up, axis=0),
                np.linalg.norm(_rmul(lowering, block) - lowered, axis=0))

    b_raise, a_lower = residuals(b, a, pair.source.S_block)
    adag_raise, bdag_lower = residuals(a.conj().T, b.conj().T, pair.source.S_inv_block.conj().T)
    return {"b_raise": b_raise, "adag_raise": adag_raise,
            "a_lower": a_lower, "bdag_lower": bdag_lower}


def number_operator_check(pair: PseudoBosonPair) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvector residuals of the number operator ``N = b a``, indexed
    by level: ``N phi_n = n phi_n`` and ``N^dag psi_n = n psi_n`` for all
    levels below the truncation edge (``n <= dim - 2``), on the map's
    families, with ``N`` multiplied on the block's columns only."""
    N = pair.b.mat @ pair.a.mat
    top = pair.space.dim - 1
    levels = np.arange(float(top))

    def residuals(op, block):
        v = _blockdiag(block, len(op))[:, :top]
        return np.linalg.norm(_rmul(op, block, top) - v * levels, axis=0)

    return (residuals(N, pair.source.S_block),
            residuals(N.conj().T, pair.source.S_inv_block.conj().T))


def theta_conjugacy_check(pair: PseudoBosonPair, sub: SafeSubspace) -> float:
    """Residual of ``a = Theta^{-1} b^dag Theta`` on the safe subspace, with
    the metric of the pair's own map.

    Each factor of ``S`` or its inverse can amplify roundoff by the
    condition number, hence the runner's ``cond^3`` tolerance.
    """
    k, riesz = sub.cutoff, pair.source
    conjugated = _rmul(_lmul(riesz.theta_inv_block, pair.b.mat.conj().T, k),
                       riesz.theta_block, k)
    return _spectral_norm(pair.a.mat[:k, :k] - conjugated)
