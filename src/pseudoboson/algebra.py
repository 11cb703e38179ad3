"""Pseudo-bosonic operator pairs and their verification checks.

A pair ``(a, b)`` with ``a = S c S^{-1}`` and ``b = S c^dag S^{-1}``
satisfies the commutation relation ``[a, b] = 1`` below the truncation
corner, with ``b != a^dag`` whenever ``S`` is not unitary.  The checks in
this module quantify, in floating point, the identities the pair is
supposed to satisfy: annihilated vacua, ladder action on the excited
families, integer spectrum of the number operator ``N = b a``, and the
metric conjugation ``a = Theta^{-1} b^dag Theta``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateKernelError,
    InvalidDimensionError,
    OrthogonalVacuaError,
    ProvenanceError,
)
from .fock import FockSpace, Operator, SafeSubspace, _freeze, _spectral_norm, ladder_c
from .riesz import BiorthogonalFamily, MetricOperator, RieszMap, _lmul, _rmul, _transport

__all__ = [
    "PseudoBosonPair",
    "VacuumPair",
    "make_pair",
    "vacua",
    "vacua_from_map",
    "excited_states",
    "ladder_check",
    "number_operator_check",
    "theta_conjugacy_check",
]


@dataclass(frozen=True, eq=False)
class PseudoBosonPair:
    """Operators ``(a, b)`` together with the map they were built from."""

    a: Operator
    b: Operator
    source: RieszMap
    space: FockSpace


@dataclass(frozen=True, eq=False)
class VacuumPair:
    """Vacua ``phi0`` (annihilated by ``a``) and ``psi0`` (annihilated by
    ``b^dag``), scaled so ``<phi0, psi0> = 1``.

    ``normalization`` records the pairing ``<phi0, psi0_raw>`` that the
    raw ``psi0`` was divided by.
    """

    phi0: np.ndarray
    psi0: np.ndarray
    normalization: complex

    def __post_init__(self):
        _freeze(self, "phi0", "psi0", dtype=complex)


def make_pair(riesz: RieszMap) -> PseudoBosonPair:
    """Transport the canonical ladder pair through ``S``:
    ``a = S c S^{-1}``, ``b = S c^dag S^{-1}``."""
    space = riesz.space
    c = ladder_c(space).mat
    a = Operator(space, _transport(riesz, c))
    b = Operator(space, _transport(riesz, c.conj().T))
    return PseudoBosonPair(a=a, b=b, source=riesz, space=space)


def _smallest_singular_vector(M: np.ndarray, what: str) -> tuple[np.ndarray, float]:
    """Right-singular vector for the smallest singular value; fails if the
    two smallest singular values cannot be separated."""
    _, sigma, Vh = np.linalg.svd(M)
    if sigma[-2] - sigma[-1] < 1e-8:
        raise DegenerateKernelError(
            f"two smallest singular values of {what} are within 1e-8 "
            f"({sigma[-1]:.3e}, {sigma[-2]:.3e}): vacuum is ambiguous"
        )
    return np.conj(Vh[-1]), float(sigma[-1])


def _fix_phase(v: np.ndarray) -> np.ndarray:
    """Rotate so the largest-magnitude component is real and positive."""
    k = int(np.argmax(np.abs(v)))
    phase = v[k] / abs(v[k])
    return v * np.conj(phase)


def vacua(pair: PseudoBosonPair) -> VacuumPair:
    """Extract the vacua by singular-vector computation.

    ``phi0`` is the right-singular vector of ``a`` for its smallest
    singular value (the numerical kernel direction) and ``psi0`` the
    analogue for ``b^dag``; this verifies the vacuum assumptions instead
    of assuming the closed forms.  The phase of ``phi0`` is fixed by
    making its largest-magnitude component real positive, and ``psi0`` is
    rescaled to unit pairing.

    Raises
    ------
    DegenerateKernelError
        If either kernel direction is ambiguous.
    OrthogonalVacuaError
        If ``|<phi0, psi0>| < 1e-10`` before rescaling.
    """
    phi0, _ = _smallest_singular_vector(pair.a.mat, "a")
    phi0 = _fix_phase(phi0)
    psi0_raw, _ = _smallest_singular_vector(pair.b.mat.conj().T, "b^dag")
    overlap = complex(np.vdot(phi0, psi0_raw))
    if abs(overlap) < 1e-10:
        raise OrthogonalVacuaError(
            f"vacua are numerically orthogonal: |<phi0, psi0>| = {abs(overlap):.3e}"
        )
    return VacuumPair(phi0=phi0, psi0=psi0_raw / overlap, normalization=overlap)


def vacua_from_map(riesz: RieszMap) -> VacuumPair:
    """Closed-form vacua ``phi0 = S e_0`` and ``psi0 = (S^{-1})^dag e_0``.

    These satisfy ``<phi0, psi0> = 1`` exactly and serve as the oracle
    the extracted vacua are compared against; they also normalize the
    excited families so that ``phi_n = S e_n`` without extra scaling.
    """
    phi0 = riesz.S.mat[:, 0].copy()
    psi0 = np.conj(riesz.S_inv.mat[0, :])
    return VacuumPair(phi0=phi0, psi0=psi0, normalization=complex(np.vdot(phi0, psi0)))


def excited_states(pair: PseudoBosonPair, vac: VacuumPair, n_max: int) -> BiorthogonalFamily:
    """Families ``phi_n = b^n phi0 / sqrt(n!)`` and
    ``psi_n = (a^dag)^n psi0 / sqrt(n!)`` for ``n <= n_max``.

    Built iteratively as ``phi_{n+1} = b phi_n / sqrt(n+1)`` so no
    factorial-sized intermediate ever appears.
    """
    d = pair.space.dim
    if not 0 <= n_max <= d - 1:
        raise InvalidDimensionError(f"n_max must be in [0, {d - 1}], got {n_max}")
    # Extended-precision pipeline: each ladder application amplifies the
    # off-kernel error of the starting vector by roughly ||b|| / sqrt(n+1),
    # which costs several digits by n ~ dim/2 in double precision.  The
    # operators are rebuilt in long-double precision (one Newton correction
    # of the cached inverse) and the vacua are projected onto the exact
    # kernel directions, which preserves the caller's normalization while
    # discarding the off-kernel rounding that the recursion would amplify.
    work = np.clongdouble
    p = pair.source.block
    S = pair.source.S.mat[:p, :p].astype(work)
    S_inv = pair.source.S_inv.mat[:p, :p].astype(work)
    S_inv = S_inv @ (2.0 * np.eye(p, dtype=work) - S @ S_inv)
    lower = np.diag(np.sqrt(np.arange(1, d, dtype=np.longdouble)), 1).astype(work)
    b = _rmul(_lmul(S, lower.conj().T), S_inv)
    a_dag = _rmul(_lmul(S, lower), S_inv).conj().T
    e_0 = np.eye(d, 1, dtype=work)[:, 0]
    kernel_a = _lmul(S, e_0)  # ker(a) = span{S e_0}
    kernel_bdag = _lmul(S_inv.conj().T, e_0)  # ker(b^dag) = span{(S^-1)^dag e_0}
    phi = np.empty((d, n_max + 1), dtype=work)
    psi = np.empty((d, n_max + 1), dtype=work)
    phi0 = np.asarray(vac.phi0, dtype=work)
    psi0 = np.asarray(vac.psi0, dtype=work)
    phi[:, 0] = kernel_a * (kernel_a.conj() @ phi0) / (kernel_a.conj() @ kernel_a)
    psi[:, 0] = kernel_bdag * (kernel_bdag.conj() @ psi0) / (kernel_bdag.conj() @ kernel_bdag)
    for n in range(n_max):
        scale = 1.0 / np.sqrt(np.longdouble(n + 1))
        phi[:, n + 1] = scale * (b @ phi[:, n])
        psi[:, n + 1] = scale * (a_dag @ psi[:, n])
    return BiorthogonalFamily(
        space=pair.space, phi=phi.astype(complex), psi=psi.astype(complex)
    )


def ladder_check(pair: PseudoBosonPair, fam: BiorthogonalFamily) -> dict[str, np.ndarray]:
    """Residuals of the four ladder relations on the family, keyed by
    relation and indexed by level ``n``.

    ``b_raise[n]`` and ``adag_raise[n]`` are the residuals of
    ``b phi_n = sqrt(n+1) phi_{n+1}`` and its dual below the top level,
    where raising leaves the family; ``a_lower[n]`` and ``bdag_lower[n]``
    those of ``a phi_n = sqrt(n) phi_{n-1}`` (with ``a phi_0 = 0``) and
    its dual on every level.
    """
    if fam.size < 2:
        raise InvalidDimensionError("ladder check needs a family of length >= 2")
    a, b = pair.a.mat, pair.b.mat
    phi, psi = fam.phi, fam.psi
    up = np.sqrt(np.arange(1.0, fam.size))  # sqrt(n + 1) for n < size - 1

    def lowered(v):  # sqrt(n) v_{n-1} on every level, zero at n = 0
        return np.pad(v[:, :-1] * up, ((0, 0), (1, 0)))

    return {
        "b_raise": np.linalg.norm(b @ phi[:, :-1] - phi[:, 1:] * up, axis=0),
        "adag_raise": np.linalg.norm(a.conj().T @ psi[:, :-1] - psi[:, 1:] * up, axis=0),
        "a_lower": np.linalg.norm(a @ phi - lowered(phi), axis=0),
        "bdag_lower": np.linalg.norm(b.conj().T @ psi - lowered(psi), axis=0),
    }


def number_operator_check(
    pair: PseudoBosonPair, fam: BiorthogonalFamily
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvector residuals of the number operator ``N = b a``, indexed
    by level: ``N phi_n = n phi_n`` and ``N^dag psi_n = n psi_n`` for all
    levels below the truncation edge (``n <= dim - 2``)."""
    N = pair.b.mat @ pair.a.mat
    n_top = min(fam.size - 1, pair.space.dim - 2)
    levels = np.arange(n_top + 1.0)
    phi, psi = fam.phi[:, : n_top + 1], fam.psi[:, : n_top + 1]
    return (np.linalg.norm(N @ phi - phi * levels, axis=0),
            np.linalg.norm(N.conj().T @ psi - psi * levels, axis=0))


def theta_conjugacy_check(
    pair: PseudoBosonPair, metric: MetricOperator, sub: SafeSubspace
) -> float:
    """Residual of ``a = Theta^{-1} b^dag Theta`` on the safe subspace.

    Each factor of ``S`` or its inverse can amplify roundoff by the
    condition number, hence the runner's ``cond^3`` tolerance.
    """
    if not np.array_equal(pair.source.S.mat, metric.source.S.mat):
        raise ProvenanceError("pair and metric operator come from different maps")
    k, p = sub.cutoff, metric.source.block
    conjugated = _rmul(_lmul(metric.theta_inv.mat[:p, :p], pair.b.mat.conj().T, k),
                       metric.theta.mat[:p, :p], k)
    return _spectral_norm(pair.a.mat[:k, :k] - conjugated)
