"""Bounded invertible maps, biorthogonal families, and the metric operator.

A Riesz map ``S`` sends the canonical basis onto a well-conditioned
non-orthogonal family: ``phi_n = S e_n``.  Its dual family is
``psi_n = (S^{-1})^dag e_n`` and the two are exactly biorthogonal in
finite dimension.  The metric operator ``Theta = (S^{-1})^dag S^{-1}``
is positive, maps ``phi_n`` to ``psi_n``, and equals the rank-one sum
``sum_n |psi_n><psi_n|`` while its inverse ``S S^dag`` equals
``sum_n |phi_n><phi_n|``.

Every map the program builds is the identity outside a leading block,
``S = blockdiag(S[:p, :p], 1)``, so that it keeps the top levels, where
the hard cutoff sits, untouched: ``p = k + 1`` for the projector map
``1 + i|e_k><e_k|``, ``dim - dim // 2`` for a random map, ``0`` for the
identity.  :func:`make_riesz_map` finds the smallest such ``p`` by an
exact test and takes the SVD and the inverse on that block only (a dense
map has ``p = dim``).  The map is applied only where it deforms: one
private pair of products, ``_lmul`` and ``_rmul``, multiplies by a matrix
that is the identity outside its leading ``p x p`` block, and every
site that applies ``S``, ``S^{-1}``, ``S S^dag`` or ``Theta`` goes
through them (``_transport`` gives ``S X S^{-1}``, ``_cotransport``
``(S^{-1})^dag X S^dag``); only the family checks (the cross-Gram
matrix, the rank-one sums) multiply the full families, as the route
they check.  The dense product adds only exact zeros
outside the block, so the two agree up to the order of summation inside
it, bit for bit on the projector map.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    ConditioningError,
    DimensionMismatchError,
    NotInvertibleError,
    ValidationError,
)
from .fock import FockSpace, Operator, _freeze, _spectral_norm

__all__ = [
    "RieszMap",
    "BiorthogonalFamily",
    "MetricOperator",
    "make_riesz_map",
    "random_riesz_map",
    "biorthogonal_family",
    "metric_operator",
    "theta_rank_one_sums",
    "quasi_basis_check",
    "save_riesz_map",
    "load_riesz_map",
]

#: Relative singular-value floor below which a map is declared singular.
SINGULARITY_FLOOR = 1e-13


@dataclass(frozen=True)
class RieszMap:
    """Invertible map with cached inverse and singular-value bounds.

    ``frame_bounds = (A, B)`` are the squared extreme singular values of
    ``S``: every unit vector ``f`` satisfies ``A <= ||S f||^2 <= B``, and
    ``inverse_residual`` is ``||S S^{-1} - 1||_2``.  ``block`` is the
    smallest ``p`` with ``S = blockdiag(S[:p, :p], 1)`` (module docstring);
    ``block_u`` and ``block_sigma`` are the left singular vectors and the
    singular values of that block.
    """

    S: Operator
    S_inv: Operator
    cond: float
    frame_bounds: tuple[float, float]
    inverse_residual: float
    block: int
    block_u: np.ndarray = field(repr=False, compare=False)
    block_sigma: np.ndarray = field(repr=False, compare=False)

    @property
    def space(self) -> FockSpace:
        return self.S.space

    @property
    def dim(self) -> int:
        return self.S.space.dim


@dataclass(frozen=True, eq=False)
class BiorthogonalFamily:
    """Column-stacked families ``phi[:, n] = phi_n`` and ``psi[:, n] = psi_n``.

    The two stacks always hold the same number of vectors; a *full*
    family has one vector per level of the space.
    """

    space: FockSpace
    phi: np.ndarray
    psi: np.ndarray

    def __post_init__(self):
        _freeze(self, "phi", "psi", dtype=complex)
        phi, psi = self.phi, self.psi
        if phi.shape != psi.shape or phi.ndim != 2 or phi.shape[0] != self.space.dim:
            raise DimensionMismatchError(
                f"family shapes {phi.shape} / {psi.shape} invalid for dim {self.space.dim}"
            )
        for arr, name in ((phi, "phi"), (psi, "psi")):
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"{name} entries must be finite")

    @property
    def size(self) -> int:
        """Number of vectors in each family."""
        return self.phi.shape[1]

    def gram(self) -> np.ndarray:
        """Cross-Gram matrix ``G[n, m] = <phi_n, psi_m>`` (identity for a
        genuine biorthogonal pair)."""
        return self.phi.conj().T @ self.psi


@dataclass(frozen=True, eq=False)
class MetricOperator:
    """Positive operator carrying one family onto its dual,
    together with its inverse and the map both derive from."""

    theta: Operator
    theta_inv: Operator
    source: RieszMap


def _deformed_block(M: np.ndarray) -> int:
    """Smallest ``p`` with ``M = blockdiag(M[:p, :p], 1)``: one more than the
    largest row or column index of an entry that differs from the identity's
    (an exact comparison, so ``p = 0`` only for the exact identity)."""
    moved = M != np.eye(len(M))
    touched = np.flatnonzero(moved.any(axis=0) | moved.any(axis=1))
    return int(touched[-1]) + 1 if touched.size else 0


def make_riesz_map(S: Operator, max_cond: float = 1e12) -> RieszMap:
    """Validate and package an invertible map.

    The inverse is computed once from the singular value decomposition
    (rank-revealing, so near-singularity is detected rather than silently
    amplified).  Both are taken on the deformed block ``S[:p, :p]`` only;
    the identity outside it adds singular values 1 and is its own inverse.

    Parameters
    ----------
    S : Operator
        Square map on a truncated Fock space.
    max_cond : float
        Conditioning budget; ``cond(S)`` above this raises
        :class:`ConditioningError`.

    Raises
    ------
    NotInvertibleError
        If the smallest singular value is below ``1e-13`` times the
        largest, or the cached inverse fails its residual check.
    ConditioningError
        If ``cond(S) > max_cond``.
    """
    d = S.space.dim
    p = _deformed_block(S.mat)
    S_block = S.mat[:p, :p]
    U, sigma, Vh = np.linalg.svd(S_block)
    spectrum = np.append(sigma, 1.0) if p < d else sigma
    s_max, s_min = float(spectrum.max()), float(spectrum.min())
    if s_max == 0.0 or s_min <= SINGULARITY_FLOOR * s_max:
        raise NotInvertibleError(
            f"map is numerically singular: sigma_min/sigma_max = {s_min / max(s_max, 1e-300):.3e}"
        )
    cond = s_max / s_min
    if cond > max_cond:
        raise ConditioningError(f"cond(S) = {cond:.3e} exceeds budget {max_cond:.3e}")
    S_inv = np.eye(d, dtype=complex)
    S_inv[:p, :p] = Vh.conj().T @ ((1.0 / sigma)[:, None] * U.conj().T)
    residual = _spectral_norm(S_block @ S_inv[:p, :p] - np.eye(p))
    if residual > 1e-12 * cond:
        raise NotInvertibleError(
            f"inverse residual {residual:.3e} exceeds 1e-12 * cond = {1e-12 * cond:.3e}"
        )
    U.setflags(write=False)
    sigma.setflags(write=False)
    return RieszMap(S=S, S_inv=Operator(S.space, S_inv), cond=cond,
                    frame_bounds=(s_min**2, s_max**2), inverse_residual=residual,
                    block=p, block_u=U, block_sigma=sigma)


def random_riesz_map(
    space: FockSpace, target_cond: float, seed: int, top_margin: int | None = None
) -> RieszMap:
    """Deterministic random map with condition number ``target_cond``.

    The deformed block is ``U diag(sigma) V^dag`` with Haar-like unitary
    factors from QR of seeded complex Gaussian matrices and singular
    values spaced geometrically so that ``sigma_max / sigma_min``
    equals ``target_cond`` exactly (up to roundoff).  ``target_cond = 1``
    yields a random unitary.

    ``top_margin`` levels at the top of the space are left untouched
    (default ``dim // 2``).  This is the truncation-faithful counterpart
    of requiring the map and its inverse to preserve the dense domain:
    a map that mixes the highest retained levels drags the hard-cutoff
    defect of the ladder algebra into the safe subspace, and the
    commutator and factorization checks then measure that leakage
    instead of the identities they target.  Pass ``top_margin=0`` for a
    fully dense deformation when that leakage is itself the object of
    study.
    """
    if target_cond < 1:
        raise ValidationError(f"target_cond must be >= 1, got {target_cond}")
    d = space.dim
    if top_margin is None:
        top_margin = d // 2
    if not 0 <= top_margin <= d - 1:
        raise ValidationError(f"top_margin must be in [0, {d - 1}], got {top_margin}")
    p = d - top_margin
    rng = np.random.default_rng(seed)

    def haar_unitary() -> np.ndarray:
        A = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
        Q, R = np.linalg.qr(A)
        diag = np.diag(R)
        return Q * (diag / np.abs(diag))

    sigma = target_cond ** (np.linspace(1.0, 0.0, p))
    M = np.eye(d, dtype=complex)
    M[:p, :p] = haar_unitary() @ (sigma[:, None] * haar_unitary().conj().T)
    return make_riesz_map(Operator(space, M), max_cond=10.0 * target_cond + 10.0)


def biorthogonal_family(riesz: RieszMap) -> BiorthogonalFamily:
    """Full family ``phi_n = S e_n``, ``psi_n = (S^{-1})^dag e_n``
    (the columns of ``S`` and of the conjugate-transposed inverse)."""
    return BiorthogonalFamily(
        space=riesz.space, phi=riesz.S.mat, psi=riesz.S_inv.mat.conj().T
    )


def metric_operator(riesz: RieszMap) -> MetricOperator:
    """Metric operator ``Theta = (S^{-1})^dag S^{-1}`` and its inverse
    ``S S^dag``; both are self-adjoint and positive, and ``Theta`` maps
    each ``phi_n`` onto ``psi_n``.

    Both come from the SVD ``U diag(sigma) V^dag`` of the deformed block,
    as ``U diag(sigma^-2) U^dag`` and ``U diag(sigma^2) U^dag`` (each
    formed as ``Y Y^dag``, so exactly self-adjoint), with the identity
    outside the block.  No product of ``S`` or its inverse enters, so the
    rank-one sums of the families check an independent route."""
    p = riesz.block
    theta, theta_inv = np.eye(riesz.dim, dtype=complex), np.eye(riesz.dim, dtype=complex)
    for out, factor in ((theta, riesz.block_u / riesz.block_sigma),
                        (theta_inv, riesz.block_u * riesz.block_sigma)):
        out[:p, :p] = factor @ factor.conj().T
    return MetricOperator(theta=Operator(riesz.space, theta),
                          theta_inv=Operator(riesz.space, theta_inv), source=riesz)


def _lmul(B: np.ndarray, X: np.ndarray, rows: int | None = None) -> np.ndarray:
    """Rows ``:rows`` of ``blockdiag(B, 1) @ X`` for a square block ``B``:
    only the block's rows are multiplied, the rows below it are copied."""
    p = len(B)
    out = np.array(X[:rows], dtype=np.result_type(B, X), order="C")
    q = min(p, len(out))
    np.matmul(B[:q], X[:p], out=out[:q])
    return out


def _rmul(X: np.ndarray, B: np.ndarray, cols: int | None = None) -> np.ndarray:
    """Columns ``:cols`` of ``X @ blockdiag(B, 1)`` for a square block ``B``:
    only the block's columns are multiplied, the columns after it are copied."""
    p = len(B)
    out = np.array(X[:, :cols], dtype=np.result_type(B, X), order="C")
    q = min(p, out.shape[1])
    np.matmul(X[:, :p], B[:, :q], out=out[:, :q])
    return out


def _transport(riesz: RieszMap, X: np.ndarray, size: int | None = None) -> np.ndarray:
    """``S X S^{-1}``, or its leading ``size x size`` block, with ``S`` and
    ``S^{-1}`` applied on their deformed block only."""
    p = riesz.block
    return _rmul(_lmul(riesz.S.mat[:p, :p], X, size), riesz.S_inv.mat[:p, :p], size)


def _cotransport(riesz: RieszMap, X: np.ndarray, size: int | None = None) -> np.ndarray:
    """``(S^{-1})^dag X S^dag``, or its leading ``size x size`` block, with
    both factors applied on their deformed block only."""
    p = riesz.block
    return _rmul(_lmul(riesz.S_inv.mat[:p, :p].conj().T, X, size),
                 riesz.S.mat[:p, :p].conj().T, size)


def theta_rank_one_sums(fam: BiorthogonalFamily) -> tuple[Operator, Operator]:
    """Rank-one sums ``sum_n |psi_n><psi_n|`` and ``sum_n |phi_n><phi_n|``.

    For a full family these telescope exactly to the metric operator and
    its inverse.  Requires all ``dim`` vectors.
    """
    if fam.size != fam.space.dim:
        raise DimensionMismatchError(
            f"rank-one sums need the full family: got {fam.size} of {fam.space.dim} vectors"
        )
    theta_sum = Operator(fam.space, fam.psi @ fam.psi.conj().T)
    theta_inv_sum = Operator(fam.space, fam.phi @ fam.phi.conj().T)
    return theta_sum, theta_inv_sum


def quasi_basis_check(
    fam: BiorthogonalFamily, f: np.ndarray, g: np.ndarray
) -> tuple[complex, complex, complex]:
    """Weak resolution of the identity through the family.

    Returns ``(<f, g>, sum_n <f, phi_n><psi_n, g>, sum_n <f, psi_n><phi_n, g>)``;
    all three agree to roundoff for a full biorthogonal family.
    """
    f = np.asarray(f, dtype=complex)
    g = np.asarray(g, dtype=complex)
    d = fam.space.dim
    if f.shape != (d,) or g.shape != (d,):
        raise DimensionMismatchError(
            f"vectors must have shape ({d},), got {f.shape} and {g.shape}"
        )
    direct = complex(np.vdot(f, g))
    via_phi_psi = complex((f.conj() @ fam.phi) @ (fam.psi.conj().T @ g))
    via_psi_phi = complex((f.conj() @ fam.psi) @ (fam.phi.conj().T @ g))
    return direct, via_phi_psi, via_psi_phi


def save_riesz_map(riesz: RieszMap, path: str | Path) -> None:
    """Serialize the map as a flat JSON record
    ``{"dim": d, "entries": [[re, im], ...]}`` (row-major)."""
    entries = [
        [float(v.real), float(v.imag)] for v in riesz.S.mat.reshape(-1)
    ]
    record = {"dim": riesz.dim, "entries": entries}
    Path(path).write_text(json.dumps(record))


def load_riesz_map(path: str | Path, max_cond: float = 1e12) -> RieszMap:
    """Load a serialized map and revalidate invertibility."""
    record = json.loads(Path(path).read_text())
    try:
        d = int(record["dim"])
        entries = record["entries"]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed map record in {path}") from exc
    if len(entries) != d * d:
        raise ValidationError(
            f"expected {d * d} entries for dim {d}, got {len(entries)}"
        )
    flat = np.array([complex(re, im) for re, im in entries])
    return make_riesz_map(Operator(FockSpace(d), flat.reshape(d, d)), max_cond=max_cond)
