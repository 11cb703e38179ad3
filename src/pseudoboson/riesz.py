"""Bounded invertible maps, their biorthogonal families, and the metric operator.

A Riesz map ``S`` sends the canonical basis onto a well-conditioned
non-orthogonal family: ``phi_n = S e_n``.  Its dual family is
``psi_n = (S^{-1})^dag e_n`` and the two are exactly biorthogonal in
finite dimension.  The metric operator ``Theta = (S^{-1})^dag S^{-1}`` is
positive, maps ``phi_n`` to ``psi_n``, and equals the rank-one sum
``sum_n |psi_n><psi_n|`` while its inverse ``S S^dag`` equals
``sum_n |phi_n><phi_n|``.  Neither the families nor the metric are
stored apart from the map: the families are the columns of ``S`` and of
``(S^{-1})^dag``, the map holds the blocks of ``Theta`` and its inverse,
and every check that reads them reads the map's blocks.

Every map the program builds keeps the top levels, where the hard cutoff
sits, untouched: ``S = blockdiag(S_p, 1)`` with ``p = k + 1`` for the
projector map ``1 + i|e_k><e_k|``, ``dim - dim // 2`` for a random map,
``0`` for the identity and ``dim`` for a dense map.  Every map is
packaged from the singular value decomposition of that block by one
routine, :func:`_factored_map`: :func:`random_riesz_map` hands it the
factors the block is built from, and :func:`make_riesz_map`, which every
other builder calls with only a leading block of ``S``, the block's SVD.
So only a dense map, its own block of side ``dim``, forms a ``dim x dim``
matrix.  A map holds only the ``p x p`` blocks of ``S``,
``S^{-1}``, ``Theta`` and ``Theta^{-1}``, and ``_lmul``/``_rmul`` multiply by
``blockdiag(B, 1)`` on the block's rows or columns and copy the rest,
where a dense product adds only exact zeros: the two agree up to the
order of summation inside the block, bit for bit on the projector map.
Every two-sided product, ``S W S^{-1}``, ``(S^{-1})^dag W S^dag``,
``Theta^{-1} b^dag Theta`` or ``S G S^{-1}``, is one :func:`_transport`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    ConditioningError,
    ConfigError,
    DimensionMismatchError,
    NotInvertibleError,
    ValidationError,
)
from .fock import FockSpace, Operator, _freeze, _graded_norm
from .reports import default_tolerance

__all__ = [
    "RieszMap",
    "make_riesz_map",
    "random_riesz_map",
    "metric_operator",
    "save_riesz_map",
    "load_riesz_map",
]

#: Relative singular-value floor below which a map is declared singular.
SINGULARITY_FLOOR = 1e-13

#: Largest ``cond(S)`` a map may have (runs allow ``config.SUITE_MAX_COND``).
_COND_BUDGET = 1e12


def _blockdiag(block: np.ndarray, d: int, rows: int | None = None) -> np.ndarray:
    """Rows ``:rows`` of the dense ``d x d`` matrix ``blockdiag(block, 1)``."""
    out = np.eye(d if rows is None else rows, d, dtype=complex)
    out[:len(block), :len(block)] = block[:rows]
    return out


@dataclass(frozen=True, eq=False)
class RieszMap:
    """Invertible map ``S = blockdiag(S_block, 1)`` with its metric
    ``Theta = blockdiag(theta_block, 1)``, held as the read-only ``p x p``
    blocks of ``S``, ``S^{-1}``, ``Theta`` and ``Theta^{-1} = S S^dag``; the
    dense ``S``, ``S_inv``, ``theta`` and ``theta_inv`` are built on each
    access.  ``frame_bounds = (A, B)`` are the squared extreme singular
    values of ``S`` (``A <= ||S f||^2 <= B`` for unit ``f``), and
    ``inverse_residual`` is ``||S S^{-1} - 1||_2`` graded against the guard
    of :func:`_factored_map` (:func:`~pseudoboson.fock._graded_norm`): the
    Frobenius bound, at most ``sqrt(p)`` times the exact norm, when that is
    within the guard."""

    space: FockSpace
    S_block: np.ndarray
    S_inv_block: np.ndarray
    cond: float
    frame_bounds: tuple[float, float]
    inverse_residual: float
    theta_block: np.ndarray = field(repr=False)
    theta_inv_block: np.ndarray = field(repr=False)

    def __post_init__(self):
        _freeze(self, "S_block", "S_inv_block", "theta_block", "theta_inv_block")

    def _dense(self, block: np.ndarray) -> Operator:
        return Operator(self.space, _blockdiag(block, self.dim))

    block = property(lambda self: len(self.S_block))
    dim = property(lambda self: self.space.dim)
    S = property(lambda self: self._dense(self.S_block))
    S_inv = property(lambda self: self._dense(self.S_inv_block))
    theta = property(lambda self: self._dense(self.theta_block))
    theta_inv = property(lambda self: self._dense(self.theta_inv_block))


def _same_map(r: RieszMap, s: RieszMap) -> bool:
    """True when ``r`` and ``s`` are the same ``S``: ``dim`` and ``S_block`` fix it."""
    return r.dim == s.dim and np.array_equal(r.S_block, s.S_block)


def _deformed_block(moved: np.ndarray) -> int:
    """Smallest ``p`` with every True entry of the square ``moved`` in
    ``moved[:p, :p]``; for ``moved = M != 1`` (exact) the smallest ``p`` with
    ``M = blockdiag(M[:p, :p], 1)``, ``p = 0`` only for the exact identity."""
    touched = np.flatnonzero(moved.any(axis=0) | moved.any(axis=1))
    return int(touched[-1]) + 1 if touched.size else 0


def make_riesz_map(space: FockSpace, S_lead) -> RieszMap:
    """Validate and package the invertible map ``S = blockdiag(S_lead, 1)``.

    The identity tail of ``S_lead`` is trimmed by an exact comparison,
    leaving the deformed block ``S[:p, :p]``, the smallest with
    ``S = blockdiag(S[:p, :p], 1)``.  That block is decomposed by one
    singular value decomposition (rank-revealing, so near-singularity is
    detected rather than silently amplified), and :func:`_factored_map`
    packages it from its factors; the identity outside it adds singular
    values 1 and is its own inverse.

    Parameters
    ----------
    space : FockSpace
        Truncated Fock space the map acts on.
    S_lead : array_like
        Any leading square block of ``S``, of side at most ``dim``: the
        dense ``S`` itself, or ``np.eye(0)`` for the identity.

    Raises
    ------
    DimensionMismatchError
        If ``S_lead`` is not square or its side exceeds ``dim``.
    ValidationError
        If an entry of ``S_lead`` is not finite.
    NotInvertibleError
        If the smallest singular value is below ``1e-13`` times the
        largest, or the inverse residual exceeds ``1e-12 * cond``.
    ConditioningError
        If ``cond(S) > 1e12``.
    """
    d = space.dim
    S_lead = np.asarray(S_lead, dtype=complex)
    if S_lead.ndim != 2 or S_lead.shape[0] != S_lead.shape[1] or len(S_lead) > d:
        raise DimensionMismatchError(f"block shape {S_lead.shape} is not square of side <= {d}")
    if not np.all(np.isfinite(S_lead)):
        raise ValidationError("map entries must be finite")
    p = _deformed_block(S_lead != np.eye(len(S_lead)))
    S_block = S_lead[:p, :p]
    return _factored_map(space, S_block, *np.linalg.svd(S_block))


def _factored_map(space: FockSpace, S_block: np.ndarray, U: np.ndarray, sigma: np.ndarray,
                  Vh: np.ndarray) -> RieszMap:
    """The map ``S = blockdiag(S_block, 1)`` packaged from the factors
    ``S_block = U diag(sigma) Vh`` (``U``, ``Vh`` unitary, ``sigma`` positive),
    with every check a map passes: the only place a :class:`RieszMap` is
    built.  ``cond`` and the frame bounds are read from ``sigma`` and the
    identity tail's singular values 1, the inverse is
    ``Vh^dag diag(1/sigma) U^dag`` and the metric :func:`metric_operator`'s
    ``U`` and ``sigma``.  The inverse residual ``||S_p S_p^{-1} - 1||`` is
    graded against the guard ``default_tolerance("riesz_construction",
    cond)``, ``1e-12 cond``, the tolerance ``verify`` grades it with: within
    the guard its Frobenius bound certifies it with no further SVD, above it
    the exact norm is taken.  Raises as :func:`make_riesz_map` does."""
    spectrum = np.append(sigma, 1.0) if len(S_block) < space.dim else sigma
    s_max, s_min = float(spectrum.max()), float(spectrum.min())
    if s_max == 0.0 or s_min <= SINGULARITY_FLOOR * s_max:
        raise NotInvertibleError(
            f"map is numerically singular: sigma_min/sigma_max = {s_min / max(s_max, 1e-300):.3e}"
        )
    cond = s_max / s_min
    if cond > _COND_BUDGET:
        raise ConditioningError(f"cond(S) = {cond:.3e} exceeds budget {_COND_BUDGET:.3e}")
    S_inv_block = Vh.conj().T @ ((1.0 / sigma)[:, None] * U.conj().T)
    guard = default_tolerance("riesz_construction", cond)
    residual = _graded_norm(S_block @ S_inv_block - np.eye(len(S_block)), 1.0, guard)
    if residual > guard:
        raise NotInvertibleError(
            f"inverse residual {residual:.3e} exceeds its tolerance {guard:.3e}"
        )
    theta, theta_inv = metric_operator(U, sigma)
    return RieszMap(space=space, S_block=S_block, S_inv_block=S_inv_block, cond=cond,
                    frame_bounds=(s_min**2, s_max**2), inverse_residual=residual,
                    theta_block=theta, theta_inv_block=theta_inv)


def random_riesz_map(
    space: FockSpace, target_cond: float, seed: int, top_margin: int | None = None
) -> RieszMap:
    """Deterministic random map with condition number ``target_cond``.

    The deformed block is ``U diag(sigma) V^dag`` with Haar-like unitary
    factors from QR of seeded complex Gaussian matrices and singular
    values spaced geometrically from ``target_cond`` down to 1.  The map is
    packaged from these factors (:func:`_factored_map`), with no SVD of the
    product, so ``cond`` is ``target_cond`` and the frame bounds are
    ``(1, target_cond^2)``, exactly.  ``target_cond = 1`` yields a random
    unitary.

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
    U, Vh = haar_unitary(), haar_unitary().conj().T
    return _factored_map(space, U @ (sigma[:, None] * Vh), U, sigma, Vh)


def metric_operator(U: np.ndarray, sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Blocks of the metric ``Theta = (S^{-1})^dag S^{-1}`` and of its inverse
    ``S S^dag`` for the block SVD ``S_block = U diag(sigma) V^dag``: the
    self-adjoint, positive ``U diag(sigma^-2) U^dag`` and
    ``U diag(sigma^2) U^dag``, each formed as ``Y Y^dag``, with no product
    of ``S`` or its inverse, so the rank-one sums of the families check an
    independent route.  ``Theta`` maps
    ``phi_n`` onto ``psi_n``."""
    return tuple(Y @ Y.conj().T for Y in (U / sigma, U * sigma))


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


def _transport(left: np.ndarray, X: np.ndarray, right: np.ndarray,
               rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """Rows ``:rows`` and columns ``:cols`` of ``blockdiag(left, 1) X
    blockdiag(right, 1)``: the right block's product written over
    :func:`_lmul`'s temporary.  With no column window that array is returned,
    not a view, so :func:`~pseudoboson.fock._freeze` keeps it uncopied."""
    out = _lmul(left, X, rows)
    q = min(len(right), out.shape[1] if cols is None else cols)
    out[:, :q] = out[:, :len(right)] @ right[:, :q]
    return out if cols is None else out[:, :cols]


def save_riesz_map(riesz: RieszMap, path: str | Path) -> None:
    """Serialize the map as a flat JSON record
    ``{"dim": d, "entries": [[re, im], ...]}`` (row-major)."""
    entries = [
        [float(v.real), float(v.imag)] for v in riesz.S.mat.reshape(-1)
    ]
    record = {"dim": riesz.dim, "entries": entries}
    Path(path).write_text(json.dumps(record))


def load_riesz_map(path: str | Path) -> RieszMap:
    """Load a serialized map and revalidate invertibility under
    :func:`make_riesz_map`'s budget.  A file that cannot be read or
    parsed, whose ``dim`` is not an integer >= 2 by the config's rule
    (``16`` and ``16.0``, not ``16.5``, ``true`` or ``"16"``), or one of
    whose entries holds a part that is not a finite number by the same rule
    (``true`` is not 1), raises :class:`ValidationError` naming it."""
    from .config import _integer, _number  # config imports this module

    try:
        record = json.loads(Path(path).read_text())
        d = _integer(record["dim"], "dim", 2)
        flat = np.array([complex(_number(float, re, "entries"), _number(float, im, "entries"))
                         for re, im in record["entries"]])
    except (OSError, KeyError, TypeError, ValueError, OverflowError, ConfigError) as exc:
        raise ValidationError(f"cannot load map file {path}: {exc}") from exc
    if len(flat) != d * d:
        raise ValidationError(
            f"expected {d * d} entries for dim {d} in {path}, got {len(flat)}"
        )
    return make_riesz_map(FockSpace(d), flat.reshape(d, d))
