"""Truncated Fock space, canonical ladder operators, and the safe
subspace.

The space keeps the first ``dim`` number states ``e_0, ..., e_{dim-1}``
as canonical unit vectors of ``C^dim``.  The lowering operator ``c`` acts
as ``c e_n = sqrt(n) e_{n-1}`` (with ``e_{-1} = 0``) and its raising
partner is the exact conjugate transpose, so the top level is annihilated
(hard cutoff).  That convention confines all truncation error of the
canonical commutator ``[c, c^dag]`` to a single corner entry
``-(dim - 1)``; below the corner the commutation relation is exact, which
is what :class:`SafeSubspace` captures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InvalidDimensionError, ValidationError

__all__ = [
    "FockSpace",
    "Operator",
    "SafeSubspace",
    "make_space",
    "identity",
    "ladder_c",
    "ladder_c_dag",
]


@dataclass(frozen=True)
class FockSpace:
    """Truncated Fock space with ``dim`` retained number states."""

    dim: int

    def __post_init__(self):
        if not isinstance(self.dim, (int, np.integer)) or self.dim < 2:
            raise InvalidDimensionError(f"dim must be an integer >= 2, got {self.dim!r}")

    def basis_vector(self, n: int) -> np.ndarray:
        """Return the canonical unit vector ``e_n``."""
        if not 0 <= n < self.dim:
            raise InvalidDimensionError(f"basis index {n} outside [0, {self.dim})")
        e = np.zeros(self.dim, dtype=complex)
        e[n] = 1.0
        return e


def _freeze(obj, *names, dtype=None):
    """Replace each named array field of a frozen dataclass by a read-only
    copy (converted to ``dtype`` when given)."""
    for name in names:
        arr = np.asarray(getattr(obj, name), dtype=dtype).copy()
        arr.setflags(write=False)
        object.__setattr__(obj, name, arr)


def _spectral_norm(X: np.ndarray) -> float:
    """Spectral norm ``sigma_max(X)`` from the singular values of ``X`` on its
    nonzero rows and columns, which is exact: zero rows and columns add only
    zero singular values.  An all-zero ``X`` reads ``0.0``, a non-finite one ``nan``."""
    if not np.all(np.isfinite(X)):
        return float("nan")
    nz = X != 0
    X = X[np.ix_(nz.any(axis=1), nz.any(axis=0))]
    return float(np.linalg.svd(X, compute_uv=False)[0]) if X.size else 0.0


def _recurrence(a: np.ndarray, b: np.ndarray, x: np.ndarray):
    """Orthonormal polynomials ``p_0 .. p_n`` (``n = len(a)``) at the points
    ``x`` from ``x p_k = b_k p_{k+1} + a_k p_k + b_{k-1} p_{k-1}``, ``p_0 = 1``.

    Returns ``rows, exps, s`` with ``p_k = rows[k] 2^exps[k]`` and
    ``sum_{k<n} p_k^2 = s 2^(2 exps[n])``.  Each step rescales exactly, by
    the power of two that brings the running sum into ``[1/2, 2)``, so the
    recurrence neither overflows nor underflows at any ``x``."""
    rows = np.empty((len(a) + 1, len(x)))
    exps = np.zeros((len(a) + 1, len(x)), dtype=int)
    p_prev, p, s, e, b_prev = np.zeros_like(x), np.ones_like(x), 0.0, 0, 0.0
    for k, (a_k, b_k) in enumerate(zip(a, b)):
        s = s + p * p
        half = np.frexp(s)[1] // 2
        c = np.ldexp(1.0, -half)  # a power of two: rescaling rounds nothing
        s, e = s * c * c, e + half
        p_prev, p, b_prev = c * p, c / b_k * ((x - a_k) * p - b_prev * p_prev), b_k
        rows[k], exps[k] = p_prev, e
    rows[-1], exps[-1] = p, e
    return rows, exps, s


def _gauss_rule(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule of a unit-mass weight from its Jacobi matrix
    ``J = tridiag(b, a, b)`` (Golub & Welsch, Math. Comp. 23, 221, 1969):
    the eigenvalues of ``J`` polished by one Newton step on ``p_n``, and the
    log Christoffel weights ``-log sum_{k<n} p_k(x_i)^2``."""
    x = np.linalg.eigvalsh(np.diag(a) + np.diag(b, 1) + np.diag(b, -1))
    b = np.append(b, 1.0)  # the last row is b_{n-1} p_n
    rows, _, s = _recurrence(a, b, x)
    # Newton step: at a zero of b_{n-1} p_n its slope is s / p_{n-1} (Christoffel-Darboux)
    x = x - rows[-1] * rows[-2] / s
    _, exps, s = _recurrence(a, b, x)
    return x, -(np.log(s) + np.log(2.0) * (2 * exps[-1]))


@dataclass(frozen=True, eq=False)
class Operator:
    """Dense complex matrix acting on a truncated Fock space.

    Instances hold validated data only: the entry array is checked for
    shape and finiteness and made read-only at construction, so operators
    can be shared freely across threads.  All algebra is numpy on ``mat``.
    """

    space: FockSpace
    mat: np.ndarray

    def __post_init__(self):
        _freeze(self, "mat", dtype=complex)
        if self.mat.shape != (self.space.dim, self.space.dim):
            raise DimensionMismatchError(
                f"matrix shape {self.mat.shape} does not match dim {self.space.dim}"
            )
        if not np.all(np.isfinite(self.mat)):
            raise ValidationError("operator entries must be finite")


@dataclass(frozen=True)
class SafeSubspace:
    """Span of ``e_0, ..., e_{cutoff-1}``: the low-index block on which
    truncated operator identities hold exactly.  Checks evaluate an
    identity on it as the ``X[:cutoff, :cutoff]`` block of its residual."""

    space: FockSpace
    cutoff: int

    def __post_init__(self):
        if not 1 <= self.cutoff < self.space.dim:
            raise InvalidDimensionError(
                f"cutoff must satisfy 1 <= cutoff < dim, got {self.cutoff} (dim {self.space.dim})"
            )


def make_space(dim: int) -> FockSpace:
    """Create a truncated Fock space with ``dim >= 2`` levels."""
    return FockSpace(dim)


def identity(space: FockSpace) -> Operator:
    """Identity operator on ``space``."""
    return Operator(space, np.eye(space.dim, dtype=complex))


def ladder_c(space: FockSpace) -> Operator:
    """Lowering operator ``c e_n = sqrt(n) e_{n-1}``, ``c e_0 = 0``."""
    d = space.dim
    return Operator(space, np.diag(np.sqrt(np.arange(1, d, dtype=float)), 1).astype(complex))


def ladder_c_dag(space: FockSpace) -> Operator:
    """Raising operator, the exact adjoint of :func:`ladder_c`.

    The top state is annihilated: ``c^dag e_{dim-1} = 0``.
    """
    return Operator(space, ladder_c(space).mat.conj().T)
