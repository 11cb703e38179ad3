"""Truncated Fock space and canonical ladder operators.

The space keeps the first ``dim`` number states ``e_0, ..., e_{dim-1}``
as canonical unit vectors of ``C^dim``.  The lowering operator ``c`` acts
as ``c e_n = sqrt(n) e_{n-1}`` (with ``e_{-1} = 0``) and its raising
partner is the exact conjugate transpose, so the top level is annihilated
(hard cutoff).  That convention confines all truncation error of the
canonical commutator ``[c, c^dag]`` to a single corner entry
``-(dim - 1)``: on the levels ``:dim - 1`` below the corner the
commutation relation is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InvalidDimensionError, ValidationError

__all__ = [
    "FockSpace",
    "Operator",
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
    copy (converted to ``dtype`` when given); an array that is already
    read-only and owns its memory is kept, not copied."""
    for name in names:
        arr = np.asarray(getattr(obj, name), dtype=dtype)
        if arr.flags.writeable or arr.base is not None:
            arr = arr.copy()
            arr.setflags(write=False)
        object.__setattr__(obj, name, arr)


def _bordered(top: np.ndarray, left: np.ndarray) -> np.ndarray:
    """A matrix with the Gram matrix ``X^dag X`` of ``X = [top; left 0]``,
    the matrix that is zero outside its rows ``:t`` (``top``) and columns
    ``:t`` (``left`` below them), ``t = len(top)``.  When ``left`` has more
    rows than columns it is replaced by its ``t x t`` QR factor ``R``, which
    leaves the Gram matrix unchanged (Chan, ACM TOMS 8, 72, 1982), so the
    result is the ``2 t`` rows ``[top; R 0]``; otherwise it is ``X``
    itself."""
    t = len(top)
    if len(left) > t:
        left = np.linalg.qr(left, mode="r")
    out = np.zeros((t + len(left), top.shape[1]), dtype=np.result_type(top, left))
    out[:t] = top
    out[t:, :t] = left
    return out


def _spectral_norm(X: np.ndarray) -> float:
    """Spectral norm ``sigma_max(X)``, exact, from one SVD without singular
    vectors.  An all-zero (or empty) ``X`` reads ``0.0``, a non-finite one
    ``nan``."""
    if not np.all(np.isfinite(X)):
        return float("nan")
    if not X.any():
        return 0.0
    return float(np.linalg.svd(X, compute_uv=False)[0])


def _frobenius_norm(*parts: np.ndarray) -> float:
    """Frobenius norm of the matrix whose entries are those of ``parts``
    together, with no SVD: a certified upper bound of its spectral norm,
    ``sigma_max <= ||X||_F <= sqrt(rank X) sigma_max`` (Golub & Van Loan,
    *Matrix Computations*, section 2.3).  ``|X|`` is scaled by the power of
    two of its largest entry before it is squared, and the scaling undone
    after the square root, both exactly: no square overflows, and only the
    squares of entries below ``2^-537`` times the largest underflow, far
    below the rounding of the sum.  As in :func:`_spectral_norm`, an
    all-zero (or empty) ``X`` reads ``0.0`` and a non-finite one ``nan``."""
    mags = [np.abs(part) for part in parts]
    top = float(np.max([m.max(initial=0.0) for m in mags] + [0.0]))  # a nan entry propagates
    if not math.isfinite(top):
        return float("nan")
    if top == 0:
        return 0.0
    e = math.frexp(top)[1]
    total = 0.0
    for m in mags:
        np.ldexp(m, -e, out=m)
        total += float(np.vdot(m, m))
    return math.ldexp(math.sqrt(total), e)


def _graded_norm(diff: np.ndarray, denominator: float, tol: float,
                 left: np.ndarray | None = None) -> float:
    """``||diff|| / denominator``, certified against ``tol``: the Frobenius
    bound :func:`_frobenius_norm` of the quotient when it is at most ``tol``
    (then ``exact <= bound <= tol``), otherwise the exact
    :func:`_spectral_norm`, one SVD.  So a value at most ``tol`` may be the
    bound, up to ``sqrt(rank diff)`` times the exact one, and a value above
    it is exact; at ``tol = 0`` every value is exact.  A non-finite ``diff``
    reads ``nan``, and the denominator is floored at ``1e-300``.  Given
    ``left``, the difference is ``[diff; left 0]``, reduced by
    :func:`_bordered` for the exact norm."""
    denominator = max(denominator, 1e-300)
    bound = _frobenius_norm(diff, *([] if left is None else [left])) / denominator
    if bound <= tol:
        return bound
    if left is not None:
        diff, left = _bordered(diff, left), None  # drop the parts before the SVD
    return _spectral_norm(diff) / denominator


def _spectral_lower_bound(X: np.ndarray) -> float:
    """Certified lower bound ``lo`` of ``sigma_max(X)``, with no SVD: the
    largest of the largest column 2-norm, the largest row 2-norm and
    ``||X||_F / sqrt(min(m, n))``, so that
    ``lo <= sigma_max(X) <= sqrt(min(m, n)) lo`` (Golub & Van Loan,
    *Matrix Computations*, section 2.3).  ``|X|`` is taken once and scaled
    exactly by the power of two of its largest entry: its dot product with
    itself is the Frobenius sum, bit for bit that of :func:`_frobenius_norm`,
    and the row and column sums are read from its squares, formed once in
    place.  No square overflows, and an entry whose square underflows can
    only lower the bound.  As in :func:`_spectral_norm`, an all-zero (or
    empty) ``X`` reads ``0.0`` and a non-finite one ``nan``."""
    A = np.abs(X)
    top = float(A.max(initial=0.0))  # a nan entry propagates
    if not math.isfinite(top):
        return float("nan")
    if top == 0:
        return 0.0
    e = math.frexp(top)[1]
    np.ldexp(A, -e, out=A)
    fro = math.ldexp(math.sqrt(float(np.vdot(A, A))), e)
    A *= A
    norm_sq = max(A.sum(axis=0).max(), A.sum(axis=1).max())
    return max(math.ldexp(math.sqrt(norm_sq), e), fro / math.sqrt(min(X.shape)))


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


def ladder_c(space: FockSpace) -> Operator:
    """Lowering operator ``c e_n = sqrt(n) e_{n-1}``, ``c e_0 = 0``."""
    d = space.dim
    return Operator(space, np.diag(np.sqrt(np.arange(1, d, dtype=float)), 1).astype(complex))


def ladder_c_dag(space: FockSpace) -> Operator:
    """Raising operator, the exact adjoint of :func:`ladder_c`.

    The top state is annihilated: ``c^dag e_{dim-1} = 0``.
    """
    return Operator(space, ladder_c(space).mat.conj().T)
