"""Truncated Fock space, canonical ladder operators, and safe-subspace
restriction.

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
    "commutator",
    "restrict",
    "inner",
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


@dataclass(frozen=True, eq=False)
class Operator:
    """Dense complex matrix acting on a truncated Fock space.

    Instances are immutable: the entry array is made read-only at
    construction, so operators can be shared freely across threads.
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

    @property
    def H(self) -> "Operator":
        """Conjugate transpose."""
        return Operator(self.space, self.mat.conj().T)

    def norm(self) -> float:
        """Spectral norm."""
        return float(np.linalg.norm(self.mat, 2))

    def _check_space(self, other: "Operator"):
        if self.space != other.space:
            raise DimensionMismatchError(
                f"operators on different spaces: dim {self.space.dim} vs {other.space.dim}"
            )

    def __matmul__(self, other):
        if isinstance(other, Operator):
            self._check_space(other)
            return Operator(self.space, self.mat @ other.mat)
        return self.mat @ other  # vector application

    def __add__(self, other: "Operator") -> "Operator":
        self._check_space(other)
        return Operator(self.space, self.mat + other.mat)

    def __sub__(self, other: "Operator") -> "Operator":
        self._check_space(other)
        return Operator(self.space, self.mat - other.mat)

    def __neg__(self) -> "Operator":
        return Operator(self.space, -self.mat)

    def __mul__(self, scalar) -> "Operator":
        return Operator(self.space, self.mat * complex(scalar))

    __rmul__ = __mul__


@dataclass(frozen=True)
class SafeSubspace:
    """Span of ``e_0, ..., e_{cutoff-1}``: the low-index block on which
    truncated operator identities hold exactly."""

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
    return ladder_c(space).H


def commutator(A: Operator, B: Operator) -> Operator:
    """Commutator ``AB - BA``."""
    A._check_space(B)
    return Operator(A.space, A.mat @ B.mat - B.mat @ A.mat)


def restrict(A: Operator, sub: SafeSubspace) -> np.ndarray:
    """Top-left ``cutoff x cutoff`` block of ``A`` as a plain array."""
    if A.space != sub.space:
        raise DimensionMismatchError("operator and subspace live on different spaces")
    k = sub.cutoff
    return A.mat[:k, :k].copy()


def inner(f: np.ndarray, g: np.ndarray) -> complex:
    """Inner product, conjugate-linear in the first argument."""
    f = np.asarray(f)
    g = np.asarray(g)
    if f.shape != g.shape:
        raise DimensionMismatchError(f"vector shapes differ: {f.shape} vs {g.shape}")
    return complex(np.vdot(f, g))
