"""Coherent states, bicoherent pairs, and the quadrature realization of
the resolution of the identity.

A truncated coherent state keeps the first ``dim`` terms of
``exp(-|z|^2/2) sum_k z^k / sqrt(k!) e_k`` and carries a rigorous bound
on the omitted tail.  A bicoherent pair transports one coherent state
through an invertible map and its inverse-adjoint,
``eta(z) = S Phi(z)`` and ``xi(z) = (S^{-1})^dag Phi(z)``, giving
eigenstates of ``a`` and ``b^dag`` at the same eigenvalue from the
opposite sides.

The planar integral ``(1/pi) int d^2z |eta(z)><xi(z)|`` is realized in
polar form ``z = sqrt(t) e^{i theta}`` as ``R = S G S^{-1}``, with ``G``
the same quadrature of the coherent projector ``|Phi(z)><Phi(z)|``.
Gauss-Laguerre in ``t = r^2`` integrates each entry of ``G`` exactly
(the Jacobian's ``e^{t}`` cancels the states' ``e^{-t}``), and a uniform
grid of ``M`` angles turns the phases ``e^{i(k-l) theta}`` into the mask
``[k = l mod M]``.  Folding the Gaussian in a second time is the classic
bug; it drives the deviation to 1, so the full-resolution positive
controls catch it.  An ``n``-node rule is exact through degree ``2n-1``
and the space needs moments up to ``dim-1``, so ``ceil(dim/2)`` radial
nodes already resolve it; the negative controls therefore under-resolve
with a quarter rule.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .algebra import PseudoBosonPair, VacuumPair
from .errors import (
    DimensionMismatchError,
    ProvenanceError,
    UnderResolvedError,
    UnderResolvedWarning,
)
from .fock import FockSpace, Operator, _freeze, _gauss_rule, _spectral_norm
from .riesz import RieszMap, _lmul, _transport

__all__ = [
    "CoherentState",
    "BicoherentPair",
    "QuadratureScheme",
    "coherent",
    "coherent_tail_bound",
    "rbcs",
    "series_route",
    "eigen_check",
    "make_quadrature",
    "resolution_operator",
    "resolution_of_identity",
    "weak_pairing_check",
]


@dataclass(frozen=True, eq=False)
class CoherentState:
    """Truncated coherent state with its omitted-tail norm bound."""

    z: complex
    vec: np.ndarray
    tail_bound: float

    def __post_init__(self):
        _freeze(self, "vec")


@dataclass(frozen=True, eq=False)
class BicoherentPair:
    """States ``eta(z) = S Phi(z)`` and ``xi(z) = (S^{-1})^dag Phi(z)``.

    ``tail_bound`` is inherited from the underlying coherent state; the
    pairing ``<eta, xi>`` equals one up to that tail.
    """

    z: complex
    eta: np.ndarray
    xi: np.ndarray
    source: RieszMap
    tail_bound: float

    def __post_init__(self):
        _freeze(self, "eta", "xi")


@dataclass(frozen=True, eq=False)
class QuadratureScheme:
    """Radial Gauss-Laguerre nodes and log weights in ``t = r^2`` plus a
    uniform angular grid, resolving spaces up to dimension ``dim``.  The
    weights are kept as logarithms because from 257 nodes the smallest
    fall below float64's range."""

    dim: int
    radial_t: np.ndarray
    radial_log_w: np.ndarray
    angular_count: int

    def __post_init__(self):
        _freeze(self, "radial_t", "radial_log_w")

    @property
    def radial_count(self) -> int:
        return len(self.radial_t)


def coherent_tail_bound(dim: int, z: complex) -> float:
    """Norm bound on the omitted tail of a coherent state truncated at
    ``dim`` levels.

    Uses the geometric majorant of ``sum_{k>=dim} |z|^{2k} / k!`` (ratio
    ``|z|^2 / (dim+1) < 1``); outside that ratio regime the trivial bound
    ``1`` is returned.
    """
    x = abs(z) ** 2
    if x == 0.0:
        return 0.0
    if x >= dim + 1:
        return 1.0
    log_major = dim * np.log(x) - math.lgamma(dim + 1) + np.log((dim + 1) / (dim + 1 - x))
    return float(min(1.0, np.exp(-x / 2 + 0.5 * log_major)))


def coherent(space: FockSpace, z: complex) -> CoherentState:
    """Truncated coherent state ``exp(-|z|^2/2) sum_k z^k/sqrt(k!) e_k``.

    Coefficients are accumulated by the ratio recurrence
    ``c_{k+1} = c_k z / sqrt(k+1)``, which never forms a factorial.
    """
    d = space.dim
    z = complex(z)
    vec = np.zeros(d, dtype=complex)
    term = complex(np.exp(-abs(z) ** 2 / 2))
    for k in range(d):
        vec[k] = term
        term = term * z / np.sqrt(k + 1.0)
    return CoherentState(z=z, vec=vec, tail_bound=coherent_tail_bound(d, z))


def rbcs(riesz: RieszMap, z: complex) -> BicoherentPair:
    """Bicoherent pair obtained by mapping one coherent state through
    ``S`` and through ``(S^{-1})^dag``."""
    state = coherent(riesz.space, z)
    p = riesz.block
    eta = _lmul(riesz.S.mat[:p, :p], state.vec)
    xi = _lmul(riesz.S_inv.mat[:p, :p].conj().T, state.vec)
    return BicoherentPair(
        z=complex(z), eta=eta, xi=xi, source=riesz, tail_bound=state.tail_bound
    )


def series_route(
    pair: PseudoBosonPair, z: complex, vac: VacuumPair
) -> tuple[np.ndarray, np.ndarray]:
    """Bicoherent pair built the other way round: as the coherent series
    ``exp(-|z|^2/2) sum_n z^n/sqrt(n!) phi_n`` over the excited families
    grown from ``vac`` by repeated ladder action.

    With the closed-form vacua this agrees with :func:`rbcs` to roundoff;
    it is the independent route the two-route check compares.  It sums the
    fewest ``N <= dim`` terms whose :func:`coherent_tail_bound` is ``<= 1e-20``.
    """
    d = pair.space.dim
    n_terms = next((n for n in range(1, d) if coherent_tail_bound(n, z) <= 1e-20), d)
    coeff = coherent(pair.space, z).vec
    b = pair.b.mat
    a_dag = pair.a.mat.conj().T
    phi_n = np.asarray(vac.phi0, dtype=complex).copy()
    psi_n = np.asarray(vac.psi0, dtype=complex).copy()
    phi_sum = coeff[0] * phi_n
    psi_sum = coeff[0] * psi_n
    for n in range(n_terms - 1):
        scale = 1.0 / np.sqrt(n + 1.0)
        phi_n = scale * (b @ phi_n)
        psi_n = scale * (a_dag @ psi_n)
        phi_sum += coeff[n + 1] * phi_n
        psi_sum += coeff[n + 1] * psi_n
    return phi_sum, psi_sum


def eigen_check(pair: PseudoBosonPair, bc: BicoherentPair) -> tuple[float, float]:
    """Relative residuals of ``a eta(z) = z eta(z)`` and
    ``b^dag xi(z) = z xi(z)``.  A state that underflowed to the zero
    vector (``|z|`` far outside the regime) has no relative residual and
    reads ``nan``, as a non-finite spectral norm does."""
    if not np.array_equal(pair.source.S.mat, bc.source.S.mat):
        raise ProvenanceError("pair and bicoherent states come from different maps")
    z = bc.z

    def relative(op: np.ndarray, v: np.ndarray) -> float:
        size = np.linalg.norm(v)
        return float(np.linalg.norm(op @ v - z * v) / size) if size else float("nan")

    return relative(pair.a.mat, bc.eta), relative(pair.b.mat.conj().T, bc.xi)


def _radial_factors(t: np.ndarray, log_w: np.ndarray, n: int) -> np.ndarray:
    """``A[k, i] = sqrt(w_i t_i^k / k!)`` for ``k < n``, in log space
    (``k!`` overflows float64 past ``k = 170``).  Row ``k`` squared and
    summed is the Laguerre moment ratio ``sum_i w_i t_i^k / k!``."""
    ks = np.arange(n)[:, None]
    log_fact = np.array([[math.lgamma(k + 1.0)] for k in range(n)])
    return np.exp(0.5 * (log_w + ks * np.log(t) - log_fact))


def make_quadrature(dim: int, radial_count: int, angular_count: int) -> QuadratureScheme:
    """Quadrature over the complex plane resolving ``dim`` levels.

    Requires ``radial_count > dim // 2`` and ``angular_count >= 2 dim``
    and validates the radial rule against the factorial moments
    ``int e^{-t} t^k dt = k!`` for ``k <= dim``.  Gauss-Laguerre with
    ``n`` nodes is exact through degree ``2n-1``, so ``dim // 2 + 1``
    nodes are the fewest that integrate every tested moment.  The rule
    comes from the Jacobi matrix ``tridiag(k, 2k+1, k)``.

    Raises
    ------
    UnderResolvedError
        On insufficient node counts or a failed moment test.
    """
    if radial_count <= dim // 2:
        raise UnderResolvedError(
            f"radial_count {radial_count} <= dim // 2 = {dim // 2}: a rule exact "
            f"through the moment t^{dim} needs at least {dim // 2 + 1} nodes"
        )
    if angular_count < 2 * dim:
        raise UnderResolvedError(
            f"angular_count {angular_count} < 2*dim = {2 * dim}: angular grid aliases"
        )
    t, log_w = _gauss_rule(2.0 * np.arange(radial_count) + 1.0, np.arange(1.0, radial_count))
    rel_err = np.abs(np.sum(_radial_factors(t, log_w, dim + 1) ** 2, axis=1) - 1.0)
    if not rel_err.max() <= 1e-10:  # written so that NaN fails
        raise UnderResolvedError(
            f"factorial moment test failed: max relative error {rel_err.max():.3e} for k <= {dim}"
        )
    return QuadratureScheme(dim=dim, radial_t=t, radial_log_w=log_w, angular_count=angular_count)


def resolution_operator(riesz: RieszMap, quad: QuadratureScheme) -> Operator:
    """Discrete resolution operator
    ``R = sum_nodes w |eta(z)><xi(z)| = S G S^{-1}``; equals the identity
    whenever the scheme resolves the space.  Then ``G`` is diagonal with
    the moment ratios ``sum_i w_i t_i^k / k!``, so the deviation is the
    Laguerre moment error carried through ``S`` plus the ``S S^{-1}``
    roundoff.

    Applying a scheme built for a smaller dimension is allowed but warns
    (:class:`UnderResolvedWarning`) so degradation studies can measure
    the deviation instead of failing.
    """
    d = riesz.dim
    if quad.dim < d:
        warnings.warn(
            f"scheme resolves dim {quad.dim} but the space has dim {d}; "
            "top moments are not integrated exactly",
            UnderResolvedWarning,
            stacklevel=2,
        )
    A = _radial_factors(quad.radial_t, quad.radial_log_w, d)
    ks = np.arange(d)
    G = (A @ A.T) * ((ks[:, None] - ks[None, :]) % quad.angular_count == 0)
    return Operator(riesz.space, _transport(riesz, G))


def resolution_of_identity(riesz: RieszMap, quad: QuadratureScheme) -> float:
    """Deviation ``||R - I||`` of the discrete resolution operator."""
    R = resolution_operator(riesz, quad)
    return _spectral_norm(R.mat - np.eye(riesz.dim))


def weak_pairing_check(
    riesz: RieszMap, quad: QuadratureScheme, f: np.ndarray, g: np.ndarray
) -> tuple[complex, complex]:
    """Weak form of the resolution: returns ``(<f, g>,`` discretized
    ``(1/pi) int <f, eta(z)><xi(z), g> d^2z)``."""
    f = np.asarray(f, dtype=complex)
    g = np.asarray(g, dtype=complex)
    d = riesz.dim
    if f.shape != (d,) or g.shape != (d,):
        raise DimensionMismatchError(
            f"vectors must have shape ({d},), got {f.shape} and {g.shape}"
        )
    R = resolution_operator(riesz, quad)
    return complex(np.vdot(f, g)), complex(np.vdot(f, R.mat @ g))
