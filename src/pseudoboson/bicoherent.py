"""Coherent states, bicoherent pairs, and the quadrature realization of
the resolution of the identity.

A truncated coherent state keeps the first ``dim`` terms of
``exp(-|z|^2/2) sum_k z^k / sqrt(k!) e_k``, and :func:`coherent_tail_bound`
bounds the omitted tail.  A bicoherent pair transports one coherent state
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

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .algebra import PseudoBosonPair, _lower, _map_vacua, _raise
from .errors import ProvenanceError, UnderResolvedError, UnderResolvedWarning
from .fock import FockSpace, Operator, _freeze, _gauss_rule, _graded_norm
from .riesz import RieszMap, _lmul, _same_map, _transport

__all__ = [
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
]


@dataclass(frozen=True, eq=False)
class BicoherentPair:
    """States ``eta(z) = S Phi(z)`` and ``xi(z) = (S^{-1})^dag Phi(z)`` of ``state = Phi(z)``.

    The pairing ``<eta, xi>`` equals one up to the coherent state's
    :func:`coherent_tail_bound`.
    """

    z: complex
    state: np.ndarray
    eta: np.ndarray
    xi: np.ndarray
    source: RieszMap

    def __post_init__(self):
        _freeze(self, "state", "eta", "xi")


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


def coherent(space: FockSpace, z: complex) -> np.ndarray:
    """Truncated coherent state ``exp(-|z|^2/2) sum_k z^k/sqrt(k!) e_k``, as
    a read-only vector; :func:`coherent_tail_bound` bounds the omitted tail.

    Coefficients are accumulated by the ratio recurrence
    ``c_{k+1} = c_k z / sqrt(k+1)``, which never forms a factorial, on
    Python scalars collected in a list and converted once.
    """
    z = complex(z)
    term = complex(np.exp(-abs(z) ** 2 / 2))
    terms = []
    for k in range(space.dim):
        terms.append(term)
        term = term * z / math.sqrt(k + 1.0)
    vec = np.array(terms, dtype=complex)
    vec.setflags(write=False)
    return vec


def rbcs(riesz: RieszMap, z: complex) -> BicoherentPair:
    """Bicoherent pair obtained by mapping one coherent state through
    ``S`` and through ``(S^{-1})^dag``."""
    state = coherent(riesz.space, z)
    eta = _lmul(riesz.S_block, state)
    xi = _lmul(riesz.S_inv_block.conj().T, state)
    return BicoherentPair(z=complex(z), state=state, eta=eta, xi=xi, source=riesz)


def series_route(pair: PseudoBosonPair,
                 states: list[BicoherentPair]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Bicoherent pairs built the other way round: for each of ``states``,
    the coherent series ``exp(-|z|^2/2) sum_n z^n/sqrt(n!) phi_n`` over the
    excited families grown from the map's vacua ``S e_0`` and
    ``(S^{-1})^dag e_0`` by repeated ladder action, weighted by its
    ``state``, returned in the order of ``states`` (``[]`` for none); a
    state from another map raises :class:`ProvenanceError`.

    It is the independent route the two-route check compares with
    :func:`rbcs`, which applies the map's columns: the routes share only
    ``Phi(z)``.  In exact arithmetic the two agree; in floating point the
    recursion amplifies the rounding of the high levels by up to
    ``||exp(|z| c^dag)||_2`` (about ``1.6e13`` at ``dim = 256`` and
    ``|z| = 2``), so on a random map the routes part by more than roundoff
    and ``two_route`` at ``|z| = 2`` fails from ``dim = 256`` on (7.7e-7
    against 1e-8 on the cond-10 map of seed 3 with one BLAS thread, 7.1e-7
    with two: the figure is amplified rounding).  Each state sums the fewest
    ``N <= dim`` terms whose :func:`coherent_tail_bound` is ``<= 1e-20``.
    The families do not depend on ``z``, so they are grown once, up to the
    largest ``N``, and each state adds its terms only while ``n < N``: its
    sum is bit for bit the one it would get alone, and never reads a later
    term (a zero weight would not do, as ``0 * inf`` is nan).  ``b`` and
    ``a^dag`` are applied through the pair's border, in ``O(q^2 + dim)``
    per term, and no table of the families is held: the extra memory is
    the sums, ``O(len(states) dim)``.
    """
    if not all(_same_map(pair.source, bc.source) for bc in states):
        raise ProvenanceError("pair and bicoherent states come from different maps")
    d = pair.space.dim
    counts = [next((n for n in range(1, d) if coherent_tail_bound(n, bc.z) <= 1e-20), d)
              for bc in states]
    ops = np.stack([pair.b_border, pair.a_border.conj().T])  # b and a^dag
    terms = np.stack(_map_vacua(pair.source))  # phi_n and psi_n
    sums = [bc.state[0] * terms for bc in states]
    for n in range(max(counts, default=1) - 1):
        terms = _raise(ops, terms)
        terms *= 1.0 / np.sqrt(n + 1.0)
        for bc, n_terms, total in zip(states, counts, sums):
            if n + 1 < n_terms:
                total += bc.state[n + 1] * terms
    return [(total[0], total[1]) for total in sums]


def eigen_check(pair: PseudoBosonPair, bc: BicoherentPair) -> tuple[float, float]:
    """Relative residuals of ``a eta(z) = z eta(z)`` and
    ``b^dag xi(z) = z xi(z)``.  A state that underflowed to the zero
    vector (``|z|`` far outside the regime) has no relative residual and
    reads ``nan``, as a non-finite spectral norm does.  ``a`` and ``b^dag``
    are applied through the pair's border."""
    if not _same_map(pair.source, bc.source):
        raise ProvenanceError("pair and bicoherent states come from different maps")
    z = bc.z

    def relative(border: np.ndarray, v: np.ndarray) -> float:
        size = np.linalg.norm(v)
        return float(np.linalg.norm(_lower(border, v) - z * v) / size) if size else float("nan")

    return relative(pair.a_border, bc.eta), relative(pair.b_border.conj().T, bc.xi)


def _radial_factors(t: np.ndarray, log_w: np.ndarray, n: int) -> np.ndarray:
    """``A[k, i] = sqrt(w_i t_i^k / k!)`` for ``k < n``, in log space
    (``k!`` overflows float64 past ``k = 170``).  Row ``k`` squared and
    summed is the Laguerre moment ratio ``sum_i w_i t_i^k / k!``."""
    ks = np.arange(n)[:, None]
    log_fact = np.array([[math.lgamma(k + 1.0)] for k in range(n)])
    return np.exp(0.5 * (log_w + ks * np.log(t) - log_fact))


def _moment_ratios(t: np.ndarray, log_w: np.ndarray, n: int) -> np.ndarray:
    """Laguerre moment ratios ``g_k = sum_i w_i t_i^k / k!``, ``k < n``, each 1 where
    the rule integrates ``t^k``: the rows of :func:`_radial_factors` squared."""
    return np.sum(_radial_factors(t, log_w, n) ** 2, axis=1)


@functools.lru_cache(maxsize=16)
def _laguerre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Laguerre nodes ``t`` and log weights of order ``n``, from the
    Jacobi matrix ``tridiag(k, 2k+1, k)``.  The rule is built once per order
    (every order of a four-dim ``converge`` sweep fits) and returned as
    read-only arrays; :func:`make_quadrature` still tests it on every call."""
    t, log_w = _gauss_rule(2.0 * np.arange(n) + 1.0, np.arange(1.0, n))
    t.setflags(write=False)
    log_w.setflags(write=False)
    return t, log_w


def make_quadrature(dim: int, radial_count: int, angular_count: int) -> QuadratureScheme:
    """Quadrature over the complex plane resolving ``dim`` levels.

    Requires ``radial_count > dim // 2`` and ``angular_count >= dim`` (so
    the mask ``[k = l mod M]`` is exact for ``k, l < dim``) and validates
    the radial rule against the factorial moments
    ``int e^{-t} t^k dt = k!`` for ``k <= dim``.  Gauss-Laguerre with
    ``n`` nodes is exact through degree ``2n-1``, so ``dim // 2 + 1``
    nodes are the fewest that integrate every tested moment.  The rule
    comes from :func:`_laguerre_rule`, built once per order; the moment
    test runs on every call.

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
    if angular_count < dim:
        raise UnderResolvedError(
            f"angular_count {angular_count} < dim = {dim}: angular grid aliases"
        )
    t, log_w = _laguerre_rule(radial_count)
    rel_err = np.abs(_moment_ratios(t, log_w, dim + 1) - 1.0)
    if not rel_err.max() <= 1e-10:  # written so that NaN fails
        raise UnderResolvedError(
            f"factorial moment test failed: max relative error {rel_err.max():.3e} for k <= {dim}"
        )
    return QuadratureScheme(dim=dim, radial_t=t, radial_log_w=log_w, angular_count=angular_count)


def _warn_under_resolved(quad: QuadratureScheme, d: int):
    if quad.dim < d:
        warnings.warn(f"scheme resolves dim {quad.dim} but the space has dim {d}; top "
                      "moments are not integrated exactly", UnderResolvedWarning, stacklevel=3)


def resolution_operator(riesz: RieszMap, quad: QuadratureScheme) -> Operator:
    """Discrete resolution operator ``R = sum_nodes w |eta(z)><xi(z)| = S G S^{-1}``,
    dense, with ``G`` the masked Gram matrix of the radial factors, for any
    grid (aliasing ones included); the identity whenever the scheme resolves
    the space.  A scheme for a smaller dimension is applied but warns
    (:class:`UnderResolvedWarning`), so degradation studies can measure the
    deviation instead of failing."""
    d = riesz.dim
    _warn_under_resolved(quad, d)
    A = _radial_factors(quad.radial_t, quad.radial_log_w, d)
    ks = np.arange(d)
    G = (A @ A.T) * ((ks[:, None] - ks[None, :]) % quad.angular_count == 0)
    return Operator(riesz.space, _transport(riesz.S_block, G, riesz.S_inv_block))


def resolution_of_identity(riesz: RieszMap, quad: QuadratureScheme, *, tol: float = 0.0) -> float:
    """Deviation ``||R - 1||`` of the discrete resolution operator, from its
    structure, with no ``dim x dim`` array: with ``angular_count >= dim`` the
    mask is the identity, so ``G = diag(g)`` (:func:`_moment_ratios`) and
    ``R - 1 = blockdiag(S_p diag(g[:p]) S_p^{-1} - 1, diag(g[p:] - 1))``, whose
    norm is the larger of the block's and the tail's ``max |g[p:] - 1|``.
    The block is graded (:func:`~pseudoboson.fock._graded_norm`) against the
    larger of ``tol`` and the tail: when its Frobenius bound is at most the
    tail, the value is the tail, exact, as on every under-resolved rule; when
    the bound is at most ``tol`` it may be the bound, up to ``sqrt(p)`` times
    the exact norm; otherwise it is exact, one SVD.  At the default
    ``tol = 0`` every value is exact, and a nan of the block or the tail
    propagates.  Warns as :func:`resolution_operator` does; an aliasing grid
    (``angular_count < dim``) raises :class:`UnderResolvedError`."""
    d, p = riesz.dim, riesz.block
    if quad.angular_count < d:
        raise UnderResolvedError(f"angular_count {quad.angular_count} < dim = {d}: "
                                 "angular grid aliases")
    _warn_under_resolved(quad, d)
    g = _moment_ratios(quad.radial_t, quad.radial_log_w, d)
    tail = np.abs(g[p:] - 1.0)
    block = (riesz.S_block * g[:p]) @ riesz.S_inv_block - np.eye(p)
    # a nan tail leaves max() at tol, and np.max propagates it
    return float(np.max(tail, initial=_graded_norm(block, 1.0, max(tol, tail.max(initial=0.0)))))
