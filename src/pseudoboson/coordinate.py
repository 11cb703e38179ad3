"""Closed-form oscillator wavefunctions and cross-validation against the
number-basis machinery.

Everything here lives in the dimensionless oscillator coordinate: the
orthonormal Hermite functions ``e_n(x)`` (ground state
``pi^{-1/4} exp(-x^2/2)``), the coherent wavefunction, and the
bicoherent pair generated by the rank-one projector map ``T = 1 + i P_u``
whose inverse is the closed form ``T^{-1} = 1 - (1+i)/2 P_u``.

Phase convention: the coherent wavefunction is normalized as
``Phi_z(x) = pi^{-1/4} exp(-x^2/2 + sqrt(2) z x - Re(z)^2)``, which
carries no z-dependent phase in its amplitude factor.  Expanding the
same state in the number basis (``exp(-|z|^2/2) sum z^k/sqrt(k!) e_k``)
produces the additional phase ``exp(-i Re(z) Im(z))``; the
cross-validation applies exactly that factor when aligning the two
routes, and the overlap with the ground state is
``<e_0, Phi_z> = exp(-|z|^2/2 + i Re(z) Im(z))`` under this convention.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bicoherent import BicoherentPair
from .displacement import in_accuracy_regime
from .errors import ValidationError
from .fock import FockSpace, _gauss_rule, _recurrence
from .riesz import RieszMap, make_riesz_map

__all__ = [
    "CrossValidation",
    "hermite_stack",
    "gauss_hermite_grid",
    "coherent_wavefunction",
    "projector_map",
    "example_wavefunctions",
    "cross_validate",
    "write_wavefunction_csv",
]


def hermite_stack(n_max: int, x) -> np.ndarray:
    """Orthonormal Hermite functions ``e_0 .. e_{n_max}`` on the grid.

    Row ``n`` holds ``e_n(x) = p_n(x) pi^{-1/4} exp(-x^2/2)``, where
    ``p_n`` runs the rescaled recurrence of the Gauss-Hermite Jacobi
    matrix ``tridiag(sqrt(k/2), 0, sqrt(k/2))`` and the Gaussian is applied
    in log space, so no ``x`` is out of range.
    """
    if n_max < 0:
        raise ValidationError(f"n_max must be >= 0, got {n_max}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    rows, exps, _ = _recurrence(np.zeros(n_max), np.sqrt(np.arange(1, n_max + 1) / 2.0), x)
    return rows * np.exp(exps * np.log(2.0) - 0.5 * x**2 - 0.25 * np.log(np.pi))


@functools.lru_cache(maxsize=4)
def gauss_hermite_grid(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes with weights rescaled for plain ``dx``
    integrals of Gaussian-decaying integrands: ``sum w f(x)`` matches
    ``int f`` exactly for ``f = (poly deg <= 2*order-1) * exp(-x^2)``.
    The rule comes from the Jacobi matrix ``tridiag(sqrt(k/2), 0,
    sqrt(k/2))`` with log weights, and the factor ``sqrt(pi) e^{x^2}`` is
    applied in log space, since ``e^{x^2}`` overflows past |x| = 26.6.
    The grid is built once per order and returned as read-only arrays."""
    x, log_w = _gauss_rule(np.zeros(order), np.sqrt(np.arange(1, order) / 2.0))
    w = np.exp(log_w + x**2 + 0.5 * np.log(np.pi))
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@functools.lru_cache(maxsize=4)
def _grid_stack(dim: int) -> np.ndarray:
    """Read-only ``hermite_stack(dim - 1, x)`` on the grid of :func:`cross_validate`,
    held complex so that its products with the coefficients convert nothing."""
    stack = hermite_stack(dim - 1, gauss_hermite_grid(dim + 10)[0]).astype(complex)
    stack.setflags(write=False)
    return stack


def coherent_wavefunction(z: complex, x):
    """Coherent wavefunction
    ``Phi_z(x) = pi^{-1/4} exp(-x^2/2 + sqrt(2) z x - Re(z)^2)``
    (the phase convention stated in the module docstring)."""
    x = np.asarray(x, dtype=float)
    z = complex(z)
    return np.pi ** -0.25 * np.exp(-0.5 * x**2 + np.sqrt(2.0) * z * x - z.real**2)


def projector_map(space: FockSpace, u: np.ndarray) -> RieszMap:
    """Build ``T = 1 + i P_u`` from a unit vector of Fock coefficients.

    ``P_u = |u><u|`` is idempotent, so ``T^{-1} = 1 - (1+i)/2 P_u``
    exactly; any unit ``u`` gives the same singular values
    ``{sqrt(2), 1, ..., 1}``.  Only the leading ``q x q`` block of ``T``
    is formed, ``q`` one past the last nonzero entry of ``u``.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (space.dim,):
        raise ValidationError(f"u must have shape ({space.dim},), got {u.shape}")
    if abs(np.linalg.norm(u) - 1.0) > 1e-12:
        raise ValidationError(f"u must be unit norm, got ||u|| = {np.linalg.norm(u):.12f}")
    q = int(np.flatnonzero(u)[-1]) + 1
    T_lead = np.eye(q) + 1j * np.outer(u[:q], u[:q].conj())
    return make_riesz_map(space, T_lead)


def example_wavefunctions(z: complex, x) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form bicoherent wavefunctions for the ground-state
    projector map ``T = 1 + i |e_0><e_0|``:

    ``phi_z(x) = e_0(x) (exp(sqrt(2) z x - Re(z)^2) + i B(z))``
    ``psi_z(x) = e_0(x) (exp(sqrt(2) z x - Re(z)^2) - (1-i)/2 B(z))``

    with ``B(z) = <e_0, Phi_z> = exp(-|z|^2/2 + i Re(z) Im(z))``.
    """
    x = np.asarray(x, dtype=float)
    z = complex(z)
    e0 = np.pi ** -0.25 * np.exp(-0.5 * x**2)
    amplitude = np.exp(np.sqrt(2.0) * z * x - z.real**2)
    B = np.exp(-abs(z) ** 2 / 2 + 1j * z.real * z.imag)
    phi = e0 * (amplitude + 1j * B)
    psi = e0 * (amplitude - (1 - 1j) / 2 * B)
    return phi, psi


@dataclass(frozen=True)
class CrossValidation:
    """Deviations between the closed-form wavefunctions and the number-basis
    states of one bicoherent pair."""

    max_dev_phi: float
    max_dev_psi: float
    l2_dev_phi: float
    l2_dev_psi: float
    pairing: complex


def _is_ground_state_projector(riesz: RieszMap) -> bool:
    """True for ``T = 1 + i |e_0><e_0|``, the one map the closed forms describe."""
    return riesz.block == 1 and riesz.S_block[0, 0] == 1 + 1j


def cross_validate(bc: BicoherentPair) -> CrossValidation:
    """Compare the closed forms against the bicoherent pair ``bc`` of the
    ground-state projector map ``T = 1 + i |e_0><e_0|``, the one map with
    ``S_block = [[1 + i]]``.

    The states' number-basis coefficients are expanded in Hermite functions
    on a Gauss-Hermite grid of order ``dim + 10`` and rotated by the
    convention phase ``exp(i Re(z) Im(z))`` before the comparison.  The
    closed forms are not polynomials: the nodes past ``dim`` are what
    resolve the truncation tail the ``l2`` deviations measure, which a grid
    of order ``dim`` reads low.  Also reports the quadrature pairing
    ``int conj(phi_z) psi_z dx``, which equals one exactly.
    """
    z, space = bc.z, bc.source.space
    dim = space.dim
    if not _is_ground_state_projector(bc.source):
        raise ValidationError("the closed forms hold for the ground-state projector map only")
    if not in_accuracy_regime(space, z):
        raise ValidationError(
            f"|z|^2 = {abs(z)**2:.2f} exceeds dim/4 = {dim / 4:.2f}: tail not suppressed"
        )

    x, w = gauss_hermite_grid(dim + 10)
    stack = _grid_stack(dim)
    phase = np.exp(1j * z.real * z.imag)  # number-basis -> closed-form convention
    fock_phi = phase * (bc.eta @ stack)
    fock_psi = phase * (bc.xi @ stack)
    closed_phi, closed_psi = example_wavefunctions(z, x)

    dev_phi = np.abs(fock_phi - closed_phi)
    dev_psi = np.abs(fock_psi - closed_psi)
    pairing = complex(np.sum(w * np.conj(closed_phi) * closed_psi))
    return CrossValidation(
        max_dev_phi=float(dev_phi.max()),
        max_dev_psi=float(dev_psi.max()),
        l2_dev_phi=float(np.sqrt(np.sum(w * dev_phi**2))),
        l2_dev_psi=float(np.sqrt(np.sum(w * dev_psi**2))),
        pairing=pairing,
    )


def write_wavefunction_csv(path: str | Path, z: complex, x) -> Path:
    """Write one plot-ready CSV for amplitude ``z`` with columns
    ``x, re(Phi), im(Phi), re(phi), im(phi), re(psi), im(psi)``."""
    x = np.asarray(x, dtype=float)
    Phi = coherent_wavefunction(z, x)
    phi, psi = example_wavefunctions(z, x)
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "re_Phi", "im_Phi", "re_phi", "im_phi", "re_psi", "im_psi"])
        columns = (x, Phi.real, Phi.imag, phi.real, phi.imag, psi.real, psi.imag)
        writer.writerows([f"{v:.12g}" for v in row] for row in zip(*columns))
    return path
