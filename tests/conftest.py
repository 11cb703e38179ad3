import dataclasses
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from pseudoboson import (
    DisplacementSet,
    FockSpace,
    PseudoBosonPair,
    bicoherent,
    make_riesz_map,
    projector_map,
    random_riesz_map,
    weyl,
)
from pseudoboson.riesz import _transport


@pytest.fixture(scope="session")
def space64():
    return FockSpace(64)


@pytest.fixture(scope="session")
def identity_map64(space64):
    return make_riesz_map(space64, np.eye(0))


@pytest.fixture(scope="session")
def projector_map64(space64):
    return projector_map(space64, space64.basis_vector(0))


@pytest.fixture(scope="session")
def random_map64(space64):
    return random_riesz_map(space64, 10.0, seed=0)


@pytest.fixture(scope="session")
def random_maps64(space64):
    """Five seeded random maps with cond = 10 at dim 64."""
    return [random_riesz_map(space64, 10.0, seed=s) for s in range(5)]


@pytest.fixture(scope="session")
def all_maps64(identity_map64, projector_map64, random_maps64):
    """Identity, projector, and five random maps: the standard map set."""
    return [identity_map64, projector_map64] + list(random_maps64)


def in_graded_bracket(value, exact, rank):
    """``exact (1 - 4 eps) <= value <= sqrt(rank) exact (1 + 4 eps)``: a norm
    graded by ``fock._graded_norm`` that may be the Frobenius bound of a
    matrix of rank at most ``rank`` whose exact norm is ``exact``."""
    eps = np.finfo(float).eps
    return exact * (1 - 4 * eps) <= value <= np.sqrt(rank) * exact * (1 + 4 * eps)


def random_unit_vector(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def with_log_weights(quad, log_w):
    """``quad`` with the radial log weights ``log_w``, and the moment ratios
    its rule derives from them, as many as ``quad`` holds: a fault in the
    weights reaches every reader of the scheme."""
    ratios = bicoherent._moment_ratios(quad.radial_t, log_w, len(quad.moment_ratios))
    return dataclasses.replace(quad, radial_log_w=log_w, moment_ratios=ratios)


def with_entry(pair, op, entry, factor):
    """``pair`` with the entry ``entry`` of ``op`` (``"a"`` or ``"b"``) scaled by
    ``factor``, built by hand on a border just wide enough to hold it:
    ``a[i, j]`` lies in ``a[:q, :q+1]`` for ``q > i``, ``q >= j``, and
    ``b[i, j]`` in ``b[:q+1, :q]`` for ``q >= i``, ``q > j``."""
    a, b = pair.a.mat.copy(), pair.b.mat.copy()
    {"a": a, "b": b}[op][entry] *= factor
    i, j = entry
    q = min(max(pair.border, i + 1, j) if op == "a" else max(pair.border, i, j + 1), pair.space.dim)
    return PseudoBosonPair(a[:q, :q + 1], b[:q + 1, :q], pair.source)


def dense_displacements(riesz, z):
    """The dense ``U(z)`` and ``V(z)`` of ``riesz``, the oracle a
    :class:`DisplacementSet` is read against: :func:`weyl`'s dense ``W(z)``
    carried through the dense transports ``S W S^-1`` and
    ``(S^-1)^dag W S^dag``."""
    W = weyl(riesz.space, z).mat
    S, S_inv = riesz.S_block, riesz.S_inv_block
    return _transport(S, W, S_inv), _transport(S_inv.conj().T, W, S.conj().T)


def held_displacements(disp):
    """The dense ``U(z)`` and ``V(z)`` that ``disp`` holds: :func:`weyl`'s
    dense ``W(z)`` with the set's strips written over it."""
    W, q = weyl(disp.source.space, disp.z).mat, disp.border
    out = []
    for rows, below in ((disp.U_rows, disp.U_below), (disp.V_rows, disp.V_below)):
        X = W.copy()
        X[:q], X[q:, :q] = rows, below
        out.append(X)
    return out


def with_disp_entry(disp, op, entry, factor):
    """A set like ``disp`` with the entry ``entry`` of ``op`` (``"U"``, ``"V"``
    or ``"W"``) scaled by ``factor``: the fault is put into the dense
    matrices (:func:`dense_displacements`), which are then cut to strips
    just wide enough to hold it: an entry ``(i, j)`` lies in the strips of
    width ``q`` for ``q > min(i, j)``.  A ``W`` entry is carried into ``U``
    and ``V`` by the dense transports, as :func:`displaced_pair` would carry
    a fault of ``W``."""
    riesz = disp.source
    W = weyl(riesz.space, disp.z).mat.copy()
    if op == "W":
        W[entry] *= factor
    S, S_inv = riesz.S_block, riesz.S_inv_block
    U, V = _transport(S, W, S_inv), _transport(S_inv.conj().T, W, S.conj().T)
    if op != "W":
        {"U": U, "V": V}[op][entry] *= factor
    q = max(disp.border, min(entry) + 1)
    return DisplacementSet(disp.z, U[:q], U[q:, :q], V[:q], V[q:, :q], riesz)


@pytest.fixture
def nan_laguerre_weight(monkeypatch):
    """``bicoherent``'s Gauss rules with one NaN log weight, so every Laguerre
    order the test asks for fails its moment test: the order cache is
    emptied before, so no cached rule bypasses the fault, and after."""
    gauss = bicoherent._gauss_rule

    def rule_with_nan(a, b):
        t, log_w = gauss(a, b)
        log_w[len(log_w) // 2] = np.nan
        return t, log_w

    monkeypatch.setattr(bicoherent, "_gauss_rule", rule_with_nan)
    bicoherent._laguerre_rule.cache_clear()
    yield
    bicoherent._laguerre_rule.cache_clear()


@pytest.fixture(scope="module")
def bench():
    """``perfbench/workloads.py``, executed from its source so that
    nothing is written next to it."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    mod = types.ModuleType("perfbench_workloads")
    sys.modules[mod.__name__] = mod  # dataclasses resolve annotations through it
    try:
        exec(compile(path.read_text(), str(path), "exec"), mod.__dict__)
        yield mod
    finally:
        del sys.modules[mod.__name__]
