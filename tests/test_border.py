"""The pair as its border: ``a`` and ``b`` are ``c`` and ``c^dag`` outside
``a[:q, :q+1]`` and ``b[:q+1, :q]``, and every record that reads them works
on the border.  Each record is checked against a dense evaluation written
here, on the border extremes (``p = 0``, a border at level 0 and at level 5,
``p = dim/2`` and ``p = dim``); faults of the pair and of the displacements
are injected through ``run_suite``; and the pair-level and displacement work
is held below one ``dim x dim`` complex array beside ``W``."""

import dataclasses
import json
import sys
import tracemalloc

import numpy as np
import pytest

from pseudoboson import (
    DimensionMismatchError,
    DisplacementSet,
    FockSpace,
    PseudoBosonPair,
    bch_factorization_check,
    bicoherent,
    build_map,
    coherent,
    coordinate,
    displaced_pair,
    displacement,
    eigen_check,
    fock,
    intertwining_check,
    ladder_check,
    load_config,
    make_pair,
    make_quadrature,
    make_riesz_map,
    number_operator_check,
    power_similarity_check,
    projector_map,
    random_riesz_map,
    rbcs,
    resolution_of_identity,
    resolution_operator,
    run_suite,
    series_route,
    suite,
    theta_conjugacy_check,
    vacua,
    weyl,
)
from pseudoboson.algebra import _commutator_block
from pseudoboson.fock import _spectral_lower_bound, _spectral_norm, ladder_c
from pseudoboson.riesz import _transport

from conftest import dense_displacements, with_disp_entry, with_entry

MAPS = {
    "identity": (lambda space: make_riesz_map(space, np.eye(0)), 0),
    "projector-0": (lambda space: projector_map(space, space.basis_vector(0)), 1),
    "projector-5": (lambda space: projector_map(space, space.basis_vector(5)), 6),
    "random": (lambda space: random_riesz_map(space, 10.0, seed=1), 32),
    "dense": (lambda space: random_riesz_map(space, 10.0, seed=1, top_margin=0), 64),
}
Z = (0.0, 1.0, 1 + 1j, 2j)


def outside(d, q):
    """Masks of the entries outside ``a[:q, :q+1]`` and ``b[:q+1, :q]``."""
    a_out = np.ones((d, d), bool)
    a_out[:q, :q + 1] = False
    return a_out, a_out.T


@pytest.fixture(scope="module", params=list(MAPS))
def case(request):
    build, p = MAPS[request.param]
    riesz = build(FockSpace(64))
    return request.param, riesz, make_pair(riesz), p


class TestBorderExtremes:
    def test_border_is_the_block(self, case):
        # make_pair's border is the map's block, trimmed exactly
        _, riesz, pair, p = case
        assert riesz.block == pair.border == p
        assert pair.a_border.shape == (p, min(p + 1, 64))
        assert pair.b_border.shape == (min(p + 1, 64), p)

    def test_c_outside_the_border_bit_for_bit(self, case):
        # outside the border a and b are c and c^dag bit for bit, and so is
        # the dense transport S c S^-1; inside the two agree to roundoff
        _, riesz, pair, p = case
        c = ladder_c(riesz.space).mat
        S, S_inv = riesz.S.mat, riesz.S_inv.mat
        a_out, b_out = outside(64, p)
        for got, dense, canon, out in ((pair.a.mat, S @ c @ S_inv, c, a_out),
                                       (pair.b.mat, S @ c.T @ S_inv, c.T, b_out)):
            assert np.array_equal(got[out], canon[out])
            assert np.array_equal(dense[out], canon[out])
            assert np.abs(got - dense).max() <= 1e-13 * riesz.cond * np.abs(dense).max()

    def test_records_match_dense_evaluation(self, case, tmp_path, monkeypatch):
        # every record that reads a or b, as verify reports it, against the
        # same identity evaluated here on the dense a and b: equal to
        # roundoff, graded alike, and with the border in its params
        _, riesz, pair, p = case
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "schema_version": 1, "dim": 64, "map_spec": {"kind": "random", "cond": 10.0},
            "z_samples": [[z.real, z.imag] for z in map(complex, Z)],
            "outputs": str(tmp_path / "out")}))
        monkeypatch.setattr(suite, "build_map", lambda config, dim=None: riesz)
        reports = run_suite(load_config(path))
        want = dense_records(riesz)
        seen = set()
        for r in reports:
            key = (r.check_id, r.params.get("z"))
            if key not in want:
                continue
            seen.add(key)
            assert r.params["border"] == p, key
            assert abs(r.residual - want[key]) <= 1e-3 * r.tolerance, (key, r.residual, want[key])
            assert r.status == ("pass" if want[key] <= r.tolerance else "fail"), key
        assert seen == set(want)


def dense_records(riesz, pair=None):
    """The residuals of the records that read ``a`` or ``b``, keyed as
    ``(check_id, z label)``, from the dense ``a``, ``b``, ``S`` and ``S^-1``
    of ``pair`` (by default ``make_pair(riesz)``)."""
    space, d = riesz.space, riesz.dim
    pair = make_pair(riesz) if pair is None else pair
    a, b = pair.a.mat, pair.b.mat
    S, S_inv = riesz.S.mat, riesz.S_inv.mat
    phi, psi = S, S_inv.conj().T
    c = ladder_c(space).mat
    k, eye = d - 1, np.eye(d)
    out = {}
    ba = b @ a
    out["ccr", None] = np.linalg.norm((a @ b - ba - eye)[:k, :k], 2)
    eigs = np.sort_complex(np.linalg.eigvals(ba))[:k]
    out["number_spectrum", None] = np.abs(eigs - np.arange(k)).max()

    def kernel(M):
        return np.conj(np.linalg.svd(M)[2][-1])

    phi0, psi0 = kernel(a), kernel(b.conj().T)
    j = np.argmax(np.abs(phi0))
    phi0 = phi0 * np.conj(phi0[j] / abs(phi0[j]))
    psi0 = psi0 / np.vdot(phi0, psi0)

    def distance(v, w):
        v, w = v / np.linalg.norm(v), w / np.linalg.norm(w)
        overlap = np.vdot(v, w)
        return np.linalg.norm(v * overlap / abs(overlap) - w)

    out["vacuum_match", None] = max(distance(phi0, phi[:, 0]), distance(psi0, psi[:, 0]))
    out["vacuum_pairing", None] = abs(np.vdot(phi0, psi0) - 1.0)
    up = np.sqrt(np.arange(1.0, d))
    lowered = lambda v: np.pad(v[:, :-1] * up, ((0, 0), (1, 0)))  # noqa: E731
    out["ladder", None] = max(
        np.linalg.norm(b @ phi[:, :-1] - phi[:, 1:] * up, axis=0).max(),
        np.linalg.norm(a.conj().T @ psi[:, :-1] - psi[:, 1:] * up, axis=0).max(),
        np.linalg.norm(a @ phi - lowered(phi), axis=0).max(),
        np.linalg.norm(b.conj().T @ psi - lowered(psi), axis=0).max())
    levels = np.arange(k, dtype=float)
    out["number_operator", None] = max(
        np.linalg.norm(ba @ phi[:, :k] - phi[:, :k] * levels, axis=0).max(),
        np.linalg.norm(ba.conj().T @ psi[:, :k] - psi[:, :k] * levels, axis=0).max())
    theta = S_inv.conj().T @ S_inv
    out["theta_conjugacy", None] = np.linalg.norm(
        (a - np.linalg.inv(theta) @ b.conj().T @ theta)[:k, :k], 2)
    cut = d - 5
    s = min(cut, riesz.block + 5)  # the rows of D^k power_similarity divides by
    for z in map(complex, Z):
        label = f"{z.real:g}{z.imag:+g}j"
        G, D = z * c.T - np.conj(z) * c, z * b - np.conj(z) * a
        worst, Gk, Dk = 0.0, eye, eye
        for _ in range(5 if z else 0):
            Gk, Dk = Gk @ G, Dk @ D
            worst = max(worst, np.linalg.norm((S @ Gk @ S_inv - Dk)[:cut, :cut], 2)
                        / _spectral_lower_bound(Dk[:s, :cut]))
        out["power_similarity", label] = worst
        bc = rbcs(riesz, z)
        out["eigen_eta", label] = np.linalg.norm(a @ bc.eta - z * bc.eta) / np.linalg.norm(bc.eta)
        out["eigen_xi", label] = (np.linalg.norm(b.conj().T @ bc.xi - z * bc.xi)
                                  / np.linalg.norm(bc.xi))
        coeff, phi_n, psi_n = coherent(space, z), phi[:, 0], psi[:, 0]
        phi_sum, psi_sum = coeff[0] * phi_n, coeff[0] * psi_n
        for n in range(1, d):
            phi_n, psi_n = (b @ phi_n) / np.sqrt(n), (a.conj().T @ psi_n) / np.sqrt(n)
            phi_sum, psi_sum = phi_sum + coeff[n] * phi_n, psi_sum + coeff[n] * psi_n
        out["two_route", label] = max(np.linalg.norm(phi_sum - bc.eta),
                                      np.linalg.norm(psi_sum - bc.xi))
    return out


def run_with_fault(tmp_path, monkeypatch, map_spec, fault=None, factor=1 + 1e-6):
    """``run_suite`` at dim 64 on ``map_spec``, with ``fault = (op, entry)``
    scaled by ``factor``: an entry of the pair's ``a`` or ``b`` on a border
    that holds it, of each displacement set's ``U``, ``V`` or ``W``, or of
    the built map's block ``op`` (``"S_block"``, ``"theta_block"``, ...)."""
    path = tmp_path / "c.json"
    path.write_text(json.dumps({
        "schema_version": 1, "dim": 64, "map_spec": map_spec,
        "z_samples": [[0, 0], [1, 0], [1, 1], [0, 2]], "outputs": str(tmp_path / "out")}))
    if fault is not None and fault[0] in ("a", "b"):
        monkeypatch.setattr(suite, "make_pair",
                            lambda riesz: with_entry(make_pair(riesz), *fault, factor))
    elif fault is not None and fault[0] in ("U", "V", "W"):
        monkeypatch.setattr(suite, "displaced_pair", lambda riesz, z, levels: with_disp_entry(
            displaced_pair(riesz, z, levels), *fault, factor))
    elif fault is not None:
        field, entry = fault
        riesz = build_map(load_config(path))
        block = getattr(riesz, field).copy()
        block[entry] *= factor
        bad = dataclasses.replace(riesz, **{field: block})
        monkeypatch.setattr(suite, "build_map", lambda config, dim=None: bad)
    return run_suite(load_config(path))


PROJECTOR = {"kind": "projector", "u_index": 0}
RANDOM = {"kind": "random", "cond": 10.0, "seed": 1}


class TestNegativeControls:
    """One entry of ``a`` or ``b`` scaled by ``1 + 1e-6``, through
    ``run_suite``: inside the ``a`` border, at ``b[5, 4]`` (inside the random
    map's border, outside the projector's) and at ``b[41, 40]`` (outside both,
    on a widened border).  Each fail set is the one the dense pair gave
    before the pair became its border; every other record passes, as it
    does on the unperturbed maps."""

    FAILS = {
        ("projector", "a", (0, 1)): {"ccr", "eigen_eta", "ladder", "number_operator",
                                     "power_similarity", "theta_conjugacy", "two_route"},
        ("projector", "b", (5, 4)): {"ccr", "eigen_xi", "ladder", "number_operator",
                                     "number_spectrum", "power_similarity", "theta_conjugacy",
                                     "two_route"},
        ("projector", "b", (41, 40)): {"ccr", "ladder", "number_operator", "number_spectrum",
                                       "power_similarity", "theta_conjugacy"},
        ("random", "a", (0, 1)): {"ccr", "eigen_eta", "ladder", "number_operator",
                                  "power_similarity", "theta_conjugacy", "two_route",
                                  "vacuum_match"},
        ("random", "b", (5, 4)): {"ccr", "eigen_xi", "ladder", "number_operator",
                                  "theta_conjugacy", "two_route", "vacuum_match"},
        ("random", "b", (41, 40)): {"ccr", "ladder", "number_operator", "power_similarity",
                                    "theta_conjugacy"},
    }

    @pytest.mark.parametrize("kind, op, entry", list(FAILS),
                             ids=[f"{k}-{op}{list(e)}" for k, op, e in FAILS])
    def test_fail_set(self, kind, op, entry, tmp_path, monkeypatch):
        spec = PROJECTOR if kind == "projector" else RANDOM
        reports = run_with_fault(tmp_path, monkeypatch, spec, (op, entry))
        failed = {r.check_id for r in reports if r.status == "fail"}
        assert failed == self.FAILS[kind, op, entry]
        assert all(r.status == "pass" for r in reports if r.check_id not in failed)
        border = {r.params["border"] for r in reports
                  if "border" in r.params and r.check_id != "intertwining"}  # the pair's
        assert border == {max(1 if kind == "projector" else 32, entry[0] + (op == "a"))}

    @pytest.mark.parametrize("spec", [PROJECTOR, RANDOM], ids=["projector", "random"])
    def test_unperturbed_maps_pass(self, spec, tmp_path, monkeypatch):
        reports = run_with_fault(tmp_path, monkeypatch, spec)
        assert all(r.status == "pass" for r in reports)


class TestDisplacementFaults:
    """One entry of ``U``, ``V`` or ``W`` scaled by ``1 + 1e-6`` in every
    displacement set, through ``run_suite``: an entry of a strip of each map,
    ``V[20, 19]`` outside both maps' strips (held on strips widened to
    ``q = 20``), and ``W[3, 2]``.  ``intertwining`` cannot see ``W``: both of
    its sides telescope to ``S W S^dag``."""

    FAILS = {
        ("U", (0, 3)): {"bch_u", "intertwining"},
        ("V", (3, 0)): {"bch_v", "intertwining"},
        ("V", (20, 19)): {"bch_v", "intertwining"},
        ("W", (3, 2)): {"bch_u", "bch_v"},
    }

    @pytest.mark.parametrize("op, entry", list(FAILS), ids=[f"{op}{list(e)}" for op, e in FAILS])
    @pytest.mark.parametrize("kind", ["projector", "random"])
    def test_fail_set(self, kind, op, entry, tmp_path, monkeypatch):
        spec = PROJECTOR if kind == "projector" else RANDOM
        reports = run_with_fault(tmp_path, monkeypatch, spec, (op, entry))
        failed = {r.check_id for r in reports if r.status == "fail"}
        assert failed == self.FAILS[op, entry]
        assert all(r.status == "pass" for r in reports if r.check_id not in failed)
        p = 1 if kind == "projector" else 32
        widened = min(entry) + 1 if op != "W" else 0
        border = {r.params["border"] for r in reports
                  if r.check_id == "intertwining" and r.params["z"] != "0+0j"}
        assert border == {max(p, widened)}


class TestExactFails:
    """A record that certifies its pass on a Frobenius bound grades every
    fail on the exact norm.  One fault row per such record, through
    ``run_suite``: ``U[0, 3]`` for ``bch_u`` and ``intertwining``; ``a[0, 1]``
    for ``power_similarity``, ``ccr`` and ``theta_conjugacy``;
    ``theta_block[0, 0]`` for ``rank_one_theta``; ``S_block`` (by ``1 + 1e-3``,
    as in :class:`TestMapBlockFaults`) for ``rank_one_theta_inv``; the radial
    weight ``w_5`` for ``resolution_identity``.  A failing record takes the
    exact SVD and reads the exact quotient, ``||diff|| / denominator``, which a
    call with the default ``tol = 0`` gives bit for bit; a passing one takes
    no SVD.  Every run counts the exact norms by the function that takes them
    (:attr:`SITES`).  (A one-entry fault makes ``intertwining``'s difference
    rank one, where the bound and the exact norm agree to roundoff, so the
    SVDs are counted.)"""

    #: the functions that take an exact norm -> the records they grade
    SITES = {
        "make_riesz_map": ("riesz_construction",),
        "run_suite": ("ccr", "rank_one_theta", "rank_one_theta_inv"),
        "theta_conjugacy_check": ("theta_conjugacy",),
        "power_similarity_check": ("power_similarity",),
        "bch_factorization_check": ("bch_u", "bch_v"),
        "intertwining_check": ("intertwining",),
        "resolution_of_identity": ("resolution_identity",),
    }

    def run(self, tmp_path, monkeypatch, kind, fault=None, factor=1 + 1e-6):
        """The fault row's reports, the values the exact norm returned, by
        site, and the unperturbed map.  Each failing record took one exact
        norm (``power_similarity`` one to five, one per failing power;
        ``resolution_identity`` at most one), each passing record none."""
        seen, norm = {site: [] for site in self.SITES}, fock._spectral_norm

        def spy(X):
            frame = sys._getframe(1)
            while frame.f_code.co_name not in self.SITES:
                frame = frame.f_back
            seen[frame.f_code.co_name].append(norm(X))
            return seen[frame.f_code.co_name][-1]

        monkeypatch.setattr(fock, "_spectral_norm", spy)  # called by _graded_norm alone
        spec = PROJECTOR if kind == "projector" else RANDOM
        reports = run_with_fault(tmp_path, monkeypatch, spec, fault, factor)
        monkeypatch.setattr(fock, "_spectral_norm", norm)
        failed = [r.check_id for r in reports if r.status == "fail"]
        for site, names in self.SITES.items():
            n = sum(name in names for name in failed)
            low = 0 if site == "resolution_of_identity" else n
            high = 5 * n if site == "power_similarity_check" else n
            assert low <= len(seen[site]) <= high, (site, n, len(seen[site]))
        return reports, seen, build_map(load_config(tmp_path / "c.json"))

    @staticmethod
    def failed(reports, name):
        got = {r.params.get("z"): r.residual for r in reports
               if r.check_id == name and r.status == "fail"}
        assert got
        return got

    @pytest.mark.parametrize("kind", ["projector", "random"])
    def test_displacement_records(self, kind, tmp_path, monkeypatch):
        fault = ("U", (0, 3))
        reports, seen, riesz = self.run(tmp_path, monkeypatch, kind, fault)
        B = riesz.frame_bounds[1]
        bch_u, intertwining = self.failed(reports, "bch_u"), self.failed(reports, "intertwining")
        # bch_v passes: one SVD per failing bch_u and intertwining record
        assert len(seen["bch_factorization_check"]) == len(bch_u)
        assert sorted(v / B for v in seen["intertwining_check"]) == sorted(intertwining.values())
        for label, residual in bch_u.items():
            z = complex(label)
            k = suite._bch_cutoff(64, z)
            disp = with_disp_entry(displaced_pair(riesz, z, k), *fault, 1 + 1e-6)
            ref = disp.lead("U", k)
            E = displacement._displacement_block(z, max(k, riesz.block))
            UE = _transport(riesz.S_block, E, riesz.S_inv_block, k, k)
            exact = _spectral_norm(ref - UE) / _spectral_lower_bound(ref)
            assert residual == exact == bch_factorization_check(disp, k)[0]
        for label, residual in intertwining.items():
            # intertwining reads the strips only: a set of all levels reads the same
            disp = with_disp_entry(displaced_pair(riesz, complex(label), 64), *fault, 1 + 1e-6)
            assert residual == intertwining_check(disp)
            M = riesz.theta_inv.mat
            diff = (M @ disp.lead("V", 64) - disp.lead("U", 64) @ M)[:63, :63]
            assert residual == pytest.approx(_spectral_norm(diff) / B, rel=1e-8)

    @pytest.mark.parametrize("kind", ["projector", "random"])
    def test_power_similarity(self, kind, tmp_path, monkeypatch):
        fault = ("a", (0, 1))
        reports, seen, riesz = self.run(tmp_path, monkeypatch, kind, fault)
        failed = self.failed(reports, "power_similarity")
        pair = with_entry(make_pair(riesz), *fault, 1 + 1e-6)
        want = dense_records(riesz, pair)
        for label, residual in failed.items():
            assert residual == power_similarity_check(pair, complex(label)).max()
            assert residual == pytest.approx(want["power_similarity", label], rel=1e-8)

    @pytest.mark.parametrize("kind", ["projector", "random"])
    def test_ccr_and_theta_conjugacy(self, kind, tmp_path, monkeypatch):
        fault = ("a", (0, 1))
        reports, seen, riesz = self.run(tmp_path, monkeypatch, kind, fault)
        (ccr,), (conjugacy,) = (self.failed(reports, name).values()
                                for name in ("ccr", "theta_conjugacy"))
        pair = with_entry(make_pair(riesz), *fault, 1 + 1e-6)
        want = dense_records(riesz, pair)
        k = riesz.dim - 1
        # the rank-one records pass: the one SVD in run_suite is ccr's
        assert seen["run_suite"] == [ccr]
        assert ccr == _spectral_norm(_commutator_block(pair)[:k, :k]
                                     - np.eye(min(len(pair.number_block), k)))
        assert ccr == pytest.approx(want["ccr", None], rel=1e-8)
        assert seen["theta_conjugacy_check"] == [conjugacy] == [theta_conjugacy_check(pair)]
        assert conjugacy == pytest.approx(want["theta_conjugacy", None], rel=1e-8)

    @pytest.mark.parametrize("kind, field, entry, factor, name", [
        ("projector", "theta_block", (0, 0), 1 + 1e-6, "rank_one_theta"),
        ("random", "theta_block", (0, 0), 1 + 1e-6, "rank_one_theta"),
        ("projector", "S_block", (0, 0), 1 + 1e-3, "rank_one_theta_inv"),
        ("random", "S_block", (21, 10), 1 + 1e-3, "rank_one_theta_inv"),
    ], ids=["projector-theta", "random-theta", "projector-S", "random-S"])
    def test_rank_one_records(self, kind, field, entry, factor, name, tmp_path, monkeypatch):
        reports, seen, riesz = self.run(tmp_path, monkeypatch, kind, (field, entry), factor)
        block = getattr(riesz, field).copy()
        block[entry] *= factor
        bad = dataclasses.replace(riesz, **{field: block})
        (residual,) = self.failed(reports, name).values()
        A, B = bad.frame_bounds
        if name == "rank_one_theta":
            psi = bad.S_inv_block.conj().T
            diff, denominator = psi @ psi.conj().T - bad.theta_block, 1 / A
            dense_psi = bad.S_inv.mat.conj().T
            dense = _spectral_norm(dense_psi @ dense_psi.conj().T - bad.theta.mat) * A
        else:
            phi = bad.S_block
            diff, denominator = phi @ phi.conj().T - bad.theta_inv_block, B
            dense = _spectral_norm(bad.S.mat @ bad.S.mat.conj().T - bad.theta_inv.mat) / B
        assert _spectral_norm(diff) in seen["run_suite"]
        assert residual == _spectral_norm(diff) / denominator
        assert residual == pytest.approx(dense, rel=1e-8)

    @pytest.mark.parametrize("kind", ["projector", "random"])
    def test_resolution_identity(self, kind, tmp_path, monkeypatch):
        quads = []

        def faulted(*args, build=suite.make_quadrature):
            quads.append(with_weight_fault(build(*args)))
            return quads[-1]

        monkeypatch.setattr(suite, "make_quadrature", faulted)
        reports, seen, riesz = self.run(tmp_path, monkeypatch, kind)
        (residual,) = self.failed(reports, "resolution_identity").values()
        (quad,) = quads
        assert residual == resolution_of_identity(riesz, quad)
        dense = _spectral_norm(resolution_operator(riesz, quad).mat - np.eye(riesz.dim))
        assert residual == pytest.approx(dense, rel=1e-8)
        # the projector's tail max |g[1:] - 1| bounds its 1 x 1 block: no SVD;
        # the random map's block is the larger, on the exact norm
        assert len(seen["resolution_of_identity"]) == (kind == "random")


def with_weight_fault(quad):
    """``quad`` with its radial weight ``w_5`` scaled by ``1 + 1e-6`` (its log
    raised by ``log(1 + 1e-6)``)."""
    log_w = quad.radial_log_w.copy()
    log_w[5] += np.log1p(1e-6)
    return dataclasses.replace(quad, radial_log_w=log_w)


class TestRuleFaults:
    """One entry of a rule the checks build scaled by ``1 + 1e-6``, through
    ``run_suite``: the radial weight ``w_5`` of the quadrature ``verify``
    builds (its log raised by ``log(1 + 1e-6)``), and the Laguerre block
    entry ``E[3, 2]`` that the factorization compares ``U`` and ``V`` with.
    The weight moves the moment ratios, which ``resolution_identity`` reads
    without forming ``R``; ``E`` is read by ``bch_u`` and ``bch_v`` alone."""

    FAILS = {"radial_log_w": {"resolution_identity"}, "E": {"bch_u", "bch_v"}}

    @pytest.mark.parametrize("site", list(FAILS))
    @pytest.mark.parametrize("kind", ["projector", "random"])
    def test_fail_set(self, kind, site, tmp_path, monkeypatch):
        if site == "radial_log_w":
            def faulted(*args, build=suite.make_quadrature):
                return with_weight_fault(build(*args))
            monkeypatch.setattr(suite, "make_quadrature", faulted)
        else:
            def faulted(z, d, build=displacement._displacement_block):
                E = build(z, d)
                E[3, 2] *= 1 + 1e-6
                return E
            monkeypatch.setattr(displacement, "_displacement_block", faulted)
        reports = run_with_fault(tmp_path, monkeypatch, PROJECTOR if kind == "projector"
                                 else RANDOM)
        failed = {r.check_id for r in reports if r.status == "fail"}
        assert failed == self.FAILS[site]
        assert all(r.status == "pass" for r in reports if r.check_id not in failed)


class TestStateAndGridFaults:
    """One entry scaled by ``1 + 1e-6`` through ``run_suite``: the level-3
    entry of every coherent vector the bicoherent states and the series are
    built from, and the middle weight of the Hermite grid that
    ``cross_validate`` integrates with (on the projector map, the one map
    that runs the cross-validation).  ``two_route`` cannot see the coherent
    fault: ``series_route`` weights its series by the states' own ``Phi(z)``;
    ``coordinate_l2`` sees it, since the closed forms build no coherent vector.
    Only the grid's weights move, since its nodes feed the Hermite stack
    that is cached per process."""

    FAILS = {
        ("projector", "coherent"): {"coordinate_l2", "eigen_eta", "eigen_xi", "rbcs_pairing"},
        ("random", "coherent"): {"eigen_eta", "eigen_xi", "rbcs_pairing"},
        ("projector", "hermite_weight"): {"coordinate_pairing"},
    }

    @pytest.mark.parametrize("kind, site", list(FAILS), ids=[f"{k}-{s}" for k, s in FAILS])
    def test_fail_set(self, kind, site, tmp_path, monkeypatch):
        if site == "coherent":
            def faulted(space, z, build=bicoherent.coherent):
                state = build(space, z).copy()
                state[3] *= 1 + 1e-6
                return state
            monkeypatch.setattr(bicoherent, "coherent", faulted)
        else:
            def faulted(order, build=coordinate.gauss_hermite_grid):
                x, w = build(order)
                w = w.copy()
                w[order // 2] *= 1 + 1e-6
                return x, w
            monkeypatch.setattr(coordinate, "gauss_hermite_grid", faulted)
        reports = run_with_fault(tmp_path, monkeypatch, PROJECTOR if kind == "projector"
                                 else RANDOM)
        failed = {r.check_id for r in reports if r.status == "fail"}
        assert failed == self.FAILS[kind, site]
        assert all(r.status == "pass" for r in reports if r.check_id not in failed)


class TestMapBlockFaults:
    """One entry of a block of the built map scaled, through ``run_suite``:
    ``theta_block`` and ``theta_inv_block`` by ``1 + 1e-6``, ``S_block`` and
    ``S_inv_block`` by ``1 + 1e-3``.  At ``1e-6`` the ``S`` rows leave
    ``power_similarity`` or ``number_spectrum`` within 10x of tolerance; at
    ``1e-3`` no record here is (``S_block[5, 4]`` of the random map would
    leave ``number_spectrum`` at 1.3x, so its row moves to ``[21, 10]``).
    On the projector map ``theta_conjugacy`` never reads ``theta_block[0, 0]``:
    ``b^dag``'s diagonal is zero.  A projector map with ``S_block`` moved is
    no longer the ground-state projector, so the run skips the coordinate
    cross-validation, as it does for any other map, and grades the rest; one
    with ``S_inv_block`` moved still runs it, and ``xi`` carries the fault
    into ``coordinate_l2``."""

    # the records of every identity S carries
    CARRIED = {"biorthogonality", "ccr", "intertwining", "ladder", "number_operator",
               "number_spectrum", "power_similarity", "rbcs_pairing", "resolution_identity",
               "theta_conjugacy", "theta_family", "two_route"}
    THETA = {"rank_one_theta", "theta_conjugacy", "theta_family", "theta_positivity"}
    THETA_INV = {"intertwining", "rank_one_theta_inv", "theta_conjugacy"}
    FAILS = {
        ("projector", "theta_block", (0, 0)): {"rank_one_theta", "theta_family"},
        ("random", "theta_block", (0, 0)): THETA,
        ("random", "theta_block", (5, 4)): THETA,
        ("projector", "theta_inv_block", (0, 0)): THETA_INV,
        ("random", "theta_inv_block", (0, 0)): THETA_INV,
        ("random", "theta_inv_block", (5, 4)): THETA_INV,
        ("projector", "S_block", (0, 0)): CARRIED | {"rank_one_theta_inv"},
        ("projector", "S_inv_block", (0, 0)): CARRIED | {"coordinate_l2", "rank_one_theta"},
        ("random", "S_block", (21, 10)):
            CARRIED | {"eigen_eta", "eigen_xi", "rank_one_theta_inv", "vacuum_match"},
        ("random", "S_inv_block", (5, 4)):
            CARRIED | {"eigen_eta", "eigen_xi", "rank_one_theta", "vacuum_match"},
    }

    @pytest.mark.parametrize("kind, field, entry", list(FAILS),
                             ids=[f"{k}-{f}{list(e)}" for k, f, e in FAILS])
    def test_fail_set(self, kind, field, entry, tmp_path, monkeypatch):
        spec = PROJECTOR if kind == "projector" else RANDOM
        factor = 1 + (1e-3 if field.startswith("S") else 1e-6)
        reports = run_with_fault(tmp_path, monkeypatch, spec, (field, entry), factor)
        failed = {r.check_id for r in reports if r.status == "fail"}
        assert failed == self.FAILS[kind, field, entry]
        assert all(r.status == "pass" for r in reports if r.check_id not in failed)


class TestAllocation:
    """At dim 1024 on the projector map the pair, the map-level records and
    ``power_similarity`` each peak below one ``dim x dim`` complex array
    (16 MB): nothing dense is formed."""

    LIMIT = 1024 * 1024 * 16

    @staticmethod
    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_pair_level_work_stays_below_one_dense_array(self):
        space = FockSpace(1024)
        riesz = projector_map(space, space.basis_vector(0))
        assert self.peak(lambda: make_pair(riesz)) < self.LIMIT
        pair = make_pair(riesz)

        def map_level():
            _commutator_block(pair)
            np.linalg.eigvals(pair.number_block)
            vacua(pair)
            ladder_check(pair)
            number_operator_check(pair)
            theta_conjugacy_check(pair)

        assert self.peak(map_level) < self.LIMIT
        for z in (1.0, 1 + 1j, 2j):
            assert self.peak(lambda: power_similarity_check(pair, z)) < self.LIMIT
            bc = rbcs(riesz, z)
            assert self.peak(lambda: (series_route(pair, [bc]), eigen_check(pair, bc))) < self.LIMIT
        # one growth of the families for all three states holds no table of them
        states = [rbcs(riesz, z) for z in (1.0, 1 + 1j, 2j)]
        assert self.peak(lambda: series_route(pair, states)) < self.LIMIT

    def test_displacement_work_stays_beside_w(self):
        # displaced_pair holds W's 512 x 512 block and strips of width 1, a
        # quarter of a dense array, and peaks below half of one; the
        # factorization (a 512 x 512 cutoff) and intertwining checks below one
        space = FockSpace(1024)
        riesz = projector_map(space, space.basis_vector(0))
        weyl(space, 1.0)  # the position spectrum, cached for every amplitude
        for z in (1.0, 1 + 1j, 2j):
            cut = suite._bch_cutoff(1024, z)
            assert self.peak(lambda: displaced_pair(riesz, z, cut)) < 0.5 * self.LIMIT
            disp = displaced_pair(riesz, z, cut)
            assert disp.border == 1 and disp.W.shape == (cut, cut) == (512, 512)
            assert self.peak(lambda: bch_factorization_check(disp, cut)) < self.LIMIT
            assert self.peak(lambda: intertwining_check(disp)) < self.LIMIT

    def test_random_map_displacement_keeps_its_strips_uncopied(self):
        # on the random map (p = 512) the set holds W's 512 x 512 block and
        # four strips, 28 MiB, and displaced_pair peaks at 48 MiB: a strip
        # handed to the set as a view would be copied, to 64 MiB
        space = FockSpace(1024)
        riesz = random_riesz_map(space, 10.0, seed=3)
        weyl(space, 1.0)  # the position spectrum, cached for every amplitude
        for z in (1.0, 1 + 1j, 2j):
            cut = suite._bch_cutoff(1024, z)
            assert self.peak(lambda: displaced_pair(riesz, z, cut)) < 3.25 * self.LIMIT

    @pytest.mark.parametrize("kind", ["projector", "random"])
    def test_resolution_record_forms_no_dense_array(self, kind):
        # the minimal rule verify builds: the moment ratios and the map's block
        space = FockSpace(1024)
        riesz = (projector_map(space, space.basis_vector(0)) if kind == "projector"
                 else random_riesz_map(space, 10.0, seed=3))
        quad = make_quadrature(1024, 513, 2049)
        assert self.peak(lambda: resolution_of_identity(riesz, quad)) < self.LIMIT


def test_hand_built_border_is_kept(random_map64):
    # a dense pair handed to the constructor keeps its dense borders, and
    # reads back make_pair's pair
    pair = make_pair(random_map64)
    dense = PseudoBosonPair(pair.a.mat, pair.b.mat, random_map64)
    assert (dense.border, pair.border) == (64, 32)
    assert np.array_equal(dense.a_border[:32, :33], pair.a_border)
    assert np.array_equal(dense.b_border[:33, :32], pair.b_border)
    assert np.array_equal(dense.a.mat, pair.a.mat) and np.array_equal(dense.b.mat, pair.b.mat)
    assert not dense.a_border.flags.writeable


def test_border_narrower_than_the_block_is_refused(random_map64):
    # the map's block is the narrowest border: one level less is refused
    pair = make_pair(random_map64)
    with pytest.raises(DimensionMismatchError):
        PseudoBosonPair(pair.a_border[:31, :32], pair.b_border[:32, :31], random_map64)
    W = weyl(random_map64.space, 1.0).mat
    U, V = dense_displacements(random_map64, 1.0)
    with pytest.raises(DimensionMismatchError):
        DisplacementSet(1.0, W, U[:31], U[31:, :31], V[:31], V[31:, :31], random_map64)


@pytest.mark.parametrize("spec", [PROJECTOR, RANDOM], ids=["projector", "random"])
def test_wider_border_is_kept_verbatim(spec, tmp_path, monkeypatch):
    # make_pair's border padded by 7 levels of the exact c and c^dag: the
    # constructor keeps it, every pair record carries it, and every record
    # is graded as on make_pair's own pair
    own = run_with_fault(tmp_path, monkeypatch, spec)

    def widened(riesz):
        pair = make_pair(riesz)
        q = pair.border + 7
        return PseudoBosonPair(pair.a.mat[:q, :q + 1], pair.b.mat[:q + 1, :q], riesz)

    monkeypatch.setattr(suite, "make_pair", widened)
    wide = run_with_fault(tmp_path, monkeypatch, spec)
    p = 1 if spec is PROJECTOR else 32
    assert len(wide) == len(own)
    for w, o in zip(wide, own):
        assert (w.check_id, w.status) == (o.check_id, o.status)
        assert {k: v for k, v in w.params.items() if k != "border"} == {
            k: v for k, v in o.params.items() if k != "border"}
        if "border" in o.params and w.check_id != "intertwining":  # the pair's
            assert (w.params["border"], o.params["border"]) == (p + 7, p)
