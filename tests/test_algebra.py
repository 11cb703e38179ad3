import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudoboson import (
    DegenerateKernelError,
    FockSpace,
    OrthogonalVacuaError,
    PseudoBosonPair,
    ladder_c,
    ladder_c_dag,
    ladder_check,
    make_pair,
    make_riesz_map,
    number_operator_check,
    projector_map,
    random_riesz_map,
    theta_conjugacy_check,
    vacua,
)
from pseudoboson.algebra import _smallest_singular_vector
from pseudoboson.reports import default_tolerance

from conftest import random_unit_vector, with_entry


def projector_riesz(dim):
    P = np.zeros((dim, dim), complex)
    P[0, 0] = 1.0
    return make_riesz_map(FockSpace(dim), np.eye(dim) + 1j * P)


class TestMakePair:
    def test_bosonic_limit(self):
        space = FockSpace(8)
        pair = make_pair(make_riesz_map(space, np.eye(0)))
        np.testing.assert_allclose(pair.a.mat, ladder_c(space).mat, atol=1e-15)
        np.testing.assert_allclose(pair.b.mat, ladder_c_dag(space).mat, atol=1e-15)

    def test_projector_closed_form_dim4(self):
        # with P = |e0><e0| and cP = 0 in truncation, a = c + iPc
        riesz = projector_riesz(4)
        pair = make_pair(riesz)
        c = ladder_c(FockSpace(4)).mat
        P = np.zeros((4, 4), complex)
        P[0, 0] = 1.0
        np.testing.assert_allclose(pair.a.mat, c + 1j * P @ c, atol=1e-14)

    def test_ccr_on_safe_subspace(self, all_maps64):
        for riesz in all_maps64:
            pair = make_pair(riesz)
            a, b = pair.a.mat, pair.b.mat
            block = (a @ b - b @ a - np.eye(64))[:63, :63]
            assert np.linalg.norm(block, 2) <= 1e-10 * riesz.cond**2

    def test_pair_differs_from_adjoint(self, random_map64):
        pair = make_pair(random_map64)
        assert np.linalg.norm(pair.b.mat - pair.a.mat.conj().T, 2) > 0.1


class TestVacua:
    def test_bosonic_vacua(self):
        pair = make_pair(make_riesz_map(FockSpace(8), np.eye(0)))
        phi0, psi0 = vacua(pair)
        np.testing.assert_allclose(phi0, np.eye(8)[0], atol=1e-14)
        np.testing.assert_allclose(psi0, np.eye(8)[0], atol=1e-14)

    def test_projector_vacua(self):
        riesz = projector_riesz(8)
        phi0, psi0 = vacua(make_pair(riesz))
        # phase convention puts the largest component on the positive real axis
        np.testing.assert_allclose(phi0, np.eye(8)[0], atol=1e-12)
        assert np.vdot(phi0, psi0) == pytest.approx(1.0, abs=1e-12)

    def test_matches_closed_form_up_to_phase(self, all_maps64):
        for riesz in all_maps64:
            phi0, psi0 = vacua(make_pair(riesz))
            for got, want in ((phi0, riesz.S.mat[:, 0]), (psi0, riesz.S_inv.mat[0].conj())):
                got_dir = got / np.linalg.norm(got)
                want_dir = want / np.linalg.norm(want)
                overlap = np.vdot(got_dir, want_dir)
                assert np.linalg.norm(got_dir * overlap / abs(overlap) - want_dir) <= 1e-10

    def test_pairing_normalized(self, all_maps64):
        for riesz in all_maps64:
            phi0, psi0 = vacua(make_pair(riesz))
            assert abs(np.vdot(phi0, psi0) - 1.0) <= 1e-12

    def test_annihilation_residuals(self, random_map64):
        pair = make_pair(random_map64)
        phi0, psi0 = vacua(pair)
        a_norm = np.linalg.norm(pair.a.mat, 2)
        assert np.linalg.norm(pair.a.mat @ phi0) <= 1e-10 * a_norm
        bd_norm = np.linalg.norm(pair.b.mat.conj().T, 2)
        assert np.linalg.norm(pair.b.mat.conj().T @ psi0) <= 1e-10 * bd_norm * np.linalg.norm(psi0)

    def test_degenerate_kernel_detected(self):
        space = FockSpace(4)
        riesz = make_riesz_map(space, np.eye(0))
        # dense borders (q = dim): the diagonal is off c everywhere
        degenerate = np.diag([0.0, 0.0, 1.0, 2.0]).astype(complex)
        pair = PseudoBosonPair(a_border=degenerate, b_border=degenerate.conj().T, source=riesz)
        assert pair.border == 4
        with pytest.raises(DegenerateKernelError):
            vacua(pair)

    def test_orthogonal_vacua_detected(self):
        space = FockSpace(4)
        riesz = make_riesz_map(space, np.eye(0))
        a = ladder_c(space).mat  # kernel e_0
        b = np.diag([1.0, 0.0, 1.0, 1.0]).astype(complex)  # b^dag kernel e_1
        pair = PseudoBosonPair(a_border=a, b_border=b, source=riesz)  # dense borders, q = dim
        assert pair.border == 4
        with pytest.raises(OrthogonalVacuaError):
            vacua(pair)

    def test_closed_form_pairing_exact(self, all_maps64):
        for riesz in all_maps64:
            assert abs(np.vdot(riesz.S.mat[:, 0], riesz.S_inv.mat[0].conj()) - 1.0) <= 1e-14


def bordered_matrix(rng, d, q, tiny_block, zero_tail):
    """``blockdiag(B, T)``: a ``q x (q+1)`` block ``B`` (``d x d`` when
    ``q = d``) with singular values in ``[0.5, 2]``, its smallest at 1e-12
    when ``tiny_block``, and a superdiagonal tail ``T`` of moduli in
    ``[0.5, 2]``, one of them 0 when ``zero_tail``."""
    def unitary(n):
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        return Q

    rows, cols = q, min(q + 1, d)
    sigma = rng.uniform(0.5, 2.0, min(rows, cols))
    if q == d:
        sigma[-1] = 0.0  # a square block needs its own kernel
    if tiny_block and q:
        sigma[-2 if q == d else -1] = 1e-12
    M = np.zeros((d, d), complex)
    M[:rows, :cols] = unitary(rows)[:, :len(sigma)] * sigma @ unitary(cols)[:len(sigma)]
    n = max(d - 1 - q, 0)
    tail = rng.uniform(0.5, 2.0, n) * np.exp(2j * np.pi * rng.random(n))
    if zero_tail and tail.size:
        tail[rng.integers(tail.size)] = 0.0
    M[np.arange(q, d - 1), np.arange(q + 1, d)] = tail
    return M


class TestBlockKernel:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 24), st.data())
    def test_matches_full_svd(self, d, data):
        # the block SVD of the border M[:q, :q+1] with the superdiagonal tail
        # finds the full SVD's kernel direction, and refuses exactly when
        # the full SVD's gap test does
        q = data.draw(st.integers(0, d))
        tiny_block, zero_tail = data.draw(st.booleans()), data.draw(st.booleans())
        M = bordered_matrix(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))),
                            d, q, tiny_block, zero_tail)
        _, sigma, Vh = np.linalg.svd(M)
        degenerate = sigma[-2] - sigma[-1] < 1e-8
        assert degenerate == ((tiny_block and q > 0) or (zero_tail and q < d - 1))
        if degenerate:
            with pytest.raises(DegenerateKernelError):
                _smallest_singular_vector(M[:q, :q + 1], np.diag(M, 1)[q:], "M")
            return
        got, want = _smallest_singular_vector(M[:q, :q + 1], np.diag(M, 1)[q:], "M"), np.conj(Vh[-1])
        overlap = np.vdot(got, want)
        assert abs(np.linalg.norm(got) - 1.0) <= 1e-14
        assert np.linalg.norm(got * overlap / abs(overlap) - want) <= 1e-12

    def test_ladder_pair_of_projector_map_takes_its_border(self, monkeypatch):
        # S = 1 + i|e0><e0| has the block p = 1: the kernel comes from the
        # 1 x 2 borders of a and b^dag, with no scan for a smaller block
        pair, seen, svd = make_pair(projector_riesz(32)), [], np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kw: seen.append(a.shape)
                            or svd(a, *args, **kw))
        phi0, _ = vacua(pair)
        assert seen == [(1, 2), (1, 2)]
        np.testing.assert_allclose(np.abs(phi0), np.eye(32)[0], atol=1e-15)


class TestLadderCheck:
    def test_vacuum_residual_is_annihilation(self, random_map64):
        pair = make_pair(random_map64)
        r = ladder_check(pair)["a_lower"][0]
        assert r == pytest.approx(np.linalg.norm(pair.a.mat @ random_map64.S.mat[:, 0]))

    def test_bosonic_residuals_machine(self):
        riesz = make_riesz_map(FockSpace(32), np.eye(0))
        residuals = ladder_check(make_pair(riesz))
        assert max(r.max() for r in residuals.values()) <= 1e-12

    def test_all_relations_all_maps(self, all_maps64):
        for riesz in all_maps64:
            residuals = ladder_check(make_pair(riesz))
            assert max(r.max() for r in residuals.values()) <= 1e-9
            assert {k: len(r) for k, r in residuals.items()} == {
                "b_raise": 63, "adag_raise": 63, "a_lower": 64, "bdag_lower": 64}

    def test_matches_per_level_reference(self, random_map64):
        # one matrix product per relation against one matrix-vector
        # product per level; the sums run in another order, so they agree
        # to roundoff of ||op|| ||v_n|| at double precision (s[0] = 0 drops
        # the wrapped-around v_{-1} at n = 0)
        pair = make_pair(random_map64)
        a, b = pair.a.mat, pair.b.mat
        phi, psi = random_map64.S.mat, random_map64.S_inv.mat.conj().T
        s = np.sqrt(np.arange(64.0))
        reference = {
            "b_raise": [np.linalg.norm(b @ phi[:, n] - s[n + 1] * phi[:, n + 1]) for n in range(63)],
            "adag_raise": [np.linalg.norm(a.conj().T @ psi[:, n] - s[n + 1] * psi[:, n + 1])
                           for n in range(63)],
            "a_lower": [np.linalg.norm(a @ phi[:, n] - s[n] * phi[:, n - 1])
                        for n in range(64)],
            "bdag_lower": [np.linalg.norm(b.conj().T @ psi[:, n] - s[n] * psi[:, n - 1])
                           for n in range(64)],
        }
        scale = max(np.linalg.norm(a, 2), np.linalg.norm(b, 2)) * max(
            np.linalg.norm(phi, axis=0).max(), np.linalg.norm(psi, axis=0).max())
        residuals = ladder_check(pair)
        for key, want in reference.items():
            np.testing.assert_allclose(residuals[key], want, rtol=0,
                                       atol=64 * np.finfo(float).eps * scale)


class TestBlockProducts:
    """``ladder_check`` and ``number_operator_check`` multiply each operator's
    leading block by the map's deformed block only; the dense-family
    formulas below, built from ``S`` and ``S^-1`` and the dense ``a`` and
    ``b`` alone, give the same arrays."""

    @staticmethod
    def dense(pair):
        """Ladder and number residuals on the dense families ``phi = S`` and
        ``psi = (S^-1)^dag``, one full matrix product per relation."""
        a, b = pair.a.mat, pair.b.mat
        phi, psi = pair.source.S.mat, pair.source.S_inv.mat.conj().T
        d = pair.space.dim
        up = np.sqrt(np.arange(1.0, d))

        def lowered(v):
            return np.pad(v[:, :-1] * up, ((0, 0), (1, 0)))

        ladder = {
            "b_raise": np.linalg.norm(b @ phi[:, :-1] - phi[:, 1:] * up, axis=0),
            "adag_raise": np.linalg.norm(a.conj().T @ psi[:, :-1] - psi[:, 1:] * up, axis=0),
            "a_lower": np.linalg.norm(a @ phi - lowered(phi), axis=0),
            "bdag_lower": np.linalg.norm(b.conj().T @ psi - lowered(psi), axis=0),
        }
        N = b @ a
        levels = np.arange(d - 1.0)
        number = (np.linalg.norm(N @ phi[:, :-1] - phi[:, :-1] * levels, axis=0),
                  np.linalg.norm(N.conj().T @ psi[:, :-1] - psi[:, :-1] * levels, axis=0))
        return ladder, number

    MAPS = {
        "identity": lambda space: make_riesz_map(space, np.eye(0)),
        "projector-0": lambda space: projector_map(space, space.basis_vector(0)),
        "projector-3": lambda space: projector_map(space, space.basis_vector(3)),
        "random": lambda space: random_riesz_map(space, 10.0, seed=0),
    }

    @pytest.mark.parametrize("dim", [64, 256])
    @pytest.mark.parametrize("kind", list(MAPS))
    def test_equal_to_dense_families(self, kind, dim):
        # the ladder residuals are bit for bit the dense ones.  The number
        # residuals agree to the roundoff of N = b a, which the border route
        # forms as the (q+1) x (q+1) block b_border a_border, below level
        # w = max(p, q + 1); from w on, where N e_n = n e_n holds by
        # construction, they read an exact 0 and the dense route only the
        # rounding of sqrt(n)^2 - n
        pair = make_pair(self.MAPS[kind](FockSpace(dim)))
        ladder, number = self.dense(pair)
        got = ladder_check(pair)
        assert list(got) == list(ladder)
        for key, want in ladder.items():
            assert np.array_equal(got[key], want), key
        w = max(pair.source.block, pair.border + 1)
        eps = np.finfo(float).eps
        width = max(np.linalg.norm(pair.source.S.mat, axis=0).max(),
                    np.linalg.norm(pair.source.S_inv.mat, axis=1).max())
        atol = 64 * eps * np.linalg.norm(pair.b.mat @ pair.a.mat, 2) * width
        for got_r, want_r in zip(number_operator_check(pair), number):
            np.testing.assert_allclose(got_r[:w], want_r[:w], rtol=0, atol=atol)
            assert not got_r[w:].any()
            assert want_r[w:].max(initial=0.0) <= 4 * eps * dim

    def test_dense_map_agrees_to_roundoff(self):
        # top_margin=0 deforms every level, so the block is all of S
        riesz = random_riesz_map(FockSpace(64), 10.0, seed=0, top_margin=0)
        pair = make_pair(riesz)
        ladder, number = self.dense(pair)
        a, b = pair.a.mat, pair.b.mat
        width = max(np.linalg.norm(riesz.S.mat, axis=0).max(),
                    np.linalg.norm(riesz.S_inv.mat, axis=1).max())
        eps = np.finfo(float).eps
        atol = 64 * eps * max(np.linalg.norm(a, 2), np.linalg.norm(b, 2)) * width
        got = ladder_check(pair)
        for key, want in ladder.items():
            np.testing.assert_allclose(got[key], want, rtol=0, atol=atol)
        atol = 64 * eps * np.linalg.norm(b @ a, 2) * width
        for got_r, want_r in zip(number_operator_check(pair), number):
            np.testing.assert_allclose(got_r, want_r, rtol=0, atol=atol)

    @pytest.mark.parametrize("kind", ["projector-0", "random"])
    def test_entry_outside_block_is_read(self, kind):
        # b[p + 5, p + 4] = sqrt(p + 5) lies outside the deformed block; a
        # relative change of 1e-6 there breaks b phi_{p+4}, b^dag psi_{p+5},
        # N phi_{p+5} and N^dag psi_{p+5}.  The pair is built on the border
        # q = p + 5 that holds the entry
        riesz = self.MAPS[kind](FockSpace(64))
        pair = make_pair(riesz)
        p = riesz.block
        bad = with_entry(pair, "b", (p + 5, p + 4), 1 + 1e-6)
        assert bad.border == p + 5
        ladder = ladder_check(bad)
        r_phi, r_psi = number_operator_check(bad)
        assert min(ladder["b_raise"][p + 4], ladder["bdag_lower"][p + 5]) > default_tolerance(
            "ladder", riesz.cond)
        assert min(r_phi[p + 5], r_psi[p + 5]) > default_tolerance("number_operator", riesz.cond)


class TestNumberOperator:
    def test_bosonic_number_matrix(self):
        space = FockSpace(8)
        pair = make_pair(make_riesz_map(space, np.eye(0)))
        N = pair.b.mat @ pair.a.mat
        np.testing.assert_allclose(N, np.diag(np.arange(8.0)), atol=1e-14)

    def test_vacuum_eigenvalue(self, random_map64):
        pair = make_pair(random_map64)
        r_phi, _ = number_operator_check(pair)
        assert r_phi[0] <= 1e-12

    def test_residuals_all_maps(self, all_maps64):
        for riesz in all_maps64:
            r_phi, r_psi = number_operator_check(make_pair(riesz))
            assert max(r_phi.max(), r_psi.max()) <= 1e-9
            assert len(r_phi) == len(r_psi) == riesz.dim - 1  # levels 0 .. dim - 2

    def test_matches_per_level_reference(self, random_map64):
        # as TestLadderCheck: one product for all levels against one per level
        pair = make_pair(random_map64)
        phi, psi = random_map64.S.mat, random_map64.S_inv.mat.conj().T
        N = pair.b.mat @ pair.a.mat
        want_phi = [np.linalg.norm(N @ phi[:, n] - n * phi[:, n]) for n in range(63)]
        want_psi = [np.linalg.norm(N.conj().T @ psi[:, n] - n * psi[:, n])
                    for n in range(63)]
        scale = np.linalg.norm(N, 2) * max(
            np.linalg.norm(phi, axis=0).max(), np.linalg.norm(psi, axis=0).max())
        r_phi, r_psi = number_operator_check(pair)
        atol = 64 * np.finfo(float).eps * scale
        np.testing.assert_allclose(r_phi, want_phi, rtol=0, atol=atol)
        np.testing.assert_allclose(r_psi, want_psi, rtol=0, atol=atol)

    def test_spectrum_integers_dim32(self):
        riesz = random_riesz_map(FockSpace(32), 10.0, seed=6)
        pair = make_pair(riesz)
        eigs = np.sort_complex(np.linalg.eigvals(pair.b.mat @ pair.a.mat))
        assert np.abs(eigs[:31] - np.arange(31)).max() <= 1e-8

    def test_spectrum_integers_dim64(self, all_maps64):
        for riesz in all_maps64:
            pair = make_pair(riesz)
            eigs = np.sort_complex(np.linalg.eigvals(pair.b.mat @ pair.a.mat))
            assert np.abs(eigs[:63] - np.arange(63)).max() <= 1e-6 * riesz.cond**2


class TestThetaConjugacy:
    def test_bosonic_residual_zero(self):
        riesz = make_riesz_map(FockSpace(8), np.eye(0))
        residual = theta_conjugacy_check(make_pair(riesz))
        assert residual <= 1e-14

    def test_projector_dim16(self):
        riesz = projector_riesz(16)
        residual = theta_conjugacy_check(make_pair(riesz))
        assert residual <= 1e-12

    def test_random_maps_within_tolerance(self, all_maps64):
        for riesz in all_maps64:
            residual = theta_conjugacy_check(make_pair(riesz))
            assert residual <= default_tolerance("theta_conjugacy", riesz.cond)

    def test_metric_positivity_on_random_vectors(self, random_map64):
        theta = random_map64.theta.mat
        rng = np.random.default_rng(3)
        for _ in range(100):
            f = random_unit_vector(rng, 64)
            val = np.vdot(f, theta @ f)
            assert val.real > 0
            assert abs(val.imag) <= 1e-12

    def test_residual_shrinks_with_cond(self):
        # residual goes to zero as the map approaches unitary
        residuals = []
        for cond in (1.0, 2.0, 10.0, 100.0):
            riesz = random_riesz_map(FockSpace(32), cond, seed=8)
            residual = theta_conjugacy_check(make_pair(riesz))
            residuals.append(residual)
            assert residual <= 1e-10 * riesz.cond**3
        assert residuals[0] <= 1e-14
        assert residuals[0] <= residuals[-1]

    @pytest.mark.parametrize("kind", ["identity", "projector", "random"])
    def test_matches_dense_metric(self, kind, request):
        # the metric the check reads from the map, against Theta formed from a dense inverse
        riesz = request.getfixturevalue(f"{kind}_map64")
        pair, k = make_pair(riesz), 63
        S = riesz.S.mat
        S_inv = np.linalg.inv(S)
        theta, theta_inv = S_inv.conj().T @ S_inv, S @ S.conj().T
        a = pair.a.mat
        want = np.linalg.norm((a - theta_inv @ pair.b.mat.conj().T @ theta)[:k, :k], 2)
        got = theta_conjugacy_check(pair)
        assert abs(got - want) <= 1e-12 * np.linalg.norm(a[:k, :k], 2)

    def test_perturbed_pair_fails(self, random_map64):
        # negative control: b[m, m + 1] lies inside the random map's block, so it is
        # nonzero and read by the conjugation on the safe subspace; the pair's
        # border q = p = 32 already holds it
        pair, m = make_pair(random_map64), 10
        bad = with_entry(pair, "b", (m, m + 1), 1 + 1e-6)
        assert bad.border == pair.border == 32
        residual = theta_conjugacy_check(bad)
        assert residual > default_tolerance("theta_conjugacy", random_map64.cond)
