import numpy as np
import pytest

from pseudoboson import (
    DegenerateKernelError,
    InvalidDimensionError,
    OrthogonalVacuaError,
    Operator,
    ProvenanceError,
    PseudoBosonPair,
    SafeSubspace,
    biorthogonal_family,
    excited_states,
    ladder_c,
    ladder_c_dag,
    ladder_check,
    make_pair,
    make_riesz_map,
    make_space,
    metric_operator,
    number_operator_check,
    random_riesz_map,
    theta_conjugacy_check,
    vacua,
    vacua_from_map,
)
from pseudoboson.fock import identity
from pseudoboson.reports import default_tolerance

from conftest import random_unit_vector


def projector_riesz(dim):
    P = np.zeros((dim, dim), complex)
    P[0, 0] = 1.0
    return make_riesz_map(Operator(make_space(dim), np.eye(dim) + 1j * P))


class TestMakePair:
    def test_bosonic_limit(self):
        space = make_space(8)
        pair = make_pair(make_riesz_map(identity(space)))
        np.testing.assert_allclose(pair.a.mat, ladder_c(space).mat, atol=1e-15)
        np.testing.assert_allclose(pair.b.mat, ladder_c_dag(space).mat, atol=1e-15)

    def test_projector_closed_form_dim4(self):
        # with P = |e0><e0| and cP = 0 in truncation, a = c + iPc
        riesz = projector_riesz(4)
        pair = make_pair(riesz)
        c = ladder_c(make_space(4)).mat
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
        pair = make_pair(make_riesz_map(identity(make_space(8))))
        vac = vacua(pair)
        np.testing.assert_allclose(vac.phi0, np.eye(8)[0], atol=1e-14)
        np.testing.assert_allclose(vac.psi0, np.eye(8)[0], atol=1e-14)

    def test_projector_vacua(self):
        riesz = projector_riesz(8)
        vac = vacua(make_pair(riesz))
        # phase convention puts the largest component on the positive real axis
        np.testing.assert_allclose(vac.phi0, np.eye(8)[0], atol=1e-12)
        assert np.vdot(vac.phi0, vac.psi0) == pytest.approx(1.0, abs=1e-12)

    def test_matches_closed_form_up_to_phase(self, all_maps64):
        for riesz in all_maps64:
            vac = vacua(make_pair(riesz))
            cf = vacua_from_map(riesz)
            for got, want in ((vac.phi0, cf.phi0), (vac.psi0, cf.psi0)):
                got_dir = got / np.linalg.norm(got)
                want_dir = want / np.linalg.norm(want)
                overlap = np.vdot(got_dir, want_dir)
                assert np.linalg.norm(got_dir * overlap / abs(overlap) - want_dir) <= 1e-10

    def test_pairing_normalized(self, all_maps64):
        for riesz in all_maps64:
            vac = vacua(make_pair(riesz))
            assert abs(np.vdot(vac.phi0, vac.psi0) - 1.0) <= 1e-12

    def test_annihilation_residuals(self, random_map64):
        pair = make_pair(random_map64)
        vac = vacua(pair)
        a_norm = np.linalg.norm(pair.a.mat, 2)
        assert np.linalg.norm(pair.a.mat @ vac.phi0) <= 1e-10 * a_norm
        bd_norm = np.linalg.norm(pair.b.mat.conj().T, 2)
        assert np.linalg.norm(pair.b.mat.conj().T @ vac.psi0) <= 1e-10 * bd_norm * np.linalg.norm(vac.psi0)

    def test_degenerate_kernel_detected(self):
        space = make_space(4)
        riesz = make_riesz_map(identity(space))
        degenerate = Operator(space, np.diag([0.0, 0.0, 1.0, 2.0]).astype(complex))
        pair = PseudoBosonPair(a=degenerate, b=Operator(space, degenerate.mat.conj().T), source=riesz, space=space)
        with pytest.raises(DegenerateKernelError):
            vacua(pair)

    def test_orthogonal_vacua_detected(self):
        space = make_space(4)
        riesz = make_riesz_map(identity(space))
        a = ladder_c(space)  # kernel e_0
        b = Operator(space, np.diag([1.0, 0.0, 1.0, 1.0]).astype(complex))  # b^dag kernel e_1
        pair = PseudoBosonPair(a=a, b=b, source=riesz, space=space)
        with pytest.raises(OrthogonalVacuaError):
            vacua(pair)

    def test_closed_form_pairing_exact(self, all_maps64):
        for riesz in all_maps64:
            cf = vacua_from_map(riesz)
            assert abs(np.vdot(cf.phi0, cf.psi0) - 1.0) <= 1e-14


class TestExcitedStates:
    def test_zeroth_level_is_vacuum(self, random_map64):
        pair = make_pair(random_map64)
        cf = vacua_from_map(random_map64)
        fam = excited_states(pair, cf, n_max=0)
        np.testing.assert_array_equal(fam.phi[:, 0], cf.phi0)

    def test_bosonic_limit_exact(self):
        riesz = make_riesz_map(identity(make_space(16)))
        fam = excited_states(make_pair(riesz), vacua_from_map(riesz), n_max=15)
        np.testing.assert_allclose(fam.phi, np.eye(16), atol=1e-13)

    def test_matches_map_columns(self):
        # b^n S e_0 / sqrt(n!) = S e_n exactly, so the ladder recursion
        # reproduces the map columns
        riesz = random_riesz_map(make_space(32), 10.0, seed=2)
        fam = excited_states(make_pair(riesz), vacua_from_map(riesz), n_max=16)
        dev = np.linalg.norm(fam.phi - riesz.S.mat[:, :17], axis=0)
        assert dev.max() <= 1e-8

    def test_constructive_equivalence_relative(self, all_maps64):
        for riesz in all_maps64:
            n_half = riesz.dim // 2
            fam = excited_states(make_pair(riesz), vacua_from_map(riesz), n_max=n_half)
            full = biorthogonal_family(riesz)
            for n in range(n_half + 1):
                rel_phi = np.linalg.norm(fam.phi[:, n] - full.phi[:, n]) / np.linalg.norm(full.phi[:, n])
                rel_psi = np.linalg.norm(fam.psi[:, n] - full.psi[:, n]) / np.linalg.norm(full.psi[:, n])
                assert max(rel_phi, rel_psi) <= 1e-8 * riesz.cond

    def test_biorthogonality_preserved(self, random_map64):
        fam = excited_states(make_pair(random_map64), vacua_from_map(random_map64), n_max=20)
        gram = fam.gram()
        assert np.abs(gram - np.eye(21)).max() <= 1e-10

    def test_n_max_out_of_range(self, random_map64):
        with pytest.raises(InvalidDimensionError):
            excited_states(make_pair(random_map64), vacua_from_map(random_map64), n_max=64)


class TestLadderCheck:
    def test_vacuum_residual_is_annihilation(self, random_map64):
        pair = make_pair(random_map64)
        fam = biorthogonal_family(random_map64)
        r = ladder_check(pair, fam)["a_lower"][0]
        assert r == pytest.approx(np.linalg.norm(pair.a.mat @ fam.phi[:, 0]))

    def test_bosonic_residuals_machine(self):
        riesz = make_riesz_map(identity(make_space(32)))
        residuals = ladder_check(make_pair(riesz), biorthogonal_family(riesz))
        assert max(r.max() for r in residuals.values()) <= 1e-12

    def test_all_relations_all_maps(self, all_maps64):
        for riesz in all_maps64:
            residuals = ladder_check(make_pair(riesz), biorthogonal_family(riesz))
            assert max(r.max() for r in residuals.values()) <= 1e-9
            assert {k: len(r) for k, r in residuals.items()} == {
                "b_raise": 63, "adag_raise": 63, "a_lower": 64, "bdag_lower": 64}

    def test_short_family_rejected(self, random_map64):
        pair = make_pair(random_map64)
        fam = excited_states(pair, vacua_from_map(random_map64), n_max=0)
        with pytest.raises(InvalidDimensionError):
            ladder_check(pair, fam)

    def test_matches_per_level_reference(self, random_map64):
        # one matrix product per relation against one matrix-vector
        # product per level; the sums run in another order, so they agree
        # to roundoff of ||op|| ||v_n|| at double precision (s[0] = 0 drops
        # the wrapped-around v_{-1} at n = 0)
        pair = make_pair(random_map64)
        fam = biorthogonal_family(random_map64)
        a, b = pair.a.mat, pair.b.mat
        phi, psi = fam.phi, fam.psi
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
        residuals = ladder_check(pair, fam)
        for key, want in reference.items():
            np.testing.assert_allclose(residuals[key], want, rtol=0,
                                       atol=64 * np.finfo(float).eps * scale)


class TestNumberOperator:
    def test_bosonic_number_matrix(self):
        space = make_space(8)
        pair = make_pair(make_riesz_map(identity(space)))
        N = pair.b.mat @ pair.a.mat
        np.testing.assert_allclose(N, np.diag(np.arange(8.0)), atol=1e-14)

    def test_vacuum_eigenvalue(self, random_map64):
        pair = make_pair(random_map64)
        fam = biorthogonal_family(random_map64)
        r_phi, _ = number_operator_check(pair, fam)
        assert r_phi[0] <= 1e-12

    def test_residuals_all_maps(self, all_maps64):
        for riesz in all_maps64:
            r_phi, r_psi = number_operator_check(make_pair(riesz), biorthogonal_family(riesz))
            assert max(r_phi.max(), r_psi.max()) <= 1e-9
            assert len(r_phi) == len(r_psi) == riesz.dim - 1  # levels 0 .. dim - 2

    def test_matches_per_level_reference(self, random_map64):
        # as TestLadderCheck: one product for all levels against one per level
        pair = make_pair(random_map64)
        fam = biorthogonal_family(random_map64)
        N = pair.b.mat @ pair.a.mat
        want_phi = [np.linalg.norm(N @ fam.phi[:, n] - n * fam.phi[:, n]) for n in range(63)]
        want_psi = [np.linalg.norm(N.conj().T @ fam.psi[:, n] - n * fam.psi[:, n])
                    for n in range(63)]
        scale = np.linalg.norm(N, 2) * max(
            np.linalg.norm(fam.phi, axis=0).max(), np.linalg.norm(fam.psi, axis=0).max())
        r_phi, r_psi = number_operator_check(pair, fam)
        atol = 64 * np.finfo(float).eps * scale
        np.testing.assert_allclose(r_phi, want_phi, rtol=0, atol=atol)
        np.testing.assert_allclose(r_psi, want_psi, rtol=0, atol=atol)

    def test_spectrum_integers_dim32(self):
        riesz = random_riesz_map(make_space(32), 10.0, seed=6)
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
        riesz = make_riesz_map(identity(make_space(8)))
        residual = theta_conjugacy_check(
            make_pair(riesz), metric_operator(riesz), SafeSubspace(make_space(8), 7)
        )
        assert residual <= 1e-14

    def test_projector_dim16(self):
        riesz = projector_riesz(16)
        residual = theta_conjugacy_check(
            make_pair(riesz), metric_operator(riesz), SafeSubspace(make_space(16), 15)
        )
        assert residual <= 1e-12

    def test_random_maps_within_tolerance(self, all_maps64):
        for riesz in all_maps64:
            residual = theta_conjugacy_check(
                make_pair(riesz), metric_operator(riesz), SafeSubspace(riesz.space, 63)
            )
            assert residual <= default_tolerance("theta_conjugacy", riesz.cond)

    def test_metric_positivity_on_random_vectors(self, random_map64):
        theta = metric_operator(random_map64).theta.mat
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
            riesz = random_riesz_map(make_space(32), cond, seed=8)
            residual = theta_conjugacy_check(
                make_pair(riesz), metric_operator(riesz), SafeSubspace(riesz.space, 31)
            )
            residuals.append(residual)
            assert residual <= 1e-10 * riesz.cond**3
        assert residuals[0] <= 1e-14
        assert residuals[0] <= residuals[-1]

    def test_provenance_mismatch(self, random_map64):
        other = random_riesz_map(make_space(64), 10.0, seed=99)
        with pytest.raises(ProvenanceError):
            theta_conjugacy_check(
                make_pair(random_map64), metric_operator(other), SafeSubspace(random_map64.space, 63)
            )
