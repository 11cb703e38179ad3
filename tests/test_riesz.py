import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudoboson import (
    ConditioningError,
    NotInvertibleError,
    Operator,
    ValidationError,
    biorthogonal_family,
    load_riesz_map,
    make_riesz_map,
    make_space,
    metric_operator,
    quasi_basis_check,
    random_riesz_map,
    save_riesz_map,
    theta_rank_one_sums,
)
from pseudoboson.fock import identity

from conftest import random_unit_vector


def ground_projector(dim):
    P = np.zeros((dim, dim), complex)
    P[0, 0] = 1.0
    return P


class TestMakeRieszMap:
    def test_identity(self):
        riesz = make_riesz_map(identity(make_space(8)))
        assert riesz.cond == pytest.approx(1.0)
        assert riesz.frame_bounds == pytest.approx((1.0, 1.0))

    def test_projector_deformation_frame_bounds(self):
        # T = 1 + i|e0><e0| has singular values {sqrt(2), 1, ..., 1}
        space = make_space(8)
        T = Operator(space, np.eye(8) + 1j * ground_projector(8))
        riesz = make_riesz_map(T)
        assert riesz.frame_bounds[0] == pytest.approx(1.0, abs=1e-12)
        assert riesz.frame_bounds[1] == pytest.approx(2.0, abs=1e-12)
        assert riesz.cond == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_singular_map_rejected(self):
        space = make_space(2)
        with pytest.raises(NotInvertibleError):
            make_riesz_map(Operator(space, np.diag([1.0, 0.0])))

    def test_cond_budget(self):
        space = make_space(4)
        S = Operator(space, np.diag([100.0, 1.0, 1.0, 1.0]))
        with pytest.raises(ConditioningError):
            make_riesz_map(S, max_cond=10.0)

    def test_inverse_residual(self, random_map64):
        eye = np.eye(random_map64.dim)
        residual = np.linalg.norm(random_map64.S.mat @ random_map64.S_inv.mat - eye, 2)
        assert residual <= 1e-12 * random_map64.cond
        # the map stores the residual its guard computed; the suite reports it
        assert random_map64.inverse_residual == residual


class TestRandomRieszMap:
    def test_target_cond_exact(self):
        riesz = random_riesz_map(make_space(16), 100.0, seed=5)
        assert riesz.cond == pytest.approx(100.0, abs=1e-8)

    def test_unit_cond_gives_unitary(self):
        riesz = random_riesz_map(make_space(16), 1.0, seed=5)
        S = riesz.S.mat
        assert np.linalg.norm(S.conj().T @ S - np.eye(16), 2) <= 1e-13

    def test_determinism(self):
        a = random_riesz_map(make_space(12), 7.0, seed=9)
        b = random_riesz_map(make_space(12), 7.0, seed=9)
        assert np.array_equal(a.S.mat, b.S.mat)

    def test_distinct_seeds_differ(self):
        a = random_riesz_map(make_space(12), 7.0, seed=1)
        b = random_riesz_map(make_space(12), 7.0, seed=2)
        assert not np.array_equal(a.S.mat, b.S.mat)

    def test_top_margin_preserved(self):
        riesz = random_riesz_map(make_space(16), 10.0, seed=4)
        np.testing.assert_array_equal(riesz.S.mat[:, 8:], np.eye(16, dtype=complex)[:, 8:])

    def test_dense_deformation_available(self):
        riesz = random_riesz_map(make_space(16), 10.0, seed=4, top_margin=0)
        assert not np.array_equal(riesz.S.mat[:, 15], np.eye(16)[:, 15])

    def test_bad_target(self):
        with pytest.raises(ValidationError):
            random_riesz_map(make_space(8), 0.5, seed=0)


class TestBiorthogonalFamily:
    def test_identity_self_dual(self):
        fam = biorthogonal_family(make_riesz_map(identity(make_space(6))))
        np.testing.assert_array_equal(fam.phi, np.eye(6))
        np.testing.assert_array_equal(fam.psi, np.eye(6))

    def test_projector_family_hand_values(self):
        # phi_0 = (1+i)e_0 and psi_0 = ((1+i)/2)e_0, paired to one:
        # (1-i)(1+i)/2 = 1
        space = make_space(4)
        T = Operator(space, np.eye(4) + 1j * ground_projector(4))
        fam = biorthogonal_family(make_riesz_map(T))
        np.testing.assert_allclose(fam.phi[:, 0], [1 + 1j, 0, 0, 0], atol=1e-15)
        np.testing.assert_allclose(fam.psi[:, 0], [(1 + 1j) / 2, 0, 0, 0], atol=1e-14)
        assert np.vdot(fam.phi[:, 0], fam.psi[:, 0]) == pytest.approx(1.0, abs=1e-14)

    def test_gram_is_identity(self, all_maps64):
        for riesz in all_maps64:
            fam = biorthogonal_family(riesz)
            assert np.abs(fam.gram() - np.eye(64)).max() <= 1e-10

    def test_gram_high_cond_large_dim(self):
        # exact biorthogonality persists at cond 1e3, dim 256
        riesz = random_riesz_map(make_space(256), 1e3, seed=0)
        fam = biorthogonal_family(riesz)
        assert np.abs(fam.gram() - np.eye(256)).max() <= 1e-10

    def test_family_norm_bounds(self, random_map64):
        fam = biorthogonal_family(random_map64)
        A, B = random_map64.frame_bounds
        assert np.linalg.norm(fam.phi, axis=0).max() <= np.sqrt(B) * (1 + 1e-12)
        assert np.linalg.norm(fam.psi, axis=0).max() <= (1 + 1e-12) / np.sqrt(A)

    def test_frame_bound_sandwich(self, random_map64):
        # A ||f||^2 <= ||S^dag f||^2 <= B ||f||^2 for unit f
        rng = np.random.default_rng(42)
        A, B = random_map64.frame_bounds
        Sd = random_map64.S.mat.conj().T
        for _ in range(100):
            f = random_unit_vector(rng, 64)
            val = np.linalg.norm(Sd @ f) ** 2
            assert A * (1 - 1e-12) <= val <= B * (1 + 1e-12)


class TestMetricOperator:
    def test_identity(self):
        met = metric_operator(make_riesz_map(identity(make_space(5))))
        np.testing.assert_allclose(met.theta.mat, np.eye(5), atol=1e-15)

    def test_projector_closed_form(self):
        # T^dag T = 1 + P, inverted by hand with P^2 = P: Theta = 1 - P/2
        space = make_space(8)
        T = Operator(space, np.eye(8) + 1j * ground_projector(8))
        met = metric_operator(make_riesz_map(T))
        expected = np.eye(8) - ground_projector(8) / 2
        assert np.linalg.norm(met.theta.mat - expected, 2) <= 1e-13
        np.testing.assert_allclose(met.theta.mat @ space.basis_vector(0),
                                   space.basis_vector(0) / 2, atol=1e-14)

    def test_theta_inverse_pair(self, all_maps64):
        for riesz in all_maps64:
            met = metric_operator(riesz)
            assert np.linalg.norm(met.theta.mat @ met.theta_inv.mat - np.eye(64), 2) <= 1e-12

    def test_self_adjoint_positive(self, all_maps64):
        for riesz in all_maps64:
            theta = metric_operator(riesz).theta.mat
            assert np.linalg.norm(theta - theta.conj().T, 2) <= 1e-12
            assert np.linalg.eigvalsh(theta)[0] > 0

    def test_maps_family_onto_dual(self, all_maps64):
        for riesz in all_maps64:
            fam = biorthogonal_family(riesz)
            theta = metric_operator(riesz).theta.mat
            assert np.linalg.norm(theta @ fam.phi - fam.psi, axis=0).max() <= 1e-10

    def test_spectrum_inside_frame_window(self, all_maps64):
        for riesz in all_maps64:
            A, B = riesz.frame_bounds
            eigs = np.linalg.eigvalsh(metric_operator(riesz).theta.mat)
            assert eigs[0] >= 1.0 / B - 1e-10
            assert eigs[-1] <= 1.0 / A + 1e-10


class TestRankOneSums:
    def test_identity(self):
        fam = biorthogonal_family(make_riesz_map(identity(make_space(6))))
        theta_sum, theta_inv_sum = theta_rank_one_sums(fam)
        np.testing.assert_allclose(theta_sum.mat, np.eye(6), atol=1e-14)
        np.testing.assert_allclose(theta_inv_sum.mat, np.eye(6), atol=1e-14)

    def test_projector_hand_values(self):
        # sum |psi_n><psi_n| = 1 - P/2 and sum |phi_n><phi_n| = 1 + P
        space = make_space(8)
        P = ground_projector(8)
        fam = biorthogonal_family(make_riesz_map(Operator(space, np.eye(8) + 1j * P)))
        theta_sum, theta_inv_sum = theta_rank_one_sums(fam)
        assert np.linalg.norm(theta_sum.mat - (np.eye(8) - P / 2), 2) <= 1e-13
        assert np.linalg.norm(theta_inv_sum.mat - (np.eye(8) + P), 2) <= 1e-13

    def test_matches_metric_operator(self, all_maps64):
        for riesz in all_maps64:
            met = metric_operator(riesz)
            theta_sum, theta_inv_sum = theta_rank_one_sums(biorthogonal_family(riesz))
            tol = 1e-12 * riesz.cond**2
            assert np.linalg.norm(theta_sum.mat - met.theta.mat, 2) <= tol
            assert np.linalg.norm(theta_inv_sum.mat - met.theta_inv.mat, 2) <= tol

    def test_partial_family_rejected(self, random_map64):
        from pseudoboson import DimensionMismatchError, make_pair, vacua_from_map
        from pseudoboson.algebra import excited_states

        pair = make_pair(random_map64)
        fam = excited_states(pair, vacua_from_map(random_map64), n_max=10)
        with pytest.raises(DimensionMismatchError):
            theta_rank_one_sums(fam)


class TestQuasiBasis:
    def test_identity_basis_vectors(self):
        space = make_space(4)
        fam = biorthogonal_family(make_riesz_map(identity(space)))
        e0 = space.basis_vector(0)
        direct, via1, via2 = quasi_basis_check(fam, e0, e0)
        assert direct == via1 == via2 == 1.0

    def test_orthogonality_survives(self, random_map64):
        fam = biorthogonal_family(random_map64)
        space = random_map64.space
        direct, via1, via2 = quasi_basis_check(fam, space.basis_vector(0), space.basis_vector(1))
        assert abs(direct) == 0.0
        assert abs(via1) <= 1e-12
        assert abs(via2) <= 1e-12

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_three_way_agreement(self, seed):
        rng = np.random.default_rng(seed)
        riesz = random_riesz_map(make_space(24), 10.0, seed=seed % 7)
        fam = biorthogonal_family(riesz)
        f = random_unit_vector(rng, 24)
        g = random_unit_vector(rng, 24)
        direct, via1, via2 = quasi_basis_check(fam, f, g)
        assert abs(direct - via1) <= 1e-10
        assert abs(direct - via2) <= 1e-10
        assert abs(via1 - via2) <= 1e-10


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        riesz = random_riesz_map(make_space(12), 5.0, seed=11)
        path = tmp_path / "map.json"
        save_riesz_map(riesz, path)
        loaded = load_riesz_map(path)
        np.testing.assert_array_equal(loaded.S.mat, riesz.S.mat)
        assert loaded.cond == pytest.approx(riesz.cond, rel=1e-12)

    def test_loader_revalidates(self, tmp_path):
        import json

        d = 3
        entries = [[0.0, 0.0]] * (d * d)  # zero matrix: not invertible
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dim": d, "entries": entries}))
        with pytest.raises(NotInvertibleError):
            load_riesz_map(path)

    def test_malformed_record(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"dim": 4, "entries": [[1, 0]]}')
        with pytest.raises(ValidationError):
            load_riesz_map(path)
