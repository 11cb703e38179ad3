import ast
from pathlib import Path

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
    projector_map,
    quasi_basis_check,
    random_riesz_map,
    save_riesz_map,
    theta_rank_one_sums,
)
from pseudoboson.fock import _spectral_norm, identity
from pseudoboson.reports import default_tolerance
from pseudoboson.riesz import BiorthogonalFamily, _cotransport, _lmul, _rmul, _transport

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


class TestDeformedBlock:
    """``make_riesz_map`` finds the smallest ``p`` with
    ``S = blockdiag(S[:p, :p], 1)``, and the transports apply ``S`` there only."""

    @pytest.mark.parametrize("u_index, block", [(0, 1), (5, 6)])
    def test_projector_block(self, u_index, block):
        space = make_space(16)
        assert projector_map(space, space.basis_vector(u_index)).riesz.block == block

    def test_identity_block_is_empty(self):
        riesz = make_riesz_map(identity(make_space(16)))
        assert riesz.block == 0
        assert riesz.cond == 1.0 and riesz.inverse_residual == 0.0
        np.testing.assert_array_equal(riesz.S_inv.mat, np.eye(16))

    @pytest.mark.parametrize("dim", [15, 16, 64])
    def test_random_block(self, dim):
        assert random_riesz_map(make_space(dim), 10.0, seed=2).block == dim - dim // 2
        assert random_riesz_map(make_space(dim), 10.0, seed=2, top_margin=0).block == dim

    def test_file_map_keeps_block(self, tmp_path):
        riesz = random_riesz_map(make_space(12), 5.0, seed=11, top_margin=4)
        save_riesz_map(riesz, tmp_path / "map.json")
        assert load_riesz_map(tmp_path / "map.json").block == riesz.block == 8

    def test_inverse_is_identity_outside_block(self, random_map64):
        p = random_map64.block
        np.testing.assert_array_equal(random_map64.S_inv.mat[p:], np.eye(64)[p:])
        np.testing.assert_array_equal(random_map64.S_inv.mat[:, p:], np.eye(64)[:, p:])

    def test_singular_block_rejected(self):
        M = np.eye(6, dtype=complex)
        M[:2, :2] = [[1.0, 2.0], [0.5, 1.0]]
        with pytest.raises(NotInvertibleError):
            make_riesz_map(Operator(make_space(6), M))

    def test_zero_in_the_tail_rejected(self):
        # a zero on the diagonal below a deformed block is part of the block
        with pytest.raises(NotInvertibleError):
            make_riesz_map(Operator(make_space(6), np.diag([2.0, 1.0, 1.0, 0.0, 1.0, 1.0])))

    def test_cond_budget_counts_the_identity_tail(self):
        # the block alone has cond 1; the tail's singular values 1 set it to 100
        S = Operator(make_space(6), np.diag([100.0, 100.0, 1.0, 1.0, 1.0, 1.0]))
        with pytest.raises(ConditioningError):
            make_riesz_map(S, max_cond=10.0)

    @staticmethod
    def dense_pair(riesz, X):
        S, S_inv = riesz.S.mat, riesz.S_inv.mat
        return S @ X @ S_inv, S_inv.conj().T @ X @ S.conj().T

    @staticmethod
    def sample_matrices(dim):
        rng = np.random.default_rng(7)
        noise = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        c = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
        return [noise, c.T, rng.standard_normal((dim, dim))]

    @pytest.mark.parametrize("size", [None, 1, 40])
    def test_projector_transport_bit_for_bit(self, projector_map64, size):
        riesz = projector_map64.riesz
        for X in self.sample_matrices(64):
            U, V = self.dense_pair(riesz, X)
            np.testing.assert_array_equal(_transport(riesz, X, size), U[:size, :size])
            np.testing.assert_array_equal(_cotransport(riesz, X, size), V[:size, :size])

    @pytest.mark.parametrize("size", [None, 20, 40])
    def test_random_transport_matches_dense(self, random_maps64, size):
        dense = random_riesz_map(make_space(64), 10.0, seed=1, top_margin=0)
        for riesz in random_maps64 + [dense]:
            for X in self.sample_matrices(64):
                for got, want in zip((_transport(riesz, X, size), _cotransport(riesz, X, size)),
                                     self.dense_pair(riesz, X)):
                    want = want[:size, :size]
                    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()

    @pytest.mark.parametrize("p, limit", [(0, None), (3, None), (3, 2), (3, 5), (8, 8)])
    def test_block_products(self, p, limit):
        rng = np.random.default_rng(p)
        B = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
        full = np.eye(8, dtype=complex)
        full[:p, :p] = B
        X = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        np.testing.assert_allclose(_lmul(B, X, limit), (full @ X)[:limit], rtol=0, atol=1e-14)
        np.testing.assert_allclose(_rmul(X, B, limit), (X @ full)[:, :limit], rtol=0, atol=1e-14)
        np.testing.assert_allclose(_lmul(B, X[:, 0]), full @ X[:, 0], rtol=0, atol=1e-14)

    def test_only_riesz_applies_the_map(self):
        # outside riesz.py no matrix product takes the full S.mat or S_inv.mat,
        # read directly or through a local name bound to an expression
        # holding it; the square leading block M[:p, :p] is what may be used
        src = Path(__file__).resolve().parent.parent / "src" / "pseudoboson"

        def full_map_reads(tree):
            parents = {c: n for n in ast.walk(tree) for c in ast.iter_child_nodes(n)}
            for n in ast.walk(tree):
                if (isinstance(n, ast.Attribute) and n.attr == "mat"
                        and isinstance(n.value, ast.Attribute) and n.value.attr in ("S", "S_inv")):
                    elts = getattr(getattr(parents.get(n), "slice", None), "elts", [])
                    bounds = [ast.dump(e.upper) for e in elts
                              if isinstance(e, ast.Slice) and e.lower is None and e.upper]
                    if not (len(bounds) == len(elts) == 2 and bounds[0] == bounds[1]):
                        yield n

        def holds_map(node, names, full):
            return any(n in full or (isinstance(n, ast.Name) and n.id in names)
                       for n in ast.walk(node))

        sites = []
        for path in sorted(src.glob("*.py")):
            if path.name == "riesz.py":
                continue
            tree = ast.parse(path.read_text())
            full = set(full_map_reads(tree))
            for fn in [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]:
                names = set()
                for node in ast.walk(fn):
                    if isinstance(node, ast.Assign) and holds_map(node.value, names, full):
                        names |= {t.id for t in ast.walk(node) if isinstance(t, ast.Name)
                                  and isinstance(t.ctx, ast.Store)}
                for node in ast.walk(fn):
                    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult) and (
                            holds_map(node.left, names, full) or holds_map(node.right, names, full)):
                        sites.append((path.name, fn.name, node.lineno))
        assert sites == []

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

    @staticmethod
    def relative_residuals(riesz, fam):
        """The suite's records: deviations relative to ``||Theta|| = 1/A``
        and ``||Theta^-1|| = B``."""
        met = metric_operator(riesz)
        A, B = riesz.frame_bounds
        theta_sum, theta_inv_sum = theta_rank_one_sums(fam)
        return (_spectral_norm(theta_sum.mat - met.theta.mat) * A,
                _spectral_norm(theta_inv_sum.mat - met.theta_inv.mat) / B)

    def test_independent_route_reads_roundoff(self, random_map64):
        # the metric comes from the block SVD, not from the products the
        # sums form, so the records read roundoff instead of exactly 0
        residuals = self.relative_residuals(random_map64, biorthogonal_family(random_map64))
        for name, residual in zip(("rank_one_theta", "rank_one_theta_inv"), residuals):
            assert 0.0 < residual <= default_tolerance(name, random_map64.cond)

    @pytest.mark.parametrize("which", ["psi", "phi"])
    @pytest.mark.parametrize("n", [0, 20, 40])
    def test_perturbed_vector_fails(self, random_map64, which, n):
        fam = biorthogonal_family(random_map64)
        vecs = {"phi": fam.phi.copy(), "psi": fam.psi.copy()}
        rng = np.random.default_rng(n)
        vecs[which][:, n] += 1e-9 * np.linalg.norm(vecs[which][:, n]) * random_unit_vector(rng, 64)
        perturbed = BiorthogonalFamily(fam.space, vecs["phi"], vecs["psi"])
        theta_r, theta_inv_r = self.relative_residuals(random_map64, perturbed)
        residual, name = ((theta_r, "rank_one_theta") if which == "psi"
                          else (theta_inv_r, "rank_one_theta_inv"))
        assert residual > default_tolerance(name, random_map64.cond)

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
