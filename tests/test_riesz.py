import ast
import dataclasses
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from pseudoboson import (
    ConditioningError,
    DimensionMismatchError,
    FockSpace,
    MapSpec,
    NotInvertibleError,
    ProvenanceError,
    RunConfig,
    ValidationError,
    build_map,
    eigen_check,
    load_riesz_map,
    make_pair,
    make_riesz_map,
    metric_operator,
    projector_map,
    random_riesz_map,
    rbcs,
    save_riesz_map,
)
from pseudoboson import riesz as riesz_module
from pseudoboson.config import SUITE_MAX_COND
from pseudoboson.fock import _spectral_norm
from pseudoboson.reports import DEFAULT_TOLERANCES, default_tolerance
from pseudoboson.riesz import _lmul, _rmul, _transport

from conftest import in_graded_bracket, random_unit_vector


def ground_projector(dim):
    P = np.zeros((dim, dim), complex)
    P[0, 0] = 1.0
    return P


class TestMakeRieszMap:
    def test_identity(self):
        riesz = make_riesz_map(FockSpace(8), np.eye(0))
        assert riesz.cond == pytest.approx(1.0)
        assert riesz.frame_bounds == pytest.approx((1.0, 1.0))

    def test_projector_deformation_frame_bounds(self):
        # T = 1 + i|e0><e0| has singular values {sqrt(2), 1, ..., 1}
        space = FockSpace(8)
        T = np.eye(8) + 1j * ground_projector(8)
        riesz = make_riesz_map(space, T)
        assert riesz.frame_bounds[0] == pytest.approx(1.0, abs=1e-12)
        assert riesz.frame_bounds[1] == pytest.approx(2.0, abs=1e-12)
        assert riesz.cond == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_singular_map_rejected(self):
        space = FockSpace(2)
        with pytest.raises(NotInvertibleError):
            make_riesz_map(space, np.diag([1.0, 0.0]))

    def test_cond_budget(self):
        space = FockSpace(4)
        S = np.diag([2e12, 1.0, 1.0, 1.0])
        with pytest.raises(ConditioningError):
            make_riesz_map(space, S)

    @pytest.mark.parametrize("block, error", [
        (np.diag([1.0, np.nan]), ValidationError),
        (np.array([[1.0, np.inf], [0.0, 1.0]]), ValidationError),
        (np.ones((2, 3)), DimensionMismatchError),
        (np.ones(3), DimensionMismatchError),
        (np.eye(5), DimensionMismatchError),
    ], ids=["nan", "inf", "non-square", "vector", "larger-than-dim"])
    def test_malformed_block_refused(self, block, error):
        with pytest.raises(error):
            make_riesz_map(FockSpace(4), block)

    def test_leading_block_equals_dense_map(self, random_map64):
        # a dense S and its deformed block build the same map, bit for bit
        dense = make_riesz_map(random_map64.space, random_map64.S.mat)
        block = make_riesz_map(random_map64.space, random_map64.S_block)
        for name in ("S_block", "S_inv_block", "theta_block", "theta_inv_block"):
            np.testing.assert_array_equal(getattr(dense, name), getattr(block, name))
        assert ((dense.cond, dense.frame_bounds, dense.inverse_residual)
                == (block.cond, block.frame_bounds, block.inverse_residual))

    def test_inverse_residual(self, random_map64):
        eye = np.eye(random_map64.dim)
        residual = np.linalg.norm(random_map64.S.mat @ random_map64.S_inv.mat - eye, 2)
        assert residual <= 1e-12 * random_map64.cond
        # the map stores the residual its guard graded, and the suite reports
        # it: within the guard it may be the Frobenius bound of the p x p block
        assert random_map64.inverse_residual <= 1e-12 * random_map64.cond
        assert in_graded_bracket(random_map64.inverse_residual, residual, random_map64.block)

    def test_guard_is_the_riesz_construction_tolerance(self, random_map64, monkeypatch):
        # the guard reads the tolerance table: with its base lowered below the
        # residual the map is refused, on the exact norm of the block, by
        # either builder, each with the inverse of its own factors
        S = random_map64.S_block
        own = make_riesz_map(random_map64.space, S)
        monkeypatch.setitem(DEFAULT_TOLERANCES, "riesz_construction", (1e-30, 1))
        for riesz, build in ((own, lambda: make_riesz_map(random_map64.space, S)),
                             (random_map64, lambda: random_riesz_map(random_map64.space, 10.0,
                                                                     seed=0))):
            exact = _spectral_norm(S @ riesz.S_inv_block - np.eye(len(S)))
            with pytest.raises(NotInvertibleError, match=f"inverse residual {exact:.3e} exceeds"):
                build()


class TestRandomRieszMap:
    def test_target_cond_exact(self):
        # read from the singular values the block is built from, not measured
        riesz = random_riesz_map(FockSpace(16), 100.0, seed=5)
        assert riesz.cond == 100.0 and riesz.frame_bounds == (1.0, 1e4)

    @pytest.mark.parametrize("dim", [16, 64, 256])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_factors_agree_with_the_svd_of_the_block(self, dim, seed):
        # packaged from its own factors, the map matches make_riesz_map's of
        # the same block (one SVD of the product) up to 10 eps cond, relative
        # in the spectral norm (measured: at most 4 eps cond at dim 256)
        riesz = random_riesz_map(FockSpace(dim), 10.0, seed=seed)
        svd = make_riesz_map(riesz.space, riesz.S_block)
        np.testing.assert_array_equal(riesz.S_block, svd.S_block)
        bound = 10 * np.finfo(float).eps * riesz.cond
        for name in ("S_inv_block", "theta_block", "theta_inv_block"):
            ref = getattr(svd, name)
            assert _spectral_norm(getattr(riesz, name) - ref) <= bound * _spectral_norm(ref), name
        assert riesz.cond == 10.0 and svd.cond == pytest.approx(10.0, rel=1e-13)

    @pytest.mark.parametrize("dim", [16, 64, 256])
    def test_budget_cond_accepted(self, dim):
        # cond = SUITE_MAX_COND is within the suite's budget, and the map's
        # cond is the requested one exactly, on every seed: none reads a few
        # ulps above it and is refused
        for seed in range(5):
            spec = MapSpec(kind="random", cond=SUITE_MAX_COND, seed=seed)
            riesz = build_map(RunConfig(dim=dim, map_spec=spec, z_samples=()))
            assert riesz.cond == SUITE_MAX_COND

    @pytest.mark.parametrize("kind, svds", [("random", 0), ("projector", 1), ("identity", 1)])
    def test_svds_per_map(self, kind, svds, monkeypatch):
        # a random map is packaged from the factors it is built from; every
        # other map takes one SVD of its block
        calls = []

        def counted(*args, take=np.linalg.svd, **kwargs):
            calls.append(args[0].shape)
            return take(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        build_map(RunConfig(dim=64, map_spec=MapSpec(kind=kind), z_samples=()))
        assert len(calls) == svds

    def test_unit_cond_gives_unitary(self):
        riesz = random_riesz_map(FockSpace(16), 1.0, seed=5)
        S = riesz.S.mat
        assert np.linalg.norm(S.conj().T @ S - np.eye(16), 2) <= 1e-13

    def test_determinism(self):
        a = random_riesz_map(FockSpace(12), 7.0, seed=9)
        b = random_riesz_map(FockSpace(12), 7.0, seed=9)
        assert np.array_equal(a.S.mat, b.S.mat)

    def test_distinct_seeds_differ(self):
        a = random_riesz_map(FockSpace(12), 7.0, seed=1)
        b = random_riesz_map(FockSpace(12), 7.0, seed=2)
        assert not np.array_equal(a.S.mat, b.S.mat)

    def test_top_margin_preserved(self):
        riesz = random_riesz_map(FockSpace(16), 10.0, seed=4)
        np.testing.assert_array_equal(riesz.S.mat[:, 8:], np.eye(16, dtype=complex)[:, 8:])

    def test_dense_deformation_available(self):
        riesz = random_riesz_map(FockSpace(16), 10.0, seed=4, top_margin=0)
        assert not np.array_equal(riesz.S.mat[:, 15], np.eye(16)[:, 15])

    def test_bad_target(self):
        with pytest.raises(ValidationError):
            random_riesz_map(FockSpace(8), 0.5, seed=0)

    @pytest.mark.parametrize("top_margin", [-1, 8, 9])
    def test_bad_top_margin(self, top_margin):
        # at least one level is deformed: the margin lies in [0, dim - 1]
        with pytest.raises(ValidationError, match="top_margin"):
            random_riesz_map(FockSpace(8), 10.0, seed=0, top_margin=top_margin)


class TestDeformedBlock:
    """``make_riesz_map`` finds the smallest ``p`` with
    ``S = blockdiag(S[:p, :p], 1)``, and the transports apply ``S`` there only."""

    @pytest.mark.parametrize("u_index, block", [(0, 1), (5, 6)])
    def test_projector_block(self, u_index, block):
        space = FockSpace(16)
        assert projector_map(space, space.basis_vector(u_index)).block == block

    def test_identity_block_is_empty(self):
        riesz = make_riesz_map(FockSpace(16), np.eye(0))
        assert riesz.block == 0
        assert riesz.cond == 1.0 and riesz.inverse_residual == 0.0
        np.testing.assert_array_equal(riesz.S_inv.mat, np.eye(16))

    @pytest.mark.parametrize("dim", [15, 16, 64])
    def test_random_block(self, dim):
        assert random_riesz_map(FockSpace(dim), 10.0, seed=2).block == dim - dim // 2
        assert random_riesz_map(FockSpace(dim), 10.0, seed=2, top_margin=0).block == dim

    def test_file_map_keeps_block(self, tmp_path):
        riesz = random_riesz_map(FockSpace(12), 5.0, seed=11, top_margin=4)
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
            make_riesz_map(FockSpace(6), M)

    def test_zero_in_the_tail_rejected(self):
        # a zero on the diagonal below a deformed block is part of the block
        with pytest.raises(NotInvertibleError):
            make_riesz_map(FockSpace(6), np.diag([2.0, 1.0, 1.0, 0.0, 1.0, 1.0]))

    def test_cond_budget_counts_the_identity_tail(self):
        # the block alone has cond 1; the tail's singular values 1 set it to 2e12
        S = np.diag([2e12, 2e12, 1.0, 1.0, 1.0, 1.0])
        with pytest.raises(ConditioningError):
            make_riesz_map(FockSpace(6), S)

    @staticmethod
    def dense_pair(riesz, X):
        S, S_inv = riesz.S.mat, riesz.S_inv.mat
        return S @ X @ S_inv, S_inv.conj().T @ X @ S.conj().T

    @staticmethod
    def block_pairs(riesz):
        """The blocks ``(S, S^-1)`` and ``((S^-1)^dag, S^dag)`` whose
        transports are :meth:`dense_pair`'s."""
        S, S_inv = riesz.S_block, riesz.S_inv_block
        return (S, S_inv), (S_inv.conj().T, S.conj().T)

    @staticmethod
    def sample_matrices(dim):
        rng = np.random.default_rng(7)
        noise = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        c = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
        return [noise, c.T, rng.standard_normal((dim, dim))]

    @pytest.mark.parametrize("size", [None, 1, 40])
    def test_projector_transport_bit_for_bit(self, projector_map64, size):
        riesz = projector_map64
        for X in self.sample_matrices(64):
            for (left, right), want in zip(self.block_pairs(riesz), self.dense_pair(riesz, X)):
                got = _transport(left, X, right, size, size)
                np.testing.assert_array_equal(got, want[:size, :size])

    @pytest.mark.parametrize("rows, cols", [(1, 2), (40, 41), (41, 40), (None, 40), (40, None)])
    def test_projector_transport_windows(self, projector_map64, rows, cols):
        # windows with rows != cols, as theta_conjugacy_check reads
        # (rows :q, columns :q+1), are the dense product's, bit for bit;
        # with no column window the array allocated is returned, not a view
        riesz = projector_map64
        for X in self.sample_matrices(64):
            for (left, right), want in zip(self.block_pairs(riesz), self.dense_pair(riesz, X)):
                got = _transport(left, X, right, rows, cols)
                np.testing.assert_array_equal(got, want[:rows, :cols])
                assert (got.base is None) == (cols is None)

    @pytest.mark.parametrize("size", [None, 20, 40])
    def test_random_transport_matches_dense(self, random_maps64, size):
        dense = random_riesz_map(FockSpace(64), 10.0, seed=1, top_margin=0)
        for riesz in random_maps64 + [dense]:
            for X in self.sample_matrices(64):
                for (left, right), want in zip(self.block_pairs(riesz),
                                               self.dense_pair(riesz, X)):
                    got = _transport(left, X, right, size, size)
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
        riesz = make_riesz_map(FockSpace(6), np.eye(0))
        np.testing.assert_array_equal(riesz.S.mat, np.eye(6))
        np.testing.assert_array_equal(riesz.S_inv.mat.conj().T, np.eye(6))

    def test_projector_family_hand_values(self):
        # phi_0 = (1+i)e_0 and psi_0 = ((1+i)/2)e_0, paired to one:
        # (1-i)(1+i)/2 = 1
        space = FockSpace(4)
        T = np.eye(4) + 1j * ground_projector(4)
        riesz = make_riesz_map(space, T)
        phi, psi = riesz.S.mat, riesz.S_inv.mat.conj().T
        np.testing.assert_allclose(phi[:, 0], [1 + 1j, 0, 0, 0], atol=1e-15)
        np.testing.assert_allclose(psi[:, 0], [(1 + 1j) / 2, 0, 0, 0], atol=1e-14)
        assert np.vdot(phi[:, 0], psi[:, 0]) == pytest.approx(1.0, abs=1e-14)

    def test_gram_is_identity(self, all_maps64):
        for riesz in all_maps64:
            gram = riesz.S.mat.conj().T @ riesz.S_inv.mat.conj().T
            assert np.abs(gram - np.eye(64)).max() <= 1e-10

    def test_gram_high_cond_large_dim(self):
        # exact biorthogonality persists at cond 1e3, dim 256
        riesz = random_riesz_map(FockSpace(256), 1e3, seed=0)
        gram = riesz.S.mat.conj().T @ riesz.S_inv.mat.conj().T
        assert np.abs(gram - np.eye(256)).max() <= 1e-10

    def test_family_norm_bounds(self, random_map64):
        phi, psi = random_map64.S.mat, random_map64.S_inv.mat.conj().T
        A, B = random_map64.frame_bounds
        assert np.linalg.norm(phi, axis=0).max() <= np.sqrt(B) * (1 + 1e-12)
        assert np.linalg.norm(psi, axis=0).max() <= (1 + 1e-12) / np.sqrt(A)

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
        riesz = make_riesz_map(FockSpace(5), np.eye(0))
        np.testing.assert_allclose(riesz.theta.mat, np.eye(5), atol=1e-15)

    def test_projector_closed_form(self):
        # T^dag T = 1 + P, inverted by hand with P^2 = P: Theta = 1 - P/2
        space = FockSpace(8)
        T = np.eye(8) + 1j * ground_projector(8)
        theta = make_riesz_map(space, T).theta.mat
        expected = np.eye(8) - ground_projector(8) / 2
        assert np.linalg.norm(theta - expected, 2) <= 1e-13
        np.testing.assert_allclose(theta @ space.basis_vector(0),
                                   space.basis_vector(0) / 2, atol=1e-14)

    def test_theta_inverse_pair(self, all_maps64):
        for riesz in all_maps64:
            assert np.linalg.norm(riesz.theta.mat @ riesz.theta_inv.mat - np.eye(64), 2) <= 1e-12

    def test_self_adjoint_positive(self, all_maps64):
        for riesz in all_maps64:
            theta = riesz.theta.mat
            assert np.linalg.norm(theta - theta.conj().T, 2) <= 1e-12
            assert np.linalg.eigvalsh(theta)[0] > 0

    def test_maps_family_onto_dual(self, all_maps64):
        for riesz in all_maps64:
            phi, psi = riesz.S.mat, riesz.S_inv.mat.conj().T
            theta = riesz.theta.mat
            assert np.linalg.norm(theta @ phi - psi, axis=0).max() <= 1e-10

    def test_spectrum_inside_frame_window(self, all_maps64):
        for riesz in all_maps64:
            A, B = riesz.frame_bounds
            eigs = np.linalg.eigvalsh(riesz.theta.mat)
            assert eigs[0] >= 1.0 / B - 1e-10
            assert eigs[-1] <= 1.0 / A + 1e-10

    @pytest.mark.parametrize("p", [1, 8, 32])
    def test_blocks_match_dense_products(self, p):
        # the SVD route against (S^-1)^dag S^-1 and S S^dag formed densely
        rng = np.random.default_rng(p)
        S = np.eye(p) + 0.3 * (rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p)))
        U, sigma, _ = np.linalg.svd(S)
        theta, theta_inv = metric_operator(U, sigma)
        S_inv = np.linalg.inv(S)
        for got, want in ((theta, S_inv.conj().T @ S_inv), (theta_inv, S @ S.conj().T)):
            assert np.linalg.norm(got - want, 2) <= 1e-13 * np.linalg.norm(want, 2)


class TestRankOneSums:
    @staticmethod
    def rank_one_sums(phi, psi):
        """Dense ``sum_n |psi_n><psi_n|`` and ``sum_n |phi_n><phi_n|`` of the
        column-stacked families."""
        return psi @ psi.conj().T, phi @ phi.conj().T

    @staticmethod
    def families(riesz):
        """The map's families as dense column stacks: ``S`` and ``(S^-1)^dag``."""
        return riesz.S.mat, riesz.S_inv.mat.conj().T

    def test_identity(self):
        riesz = make_riesz_map(FockSpace(6), np.eye(0))
        theta_sum, theta_inv_sum = self.rank_one_sums(*self.families(riesz))
        np.testing.assert_allclose(theta_sum, np.eye(6), atol=1e-14)
        np.testing.assert_allclose(theta_inv_sum, np.eye(6), atol=1e-14)

    def test_projector_hand_values(self):
        # sum |psi_n><psi_n| = 1 - P/2 and sum |phi_n><phi_n| = 1 + P
        space = FockSpace(8)
        P = ground_projector(8)
        riesz = make_riesz_map(space, np.eye(8) + 1j * P)
        theta_sum, theta_inv_sum = self.rank_one_sums(*self.families(riesz))
        assert np.linalg.norm(theta_sum - (np.eye(8) - P / 2), 2) <= 1e-13
        assert np.linalg.norm(theta_inv_sum - (np.eye(8) + P), 2) <= 1e-13

    def test_matches_metric_operator(self, all_maps64):
        for riesz in all_maps64:
            theta_sum, theta_inv_sum = self.rank_one_sums(*self.families(riesz))
            tol = 1e-12 * riesz.cond**2
            assert np.linalg.norm(theta_sum - riesz.theta.mat, 2) <= tol
            assert np.linalg.norm(theta_inv_sum - riesz.theta_inv.mat, 2) <= tol

    @classmethod
    def relative_residuals(cls, riesz, phi, psi):
        """The suite's records: deviations relative to ``||Theta|| = 1/A``
        and ``||Theta^-1|| = B``."""
        A, B = riesz.frame_bounds
        theta_sum, theta_inv_sum = cls.rank_one_sums(phi, psi)
        return (_spectral_norm(theta_sum - riesz.theta.mat) * A,
                _spectral_norm(theta_inv_sum - riesz.theta_inv.mat) / B)

    def test_independent_route_reads_roundoff(self, random_map64):
        # the metric comes from the block SVD, not from the products the
        # sums form, so the records read roundoff instead of exactly 0
        residuals = self.relative_residuals(random_map64, *self.families(random_map64))
        for name, residual in zip(("rank_one_theta", "rank_one_theta_inv"), residuals):
            assert 0.0 < residual <= default_tolerance(name, random_map64.cond)

    @pytest.mark.parametrize("which", ["psi", "phi"])
    @pytest.mark.parametrize("n", [0, 20, 40])
    def test_perturbed_vector_fails(self, random_map64, which, n):
        vecs = {k: v.copy() for k, v in zip(("phi", "psi"), self.families(random_map64))}
        rng = np.random.default_rng(n)
        vecs[which][:, n] += 1e-9 * np.linalg.norm(vecs[which][:, n]) * random_unit_vector(rng, 64)
        theta_r, theta_inv_r = self.relative_residuals(random_map64, vecs["phi"], vecs["psi"])
        residual, name = ((theta_r, "rank_one_theta") if which == "psi"
                          else (theta_inv_r, "rank_one_theta_inv"))
        assert residual > default_tolerance(name, random_map64.cond)



class TestSerialization:
    def test_roundtrip(self, tmp_path):
        riesz = random_riesz_map(FockSpace(12), 5.0, seed=11)
        path = tmp_path / "map.json"
        save_riesz_map(riesz, path)
        loaded = load_riesz_map(path)
        np.testing.assert_array_equal(loaded.S.mat, riesz.S.mat)
        assert loaded.cond == pytest.approx(riesz.cond, rel=1e-12)

    def test_reloaded_map_passes_provenance_guards(self, tmp_path):
        # the guard compares the maps entrywise, through their blocks
        space = FockSpace(16)
        riesz = random_riesz_map(space, 10.0, seed=3)
        save_riesz_map(riesz, tmp_path / "map.json")
        pair = make_pair(riesz)
        eigen_check(pair, rbcs(load_riesz_map(tmp_path / "map.json"), 0.5))
        for other in (random_riesz_map(space, 10.0, seed=4),  # and the same block at dim 17
                      random_riesz_map(FockSpace(17), 10.0, seed=3, top_margin=9)):
            with pytest.raises(ProvenanceError):
                eigen_check(pair, rbcs(other, 0.5))

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

    @pytest.mark.parametrize("dim", [16.5, True, "16", 1, 0])
    def test_dim_held_to_the_config_rule(self, tmp_path, dim):
        # an integral number >= 2, as a config's dim: no truncation, no bool,
        # no string, and the refusal names the file; the entries fit int(dim)
        path = tmp_path / "map.json"
        path.write_text(json.dumps({"dim": dim, "entries": [[1, 0]] * int(dim) ** 2}))
        with pytest.raises(ValidationError, match="map.json"):
            load_riesz_map(path)

    @pytest.mark.parametrize("entries", [
        [[True, False], [False, False], [False, False], [True, False]],
        [[1, 0], [0, 0], [0, True], [1, 0]],
    ], ids=["all-booleans", "one-boolean"])
    def test_boolean_entries_refused(self, tmp_path, entries):
        # true is not 1: a dim-2 file of true/false entries would load as the
        # identity; each part is a finite number by the config's rule
        path = tmp_path / "map.json"
        path.write_text(json.dumps({"dim": 2, "entries": entries}))
        with pytest.raises(ValidationError, match="map.json"):
            load_riesz_map(path)

    def test_integral_float_dim_loads(self, tmp_path):
        path = tmp_path / "map.json"
        save_riesz_map(random_riesz_map(FockSpace(16), 5.0, seed=11), path)
        record = json.loads(path.read_text())
        path.write_text(json.dumps({**record, "dim": 16.0}))
        assert load_riesz_map(path).dim == 16


class TestBlockRepresentation:
    """A map holds only the ``p x p`` blocks of ``S``, its inverse and its
    metric; the dense ``S``, ``S_inv``, ``theta`` and ``theta_inv`` are built
    on access."""

    @pytest.fixture(params=[("identity", 0), ("projector", 1), ("random", 32)],
                    ids=lambda param: param[0])
    def riesz(self, request, identity_map64, projector_map64, random_map64):
        kind, p = request.param
        riesz = {"identity": identity_map64, "projector": projector_map64,
                 "random": random_map64}[kind]
        assert riesz.block == p
        return riesz

    def test_every_array_field_is_a_read_only_block(self, riesz):
        for f in dataclasses.fields(riesz):
            value = getattr(riesz, f.name)
            value = getattr(value, "mat", value)  # an Operator field is a dense matrix
            if isinstance(value, np.ndarray):
                assert max(value.shape, default=0) <= riesz.block, f.name
                assert not value.flags.writeable, f.name

    def test_dense_views_are_blockdiag(self, riesz):
        p = riesz.block
        for view, block in ((riesz.S, riesz.S_block), (riesz.S_inv, riesz.S_inv_block),
                            (riesz.theta, riesz.theta_block),
                            (riesz.theta_inv, riesz.theta_inv_block)):
            want = np.eye(riesz.dim, dtype=complex)
            want[:p, :p] = block
            np.testing.assert_array_equal(view.mat, want)
            assert not view.mat.flags.writeable

    def test_projector_map_and_metric_hold_no_dense_copy(self):
        # at dim 1024 a single dense complex matrix takes 16 MB
        config = RunConfig(dim=1024, map_spec=MapSpec(kind="projector"), z_samples=())
        tracemalloc.start()
        try:
            riesz = build_map(config)
            live, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert riesz.theta_block.shape == (1, 1)
        assert live < 1 << 20

    @pytest.mark.parametrize("kind", ["projector", "identity"])
    def test_building_the_map_forms_no_dense_matrix(self, kind):
        # at dim 2048 a single dense complex matrix takes 64 MB
        config = RunConfig(dim=2048, map_spec=MapSpec(kind=kind), z_samples=())
        tracemalloc.start()
        try:
            build_map(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_only_the_packager_constructs_a_map(self, monkeypatch):
        # every map in src/ goes through the one packager and its checks, and
        # both builders, make_riesz_map and random_riesz_map, reach it
        reached = []

        def counted(space, *factors, take=riesz_module._factored_map):
            reached.append(space.dim)
            return take(space, *factors)

        monkeypatch.setattr(riesz_module, "_factored_map", counted)
        make_riesz_map(FockSpace(4), np.eye(0))
        random_riesz_map(FockSpace(6), 10.0, seed=0)
        assert reached == [4, 6]
        src = Path(__file__).resolve().parent.parent / "src" / "pseudoboson"
        sites = []
        for path in sorted(src.glob("*.py")):
            tree = ast.parse(path.read_text())
            owner = {node: fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                     for node in ast.walk(fn)}  # innermost function last, so it wins
            sites += [(path.name, owner.get(node)) for node in ast.walk(tree)
                      if isinstance(node, ast.Call) and "RieszMap" in (
                          getattr(node.func, "id", None), getattr(node.func, "attr", None))]
        assert sites == [("riesz.py", "_factored_map")]
