import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudoboson import (
    DimensionMismatchError,
    InvalidDimensionError,
    Operator,
    SafeSubspace,
    ladder_c,
    ladder_c_dag,
    make_space,
)
from pseudoboson.fock import _spectral_norm, identity


class TestSpace:
    def test_minimal_space(self):
        space = make_space(2)
        assert space.dim == 2
        np.testing.assert_array_equal(space.basis_vector(0), [1, 0])
        np.testing.assert_array_equal(space.basis_vector(1), [0, 1])

    def test_larger_space(self):
        assert make_space(64).dim == 64

    @pytest.mark.parametrize("dim", [0, 1, -3])
    def test_invalid_dim(self, dim):
        with pytest.raises(InvalidDimensionError):
            make_space(dim)

    def test_basis_index_out_of_range(self):
        with pytest.raises(InvalidDimensionError):
            make_space(4).basis_vector(4)


class TestLadder:
    def test_lowering_entries_dim3(self):
        c = ladder_c(make_space(3))
        expected = np.array([[0, 1, 0], [0, 0, np.sqrt(2)], [0, 0, 0]])
        np.testing.assert_allclose(c.mat, expected)

    @pytest.mark.parametrize("dim", [2, 5, 64])
    def test_lowering_kills_vacuum(self, dim):
        space = make_space(dim)
        assert np.all(ladder_c(space).mat @ space.basis_vector(0) == 0)

    def test_number_operator_dim3(self):
        # hand multiplication of the 3x3 matrices
        space = make_space(3)
        c = ladder_c(space).mat
        np.testing.assert_allclose(c.conj().T @ c, np.diag([0.0, 1.0, 2.0]), atol=1e-15)

    def test_raising_entries_dim3(self):
        cd = ladder_c_dag(make_space(3))
        assert cd.mat[1, 0] == 1.0
        assert cd.mat[2, 1] == pytest.approx(np.sqrt(2))

    @pytest.mark.parametrize("dim", [2, 7, 64])
    def test_raising_kills_top(self, dim):
        space = make_space(dim)
        assert np.all(ladder_c_dag(space).mat @ space.basis_vector(dim - 1) == 0)

    @pytest.mark.parametrize("dim", [2, 3, 8, 64])
    def test_nilpotency(self, dim):
        c = ladder_c(make_space(dim)).mat
        power = np.linalg.matrix_power(c, dim)
        assert np.all(power == 0)

    @pytest.mark.parametrize("dim", [3, 16, 64])
    def test_exact_adjointness(self, dim):
        space = make_space(dim)
        c = ladder_c(space)
        assert np.array_equal(ladder_c_dag(space).mat, c.mat.conj().T)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_adjoint_moves_across_inner_product(self, seed):
        rng = np.random.default_rng(seed)
        space = make_space(12)
        f = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        g = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        c = ladder_c(space).mat
        lhs = np.vdot(c @ f, g)
        rhs = np.vdot(f, c.conj().T @ g)
        assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(f) * np.linalg.norm(g)


def ladder_commutator(space):
    """``[c, c^dag]`` on ``space``."""
    c, c_dag = ladder_c(space).mat, ladder_c_dag(space).mat
    return c @ c_dag - c_dag @ c


class TestCommutator:
    def test_commutator_dim3(self):
        # direct multiplication: corner defect -(dim-1)
        comm = ladder_commutator(make_space(3))
        np.testing.assert_allclose(comm, np.diag([1.0, 1.0, -2.0]), atol=1e-15)

    @pytest.mark.parametrize("dim", [2, 16, 64])
    def test_corner_defect(self, dim):
        comm = ladder_commutator(make_space(dim))
        expected = np.eye(dim)
        expected[-1, -1] = -(dim - 1)
        np.testing.assert_allclose(comm, expected, atol=1e-13)

    def test_identity_commutes(self):
        space = make_space(8)
        rng = np.random.default_rng(1)
        A = Operator(space, rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))).mat
        one = identity(space).mat
        assert np.linalg.norm(one @ A - A @ one, 2) == 0.0

    @pytest.mark.parametrize("cutoff", [1, 8, 31])
    def test_ccr_on_safe_subspace(self, cutoff):
        space = make_space(32)
        k = SafeSubspace(space, cutoff).cutoff
        np.testing.assert_allclose(ladder_commutator(space)[:k, :k], np.eye(cutoff), atol=1e-14)


class TestRestrict:
    @pytest.mark.parametrize("cutoff", [0, 4, 7])
    def test_cutoff_out_of_range(self, cutoff):
        space = make_space(4)
        with pytest.raises(InvalidDimensionError):
            SafeSubspace(space, cutoff)


class TestOperator:
    def test_entries_read_only(self):
        op = ladder_c(make_space(3))
        with pytest.raises(ValueError):
            op.mat[0, 0] = 1.0

    def test_shape_validation(self):
        with pytest.raises(DimensionMismatchError):
            Operator(make_space(3), np.zeros((2, 2)))

    def test_finite_validation(self):
        from pseudoboson import ValidationError

        bad = np.zeros((3, 3), complex)
        bad[0, 0] = np.nan
        with pytest.raises(ValidationError):
            Operator(make_space(3), bad)


def _sparse_cases():
    rng = np.random.default_rng(7)

    def dense(r, c):
        return rng.standard_normal((r, c)) + 1j * rng.standard_normal((r, c))

    scattered = dense(30, 30)
    scattered[[0, 4, 5, 17, 29]] = 0.0
    scattered[:, [2, 3, 11, 28]] = 0.0
    single = np.zeros((20, 20), complex)
    single[7, 13] = 2.5 - 1j
    return {
        "dense": dense(40, 40),
        "wide": dense(7, 40),
        "tall": dense(40, 7),
        "banded": np.triu(np.tril(dense(50, 50), 2), -1),
        "scattered_zeros": scattered,
        "rank_one": np.outer(dense(25, 1), dense(1, 25).conj()),
        "single_entry": single,
    }


class TestSpectralNorm:
    @pytest.mark.parametrize("name, X", list(_sparse_cases().items()))
    def test_matches_dense_norm(self, name, X):
        want = np.linalg.norm(X, 2)
        assert abs(_spectral_norm(X) - want) <= 1e-14 * want

    def test_all_zero_reads_zero(self):
        assert _spectral_norm(np.zeros((6, 9), complex)) == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_non_finite_reads_nan(self, bad):
        X = np.eye(5, dtype=complex)
        X[2, 3] = bad
        assert np.isnan(_spectral_norm(X))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 24), st.integers(1, 24), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    def test_random_sparsity_masks(self, rows, cols, density, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        X[rng.random((rows, cols)) >= density] = 0.0
        want = np.linalg.norm(X, 2)
        assert abs(_spectral_norm(X) - want) <= 1e-14 * want

    def test_only_spectral_norm_takes_spectral_norms(self):
        # every check measures operator norms through the one helper
        src = Path(__file__).resolve().parent.parent / "src" / "pseudoboson"
        svd_sites = []
        for path in sorted(src.glob("*.py")):
            text = path.read_text()
            assert "ord=2" not in text, path.name
            tree = ast.parse(text)
            for fn in [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]:
                for call in [n for n in ast.walk(fn) if isinstance(n, ast.Call)]:
                    name = getattr(call.func, "attr", None)
                    if name == "norm" and len(call.args) > 1:
                        assert not (isinstance(call.args[1], ast.Constant)
                                    and call.args[1].value == 2), (path.name, fn.name)
                    if name == "svd" and any(k.arg == "compute_uv" for k in call.keywords):
                        svd_sites.append((path.name, fn.name))
        assert svd_sites == [("fock.py", "_spectral_norm")]
