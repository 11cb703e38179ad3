import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudoboson import (
    DimensionMismatchError,
    FockSpace,
    InvalidDimensionError,
    Operator,
    bch_factorization_check,
    displaced_pair,
    ladder_c,
    ladder_c_dag,
    make_pair,
    make_riesz_map,
    power_similarity_check,
)
from pseudoboson import displacement
from pseudoboson.fock import (_bordered, _frobenius_norm, _graded_norm, _spectral_lower_bound,
                              _spectral_norm)
from pseudoboson.suite import _bch_cutoff

from conftest import in_graded_bracket


class TestSpace:
    def test_minimal_space(self):
        space = FockSpace(2)
        assert space.dim == 2
        np.testing.assert_array_equal(space.basis_vector(0), [1, 0])
        np.testing.assert_array_equal(space.basis_vector(1), [0, 1])

    def test_larger_space(self):
        assert FockSpace(64).dim == 64

    @pytest.mark.parametrize("dim", [0, 1, -3])
    def test_invalid_dim(self, dim):
        with pytest.raises(InvalidDimensionError):
            FockSpace(dim)

    def test_basis_index_out_of_range(self):
        with pytest.raises(InvalidDimensionError):
            FockSpace(4).basis_vector(4)


class TestLadder:
    def test_lowering_entries_dim3(self):
        c = ladder_c(FockSpace(3))
        expected = np.array([[0, 1, 0], [0, 0, np.sqrt(2)], [0, 0, 0]])
        np.testing.assert_allclose(c.mat, expected)

    @pytest.mark.parametrize("dim", [2, 5, 64])
    def test_lowering_kills_vacuum(self, dim):
        space = FockSpace(dim)
        assert np.all(ladder_c(space).mat @ space.basis_vector(0) == 0)

    def test_number_operator_dim3(self):
        # hand multiplication of the 3x3 matrices
        space = FockSpace(3)
        c = ladder_c(space).mat
        np.testing.assert_allclose(c.conj().T @ c, np.diag([0.0, 1.0, 2.0]), atol=1e-15)

    def test_raising_entries_dim3(self):
        cd = ladder_c_dag(FockSpace(3))
        assert cd.mat[1, 0] == 1.0
        assert cd.mat[2, 1] == pytest.approx(np.sqrt(2))

    @pytest.mark.parametrize("dim", [2, 7, 64])
    def test_raising_kills_top(self, dim):
        space = FockSpace(dim)
        assert np.all(ladder_c_dag(space).mat @ space.basis_vector(dim - 1) == 0)

    @pytest.mark.parametrize("dim", [2, 3, 8, 64])
    def test_nilpotency(self, dim):
        c = ladder_c(FockSpace(dim)).mat
        power = np.linalg.matrix_power(c, dim)
        assert np.all(power == 0)

    @pytest.mark.parametrize("dim", [3, 16, 64])
    def test_exact_adjointness(self, dim):
        space = FockSpace(dim)
        c = ladder_c(space)
        assert np.array_equal(ladder_c_dag(space).mat, c.mat.conj().T)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_adjoint_moves_across_inner_product(self, seed):
        rng = np.random.default_rng(seed)
        space = FockSpace(12)
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
        comm = ladder_commutator(FockSpace(3))
        np.testing.assert_allclose(comm, np.diag([1.0, 1.0, -2.0]), atol=1e-15)

    @pytest.mark.parametrize("dim", [2, 16, 64])
    def test_corner_defect(self, dim):
        comm = ladder_commutator(FockSpace(dim))
        expected = np.eye(dim)
        expected[-1, -1] = -(dim - 1)
        np.testing.assert_allclose(comm, expected, atol=1e-13)

    def test_identity_commutes(self):
        space = FockSpace(8)
        rng = np.random.default_rng(1)
        A = Operator(space, rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))).mat
        one = make_riesz_map(space, np.eye(0)).S.mat
        assert np.linalg.norm(one @ A - A @ one, 2) == 0.0

    @pytest.mark.parametrize("cutoff", [1, 8, 31])
    def test_ccr_on_safe_subspace(self, cutoff):
        k = cutoff
        np.testing.assert_allclose(ladder_commutator(FockSpace(32))[:k, :k], np.eye(k), atol=1e-14)


class TestRestrict:
    @pytest.mark.parametrize("cutoff", [0, 4, 7])
    def test_cutoff_out_of_range(self, cutoff):
        # the factorization check refuses a cutoff outside [1, dim)
        disp = displaced_pair(make_riesz_map(FockSpace(4), np.eye(0)), 0.5)
        with pytest.raises(InvalidDimensionError):
            bch_factorization_check(disp, cutoff)


class TestOperator:
    def test_entries_read_only(self):
        op = ladder_c(FockSpace(3))
        with pytest.raises(ValueError):
            op.mat[0, 0] = 1.0

    def test_shape_validation(self):
        with pytest.raises(DimensionMismatchError):
            Operator(FockSpace(3), np.zeros((2, 2)))

    def test_finite_validation(self):
        from pseudoboson import ValidationError

        bad = np.zeros((3, 3), complex)
        bad[0, 0] = np.nan
        with pytest.raises(ValidationError):
            Operator(FockSpace(3), bad)


def checkerboard(X, parity):
    """``X`` with every entry ``X[m, n]`` whose ``m + n`` is not of ``parity`` zeroed."""
    X = X.copy()
    X[np.add.outer(np.arange(X.shape[0]), np.arange(X.shape[1])) % 2 != parity] = 0.0
    return X


def _sparse_cases():
    rng = np.random.default_rng(7)

    def dense(r, c):
        return rng.standard_normal((r, c)) + 1j * rng.standard_normal((r, c))

    scattered = dense(30, 30)
    scattered[[0, 4, 5, 17, 29]] = 0.0
    scattered[:, [2, 3, 11, 28]] = 0.0
    single = np.zeros((20, 20), complex)
    single[7, 13] = 2.5 - 1j
    stray = checkerboard(dense(30, 30), 0)
    stray[3, 8] = 0.5  # one odd entry: no parity split
    return {
        "dense": dense(40, 40),
        "wide": dense(7, 40),
        "tall": dense(40, 7),
        "banded": np.triu(np.tril(dense(50, 50), 2), -1),
        "scattered_zeros": scattered,
        "rank_one": np.outer(dense(25, 1), dense(1, 25).conj()),
        "single_entry": single,
        "checker_even": checkerboard(dense(30, 30), 0),
        "checker_odd": checkerboard(dense(30, 30), 1),
        "diagonal": np.diag(dense(1, 20)[0]),
        "tridiagonal_zero_diagonal": np.diag(dense(1, 19)[0], 1) + np.diag(dense(1, 19)[0], -1),
        "checker_even_7x9": checkerboard(dense(7, 9), 0),
        "checker_odd_7x9": checkerboard(dense(7, 9), 1),
        "checker_even_1x5": checkerboard(dense(1, 5), 0),
        "checker_odd_1x5": checkerboard(dense(1, 5), 1),
        "checker_with_stray": stray,
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

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 24), st.integers(1, 24), st.floats(0.0, 1.0), st.integers(0, 1),
           st.integers(0, 2**32 - 1))
    def test_random_checkerboard_masks(self, rows, cols, density, parity, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        X[rng.random((rows, cols)) >= density] = 0.0
        X = checkerboard(X, parity)
        want = np.linalg.norm(X, 2)
        assert abs(_spectral_norm(X) - want) <= 1e-14 * want

    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 40), st.integers(2, 40), st.integers(1, 19), st.floats(0.2, 1.0),
           st.sampled_from([None, 0, 1]), st.integers(0, 2**32 - 1))
    def test_bordered_matrices(self, rows, cols, beta, density, parity, seed):
        # zero outside a border of beta leading rows and columns, with and
        # without a number-parity checkerboard
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        X[rng.random((rows, cols)) >= density] = 0.0
        X[beta:, beta:] = 0.0
        if parity is not None:
            X = checkerboard(X, parity)
        want = np.linalg.norm(X, 2)
        assert abs(_spectral_norm(X) - want) <= 1e-14 * want

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 30), st.integers(0, 30), st.integers(1, 30), st.integers(0, 2**32 - 1))
    def test_bordered_keeps_the_gram_matrix(self, t, below, cols, seed):
        # X = [top; left 0] itself, or the 2 t rows [top; R 0] when left is
        # taller than wide: the Gram matrix of X either way
        t = min(t, cols)
        rng = np.random.default_rng(seed)
        top = rng.standard_normal((t, cols)) + 1j * rng.standard_normal((t, cols))
        left = rng.standard_normal((below, t)) + 1j * rng.standard_normal((below, t))
        X = np.zeros((t + below, cols), complex)
        X[:t], X[t:, :t] = top, left
        got = _bordered(top, left)
        if below > t:
            assert got.shape == (2 * t, cols)
            np.testing.assert_allclose(got.conj().T @ got, X.conj().T @ X, rtol=0,
                                       atol=1e-13 * (t + below) * np.abs(X).max() ** 2)
        else:
            assert np.array_equal(got, X)

    def test_row_and_column_residual_takes_two_rows(self):
        # nonzero only in row 0 and column 0 (the projector map's intertwining
        # residual): exact as it stands, and as the one row and the 1 x 1 QR
        # factor of the column that intertwining_check reduces it to
        rng = np.random.default_rng(3)
        X = np.zeros((255, 255), complex)
        X[0] = rng.standard_normal(255)
        X[:, 0] = rng.standard_normal(255) * 1e-3
        want = np.linalg.norm(X, 2)
        assert abs(_spectral_norm(X) - want) <= 1e-14 * want
        reduced = _bordered(X[:1], X[1:, :1])
        assert reduced.shape == (2, 255)
        assert abs(_spectral_norm(reduced) - want) <= 1e-14 * want

    @staticmethod
    def svd_row_counts(monkeypatch, riesz):
        """Row counts of every matrix ``power_similarity_check`` hands to the
        SVD, and the shapes of the references it bounds from below instead."""
        pair, seen, refs = make_pair(riesz), [], []
        svd, bound = np.linalg.svd, displacement._spectral_lower_bound

        def spy(a, *args, **kwargs):
            seen.append(a.shape[0])
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        monkeypatch.setattr(displacement, "_spectral_lower_bound",
                            lambda X: refs.append(X.shape) or bound(X))
        power_similarity_check(pair, 1 + 1j)
        return seen, refs

    def test_parity_preserving_map_takes_half_size_blocks(self, monkeypatch, projector_map64):
        # S = 1 + i|e0><e0| keeps number parity, and every numerator vanishes
        # outside the r x r block, r = p + 5 = 6, that the check forms: k = 1
        # reads an exact 0 without an SVD, and k = 2..5 take one of 6 rows
        # each.  The five references, rows :6 of the strip's 11 columns, are
        # only bounded, so they never reach the SVD
        seen, refs = self.svd_row_counts(monkeypatch, projector_map64)
        assert refs == [(6, 11)] * 5
        assert seen == [6] * 4

    def test_dense_map_takes_the_full_matrix(self, monkeypatch, random_map64):
        # each numerator is the r x r block the check forms, r = p + 5 = 37,
        # more than half the cut of 59; the references, the strip's 37 rows of
        # 42 columns, are only bounded
        seen, refs = self.svd_row_counts(monkeypatch, random_map64)
        assert refs == [(37, 42)] * 5
        assert len(seen) == 5 and min(seen) > 30 and max(seen) < 59

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

    def test_only_graded_norm_takes_exact_norms(self):
        # the exact norm and the bordered reduction it runs on have one
        # caller, fock._graded_norm, and no other module imports them: every
        # norm record is graded by the one bound-or-exact rule
        src = Path(__file__).resolve().parent.parent / "src" / "pseudoboson"
        exact = {"_spectral_norm", "_bordered"}
        sites = set()
        for path in sorted(src.glob("*.py")):
            tree = ast.parse(path.read_text())
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom):
                    assert not exact & {alias.name for alias in node.names}, path.name
            for fn in [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]:
                for call in [n for n in ast.walk(fn) if isinstance(n, ast.Call)]:
                    name = getattr(call.func, "id", getattr(call.func, "attr", None))
                    if name in exact:
                        sites.add((path.name, fn.name, name))
        assert sites == {("fock.py", "_graded_norm", name) for name in exact}


#: finite entries whose norm leaves the float range: the norm reads ``inf``,
#: with no ``OverflowError`` and no ``RuntimeWarning``
OVERFLOWING = pytest.mark.parametrize("entry", [1.7e308, 1e308 + 1e308j],
                                      ids=["real", "complex"])


class TestFrobeniusNorm:
    """The certified upper bound the numerators of ``bch_*``,
    ``intertwining`` and ``power_similarity`` pass on."""

    @staticmethod
    def brackets(F, X):
        """``sigma_max <= F <= sqrt(rank) sigma_max``, up to the SVD's own roundoff."""
        sigma = np.linalg.svd(X, compute_uv=False)
        rank = int(np.sum(sigma > sigma[0] * max(X.shape) * np.finfo(float).eps))
        return sigma[0] * (1 - 1e-13) <= F <= math.sqrt(rank) * sigma[0] * (1 + 1e-13)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 40), st.integers(1, 20),
           st.sampled_from(["bordered", "low_rank"]), st.floats(-3.0, 3.0),
           st.integers(0, 2**32 - 1))
    def test_brackets_sigma_max(self, rows, cols, size, kind, log_scale, seed):
        # zero outside a border of `size` leading rows and columns, or of
        # rank at most `size`
        rng = np.random.default_rng(seed)

        def draw(r, c):
            return rng.standard_normal((r, c)) + 1j * rng.standard_normal((r, c))

        if kind == "bordered":
            X = draw(rows, cols)
            X[size:, size:] = 0.0
        else:
            X = draw(rows, size) @ draw(size, cols)
        X *= 10.0 ** log_scale
        assert self.brackets(_frobenius_norm(X), X)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 20), st.integers(0, 30), st.integers(1, 30), st.integers(0, 2**32 - 1))
    def test_parts_are_one_matrix(self, t, below, cols, seed):
        # the bound of intertwining's [top; left 0] from its two parts
        t = min(t, cols)
        rng = np.random.default_rng(seed)
        top = rng.standard_normal((t, cols)) + 1j * rng.standard_normal((t, cols))
        left = rng.standard_normal((below, t)) + 1j * rng.standard_normal((below, t))
        X = np.zeros((t + below, cols), complex)
        X[:t], X[t:, :t] = top, left
        assert _frobenius_norm(top, left) == pytest.approx(_frobenius_norm(X), rel=1e-15)
        if X.any():
            assert self.brackets(_frobenius_norm(top, left), X)

    @pytest.mark.parametrize("shift", [-565, 531], ids=["1e-170", "1e160"])
    def test_exact_under_scaling(self, shift):
        # entries near 1e-170 square to 0 and entries near 1e160 overflow
        # once squared; the helper scales by a power of two first, so a
        # scaled copy reads the same bound times the same power of two, and
        # no warning is raised
        X = np.random.default_rng(7).standard_normal((9, 13)) * (1 + 0.5j)
        X[4:, 4:] = 0.0
        scaled = np.ldexp(X.real, shift) + 1j * np.ldexp(X.imag, shift)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _frobenius_norm(scaled)
        assert got == math.ldexp(_frobenius_norm(X), shift)
        assert self.brackets(got, scaled)

    def test_all_zero_reads_zero(self):
        assert _frobenius_norm(np.zeros((6, 9), complex)) == 0.0
        assert _frobenius_norm(np.zeros((0, 4), complex), np.zeros((3, 0))) == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_non_finite_reads_nan(self, bad):
        X = np.eye(5, dtype=complex)
        X[2, 3] = bad
        assert np.isnan(_frobenius_norm(X))
        assert np.isnan(_frobenius_norm(np.eye(3), X))

    @OVERFLOWING
    def test_past_float_range_reads_inf(self, entry):
        X = np.full((2, 2), entry)
        assert _frobenius_norm(X) == math.inf
        assert _frobenius_norm(X[:1], X[1:, :1]) == math.inf


class TestGradedNorm:
    """The one grading rule of every norm residual: within ``tol`` the value
    may be the Frobenius bound, above it the value is exact."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 40),
           st.sampled_from(["full", "rank_one", "zero", "nan"]), st.floats(-3.0, 3.0),
           st.floats(-3.0, 3.0), st.one_of(st.just(0.0), st.floats(0.1, 10.0)),
           st.integers(0, 2**32 - 1))
    def test_bound_within_tol_exact_above(self, rows, cols, kind, log_scale, log_denominator,
                                          tol_ratio, seed):
        rng = np.random.default_rng(seed)

        def draw(r, c):
            return rng.standard_normal((r, c)) + 1j * rng.standard_normal((r, c))

        if kind == "rank_one":
            X = draw(rows, 1) @ draw(1, cols)
        elif kind == "zero":
            X = np.zeros((rows, cols), complex)
        else:
            X = draw(rows, cols)
        if kind == "nan":
            X[rng.integers(rows), rng.integers(cols)] = np.nan
        X *= 10.0 ** log_scale
        denominator = 10.0 ** log_denominator
        exact = _spectral_norm(X) / denominator
        tol = tol_ratio * exact if exact > 0 else tol_ratio  # about the exact value, or 0
        value = _graded_norm(X, denominator, tol)
        if kind == "nan":
            assert np.isnan(value)
        elif value > tol:
            assert value == exact
        else:
            rank = {"full": min(rows, cols), "rank_one": 1, "zero": 0}[kind]
            assert in_graded_bracket(value, exact, rank)

    def test_default_tol_is_exact(self):
        X = np.random.default_rng(3).standard_normal((7, 5))
        assert _graded_norm(X, 2.0, 0.0) == _spectral_norm(X) / 2.0 < _frobenius_norm(X) / 2.0

    @pytest.mark.parametrize("below", [0, 2, 4, 11])
    def test_bordered_difference(self, below):
        # [top; left 0] is graded as the assembled matrix: the bound of both
        # parts within tol, the exact norm of the assembled matrix above it
        rng = np.random.default_rng(below)
        top = rng.standard_normal((4, 9)) + 1j * rng.standard_normal((4, 9))
        left = rng.standard_normal((below, 4)) + 1j * rng.standard_normal((below, 4))
        X = np.zeros((4 + below, 9), complex)
        X[:4], X[4:, :4] = top, left
        assert _graded_norm(top, 2.0, np.inf, left) == _frobenius_norm(top, left) / 2.0
        exact = _spectral_norm(X) / 2.0
        assert abs(_graded_norm(top, 2.0, 0.0, left) - exact) <= 1e-14 * exact

    def test_denominator_floored(self):
        X = np.eye(3)
        assert _graded_norm(X, 0.0, np.inf) == _frobenius_norm(X) / 1e-300 < np.inf
        assert np.isnan(_graded_norm(X, np.nan, 0.0))

    @OVERFLOWING
    def test_past_float_range_reads_inf(self, entry):
        # the bound reads inf, above any tol, so the exact norm is taken: inf, a fail
        X = np.full((2, 2), entry)
        assert _graded_norm(X, 1.0, 1e-10) == math.inf
        assert _graded_norm(X[:1], 1.0, 1e-10, X[1:, :1]) == math.inf

    @pytest.mark.parametrize("entry", [1.7e308, 1.7e306])
    def test_tall_left_is_scaled_before_its_qr(self, entry):
        # a left part taller than top is reduced by a QR, taken on the parts
        # scaled down by a power of two: a norm past the float range reads
        # inf, not the nan of an overflowing QR, and one inside it is exact
        top, left = np.full((2, 3), entry), np.full((4, 2), entry)
        X = np.zeros((6, 3))
        X[:2], X[2:, :2] = top / entry, left / entry
        exact = _spectral_norm(X) * entry
        value = _graded_norm(top, 1.0, 1e-10, left)
        assert value == exact if math.isinf(exact) else value == pytest.approx(exact, rel=1e-14)


def _within_bound(X):
    """``lo <= sigma_max <= sqrt(min(m, n)) lo``, up to the SVD's own roundoff."""
    lo, sigma = _spectral_lower_bound(X), np.linalg.norm(X, 2)
    slack = 1e-13
    return lo <= sigma * (1 + slack) and sigma <= math.sqrt(min(X.shape)) * lo * (1 + slack)


def _two_pass_lower_bound(X):
    """The bound by its definition: ``||X||_F`` from :func:`_frobenius_norm`,
    then the row and column sums of ``|X|`` taken again, scaled by the power
    of two of ``||X||_F``."""
    fro = _frobenius_norm(X)
    if not fro > 0:
        return fro
    e = math.frexp(fro)[1]
    A = np.ldexp(np.abs(X), -e) ** 2
    return max(math.ldexp(math.sqrt(max(A.sum(axis=0).max(), A.sum(axis=1).max())), e),
               fro / math.sqrt(min(X.shape)))


class TestSpectralLowerBound:
    @pytest.mark.parametrize("name, X", list(_sparse_cases().items()))
    def test_brackets_sparse_cases(self, name, X):
        assert _within_bound(X)

    @pytest.mark.parametrize("name, X", list(_sparse_cases().items()) + [
        ("column", np.arange(1.0, 10.0)[:, None] * (1 - 2j)),
        ("row", np.arange(1.0, 10.0)[None, :] * 0.3),
        ("uniform", np.full((5, 5), 0.1)), ("tiny", np.eye(4, 6) * 1e-300)])
    def test_one_pass_equals_the_definition(self, name, X):
        # |X| taken once and scaled by its largest entry reads the same bits
        assert _spectral_lower_bound(X) == _two_pass_lower_bound(X)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 40),
           st.sampled_from(["dense", "banded", "checker_even", "checker_odd"]),
           st.floats(-3.0, 3.0), st.integers(0, 2**32 - 1))
    def test_brackets_sigma_max(self, rows, cols, kind, log_scale, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        if kind == "banded":
            X = np.triu(np.tril(X, 2), -1)
        elif kind != "dense":
            X = checkerboard(X, int(kind == "checker_odd"))
        X *= 10.0 ** log_scale
        if np.any(X):
            assert _within_bound(X)

    @pytest.mark.parametrize("shift", [665, -665, 1000, -1000])
    def test_no_overflow_or_underflow(self, shift):
        # entries near 1e200 (1e-200) overflow (underflow) once squared;
        # the bound scales them by a power of two first, which is exact,
        # so it moves by exactly the same power of two
        X = np.random.default_rng(7).standard_normal((9, 13)) * (1 + 0.5j)
        scaled = np.ldexp(X.real, shift) + 1j * np.ldexp(X.imag, shift)
        assert _spectral_lower_bound(scaled) == math.ldexp(_spectral_lower_bound(X), shift)

    def test_all_zero_reads_zero(self):
        assert _spectral_lower_bound(np.zeros((6, 9), complex)) == 0.0
        assert _spectral_lower_bound(np.zeros((0, 4), complex)) == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_non_finite_reads_nan(self, bad):
        X = np.eye(5, dtype=complex)
        X[2, 3] = bad
        assert np.isnan(_spectral_lower_bound(X))

    @OVERFLOWING
    def test_past_float_range_reads_inf(self, entry):
        assert _spectral_lower_bound(np.full((2, 2), entry)) == math.inf

    @pytest.mark.parametrize("kind", ["projector", "random"])
    def test_brackets_the_check_references(self, monkeypatch, kind, projector_map64,
                                           random_map64):
        # every reference that power_similarity and bch_* bound at dim 64:
        # the rows of D^k of power_similarity and the U, V blocks of bch_* at the
        # README's nonzero amplitudes, at the cutoffs verify uses
        riesz = projector_map64 if kind == "projector" else random_map64
        pair, refs, bound = make_pair(riesz), [], displacement._spectral_lower_bound
        monkeypatch.setattr(displacement, "_spectral_lower_bound",
                            lambda X: refs.append(X) or bound(X))
        for z in (1, 1 + 1j, 2j):
            power_similarity_check(pair, z)
            cutoff = _bch_cutoff(64, z)
            bch_factorization_check(displaced_pair(riesz, z), cutoff)
        assert len(refs) == 3 * (5 + 2)
        assert all(_within_bound(X) for X in refs)
