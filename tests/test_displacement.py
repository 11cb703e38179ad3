import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.special import eval_genlaguerre, gammaln

from pseudoboson import (
    AccuracyRegimeWarning,
    DisplacementSet,
    FockSpace,
    bch_factorization_check,
    coherent,
    displaced_pair,
    in_accuracy_regime,
    intertwining_check,
    make_pair,
    make_riesz_map,
    power_similarity_check,
    projector_map,
    weyl,
)
from pseudoboson import suite
from pseudoboson.displacement import (_bch_margin, _displacement_block, _parity_frame,
                                      _phase_powers, _strip_powers, _times_generator,
                                      _weyl_block)
from pseudoboson.errors import DimensionMismatchError
from pseudoboson.fock import _spectral_lower_bound, ladder_c
from pseudoboson.reports import default_tolerance
from pseudoboson.riesz import _transport, random_riesz_map

from conftest import dense_displacements, held_displacements, with_entry

bounded_z = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)

EPS = np.finfo(float).eps

#: A part of W(z) formed by a smaller product than weyl's dense one may be
#: summed in another order, BLAS choosing its kernel by shape, so it can
#: differ from weyl's entry by a few roundoffs: each entry sums d products
#: whose moduli add up to at most 1 (the rows of Q are orthonormal).  4 eps
#: is the most seen through dim 1024; the bound allows four times that.
PART_TOL = 16 * EPS


def laguerre_block(z, size):
    """``<m|D(z)|n>`` for ``m, n < size`` from scipy's generalized Laguerre
    polynomials (Cahill & Glauber), the independent oracle of the block."""
    x = abs(z) ** 2
    m, n = np.indices((size, size))
    lo, hi = np.minimum(m, n), np.maximum(m, n)
    base = np.where(m >= n, z, -np.conj(z))
    ratio = np.exp(0.5 * (gammaln(lo + 1) - gammaln(hi + 1)))
    return ratio * base ** (hi - lo) * math.exp(-x / 2) * eval_genlaguerre(lo, hi - lo, x)


def projector_riesz(dim):
    P = np.zeros((dim, dim), complex)
    P[0, 0] = 1.0
    return make_riesz_map(FockSpace(dim), np.eye(dim) + 1j * P)


class TestWeyl:
    def test_zero_displacement(self):
        space = FockSpace(16)
        np.testing.assert_allclose(weyl(space, 0.0).mat, np.eye(16), atol=1e-15)

    @pytest.mark.parametrize("z", [0.5, 1j, 1 + 1j, 2.0, -1.5j, 3.0])
    def test_unitarity(self, z, space64):
        W = weyl(space64, z).mat
        assert np.linalg.norm(W.conj().T @ W - np.eye(64), 2) <= 1e-11

    @pytest.mark.parametrize("z", [0.3, 1j, 1 + 1j, 2.0, 1.4 - 1.4j])
    def test_group_inverse(self, z, space64):
        W = weyl(space64, z).mat
        Winv = weyl(space64, -z).mat
        assert np.linalg.norm(W @ Winv - np.eye(64), 2) <= 1e-11

    @pytest.mark.parametrize("z", [0.5, 1.0, 1 + 1j, 2.0, -2j])
    def test_vacuum_displacement_matches_series(self, z, space64):
        # two routes to the coherent state: matrix exponential vs series
        W = weyl(space64, z)
        state = coherent(space64, z)
        assert np.linalg.norm(W.mat[:, 0] - state) <= 1e-9

    @pytest.mark.parametrize("dim", [16, 64, 128])
    def test_matches_expm(self, dim):
        # the spectral form against scipy's Pade exponential of the generator
        space = FockSpace(dim)
        c = ladder_c(space).mat
        for z in (0.3 + 0.7j, 1.0, 1 + 1j, 2j, -1.5j, 0.5 * np.exp(2.9j)):
            ref = expm(z * c.conj().T - np.conj(z) * c)
            assert np.linalg.norm(weyl(space, z).mat - ref, 2) <= 1e-13

    @pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63, reason="needs 80-bit long double")
    def test_phase_powers_exact_angles(self):
        # reference: k * arg(u) is exact in a 64-bit significand for k < 2^11;
        # rounding it in float64 would drift to 2e-13 by k = 1023
        u = np.exp(2.9j)
        angle = np.arange(1024, dtype=np.longdouble) * np.longdouble(np.angle(u))
        ref = np.cos(angle).astype(float) + 1j * np.sin(angle).astype(float)
        assert np.abs(_phase_powers(u, 1024) - ref).max() <= 1e-15

    def test_out_of_regime_warns(self):
        space = FockSpace(8)
        with pytest.warns(AccuracyRegimeWarning):
            weyl(space, 3.0)  # |z|^2 = 9 > dim/4 = 2
        assert not in_accuracy_regime(space, 3.0)
        assert in_accuracy_regime(space, 1.0)

    def test_regime_rules_square_z_exactly(self):
        # |1+i|^2 = 2 exactly, where abs(1+1j) ** 2 rounds to 2.0000000000000004:
        # 1+i is on the edge of dim 8's regime, and the factorization margin
        # at dim 16 is min(8, 16 - ceil(4 * 2) - 6) = 2
        assert in_accuracy_regime(FockSpace(8), 1 + 1j)
        assert not in_accuracy_regime(FockSpace(7), 1 + 1j)
        assert _bch_margin(16, 1 + 1j) == 2
        assert _bch_margin(16, 1 + 1.0000001j) == 1

    @settings(max_examples=20, deadline=None)
    @given(bounded_z, bounded_z)
    def test_group_law_phase(self, z, w):
        # W(z) W(w) = e^{i Im(z conj(w))} W(z+w) on the half-space; the
        # product makes excursions up to |z|+|w|, so the tail margin needs
        # the full dim-64 space
        space = FockSpace(64)
        lhs = weyl(space, z).mat @ weyl(space, w).mat
        rhs = np.exp(1j * (z * np.conj(w)).imag) * weyl(space, z + w).mat
        assert np.linalg.norm((lhs - rhs)[:32, :32], 2) <= 1e-8


class TestParityFrame:
    @pytest.mark.parametrize("dim", [17, 64, 65])
    @pytest.mark.parametrize("z", [0.3, 1.0, 1 + 1j, 2j, -1.5j, 0.5 * np.exp(2.9j)])
    def test_entries_real_or_imaginary_by_parity(self, dim, z):
        # in the frame D^* W D of weyl's phases, cos(sqrt(2)|z| X) sits on
        # the entries with m + n even and sin on those with m + n odd,
        # exactly; weyl is that frame with the phases applied, bit for bit
        frame = _parity_frame(dim, abs(z), np.empty((dim, dim), dtype=complex), 0, 0)
        odd = np.add.outer(np.arange(dim), np.arange(dim)) % 2 == 1
        assert np.all(frame.imag[~odd] == 0) and np.all(frame.real[odd] == 0)
        assert np.abs(frame[odd]).max() > 0.1
        diag = _phase_powers(1j * z, dim)
        np.testing.assert_array_equal(weyl(FockSpace(dim), z).mat,
                                      (diag[:, None] * frame) * diag.conj())
        # so do the parts a displacement set and the factorization form, at
        # their own levels, with the frame's entries to a few roundoffs: the
        # square block F[:p, :p], the rows F[:p, p:] beside it and their
        # transpose below it, and the block F[p:k, p:k] on the diagonal;
        # _weyl_block is such a block phased, bit for bit
        for p, k in ((1, 1), (3, 8), (6, dim // 2 + 1), (dim // 2, dim // 2), (2, dim - 1)):
            square = _parity_frame(dim, abs(z), np.empty((p, p), dtype=complex), 0, 0)
            right = _parity_frame(dim, abs(z), np.empty((p, dim - p), dtype=complex), 0, p)
            block = _parity_frame(dim, abs(z), np.empty((k - p, k - p), dtype=complex), p, p)
            for part, (rows, cols) in zip((square, right, right.T, block),
                                          ((slice(p), slice(p)), (slice(p), slice(p, None)),
                                           (slice(p, None), slice(p)), (slice(p, k), slice(p, k)))):
                assert np.all(part.imag[~odd[rows, cols]] == 0)
                assert np.all(part.real[odd[rows, cols]] == 0)
                assert np.abs(part - frame[rows, cols]).max(initial=0) <= PART_TOL
                assert np.abs(part[odd[rows, cols]]).max(initial=1) > 0.01
            np.testing.assert_array_equal(
                _weyl_block(dim, z, np.empty((k - p, k - p), dtype=complex), p),
                (diag[p:k, None] * block) * diag[p:k].conj())

    @pytest.mark.parametrize("dim", [64, 256])
    def test_no_less_accurate_than_full_products(self, dim):
        # the parity blocks against the four dense products they replace,
        # on the Laguerre low block and on unitarity
        lam, Q = np.linalg.eigh(np.diag(np.sqrt(np.arange(1, dim) / 2.0), 1)
                                + np.diag(np.sqrt(np.arange(1, dim) / 2.0), -1))
        for z in (1.0, 1 + 1j, 2j):
            angle = -math.sqrt(2.0) * abs(z) * lam
            diag = _phase_powers(1j * z, dim)
            full = (Q * np.cos(angle)) @ Q.T + 1j * ((Q * np.sin(angle)) @ Q.T)
            full = (diag[:, None] * full) * diag.conj()
            W = weyl(FockSpace(dim), z).mat
            E = _displacement_block(z, dim // 2)
            for X in (W, full):
                assert np.linalg.norm(X @ X.conj().T - np.eye(dim), 2) <= 1e-14
                assert np.linalg.norm(X[:dim // 2, :dim // 2] - E, 2) <= 5e-14


STRIP_MAPS = {
    "identity": lambda space: make_riesz_map(space, np.eye(0)),
    "projector-0": lambda space: projector_map(space, space.basis_vector(0)),
    "projector-5": lambda space: projector_map(space, space.basis_vector(min(5, space.dim - 1))),
    "random": lambda space: random_riesz_map(space, 10.0, seed=1),
    "dense": lambda space: random_riesz_map(space, 10.0, seed=1, top_margin=0),
}


def amplitudes(dim):
    """The README amplitudes and the regime edge ``i sqrt(dim/4)``."""
    return (0.0, 1.0, 1 + 1j, 2j, 1j * math.sqrt(dim / 4))


class TestStrips:
    """The set holds the strips of ``U`` and ``V`` of width ``p``; outside
    them ``U = V = W`` bit for bit."""

    @pytest.mark.parametrize("dim", [4, 5, 16, 17, 64, 65, 256])
    @pytest.mark.parametrize("kind", list(STRIP_MAPS))
    def test_bit_identical_to_dense_transport(self, kind, dim):
        # p = 0, 1, 6, dim/2 and dim: the strips are bit for bit the dense
        # transports of the W(z) whose strips are the phased frame's square
        # block F[:p, :p], the rows F[:p, p:] beside it and their transpose
        # below it, and weyl's entries elsewhere.  Those strips are weyl's
        # entries to a few roundoffs, and bit for bit where they are all of
        # W (p = dim)
        riesz = STRIP_MAPS[kind](FockSpace(dim))
        p = riesz.block
        assert p == {"identity": 0, "projector-0": 1, "projector-5": min(6, dim),
                     "random": dim - dim // 2, "dense": dim}[kind]
        for z in amplitudes(dim):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", AccuracyRegimeWarning)  # 2i at dims below 16
                W = weyl(riesz.space, z).mat
                disp = displaced_pair(riesz, z)
            assembled = W.copy()
            if z != 0:
                frame = np.empty((p, dim), dtype=complex)
                _parity_frame(dim, abs(z), frame[:, :p], 0, 0)
                _parity_frame(dim, abs(z), frame[:, p:], 0, p)
                diag = _phase_powers(1j * z, dim)
                assembled[:p] = (diag[:p, None] * frame) * diag.conj()
                assembled[p:, :p] = (diag[p:, None] * frame[:, p:].T) * diag[:p].conj()
            assert np.abs(assembled - W).max() <= (PART_TOL if p < dim else 0.0)
            S, S_inv = riesz.S_block, riesz.S_inv_block
            U = _transport(S, assembled, S_inv)
            V = _transport(S_inv.conj().T, assembled, S.conj().T)
            assert disp.border == p
            for rows, below, dense in ((disp.U_rows, disp.U_below, U),
                                       (disp.V_rows, disp.V_below, V)):
                np.testing.assert_array_equal(rows, dense[:p])
                np.testing.assert_array_equal(below, dense[p:, :p])
                assert not (rows.flags.writeable or below.flags.writeable)

    def test_dense_displacements_are_kept(self, random_map64):
        # the dense U and V handed to the constructor are kept as strips of
        # width dim, and read back displaced_pair's displacements, to the
        # roundoff of its strips of W carried through S and S^-1
        disp = displaced_pair(random_map64, 1 + 1j)
        U, V = dense_displacements(random_map64, 1 + 1j)
        dense = DisplacementSet(disp.z, U, U[64:], V, V[64:], random_map64)
        assert (dense.border, disp.border) == (64, 32)
        np.testing.assert_array_equal(dense.U_rows, U)
        for held, built in zip(held_displacements(dense), held_displacements(disp)):
            np.testing.assert_allclose(held, built, rtol=0, atol=64 * random_map64.cond * PART_TOL)

    def test_mismatched_strips_refused(self, random_map64):
        disp = displaced_pair(random_map64, 1.0)
        with pytest.raises(DimensionMismatchError):
            DisplacementSet(disp.z, disp.U_rows, disp.U_below[:, :5],
                            disp.V_rows, disp.V_below, random_map64)
        with pytest.raises(DimensionMismatchError):  # rows not q x dim
            DisplacementSet(disp.z, disp.U_rows[:, :63], disp.U_below,
                            disp.V_rows, disp.V_below, random_map64)

    @pytest.mark.parametrize("kind", ["identity", "projector-0", "random", "dense"])
    @pytest.mark.parametrize("dim", [16, 17, 64, 65])
    def test_checks_read_the_same_on_the_block(self, kind, dim):
        # bch_* at any cutoff, and intertwining, read the set as they read
        # the set of the dense U and V (strips of width dim), whose W is
        # weyl's: to the roundoff of the parts of W each forms (PART_TOL)
        # carried through S and S^-1 over dim levels, over each record's
        # denominator
        riesz = STRIP_MAPS[kind](FockSpace(dim))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AccuracyRegimeWarning)
            for z in amplitudes(dim):
                disp = displaced_pair(riesz, z)
                U, V = dense_displacements(riesz, z)
                full = DisplacementSet(disp.z, U, U[dim:], V, V[dim:], riesz)
                for k in sorted({1, min(max(riesz.block, 1), dim - 1), suite._bch_cutoff(dim, z),
                                 dim - 1}):
                    got = (*bch_factorization_check(disp, k), intertwining_check(disp))
                    want = (*bch_factorization_check(full, k), intertwining_check(full))
                    refs = [_spectral_lower_bound(X[:k, :k]) for X in (U, V)]
                    for a, b, ref in zip(got, want, refs + [riesz.frame_bounds[1]]):
                        assert abs(a - b) <= dim * riesz.cond * PART_TOL / ref, (z, k)

    def test_each_entry_held_once(self):
        # each entry of U and V that differs from W once: rows :q and the
        # columns :q below them, in arrays of their own, a few rows of W on
        # the projector map
        for kind in ("projector-0", "random"):
            disp = displaced_pair(STRIP_MAPS[kind](FockSpace(64)), 1 + 1j)
            d, q = 64, disp.border
            arrays = (disp.U_rows, disp.U_below, disp.V_rows, disp.V_below)
            assert sum(x.size for x in arrays) == 2 * (q * d + (d - q) * q)
            assert all(x.dtype == complex and x.base is None for x in arrays)
            if kind == "projector-0":
                assert sum(x.size for x in arrays) <= 4 * d


class TestDisplacementBlock:
    """The closed-form block behind the normal-ordered factorization."""

    @pytest.mark.parametrize("z", [0.05j, 0.3 + 0.7j, 1.0, 1 + 1j, 2j, -2.2 + 1.1j, 3.0])
    def test_matches_laguerre_closed_form(self, z):
        assert np.abs(_displacement_block(z, 64) - laguerre_block(z, 64)).max() <= 1e-13

    @pytest.mark.parametrize("dim", [256, 512])
    def test_matches_wide_spectral_weyl(self, dim):
        # the dim x dim block of W at dimension 3 dim carries no truncation
        # tail at these amplitudes; 0.05j is where a float64 recurrence
        # drifts to 2e-12 at dim 512
        wide = FockSpace(3 * dim)
        for z in (0.05j, 1 + 1j, 2j):
            block = weyl(wide, z).mat[:dim, :dim]
            assert np.abs(_displacement_block(z, dim) - block).max() <= 1e-13

    def test_dim1024_finite_and_nested(self):
        # the unscaled recurrence overflows here; the scaled one may only
        # underflow, and a larger block extends a smaller one
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            big = _displacement_block(2j, 1024)
        assert np.all(np.isfinite(big))
        assert np.abs(big[:512, :512] - _displacement_block(2j, 512)).max() <= 1e-13

    def test_zero_amplitude_is_identity(self):
        np.testing.assert_array_equal(_displacement_block(0.0, 16), np.eye(16))


class TestDisplacedPair:
    def test_unitary_case_collapses(self, space64):
        riesz = make_riesz_map(space64, np.eye(0))
        disp = displaced_pair(riesz, 1.0 + 0.5j)
        W = weyl(space64, 1.0 + 0.5j).mat
        for X in held_displacements(disp):
            np.testing.assert_allclose(X, W, atol=1e-14)

    def test_zero_displacement(self, random_map64):
        disp = displaced_pair(random_map64, 0.0)
        for X in held_displacements(disp):
            np.testing.assert_allclose(X, np.eye(64), atol=1e-13)

    def test_regime_flag(self, random_map64):
        assert in_accuracy_regime(random_map64.space, 1.0)
        with pytest.warns(AccuracyRegimeWarning):
            displaced_pair(random_map64, 5.0)
        assert not in_accuracy_regime(random_map64.space, 5.0)

    def test_norm_bounded_by_cond(self, all_maps64):
        # W is unitary, so the similarity bound ||U|| <= cond holds
        for riesz in all_maps64:
            for z in (1.0, 1 + 1j, 2j):
                bound = riesz.cond * (1 + 1e-10)
                for X in held_displacements(displaced_pair(riesz, z)):
                    assert np.linalg.norm(X, 2) <= bound


class TestPowerSimilarity:
    def test_banded_update_matches_dense_product(self, random_map64):
        z = 1.3 - 0.4j
        c = ladder_c(random_map64.space).mat
        G = z * c.conj().T - np.conj(z) * c
        T = random_map64.S.mat[:59]
        np.testing.assert_allclose(_times_generator(T, z), T @ G, rtol=0, atol=1e-13)
        for width in (1, 2):  # the last column is zeroed, never left uninitialised
            np.testing.assert_allclose(_times_generator(T[:, :width], z),
                                       T[:, :width] @ G[:width, :width], rtol=0, atol=1e-13)

    @pytest.mark.parametrize("kind", ["projector", "random", "dense", "perturbed"])
    def test_bordered_powers_match_dense_products(self, kind, projector_map64, random_map64):
        # D^k carried as D^{k-1} G with the columns where D is not G redone
        # equals the dense D^{k-1} D to roundoff, on a map deformed at level
        # 0, one deformed on its lower half, one deformed everywhere, and
        # the projector pair with b[40, 39] moved, where the border comes
        # from the pair, not from the map; on all 64 columns, and on the
        # narrow strip power_similarity carries, outside which D^k is 0
        riesz = {"projector": projector_map64, "random": random_map64,
                 "dense": random_riesz_map(random_map64.space, 10.0, seed=4, top_margin=0),
                 "perturbed": projector_map64}[kind]
        pair, z = make_pair(riesz), 1.3 - 0.4j
        if kind == "perturbed":
            pair = with_entry(pair, "b", (40, 39), 1 + 1e-4)
            assert pair.border == 40
        D = z * pair.b.mat + (-np.conj(z)) * pair.a.mat
        rows = min(59, max(riesz.block, pair.border) + 6)
        cols = min(64, rows + 6)
        dense = D[:59]
        for k, (Dk, strip) in enumerate(zip(_strip_powers(pair, z, 59, 64, 6),
                                            _strip_powers(pair, z, rows, cols, 6)), 1):
            dense = dense @ D if k > 1 else dense
            assert Dk.shape == (59, 64) and strip.shape == (rows, cols)
            assert np.abs(Dk - dense).max() <= 1e-14 * np.abs(dense).max()
            assert np.abs(strip - dense[:rows, :cols]).max() <= 1e-14 * np.abs(dense).max()
            assert not dense[:rows, cols:].any()

    @pytest.mark.parametrize("entry", [(1, 0), (40, 39)], ids=["inside", "outside"])
    @pytest.mark.parametrize("kind", ["projector", "random"])
    def test_perturbed_b_fails(self, entry, kind, projector_map64, random_map64):
        # negative control: one entry of b moved by 1e-4 relative, inside the
        # deformed block and in the canonical tail
        riesz = projector_map64 if kind == "projector" else random_map64
        pair = make_pair(riesz)
        bad = with_entry(pair, "b", entry, 1 + 1e-4)
        tol = default_tolerance("power_similarity", riesz.cond)
        assert power_similarity_check(pair, 1 + 1j).max() <= tol
        for z in (1.0, 1 + 1j, 2j):
            assert power_similarity_check(bad, z).max() > tol

    @pytest.mark.parametrize("dim", [64, 256, 1024])
    @pytest.mark.parametrize("op, entry", [("a", (0, 1)), ("b", (5, 4))])
    def test_border_fault_fails_at_every_dim(self, op, entry, dim):
        # a 1e-6 relative fault in the projector pair's border stays visible
        # as the space grows: the denominator reads rows the map fixes, so
        # it does not grow with dim
        space = FockSpace(dim)
        riesz = projector_map(space, space.basis_vector(0))
        bad = with_entry(make_pair(riesz), op, entry, 1 + 1e-6)
        tol = default_tolerance("power_similarity", riesz.cond)
        for z in (1.0, 1 + 1j, 2j):
            assert power_similarity_check(bad, z).max() > tol

    def test_k0_residual_zero(self, random_map64):
        residuals = power_similarity_check(make_pair(random_map64), 1 + 1j)
        assert residuals[0] == 0.0

    def test_k1_construction_identity(self, random_map64):
        residuals = power_similarity_check(make_pair(random_map64), 1 + 1j)
        assert residuals[1] <= 1e-11 * random_map64.cond

    @pytest.mark.parametrize("z", [1.0, 1 + 1j, 2j, 0.5 - 1.2j])
    def test_k5_random_maps(self, z, all_maps64):
        for riesz in all_maps64:
            residuals = power_similarity_check(make_pair(riesz), z)
            assert residuals.max() <= 1e-7
            assert residuals.shape == (6,)  # k = 0 .. 5

    @pytest.mark.parametrize("dim", [4, 5])
    def test_margin_wider_than_the_space_keeps_one_level(self, dim):
        # the 5-level margin leaves no level at dims 4 and 5: the check reads
        # the first level instead of refusing the cutoff
        riesz = random_riesz_map(FockSpace(dim), 10.0, seed=1)
        residuals = power_similarity_check(make_pair(riesz), 1.0)
        assert residuals.shape == (6,) and residuals.max() <= 1e-7


def stepwise_block(z, d):
    """:func:`_displacement_block` with each coefficient of the long-double
    Laguerre recurrence formed in the step that reads it, and the phases
    ``(z/|z|)^(m-n)`` below the diagonal, ``(-conj(z)/|z|)^(n-m)`` above."""
    x = np.longdouble(abs(z) ** 2)
    k = np.arange(d, dtype=np.longdouble)
    log_fact = np.array([math.lgamma(j + 1.0) for j in range(d)], dtype=np.longdouble)
    e_prev = np.zeros(d, dtype=np.longdouble)
    e = np.exp(k * np.longdouble(math.log(abs(z))) - log_fact / 2 - x / 2)
    scaled = np.zeros((d, d))
    for n in range(d):
        live = d - n
        scaled[n:, n] = e[:live]
        kl = k[:live]
        step = (2 * n + 1 + kl - x) * e[:live] - np.sqrt(n * (n + kl)) * e_prev[:live]
        e_prev, e = e[:live], step / np.sqrt((n + 1) * (n + 1 + kl))
    scaled += np.triu(scaled.T, 1)
    m, n = np.indices((d, d))
    phase = np.where(m >= n, _phase_powers(z, d)[(m - n).clip(0)],
                     _phase_powers(-np.conj(z), d)[(n - m).clip(0)])
    return scaled * phase


class TestBchFactorization:
    @pytest.mark.parametrize("d", [1, 2, 17, 128, 256])
    @pytest.mark.parametrize("z", [1.0, 1 + 1j, 2j, 1e-3, 0.3 - 2.2j])
    def test_coefficient_tables_keep_every_bit(self, z, d):
        # the recurrence reads its coefficients from tables built before the
        # loop; each entry is rounded once, as the step that formed it in
        # place rounded it, so every modulus is the stepwise one bit for bit
        np.testing.assert_array_equal(_displacement_block(z, d), stepwise_block(z, d))

    @settings(max_examples=40, deadline=None)
    @given(st.complex_numbers(min_magnitude=1e-3, max_magnitude=6.0, allow_nan=False,
                              allow_infinity=False), st.integers(1, 48))
    def test_leading_block_is_bit_identical(self, z, k):
        # each diagonal's recurrence is independent of the block size, so
        # the check may take the block its transports read
        np.testing.assert_array_equal(_displacement_block(z, k),
                                      _displacement_block(z, 48)[:k, :k])

    def test_zero_displacement(self, random_map64):
        residuals = bch_factorization_check(displaced_pair(random_map64, 0.0), 32)
        assert max(residuals) <= 1e-14

    def test_identity_map_half_space(self, space64):
        riesz = make_riesz_map(space64, np.eye(0))
        residuals = bch_factorization_check(displaced_pair(riesz, 1.0), 32)
        assert max(residuals) <= 1e-8

    def test_monotone_decay_fixed_cutoff(self):
        # the truncation tail shrinks as the space grows, at fixed z and
        # cutoff: up to dim 20 it dominates and falls by at least 100x per
        # two levels; from dim 22 on the residual sits at the roundoff
        # floor, where the order of two dims is luck, so dims 32 and 64 are
        # read against a bound.  At dim 16 the cutoff 8 lies above the
        # margin min(8, 16 - ceil(4) - 6) = 6, and only there the check warns
        residuals = []
        for dim in (16, 18, 20, 32, 64):
            disp = displaced_pair(projector_riesz(dim), 1.0)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                residuals.append(max(bch_factorization_check(disp, 8)))
            assert [w.category for w in caught] == ([AccuracyRegimeWarning] if dim == 16 else [])
        tail, floor = residuals[:3], residuals[3:]
        assert all(a >= 100 * b for a, b in zip(tail, tail[1:]))
        assert max(floor) <= 1e-14
        assert residuals[0] > 1e-9  # dim 16 is visibly tail-limited

    def test_margin_violation_warns(self):
        space = FockSpace(16)
        riesz = make_riesz_map(space, np.eye(0))
        disp = displaced_pair(riesz, 2.0)  # |z|^2 = dim/4: inside the regime
        with pytest.warns(AccuracyRegimeWarning):
            # cutoff 15 > min(dim // 2, dim - ceil(4|z|^2) - 6) = min(8, -6)
            bch_factorization_check(disp, 15)

    @pytest.mark.parametrize("dim", [4, 5, 8, 12, 16, 24, 32, 40])
    def test_warns_exactly_where_the_record_is_out_of_regime(self, dim):
        # one margin rule: inside the amplitude regime the check warns at a
        # cutoff iff _bch_margin is below it, and the recorder grades a bch_u
        # record at that cutoff out-of-regime iff the same holds
        riesz = random_riesz_map(FockSpace(dim), 10.0, seed=1)
        rec = suite._Recorder(riesz, 0.0)
        for z in (0, 1, 1 + 1j, 2j):
            if not in_accuracy_regime(riesz.space, z):
                continue
            disp = displaced_pair(riesz, z)
            for cutoff in range(1, dim):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    r_u, _ = bch_factorization_check(disp, cutoff)
                above = cutoff > _bch_margin(dim, z)
                assert [w.category for w in caught] == [AccuracyRegimeWarning] * above
                rec.add("bch_u", r_u, z, cutoff=cutoff)
                assert (rec.reports[-1].status == "out-of-regime") == above, (z, cutoff)

    def test_sides_reported_separately(self, random_map64):
        # (r_u, r_v) are the U and V sides, in that order: perturb the two
        # sides by different amounts and rebuild both residuals from the
        # Laguerre closed form, mapped through S.  Each is the exact norm of
        # the difference over the lower bound of the reference's norm, so it
        # lies between the exact relative residual and sqrt(32) times it
        U, V = held_displacements(displaced_pair(random_map64, 1.0))
        rng = np.random.default_rng(5)
        U = U + 1e-6 * rng.standard_normal((64, 64))
        V = V + 1e-4 * rng.standard_normal((64, 64))
        disp = DisplacementSet(1 + 0j, U, U[64:], V, V[64:], random_map64)
        r_u, r_v = bch_factorization_check(disp, 32)
        E = laguerre_block(1.0, 64)
        S, S_inv = random_map64.S.mat, random_map64.S_inv.mat
        U_fact = S @ E @ S_inv
        V_fact = S_inv.conj().T @ E @ S.conj().T
        for r, built, fact in ((r_u, U, U_fact), (r_v, V, V_fact)):
            diff, ref = np.linalg.norm((built - fact)[:32, :32], 2), built[:32, :32]
            assert r == pytest.approx(diff / _spectral_lower_bound(ref), rel=1e-6, abs=1e-18)
            exact = diff / np.linalg.norm(ref, 2)
            assert exact * (1 - 1e-6) <= r <= math.sqrt(32) * exact * (1 + 1e-6)
        assert r_v > 10 * r_u

    def test_matches_exponential_route(self, random_map64):
        # at dim 64 and z = 1 the exponentials of the pair are still accurate
        # (they agree with the closed form to about 2e-12), which pins the
        # closed-form factor to the definition e^{-|z|^2/2} e^{z b} e^{-conj(z) a}
        pair = make_pair(random_map64)
        a, b = pair.a.mat, pair.b.mat
        S, S_inv = random_map64.S.mat, random_map64.S_inv.mat
        E = _displacement_block(1.0, 64)
        gauss = np.exp(-0.5)
        routes = (
            (gauss * (expm(b) @ expm(-a)), S @ E @ S_inv),
            (gauss * (expm(a.conj().T) @ expm(-b.conj().T)), S_inv.conj().T @ E @ S.conj().T),
        )
        for by_expm, closed in routes:
            diff = np.linalg.norm((by_expm - closed)[:32, :32], 2)
            assert diff <= 1e-10 * np.linalg.norm(closed[:32, :32], 2)


class TestIntertwining:
    def test_reference_norm_is_upper_frame_bound(self, all_maps64):
        # the residual divides by sigma_max(S)^2 = ||S S^dag||
        for riesz in all_maps64:
            M = riesz.theta_inv.mat
            assert riesz.frame_bounds[1] == pytest.approx(np.linalg.norm(M, 2), rel=1e-13)
            disp = displaced_pair(riesz, 1 + 1j)
            U, V = held_displacements(disp)
            diff = np.linalg.norm((M @ V - U @ M)[:63, :63], 2)
            assert intertwining_check(disp) == pytest.approx(
                diff / np.linalg.norm(M, 2), rel=1e-12)

    def test_unitary_case(self, space64):
        riesz = make_riesz_map(space64, np.eye(0))
        residual = intertwining_check(displaced_pair(riesz, 1.0))
        assert residual <= 1e-13

    def test_projector_dim32(self):
        riesz = projector_riesz(32)
        residual = intertwining_check(displaced_pair(riesz, 1.0))
        assert residual <= 1e-11

    def test_twenty_random_amplitudes(self, all_maps64):
        rng = np.random.default_rng(17)
        zs = 2.0 * rng.uniform(0, 1, 20) * np.exp(2j * np.pi * rng.uniform(0, 1, 20))
        for riesz in all_maps64:
            for z in zs:
                assert intertwining_check(displaced_pair(riesz, complex(z))) <= 1e-9

    def test_both_sides_equal_s_w_sdag(self, random_map64):
        # the identity telescopes: S S^dag V(z) = S W(z) S^dag = U(z) S S^dag
        z = 0.7 - 0.3j
        disp = displaced_pair(random_map64, z)
        Sm = random_map64.S.mat
        middle = Sm @ weyl(random_map64.space, z).mat @ Sm.conj().T
        M = Sm @ Sm.conj().T
        U, V = held_displacements(disp)
        assert np.linalg.norm(M @ V - middle, 2) <= 1e-12 * np.linalg.norm(middle, 2)
        assert np.linalg.norm(U @ M - middle, 2) <= 1e-12 * np.linalg.norm(middle, 2)
