import dataclasses
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
    ProvenanceError,
    SafeSubspace,
    bch_factorization_check,
    coherent,
    displaced_pair,
    in_accuracy_regime,
    intertwining_check,
    make_pair,
    make_riesz_map,
    make_space,
    metric_operator,
    power_similarity_check,
    weyl,
)
from pseudoboson.displacement import _displacement_block, _phase_powers, _times_generator
from pseudoboson.fock import Operator, identity, ladder_c

bounded_z = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)


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
    return make_riesz_map(Operator(make_space(dim), np.eye(dim) + 1j * P))


class TestWeyl:
    def test_zero_displacement(self):
        space = make_space(16)
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
        assert np.linalg.norm(W.mat[:, 0] - state.vec) <= 1e-9

    @pytest.mark.parametrize("dim", [16, 64, 128])
    def test_matches_expm(self, dim):
        # the spectral form against scipy's Pade exponential of the generator
        space = make_space(dim)
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
        space = make_space(8)
        with pytest.warns(AccuracyRegimeWarning):
            weyl(space, 3.0)  # |z|^2 = 9 > dim/4 = 2
        assert not in_accuracy_regime(space, 3.0)
        assert in_accuracy_regime(space, 1.0)

    @settings(max_examples=20, deadline=None)
    @given(bounded_z, bounded_z)
    def test_group_law_phase(self, z, w):
        # W(z) W(w) = e^{i Im(z conj(w))} W(z+w) on the half-space; the
        # product makes excursions up to |z|+|w|, so the tail margin needs
        # the full dim-64 space
        space = make_space(64)
        lhs = weyl(space, z).mat @ weyl(space, w).mat
        rhs = np.exp(1j * (z * np.conj(w)).imag) * weyl(space, z + w).mat
        assert np.linalg.norm((lhs - rhs)[:32, :32], 2) <= 1e-8


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
        wide = make_space(3 * dim)
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
        riesz = make_riesz_map(identity(space64))
        disp = displaced_pair(riesz, 1.0 + 0.5j)
        np.testing.assert_allclose(disp.U.mat, disp.W.mat, atol=1e-14)
        np.testing.assert_allclose(disp.V.mat, disp.W.mat, atol=1e-14)

    def test_zero_displacement(self, random_map64):
        disp = displaced_pair(random_map64, 0.0)
        np.testing.assert_allclose(disp.U.mat, np.eye(64), atol=1e-13)
        np.testing.assert_allclose(disp.V.mat, np.eye(64), atol=1e-13)

    def test_regime_flag(self, random_map64):
        assert displaced_pair(random_map64, 1.0).in_regime
        with pytest.warns(AccuracyRegimeWarning):
            disp = displaced_pair(random_map64, 5.0)
        assert not disp.in_regime

    def test_norm_bounded_by_cond(self, all_maps64):
        # W is unitary, so the similarity bound ||U|| <= cond holds
        for riesz in all_maps64:
            for z in (1.0, 1 + 1j, 2j):
                disp = displaced_pair(riesz, z)
                bound = riesz.cond * (1 + 1e-10)
                assert np.linalg.norm(disp.U.mat, 2) <= bound
                assert np.linalg.norm(disp.V.mat, 2) <= bound


class TestPowerSimilarity:
    def test_banded_update_matches_dense_product(self, random_map64):
        z = 1.3 - 0.4j
        c = ladder_c(random_map64.space).mat
        G = z * c.conj().T - np.conj(z) * c
        T = random_map64.S.mat[:59]
        np.testing.assert_allclose(_times_generator(T, z), T @ G, rtol=0, atol=1e-13)

    def test_k0_residual_zero(self, random_map64):
        residuals = power_similarity_check(make_pair(random_map64), 1 + 1j, k_max=0)
        assert residuals[0] == 0.0

    def test_k1_construction_identity(self, random_map64):
        residuals = power_similarity_check(make_pair(random_map64), 1 + 1j, k_max=1)
        assert residuals[1] <= 1e-11 * random_map64.cond

    @pytest.mark.parametrize("z", [1.0, 1 + 1j, 2j, 0.5 - 1.2j])
    def test_k5_random_maps(self, z, all_maps64):
        for riesz in all_maps64:
            residuals = power_similarity_check(make_pair(riesz), z, k_max=5)
            assert residuals.max() <= 1e-7
            assert residuals.shape == (6,)  # k = 0 .. 5

    def test_k12_supported(self, projector_map64):
        residuals = power_similarity_check(make_pair(projector_map64.riesz), 1.0, k_max=12)
        assert residuals.max() <= 1e-7

    def test_k_out_of_range(self, random_map64):
        with pytest.raises(ValueError):
            power_similarity_check(make_pair(random_map64), 1.0, k_max=13)


class TestBchFactorization:
    def test_zero_displacement(self, random_map64):
        sub = SafeSubspace(random_map64.space, 32)
        residuals = bch_factorization_check(
            make_pair(random_map64), displaced_pair(random_map64, 0.0), sub
        )
        assert max(residuals) <= 1e-14

    def test_identity_map_half_space(self, space64):
        riesz = make_riesz_map(identity(space64))
        residuals = bch_factorization_check(
            make_pair(riesz), displaced_pair(riesz, 1.0), SafeSubspace(space64, 32)
        )
        assert max(residuals) <= 1e-8

    def test_monotone_decay_fixed_cutoff(self):
        # truncation tail shrinks as the space grows, at fixed z and cutoff
        residuals = []
        for dim in (16, 32, 64):
            riesz = projector_riesz(dim)
            residuals.append(max(bch_factorization_check(
                make_pair(riesz), displaced_pair(riesz, 1.0), SafeSubspace(riesz.space, 8)
            )))
        assert residuals[0] >= residuals[1] >= residuals[2]
        assert residuals[0] > 1e-9  # dim 16 is visibly tail-limited

    def test_margin_violation_warns(self):
        space = make_space(16)
        riesz = make_riesz_map(identity(space))
        disp = displaced_pair(riesz, 2.0)  # |z|^2 = dim/4: inside the regime
        with pytest.warns(AccuracyRegimeWarning):
            # cutoff 15 > dim - ceil(4|z|^2) = 16 - 16 = 0
            bch_factorization_check(make_pair(riesz), disp, SafeSubspace(space, 15))

    def test_sides_reported_separately(self, random_map64):
        # (r_u, r_v) are the U and V sides, in that order: perturb the two
        # sides by different amounts and rebuild both residuals from the
        # Laguerre closed form, mapped through S
        pair, disp = make_pair(random_map64), displaced_pair(random_map64, 1.0)
        rng = np.random.default_rng(5)
        space = random_map64.space
        disp = dataclasses.replace(
            disp,
            U=Operator(space, disp.U.mat + 1e-6 * rng.standard_normal((64, 64))),
            V=Operator(space, disp.V.mat + 1e-4 * rng.standard_normal((64, 64))),
        )
        r_u, r_v = bch_factorization_check(pair, disp, SafeSubspace(space, 32))
        E = laguerre_block(1.0, 64)
        S, S_inv = random_map64.S.mat, random_map64.S_inv.mat
        U_fact = S @ E @ S_inv
        V_fact = S_inv.conj().T @ E @ S.conj().T
        for r, built, fact in ((r_u, disp.U.mat, U_fact), (r_v, disp.V.mat, V_fact)):
            want = (np.linalg.norm((built - fact)[:32, :32], 2)
                    / np.linalg.norm(built[:32, :32], 2))
            assert r == pytest.approx(want, rel=1e-6, abs=1e-18)
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

    def test_provenance_mismatch(self, random_maps64):
        first, other = random_maps64[:2]
        with pytest.raises(ProvenanceError):
            bch_factorization_check(
                make_pair(first), displaced_pair(other, 1.0), SafeSubspace(first.space, 32)
            )


class TestIntertwining:
    def test_reference_norm_is_upper_frame_bound(self, all_maps64):
        # the residual divides by sigma_max(S)^2 = ||S S^dag||
        sub = SafeSubspace(make_space(64), 63)
        for riesz in all_maps64:
            met = metric_operator(riesz)
            M = met.theta_inv.mat
            assert riesz.frame_bounds[1] == pytest.approx(np.linalg.norm(M, 2), rel=1e-13)
            disp = displaced_pair(riesz, 1 + 1j)
            diff = np.linalg.norm((M @ disp.V.mat - disp.U.mat @ M)[:63, :63], 2)
            assert intertwining_check(disp, met, sub) == pytest.approx(
                diff / np.linalg.norm(M, 2), rel=1e-12)

    def test_unitary_case(self, space64):
        riesz = make_riesz_map(identity(space64))
        residual = intertwining_check(
            displaced_pair(riesz, 1.0), metric_operator(riesz), SafeSubspace(space64, 63)
        )
        assert residual <= 1e-13

    def test_projector_dim32(self):
        riesz = projector_riesz(32)
        residual = intertwining_check(
            displaced_pair(riesz, 1.0), metric_operator(riesz), SafeSubspace(riesz.space, 31)
        )
        assert residual <= 1e-11

    def test_twenty_random_amplitudes(self, all_maps64):
        rng = np.random.default_rng(17)
        zs = 2.0 * rng.uniform(0, 1, 20) * np.exp(2j * np.pi * rng.uniform(0, 1, 20))
        sub = SafeSubspace(make_space(64), 63)
        for riesz in all_maps64:
            met = metric_operator(riesz)
            for z in zs:
                assert intertwining_check(displaced_pair(riesz, complex(z)), met, sub) <= 1e-9

    def test_provenance_mismatch(self, random_maps64):
        first, other = random_maps64[:2]
        with pytest.raises(ProvenanceError):
            intertwining_check(
                displaced_pair(first, 1.0), metric_operator(other), SafeSubspace(first.space, 63)
            )

    def test_both_sides_equal_s_w_sdag(self, random_map64):
        # the identity telescopes: S S^dag V(z) = S W(z) S^dag = U(z) S S^dag
        z = 0.7 - 0.3j
        disp = displaced_pair(random_map64, z)
        Sm = random_map64.S.mat
        middle = Sm @ disp.W.mat @ Sm.conj().T
        M = Sm @ Sm.conj().T
        assert np.linalg.norm(M @ disp.V.mat - middle, 2) <= 1e-12 * np.linalg.norm(middle, 2)
        assert np.linalg.norm(disp.U.mat @ M - middle, 2) <= 1e-12 * np.linalg.norm(middle, 2)
