import csv
import warnings

import numpy as np
import pytest

from pseudoboson import (
    ValidationError,
    coherent,
    coherent_wavefunction,
    cross_validate,
    example_wavefunctions,
    gauss_hermite_grid,
    hermite_basis,
    hermite_stack,
    make_riesz_map,
    make_space,
    projector_map,
    random_riesz_map,
    write_wavefunction_csv,
)
from pseudoboson.fock import identity

# spot values frozen from 30-digit evaluation of the closed forms
PHI_1_AT_0 = 0.276323645547 + 0.455580672011j
PSI_1_AT_0 = 0.0485333095417 + 0.227790336006j


class TestHermiteBasis:
    def test_ground_state_at_origin(self):
        assert hermite_basis(0, 0.0) == pytest.approx(np.pi ** -0.25, abs=1e-12)

    def test_first_excited_is_odd(self):
        assert hermite_basis(1, 0.0) == 0.0

    def test_orthonormality_by_quadrature(self):
        x, w = gauss_hermite_grid(80)
        stack = hermite_stack(32, x)
        gram = (stack * w) @ stack.T
        assert np.abs(gram - np.eye(33)).max() <= 1e-10

    def test_grid_built_once_per_order(self):
        # cross_validate asks for the same grid at every amplitude
        x, w = gauss_hermite_grid(80)
        again = gauss_hermite_grid(80)
        assert again[0] is x and again[1] is w
        assert not x.flags.writeable and not w.flags.writeable

    def test_grid_weights_finite_at_high_order(self):
        # order 522 (dim 512) has nodes past |x| = 26.6, where w e^{x^2}
        # overflows; the Christoffel weights must stay finite and exact
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            x, w = gauss_hermite_grid(522)
        assert np.all(np.isfinite(w) & (w > 0.0))
        stack = hermite_stack(521, x)
        assert np.abs((stack * w) @ stack.T - np.eye(522)).max() <= 1e-13

    def test_grid_matches_scipy(self):
        from scipy.special import roots_hermite

        x, w = gauss_hermite_grid(80)
        x_ref, w_ref = roots_hermite(80)
        assert np.all(np.abs(x - x_ref) <= 1e-12 * np.abs(x_ref))
        # the grid's weights carry the factor e^{x^2} of plain dx integrals
        assert np.all(np.abs(w * np.exp(-x**2) - w_ref) <= 1e-11 * w_ref)

    def test_against_direct_hermite_formula(self):
        # independent route: physicists' Hermite polynomial with explicit
        # normalization
        from math import factorial, sqrt

        from scipy.special import eval_hermite

        x = np.linspace(-5, 5, 101)
        for n in (0, 1, 5, 12):
            direct = eval_hermite(n, x) * np.exp(-0.5 * x**2) / sqrt(
                2.0**n * factorial(n) * np.sqrt(np.pi)
            )
            np.testing.assert_allclose(hermite_stack(n, x)[n], direct, atol=1e-12)

    def test_matches_mpmath_at_large_x(self):
        # the recurrence is rescaled and the Gaussian applied in log space,
        # so nodes past |x| = 40 (where exp(-x^2/2) underflows) stay accurate
        import mpmath

        xs = [0.3, 5.0, 26.0, 40.5, 44.9, 50.0]
        ns = [0, 1, 7, 100, 500, 1000, 1033]
        stack = hermite_stack(max(ns), np.array(xs))
        with mpmath.workdps(40):
            for j, x in enumerate(map(mpmath.mpf, xs)):
                for n in ns:
                    want = mpmath.hermite(n, x) * mpmath.exp(-x**2 / 2) / mpmath.sqrt(
                        2**n * mpmath.factorial(n) * mpmath.sqrt(mpmath.pi))
                    assert abs(stack[n, j] - float(want)) <= 1e-13, (xs[j], n)

    def test_orthonormal_on_order_1034_grid(self):
        # the grid of a dim-1024 cross-validation reaches |x| = 44.9
        x, w = gauss_hermite_grid(1034)
        assert np.abs(x).max() > 40.0
        stack = hermite_stack(1033, x)
        assert np.abs((stack * w) @ stack.T - np.eye(1034)).max() <= 1e-13


class TestCoherentWavefunction:
    def test_vacuum_profile(self):
        x = np.linspace(-4, 4, 41)
        np.testing.assert_allclose(
            coherent_wavefunction(0.0, x), hermite_stack(0, x)[0], atol=1e-14
        )

    def test_spot_value(self):
        # pi^{-1/4} e^{-1}, evaluated directly
        got = complex(coherent_wavefunction(1.0, np.array([0.0]))[0])
        assert got == pytest.approx(0.276323645547, abs=1e-9)

    def test_normalized(self):
        x, w = gauss_hermite_grid(60)
        for z in (0.5, 1 + 1j, 2j):
            profile = coherent_wavefunction(z, x)
            assert np.sum(w * np.abs(profile) ** 2) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("z", [0.5, 1.0, 1 + 1j, 2j])
    def test_annihilation_eigenrelation_finite_differences(self, z):
        # ((x + d/dx)/sqrt(2)) Phi_z = z Phi_z, central differences
        x = np.linspace(-6.0, 6.0, 601)
        h = 1e-5
        phi = coherent_wavefunction(z, x)
        dphi = (coherent_wavefunction(z, x + h) - coherent_wavefunction(z, x - h)) / (2 * h)
        residual = np.abs((x * phi + dphi) / np.sqrt(2.0) - z * phi)
        assert residual.max() <= 1e-6

    def test_ground_state_overlap_phase(self):
        # quadrature oracle: <e_0, Phi_z> = exp(-|z|^2/2 + i Re(z) Im(z))
        x, w = gauss_hermite_grid(80)
        e0 = hermite_stack(0, x)[0]
        for z in (1.0, 1 + 1j, 2j, 0.5 - 1.5j):
            overlap = np.sum(w * e0 * coherent_wavefunction(z, x))
            want = np.exp(-abs(z) ** 2 / 2 + 1j * z.real * z.imag)
            assert abs(overlap - want) <= 1e-9


class TestProjectorMap:
    def test_ground_projector_matrices(self):
        space = make_space(6)
        pmap = projector_map(space, space.basis_vector(0))
        T = np.eye(6, dtype=complex)
        T[0, 0] = 1 + 1j
        np.testing.assert_array_equal(pmap.T.mat, T)

    def test_closed_form_inverse(self, projector_map64):
        prod = projector_map64.T.mat @ projector_map64.T_inv.mat
        assert np.linalg.norm(prod - np.eye(64), 2) <= 1e-14

    def test_singular_values(self, projector_map64):
        sigma = np.linalg.svd(projector_map64.T.mat, compute_uv=False)
        assert sigma[0] == pytest.approx(np.sqrt(2.0), abs=1e-12)
        np.testing.assert_allclose(sigma[1:], 1.0, atol=1e-12)

    def test_frame_bounds(self, projector_map64):
        A, B = projector_map64.riesz.frame_bounds
        assert A == pytest.approx(1.0, abs=1e-10)
        assert B == pytest.approx(2.0, abs=1e-10)

    def test_non_unit_vector_rejected(self):
        space = make_space(4)
        with pytest.raises(ValidationError):
            projector_map(space, 2.0 * space.basis_vector(0))

    def test_general_projector_same_algebra(self):
        # u = e_3 gives the same frame bounds and inverse identity
        space = make_space(16)
        pmap = projector_map(space, space.basis_vector(3))
        assert np.linalg.norm(pmap.T.mat @ pmap.T_inv.mat - np.eye(16), 2) <= 1e-14
        A, B = pmap.riesz.frame_bounds
        assert (A, B) == pytest.approx((1.0, 2.0), abs=1e-10)

    def test_general_projector_preserves_pairing(self):
        space = make_space(64)
        pmap = projector_map(space, space.basis_vector(3))
        for z in (1.0, 1 + 1j, 2j):
            vec = coherent(space, z).vec
            phi = pmap.T.mat @ vec
            psi = pmap.T_inv.mat.conj().T @ vec
            assert abs(np.vdot(phi, psi) - 1.0) <= 1e-12


class TestExampleWavefunctions:
    def test_spot_values_at_origin(self):
        phi, psi = example_wavefunctions(1.0, np.array([0.0]))
        assert abs(phi[0] - PHI_1_AT_0) <= 1e-6
        assert abs(psi[0] - PSI_1_AT_0) <= 1e-6

    def test_zero_amplitude(self):
        x = np.linspace(-3, 3, 31)
        e0 = hermite_stack(0, x)[0]
        phi, psi = example_wavefunctions(0.0, x)
        np.testing.assert_allclose(phi, e0 * (1 + 1j), atol=1e-14)
        np.testing.assert_allclose(psi, e0 * (1 + 1j) / 2, atol=1e-14)

    @pytest.mark.parametrize("z", [1.0, 1 + 1j, 2j, 0.3 - 1.1j])
    def test_unit_pairing_by_quadrature(self, z):
        x, w = gauss_hermite_grid(80)
        phi, psi = example_wavefunctions(z, x)
        pairing = np.sum(w * np.conj(phi) * psi)
        assert abs(pairing - 1.0) <= 1e-9

    def test_unit_pairing_sampled_disk(self):
        # twenty amplitudes across the |z| <= 2 disk
        rng = np.random.default_rng(12)
        x, w = gauss_hermite_grid(80)
        zs = 2.0 * np.sqrt(rng.uniform(0, 1, 20)) * np.exp(2j * np.pi * rng.uniform(0, 1, 20))
        for z in zs:
            phi, psi = example_wavefunctions(complex(z), x)
            assert abs(np.sum(w * np.conj(phi) * psi) - 1.0) <= 1e-9


def ground_projector(dim):
    space = make_space(dim)
    return projector_map(space, space.basis_vector(0)).riesz


class TestCrossValidation:
    def test_zero_amplitude(self):
        cv = cross_validate(0.0, ground_projector(32))
        assert max(cv.max_dev_phi, cv.max_dev_psi) <= 1e-12
        assert abs(cv.pairing - 1.0) <= 1e-12

    @pytest.mark.parametrize("z", [1.0, 1 + 1j, 2j])
    def test_closed_form_matches_fock_route(self, z, projector_map64):
        cv = cross_validate(z, projector_map64.riesz)
        assert cv.l2_dev_phi <= 1e-8
        assert cv.l2_dev_psi <= 1e-8
        assert abs(cv.pairing - 1.0) <= 1e-9

    def test_dim_1024_within_acceptance_bounds(self):
        # its order-1034 grid reaches past |x| = 40; every amplitude computes
        riesz = ground_projector(1024)
        for z in (0.0, 1.0, 1 + 1j, 2j):
            cv = cross_validate(z, riesz)
            assert max(cv.l2_dev_phi, cv.l2_dev_psi) <= 1e-8
            assert abs(cv.pairing - 1.0) <= 1e-9

    def test_regime_guard(self):
        with pytest.raises(ValidationError):
            cross_validate(4.0, ground_projector(16))

    def test_ground_state_guard(self):
        # any map other than exactly 1 + i|e_0><e_0| is refused
        space = make_space(16)
        others = [
            projector_map(space, space.basis_vector(1)).riesz,
            make_riesz_map(identity(space)),
            random_riesz_map(space, 2.0, seed=0),
        ]
        for riesz in others:
            with pytest.raises(ValidationError):
                cross_validate(1.0, riesz)


class TestCsvEmitter:
    def test_roundtrip(self, tmp_path):
        x = np.linspace(-2.0, 2.0, 5)
        z = 1.0 + 0.5j
        path = write_wavefunction_csv(tmp_path / "wf.csv", z, x)
        with path.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "re_Phi", "im_Phi", "re_phi", "im_phi", "re_psi", "im_psi"]
        assert len(rows) == 6
        mid = rows[3]  # x = 0
        phi, psi = example_wavefunctions(z, np.array([0.0]))
        assert float(mid[3]) == pytest.approx(phi[0].real, abs=1e-10)
        assert float(mid[6]) == pytest.approx(psi[0].imag, abs=1e-10)
