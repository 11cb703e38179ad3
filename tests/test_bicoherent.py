import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from pseudoboson import (
    DimensionMismatchError,
    ProvenanceError,
    QuadratureScheme,
    UnderResolvedError,
    UnderResolvedWarning,
    coherent,
    coherent_tail_bound,
    eigen_check,
    make_pair,
    make_quadrature,
    make_riesz_map,
    make_space,
    projector_map,
    random_riesz_map,
    rbcs,
    resolution_of_identity,
    resolution_operator,
    series_route,
    vacua_from_map,
    weak_pairing_check,
)
from pseudoboson import bicoherent
from pseudoboson.fock import identity

from conftest import random_unit_vector

disk2 = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)


class TestCoherent:
    def test_vacuum(self, space64):
        state = coherent(space64, 0.0)
        np.testing.assert_array_equal(state.vec, np.eye(64)[0])
        assert state.tail_bound == 0.0

    def test_normalized_inside_regime(self, space64):
        state = coherent(space64, 1.0)
        assert abs(np.linalg.norm(state.vec) - 1.0) <= 1e-14

    @pytest.mark.parametrize("z", [0.5, 1j, 1 + 1j, 2.0, -1.3 + 0.9j])
    def test_norm_at_most_one(self, z, space64):
        vec = coherent(space64, z).vec
        assert np.linalg.norm(vec) <= 1.0 + 1e-14

    @pytest.mark.parametrize("z", [0.5, 1j, 1 + 1j, 2.0])
    def test_tail_bound_dominates_missing_mass(self, z, space64):
        state = coherent(space64, z)
        assert 1.0 - np.linalg.norm(state.vec) ** 2 <= state.tail_bound + 5e-16

    def test_tail_bound_monotone_in_dim(self):
        bounds = [coherent_tail_bound(d, 2.0) for d in (16, 32, 64)]
        assert bounds[0] > bounds[1] > bounds[2]

    def test_tail_bound_out_of_ratio_regime(self):
        assert coherent_tail_bound(8, 4.0) == 1.0

    def test_annihilation_up_to_corner(self, space64):
        # c Phi(z) = z Phi(z) except for the truncated top coefficient
        from pseudoboson import ladder_c

        z = 1.5 - 0.5j
        state = coherent(space64, z)
        residual = np.linalg.norm(ladder_c(space64).mat @ state.vec - z * state.vec)
        assert residual <= np.sqrt(64) * abs(z) * abs(state.vec[-1]) + 1e-15

    @settings(max_examples=30, deadline=None)
    @given(disk2, disk2)
    def test_overlap_kernel(self, z, w):
        # <Phi(z), Phi(w)> = exp(-(|z|^2+|w|^2)/2 + conj(z) w) up to tails
        space = make_space(64)
        got = np.vdot(coherent(space, z).vec, coherent(space, w).vec)
        want = np.exp(-(abs(z) ** 2 + abs(w) ** 2) / 2 + np.conj(z) * w)
        assert abs(got - want) <= 1e-10


class TestRbcs:
    def test_identity_map_reduces_to_coherent(self, space64):
        riesz = make_riesz_map(identity(space64))
        bc = rbcs(riesz, 1 + 1j)
        np.testing.assert_array_equal(bc.eta, coherent(space64, 1 + 1j).vec)
        np.testing.assert_array_equal(bc.xi, bc.eta)

    def test_zero_amplitude_gives_vacuum_columns(self, random_map64):
        bc = rbcs(random_map64, 0.0)
        np.testing.assert_allclose(bc.eta, random_map64.S.mat[:, 0], atol=1e-15)

    @pytest.mark.parametrize("z", [0.0, 1.0, 1 + 1j, 2j, -1.7 + 0.4j])
    def test_unit_pairing(self, z, all_maps64):
        for riesz in all_maps64:
            bc = rbcs(riesz, z)
            assert abs(np.vdot(bc.eta, bc.xi) - 1.0) <= 1e-12

    def test_tail_metadata_propagates(self, random_map64):
        assert rbcs(random_map64, 1.0).tail_bound == coherent_tail_bound(64, 1.0)


def _full_series(pair, z, vac):
    """The coherent series over all ``dim`` terms, in the order and
    arithmetic of :func:`series_route`."""
    coeff = coherent(pair.space, z).vec
    phi_n = np.asarray(vac.phi0, dtype=complex).copy()
    psi_n = np.asarray(vac.psi0, dtype=complex).copy()
    phi_sum, psi_sum = coeff[0] * phi_n, coeff[0] * psi_n
    a_dag = pair.a.mat.conj().T
    for n in range(1, pair.space.dim):
        phi_n = (1.0 / np.sqrt(float(n))) * (pair.b.mat @ phi_n)
        psi_n = (1.0 / np.sqrt(float(n))) * (a_dag @ psi_n)
        phi_sum += coeff[n] * phi_n
        psi_sum += coeff[n] * psi_n
    return phi_sum, psi_sum


@pytest.fixture(scope="module")
def projector_map256():
    space = make_space(256)
    return projector_map(space, space.basis_vector(0)).riesz


class TestSeriesRoute:
    def test_zero_amplitude_returns_vacua(self, random_map64):
        vac = vacua_from_map(random_map64)
        phi, psi = series_route(make_pair(random_map64), 0.0, vac)
        np.testing.assert_array_equal(phi, vac.phi0)
        np.testing.assert_array_equal(psi, vac.psi0)

    @pytest.mark.parametrize("z", [0.0, 1.0, 1 + 1j, 2j])
    @pytest.mark.parametrize("which", ["random_map64", "projector_map256"])
    def test_truncation_matches_full_series(self, z, which, request):
        # the omitted terms lie below the 1e-20 coherent tail bound
        riesz = request.getfixturevalue(which)
        pair, vac = make_pair(riesz), vacua_from_map(riesz)
        phi, psi = series_route(pair, z, vac)
        phi_full, psi_full = _full_series(pair, z, vac)
        eta = np.linalg.norm(rbcs(riesz, z).eta)
        assert np.linalg.norm(phi - phi_full) <= 1e-15 * eta
        assert np.linalg.norm(psi - psi_full) <= 1e-15 * eta

    def test_beyond_tail_bound_sums_every_term(self):
        # |z|^2 = 25 > dim + 1: the tail bound is 1, so all 16 terms count
        riesz = random_riesz_map(make_space(16), 10.0, seed=3)
        pair, vac = make_pair(riesz), vacua_from_map(riesz)
        for got, want in zip(series_route(pair, 5.0, vac), _full_series(pair, 5.0, vac)):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("z", [1.0, 1 + 1j, 2j])
    def test_two_routes_agree(self, z, all_maps64):
        for riesz in all_maps64:
            bc = rbcs(riesz, z)
            phi, psi = series_route(make_pair(riesz), z, vacua_from_map(riesz))
            assert np.linalg.norm(phi - bc.eta) <= 1e-10
            assert np.linalg.norm(psi - bc.xi) <= 1e-10

    def test_norm_bounds(self, random_map64):
        # series norms inherit the map bounds: ||phi(z)|| <= ||S||
        A, B = random_map64.frame_bounds
        pair = make_pair(random_map64)
        for z in (0.5, 1 + 1j, 2j):
            phi, psi = series_route(pair, z, vacua_from_map(random_map64))
            assert np.linalg.norm(phi) <= np.sqrt(B) * (1 + 1e-12)
            assert np.linalg.norm(psi) <= (1 + 1e-12) / np.sqrt(A)


class TestEigenRelations:
    def test_vacuum_amplitude(self, random_map64):
        pair = make_pair(random_map64)
        r_eta, r_xi = eigen_check(pair, rbcs(random_map64, 0.0))
        assert r_eta <= 1e-14
        assert r_xi <= 1e-14

    def test_bosonic_case(self, space64):
        riesz = make_riesz_map(identity(space64))
        r_eta, r_xi = eigen_check(make_pair(riesz), rbcs(riesz, 1.0))
        assert max(r_eta, r_xi) <= 1e-12

    def test_projector_map(self, projector_map64):
        riesz = projector_map64.riesz
        r_eta, r_xi = eigen_check(make_pair(riesz), rbcs(riesz, 1 + 1j))
        assert max(r_eta, r_xi) <= 1e-10

    @pytest.mark.parametrize("z", [1.0, 1 + 1j, 2j, -2.0])
    def test_disk_all_maps(self, z, all_maps64):
        for riesz in all_maps64:
            r_eta, r_xi = eigen_check(make_pair(riesz), rbcs(riesz, z))
            assert max(r_eta, r_xi) <= 1e-10

    def test_provenance_mismatch(self, random_map64):
        other = random_riesz_map(make_space(64), 10.0, seed=123)
        with pytest.raises(ProvenanceError):
            eigen_check(make_pair(other), rbcs(random_map64, 1.0))


class TestQuadrature:
    def test_zeroth_moment(self):
        quad = make_quadrature(16, 16, 33)
        assert abs(np.sum(np.exp(quad.radial_log_w)) - 1.0) <= 1e-14

    def test_fifth_moment(self):
        quad = make_quadrature(16, 16, 33)
        moment = np.sum(np.exp(quad.radial_log_w) * quad.radial_t**5)
        assert abs(moment - 120.0) <= 1e-10 * 120.0

    def test_factorial_moments_dim64(self):
        from scipy.special import gammaln

        quad = make_quadrature(64, 64, 129)
        for k in (10, 32, 64):
            log_moment = np.log(np.sum(np.exp(quad.radial_log_w) * quad.radial_t**k / np.exp(
                k * np.log(quad.radial_t).max()))) + k * np.log(quad.radial_t).max()
            assert abs(np.exp(log_moment - gammaln(k + 1)) - 1.0) <= 1e-10

    def test_angular_grid_kills_phases(self):
        quad = make_quadrature(8, 8, 17)
        M = quad.angular_count
        theta = 2 * np.pi * np.arange(M) / M
        for n in range(-M + 1, M):
            total = np.sum(np.exp(1j * n * theta)) / M
            assert abs(total - (1.0 if n == 0 else 0.0)) <= 1e-13

    def test_insufficient_radial(self):
        with pytest.raises(UnderResolvedError):
            make_quadrature(16, 8, 33)

    @pytest.mark.parametrize("dim, radial, accepted", [
        (16, 9, True), (17, 9, True), (17, 8, False),
    ])
    def test_radial_bound_both_sides(self, dim, radial, accepted):
        # n nodes are exact through degree 2n - 1, so dim // 2 + 1 nodes are
        # the fewest that pass the moment test for k <= dim
        if accepted:
            assert make_quadrature(dim, radial, 2 * dim + 1).radial_count == radial
        else:
            with pytest.raises(UnderResolvedError):
                make_quadrature(dim, radial, 2 * dim + 1)

    def test_insufficient_angular(self):
        with pytest.raises(UnderResolvedError):
            make_quadrature(16, 16, 16)

    @pytest.mark.parametrize("dim, nodes", [(512, 257), (1024, 513)])
    def test_large_rules_accepted(self, dim, nodes):
        # the smallest weights fall below float64's range, so the rule
        # carries log weights; the moment test is the only acceptance check
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            quad = make_quadrature(dim, nodes, 2 * dim + 1)
        assert quad.radial_count == nodes
        assert np.all(np.isfinite(quad.radial_log_w))
        assert quad.radial_log_w.min() < np.log(np.finfo(float).tiny)

    def test_nan_weight_refused(self, monkeypatch):
        # a non-finite weight must fail the moment test, not pass a `<=` guard
        rule = bicoherent._gauss_rule

        def rule_with_nan(a, b):
            t, log_w = rule(a, b)
            log_w[len(log_w) // 2] = np.nan
            return t, log_w

        monkeypatch.setattr(bicoherent, "_gauss_rule", rule_with_nan)
        with pytest.raises(UnderResolvedError, match="factorial moment test failed"):
            make_quadrature(32, 32, 65)

    @pytest.mark.parametrize("n", [16, 64, 129])
    def test_laguerre_rule_matches_scipy(self, n):
        from scipy.special import roots_laguerre

        quad = make_quadrature(n, n, 2 * n + 1)
        t, w = roots_laguerre(n)
        assert np.all(np.abs(quad.radial_t - t) <= 1e-12 * t)
        assert np.all(np.abs(np.exp(quad.radial_log_w) - w) <= 1e-11 * w)


class TestResolutionOfIdentity:
    def test_identity_map_dim16(self):
        riesz = make_riesz_map(identity(make_space(16)))
        dev = resolution_of_identity(riesz, make_quadrature(16, 16, 33))
        assert dev <= 1e-11

    def test_projector_dim32(self):
        P = np.zeros((32, 32), complex)
        P[0, 0] = 1.0
        from pseudoboson.fock import Operator

        riesz = make_riesz_map(Operator(make_space(32), np.eye(32) + 1j * P))
        dev = resolution_of_identity(riesz, make_quadrature(32, 32, 65))
        assert dev <= 1e-11

    def test_random_maps_dim64(self, all_maps64):
        quad = make_quadrature(64, 64, 129)
        for riesz in all_maps64:
            assert resolution_of_identity(riesz, quad) <= 1e-10

    def test_under_resolution_degrades(self):
        # quarter resolution loses the top moments outright
        riesz = make_riesz_map(identity(make_space(16)))
        reduced = make_quadrature(4, 4, 33)
        with pytest.warns(UnderResolvedWarning):
            dev = resolution_of_identity(riesz, reduced)
        assert dev >= 1e-1

    @staticmethod
    def assert_minimal_rule_resolves(dim):
        # dim // 2 + 1 radial nodes, the fewest that pass the moment test
        space = make_space(dim)
        quad = make_quadrature(dim, dim // 2 + 1, 2 * dim + 1)
        for riesz in (projector_map(space, space.basis_vector(0)).riesz,
                      random_riesz_map(space, 10.0, seed=3)):
            assert resolution_of_identity(riesz, quad) <= 1e-10

    def test_dim256_minimal_rule(self):
        self.assert_minimal_rule_resolves(256)

    def test_dim512_minimal_rule(self):
        # 257 nodes: the smallest weights exist only as logarithms
        self.assert_minimal_rule_resolves(512)

    def test_half_resolution_still_exact(self):
        # Gauss-Laguerre with n nodes integrates moments up to 2n-1, so
        # half the nodes still resolve every moment the space needs
        riesz = make_riesz_map(identity(make_space(16)))
        reduced = make_quadrature(8, 8, 33)
        with pytest.warns(UnderResolvedWarning):
            dev = resolution_of_identity(riesz, reduced)
        assert dev <= 1e-13


def node_matrix_resolution(riesz, quad):
    """Reference ``R = sum_nodes w |eta(z)><xi(z)|``: every node's coherent
    state as a column, mapped through ``S`` and ``(S^{-1})^dag``, with node
    weights ``w_i e^{t_i} / M``."""
    t, log_w, M = quad.radial_t, quad.radial_log_w, quad.angular_count
    d = riesz.dim
    ks = np.arange(d)
    log_r = (-t[None, :] / 2 + 0.5 * ks[:, None] * np.log(t[None, :])
             - 0.5 * gammaln(ks + 1)[:, None])
    theta = 2 * np.pi * np.arange(M) / M
    phases = np.exp(1j * np.outer(ks, theta))
    states = (np.exp(log_r)[:, :, None] * phases[:, None, :]).reshape(d, len(t) * M)
    node_w = np.repeat(np.exp(log_w + t) / M, M)
    eta = riesz.S.mat @ states
    xi = riesz.S_inv.mat.conj().T @ states
    return (eta * node_w) @ xi.conj().T


class TestResolutionOracle:
    @pytest.mark.parametrize("d", [16, 32, 64])
    @pytest.mark.parametrize("rule", ["full", "half", "quarter", "aliasing"])
    def test_matches_node_matrix_sum(self, d, rule):
        radial = {"full": d, "half": d // 2, "quarter": d // 4, "aliasing": d // 2}[rule]
        # make_quadrature refuses an aliasing grid, so that rule is built by hand
        quad = make_quadrature(radial, radial, 2 * radial + 1)
        if rule == "aliasing":
            quad = QuadratureScheme(dim=quad.dim, radial_t=quad.radial_t,
                                    radial_log_w=quad.radial_log_w, angular_count=d // 2 + 1)
        space = make_space(d)
        maps = [projector_map(space, space.basis_vector(0)).riesz,
                random_riesz_map(space, 10.0, seed=d)]
        for riesz in maps:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UnderResolvedWarning)
                R = resolution_operator(riesz, quad).mat
            assert np.linalg.norm(R - node_matrix_resolution(riesz, quad), 2) <= 1e-12


class TestWeakPairing:
    def test_basis_vectors(self, space64):
        riesz = make_riesz_map(identity(space64))
        quad = make_quadrature(64, 64, 129)
        e0 = space64.basis_vector(0)
        e1 = space64.basis_vector(1)
        direct, integrated = weak_pairing_check(riesz, quad, e0, e0)
        assert direct == 1.0
        assert abs(integrated - 1.0) <= 1e-12
        direct, integrated = weak_pairing_check(riesz, quad, e0, e1)
        assert abs(integrated) <= 1e-12

    def test_fifty_random_triples(self, all_maps64):
        rng = np.random.default_rng(5)
        quad = make_quadrature(64, 64, 129)
        count = 0
        for riesz in all_maps64:
            for _ in range(8):
                f = random_unit_vector(rng, 64)
                g = random_unit_vector(rng, 64)
                direct, integrated = weak_pairing_check(riesz, quad, f, g)
                assert abs(direct - integrated) <= 1e-9
                count += 1
        assert count >= 50

    def test_shape_mismatch(self, random_map64):
        quad = make_quadrature(64, 64, 129)
        with pytest.raises(DimensionMismatchError):
            weak_pairing_check(random_map64, quad, np.zeros(32), np.zeros(64))
