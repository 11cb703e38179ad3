import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from pseudoboson import (
    FockSpace,
    MapSpec,
    ProvenanceError,
    QuadratureScheme,
    RunConfig,
    UnderResolvedError,
    UnderResolvedWarning,
    coherent,
    coherent_tail_bound,
    convergence_study,
    eigen_check,
    make_pair,
    make_quadrature,
    make_riesz_map,
    projector_map,
    random_riesz_map,
    rbcs,
    resolution_of_identity,
    resolution_operator,
    series_route,
)
from pseudoboson import bicoherent
from pseudoboson.algebra import _raise
from pseudoboson.fock import _spectral_norm

from conftest import in_graded_bracket

disk2 = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)


class TestCoherent:
    def test_vacuum(self, space64):
        state = coherent(space64, 0.0)
        np.testing.assert_array_equal(state, np.eye(64)[0])
        assert coherent_tail_bound(64, 0.0) == 0.0
        assert not state.flags.writeable

    def test_normalized_inside_regime(self, space64):
        state = coherent(space64, 1.0)
        assert abs(np.linalg.norm(state) - 1.0) <= 1e-14

    @pytest.mark.parametrize("z", [0.5, 1j, 1 + 1j, 2.0, -1.3 + 0.9j])
    def test_norm_at_most_one(self, z, space64):
        vec = coherent(space64, z)
        assert np.linalg.norm(vec) <= 1.0 + 1e-14

    @pytest.mark.parametrize("z", [0.5, 1j, 1 + 1j, 2.0])
    def test_tail_bound_dominates_missing_mass(self, z, space64):
        vec = coherent(space64, z)
        assert 1.0 - np.linalg.norm(vec) ** 2 <= coherent_tail_bound(64, z) + 5e-16

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
        residual = np.linalg.norm(ladder_c(space64).mat @ state - z * state)
        assert residual <= np.sqrt(64) * abs(z) * abs(state[-1]) + 1e-15

    @pytest.mark.parametrize("dim", [4, 5, 16, 64, 257, 1024])
    def test_python_scalar_recurrence_keeps_every_bit(self, dim):
        # the recurrence on Python complex and math.sqrt against the loop it
        # replaced, numpy scalar steps written into a zeroed vector: the same
        # vector bit for bit, signs of zero included, from z = 0 and
        # subnormal amplitudes up to |z| = 8
        def numpy_loop(space, z):
            vec = np.zeros(space.dim, dtype=complex)
            term = complex(np.exp(-abs(z) ** 2 / 2))
            for k in range(space.dim):
                vec[k] = term
                term = term * z / np.sqrt(k + 1.0)
            return vec

        rng = np.random.default_rng(dim)
        zs = [0, 5e-324, -5e-324j, 1e-310 + 1e-310j, 1, 1 + 1j, 2j, -7.9j, 8, 5.6 - 5.6j]
        zs += list(8 * rng.uniform(0, 1, 20) * np.exp(2j * np.pi * rng.uniform(0, 1, 20)))
        space = FockSpace(dim)
        for z in map(complex, zs):
            got, want = coherent(space, z), numpy_loop(space, z)
            np.testing.assert_array_equal(got, want)
            for part in (np.real, np.imag):
                assert np.array_equal(np.signbit(part(got)), np.signbit(part(want)))

    @settings(max_examples=30, deadline=None)
    @given(disk2, disk2)
    def test_overlap_kernel(self, z, w):
        # <Phi(z), Phi(w)> = exp(-(|z|^2+|w|^2)/2 + conj(z) w) up to tails
        space = FockSpace(64)
        got = np.vdot(coherent(space, z), coherent(space, w))
        want = np.exp(-(abs(z) ** 2 + abs(w) ** 2) / 2 + np.conj(z) * w)
        assert abs(got - want) <= 1e-10


class TestRbcs:
    def test_identity_map_reduces_to_coherent(self, space64):
        riesz = make_riesz_map(space64, np.eye(0))
        bc = rbcs(riesz, 1 + 1j)
        np.testing.assert_array_equal(bc.eta, coherent(space64, 1 + 1j))
        np.testing.assert_array_equal(bc.xi, bc.eta)

    def test_zero_amplitude_gives_vacuum_columns(self, random_map64):
        bc = rbcs(random_map64, 0.0)
        np.testing.assert_allclose(bc.eta, random_map64.S.mat[:, 0], atol=1e-15)

    @pytest.mark.parametrize("z", [0.0, 1.0, 1 + 1j, 2j, -1.7 + 0.4j])
    def test_unit_pairing(self, z, all_maps64):
        for riesz in all_maps64:
            bc = rbcs(riesz, z)
            assert abs(np.vdot(bc.eta, bc.xi) - 1.0) <= 1e-12


def _full_series(pair, z):
    """The coherent series over all ``dim`` terms, in the order and
    arithmetic of :func:`series_route`: ``b`` and ``a^dag`` applied through
    the pair's border, to ``phi_n`` and ``psi_n`` stacked."""
    coeff = coherent(pair.space, z)
    ops = np.stack([pair.b_border, pair.a_border.conj().T])
    terms = np.stack([pair.source.S.mat[:, 0], pair.source.S_inv.mat[0].conj()])
    sums = coeff[0] * terms
    for n in range(1, pair.space.dim):
        terms = (1.0 / np.sqrt(float(n))) * _raise(ops, terms)
        sums += coeff[n] * terms
    return sums[0], sums[1]


@pytest.fixture(scope="module")
def projector_map256():
    space = FockSpace(256)
    return projector_map(space, space.basis_vector(0))


class TestSeriesRoute:
    def test_zero_amplitude_returns_vacua(self, random_map64):
        [(phi, psi)] = series_route(make_pair(random_map64), [rbcs(random_map64, 0.0)])
        np.testing.assert_array_equal(phi, random_map64.S.mat[:, 0])
        np.testing.assert_array_equal(psi, random_map64.S_inv.mat[0].conj())

    @pytest.mark.parametrize("z", [0.0, 1.0, 1 + 1j, 2j])
    @pytest.mark.parametrize("which", ["random_map64", "projector_map256"])
    def test_truncation_matches_full_series(self, z, which, request):
        # the omitted terms lie below the 1e-20 coherent tail bound
        riesz = request.getfixturevalue(which)
        pair = make_pair(riesz)
        bc = rbcs(riesz, z)
        [(phi, psi)] = series_route(pair, [bc])
        phi_full, psi_full = _full_series(pair, z)
        eta = np.linalg.norm(bc.eta)
        assert np.linalg.norm(phi - phi_full) <= 1e-15 * eta
        assert np.linalg.norm(psi - psi_full) <= 1e-15 * eta

    def test_beyond_tail_bound_sums_every_term(self):
        # |z|^2 = 25 > dim + 1: the tail bound is 1, so all 16 terms count
        riesz = random_riesz_map(FockSpace(16), 10.0, seed=3)
        pair = make_pair(riesz)
        for got, want in zip(series_route(pair, [rbcs(riesz, 5.0)])[0], _full_series(pair, 5.0)):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("z", [1.0, 1 + 1j, 2j])
    def test_two_routes_agree(self, z, all_maps64):
        for riesz in all_maps64:
            bc = rbcs(riesz, z)
            [(phi, psi)] = series_route(make_pair(riesz), [bc])
            assert np.linalg.norm(phi - bc.eta) <= 1e-10
            assert np.linalg.norm(psi - bc.xi) <= 1e-10

    def test_provenance_mismatch(self, random_map64):
        other = random_riesz_map(FockSpace(64), 10.0, seed=123)
        with pytest.raises(ProvenanceError):
            series_route(make_pair(other), [rbcs(random_map64, 1.0)])

    def test_norm_bounds(self, random_map64):
        # series norms inherit the map bounds: ||phi(z)|| <= ||S||
        A, B = random_map64.frame_bounds
        pair = make_pair(random_map64)
        for z in (0.5, 1 + 1j, 2j):
            [(phi, psi)] = series_route(pair, [rbcs(random_map64, z)])
            assert np.linalg.norm(phi) <= np.sqrt(B) * (1 + 1e-12)
            assert np.linalg.norm(psi) <= (1 + 1e-12) / np.sqrt(A)

    #: the README amplitudes (N = 1, 35, 43, 54 terms) and one out of the
    #: regime at dims 64 and 256, whose tail bound never reaches 1e-20 (N = dim)
    ONE_CALL_Z = (0.0, 1.0, 1 + 1j, 2j, 6 - 8j)

    @pytest.mark.parametrize("which", ["random_map64", "projector_map256"])
    def test_one_call_matches_each_state_alone(self, which, request):
        riesz = request.getfixturevalue(which)
        pair = make_pair(riesz)
        d = riesz.dim
        assert bicoherent.coherent_tail_bound(d - 1, 6 - 8j) > 1e-20  # the last z sums all dim
        states = [rbcs(riesz, z) for z in self.ONE_CALL_Z]
        alone = [series_route(pair, [bc])[0] for bc in states]
        order = np.random.default_rng(5).permutation(len(states))
        together = series_route(pair, [states[i] for i in order])
        assert len(together) == len(states)
        for i, (phi, psi) in zip(order, together):
            np.testing.assert_array_equal(phi, alone[i][0])
            np.testing.assert_array_equal(psi, alone[i][1])

    def test_state_reads_no_later_term(self, random_map64, monkeypatch):
        # z = 1 sums N = 35 terms, 34 raised; every term raised after those is
        # nan, and z = 0 and z = 1 must not see it (0 * nan is nan)
        pair = make_pair(random_map64)
        states = [rbcs(random_map64, z) for z in (2j, 0.0, 1 + 1j, 1.0)]
        refs = {bc.z: series_route(pair, [bc])[0] for bc in states[1::2]}
        calls, grow = [], bicoherent._raise

        def poisoned(border, v):
            calls.append(None)
            out = grow(border, v)
            return out if len(calls) < 35 else np.full_like(out, np.nan)

        monkeypatch.setattr(bicoherent, "_raise", poisoned)
        sums = series_route(pair, states)
        assert len(calls) == 53
        for bc, (phi, psi) in zip(states, sums):
            if bc.z in refs:
                assert np.all(np.isfinite(phi)) and np.all(np.isfinite(psi))
                np.testing.assert_array_equal(phi, refs[bc.z][0])
                np.testing.assert_array_equal(psi, refs[bc.z][1])
            else:
                assert np.isnan(phi).any() and np.isnan(psi).any()

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_foreign_state_anywhere_raises(self, random_map64, position):
        other = random_riesz_map(FockSpace(64), 10.0, seed=123)
        states = [rbcs(random_map64, z) for z in (1.0, 2j)]
        states.insert(position, rbcs(other, 1 + 1j))
        with pytest.raises(ProvenanceError):
            series_route(make_pair(random_map64), states)

    def test_no_states(self, random_map64):
        assert series_route(make_pair(random_map64), []) == []


class TestEigenRelations:
    def test_vacuum_amplitude(self, random_map64):
        pair = make_pair(random_map64)
        r_eta, r_xi = eigen_check(pair, rbcs(random_map64, 0.0))
        assert r_eta <= 1e-14
        assert r_xi <= 1e-14

    def test_bosonic_case(self, space64):
        riesz = make_riesz_map(space64, np.eye(0))
        r_eta, r_xi = eigen_check(make_pair(riesz), rbcs(riesz, 1.0))
        assert max(r_eta, r_xi) <= 1e-12

    def test_projector_map(self, projector_map64):
        riesz = projector_map64
        r_eta, r_xi = eigen_check(make_pair(riesz), rbcs(riesz, 1 + 1j))
        assert max(r_eta, r_xi) <= 1e-10

    @pytest.mark.parametrize("z", [1.0, 1 + 1j, 2j, -2.0])
    def test_disk_all_maps(self, z, all_maps64):
        for riesz in all_maps64:
            r_eta, r_xi = eigen_check(make_pair(riesz), rbcs(riesz, z))
            assert max(r_eta, r_xi) <= 1e-10

    def test_provenance_mismatch(self, random_map64):
        other = random_riesz_map(FockSpace(64), 10.0, seed=123)
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
            make_quadrature(16, 16, 15)

    @pytest.mark.parametrize("dim", [16, 32])
    def test_angular_bound_is_exact(self, dim):
        # the mask [k = l mod M] is exact for k, l < dim once M >= dim, so
        # dim angular nodes resolve the identity on every map kind
        space = FockSpace(dim)
        quad = make_quadrature(dim, dim, dim)
        for riesz in (make_riesz_map(space, np.eye(0)),
                      projector_map(space, space.basis_vector(0)),
                      random_riesz_map(space, 10.0, seed=0)):
            assert resolution_of_identity(riesz, quad) <= 1e-10

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
        # a non-finite weight must fail the moment test, not pass a `<=` guard,
        # even on an order whose rule is already cached
        make_quadrature(32, 32, 65)
        rule = bicoherent._laguerre_rule
        hits = rule.cache_info().hits

        def rule_with_nan(n):
            t, log_w = rule(n)  # the cached, read-only rule
            log_w = log_w.copy()
            log_w[len(log_w) // 2] = np.nan
            return t, log_w

        monkeypatch.setattr(bicoherent, "_laguerre_rule", rule_with_nan)
        with pytest.raises(UnderResolvedError, match="factorial moment test failed"):
            make_quadrature(32, 32, 65)
        assert rule.cache_info().hits == hits + 1

    @pytest.mark.parametrize("n", [2, 33, 129, 257])
    def test_cached_rule_is_the_direct_rule(self, n):
        t, log_w = bicoherent._gauss_rule(2.0 * np.arange(n) + 1.0, np.arange(1.0, n))
        cached = bicoherent._laguerre_rule(n)
        np.testing.assert_array_equal(cached[0], t, strict=True)
        np.testing.assert_array_equal(cached[1], log_w, strict=True)

    def test_cached_rule_is_shared_read_only(self):
        t, log_w = bicoherent._laguerre_rule(33)
        assert not t.flags.writeable and not log_w.flags.writeable
        again = bicoherent._laguerre_rule(33)
        assert again[0] is t and again[1] is log_w
        # the scheme keeps the cached arrays instead of copying them
        quad = make_quadrature(64, 33, 129)
        assert quad.radial_t is t and quad.radial_log_w is log_w

    def test_sweep_builds_each_order_once(self, tmp_path):
        # dims 16..128 ask for 12 rules (a quarter, a half and a full rule
        # each) of 6 distinct orders, 4 to 128
        config = RunConfig(dim=16, map_spec=MapSpec(kind="random", seed=1),
                           z_samples=(1 + 0j,), outputs=tmp_path)
        bicoherent._laguerre_rule.cache_clear()
        convergence_study(config, [16, 32, 64, 128])
        info = bicoherent._laguerre_rule.cache_info()
        assert (info.misses, info.hits) == (6, 6)

    @pytest.mark.parametrize("n", [16, 64, 129])
    def test_laguerre_rule_matches_scipy(self, n):
        from scipy.special import roots_laguerre

        quad = make_quadrature(n, n, 2 * n + 1)
        t, w = roots_laguerre(n)
        assert np.all(np.abs(quad.radial_t - t) <= 1e-12 * t)
        assert np.all(np.abs(np.exp(quad.radial_log_w) - w) <= 1e-11 * w)


class TestResolutionOfIdentity:
    def test_identity_map_dim16(self):
        riesz = make_riesz_map(FockSpace(16), np.eye(0))
        dev = resolution_of_identity(riesz, make_quadrature(16, 16, 33))
        assert dev <= 1e-11

    def test_projector_dim32(self):
        P = np.zeros((32, 32), complex)
        P[0, 0] = 1.0
        riesz = make_riesz_map(FockSpace(32), np.eye(32) + 1j * P)
        dev = resolution_of_identity(riesz, make_quadrature(32, 32, 65))
        assert dev <= 1e-11

    def test_random_maps_dim64(self, all_maps64):
        quad = make_quadrature(64, 64, 129)
        for riesz in all_maps64:
            assert resolution_of_identity(riesz, quad) <= 1e-10

    def test_under_resolution_degrades(self):
        # quarter resolution loses the top moments outright
        riesz = make_riesz_map(FockSpace(16), np.eye(0))
        reduced = make_quadrature(4, 4, 33)
        with pytest.warns(UnderResolvedWarning):
            dev = resolution_of_identity(riesz, reduced)
        assert dev >= 1e-1

    @staticmethod
    def assert_minimal_rule_resolves(dim):
        # dim // 2 + 1 radial nodes, the fewest that pass the moment test
        space = FockSpace(dim)
        quad = make_quadrature(dim, dim // 2 + 1, 2 * dim + 1)
        for riesz in (projector_map(space, space.basis_vector(0)),
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
        riesz = make_riesz_map(FockSpace(16), np.eye(0))
        reduced = make_quadrature(8, 8, 33)
        with pytest.warns(UnderResolvedWarning):
            dev = resolution_of_identity(riesz, reduced)
        assert dev <= 1e-13

    @pytest.mark.parametrize("d", [16, 64])
    @pytest.mark.parametrize("rule", ["full", "half", "quarter"])
    @pytest.mark.parametrize("kind", ["identity", "projector-0", "projector-5", "random",
                                      "dense"])
    def test_matches_dense_operator(self, kind, rule, d):
        # the deviation read from the map's block and the moment ratios is
        # the norm of the dense resolution operator less the identity.  Graded
        # against verify's tolerance it is exact above it, and may be the
        # block's Frobenius bound at or below it; a quarter rule's tail
        # exceeds that bound, so the quarter rows read the exact value
        space = FockSpace(d)
        riesz = {"identity": lambda: make_riesz_map(space, np.eye(0)),
                 "projector-0": lambda: projector_map(space, space.basis_vector(0)),
                 "projector-5": lambda: projector_map(space, space.basis_vector(5)),
                 "random": lambda: random_riesz_map(space, 10.0, seed=d),
                 "dense": lambda: random_riesz_map(space, 10.0, seed=d, top_margin=0)}[kind]()
        radial = {"full": d, "half": d // 2, "quarter": d // 4}[rule]
        quad = make_quadrature(radial, radial, 2 * d + 1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UnderResolvedWarning)
            got = resolution_of_identity(riesz, quad)
            ref = _spectral_norm(resolution_operator(riesz, quad).mat - np.eye(d))
            graded = resolution_of_identity(riesz, quad, tol=1e-10)
        assert abs(got - ref) <= 1e-14 + 1e-10 * ref
        if graded > 1e-10 or rule == "quarter":
            assert graded == got
        else:
            assert in_graded_bracket(graded, got, max(riesz.block, 1))

    @pytest.mark.parametrize("tol", [0.0, 1e-10])
    def test_nan_weight_reads_nan(self, random_map64, tol):
        # a nan weight makes every moment ratio nan, the block's and the
        # tail's: graded or exact, the deviation reads nan, which fails
        quad = make_quadrature(64, 33, 129)
        log_w = quad.radial_log_w.copy()
        log_w[3] = np.nan
        bad = dataclasses.replace(quad, radial_log_w=log_w)
        assert np.isnan(resolution_of_identity(random_map64, bad, tol=tol))

    def test_aliasing_grid_refused(self):
        # fewer than dim angles alias k and k + M; make_quadrature refuses
        # such a grid for its own dim, so this one is built by hand
        quad = make_quadrature(8, 8, 17)
        aliasing = QuadratureScheme(dim=16, radial_t=quad.radial_t,
                                    radial_log_w=quad.radial_log_w, angular_count=15)
        riesz = make_riesz_map(FockSpace(16), np.eye(0))
        with pytest.raises(UnderResolvedError, match="aliases"):
            resolution_of_identity(riesz, aliasing)


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
        space = FockSpace(d)
        maps = [projector_map(space, space.basis_vector(0)),
                random_riesz_map(space, 10.0, seed=d)]
        for riesz in maps:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UnderResolvedWarning)
                R = resolution_operator(riesz, quad).mat
            assert np.linalg.norm(R - node_matrix_resolution(riesz, quad), 2) <= 1e-12
