"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line.  Tolerances are pinned here, not
configurable.  The standard map set is: identity, the rank-one projector
deformation, and five seeded random maps with condition number 10, all
at dimension 64.
"""

import json
import time
import warnings

import numpy as np
import pytest

from pseudoboson import (
    AccuracyRegimeWarning,
    FockSpace,
    UnderResolvedWarning,
    bch_factorization_check,
    cross_validate,
    displaced_pair,
    eigen_check,
    example_wavefunctions,
    intertwining_check,
    ladder_check,
    make_pair,
    make_quadrature,
    make_riesz_map,
    number_operator_check,
    power_similarity_check,
    projector_map,
    rbcs,
    resolution_of_identity,
    series_route,
    vacua,
)
from pseudoboson.cli import main

Z_DISK = (1.0 + 0.0j, 1.0 + 1.0j, 2.0j)


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def test_criterion_01_biorthogonality(all_maps64):
    start = time.perf_counter()
    worst = 0.0
    for riesz in all_maps64:
        gram = riesz.S.mat.conj().T @ riesz.S_inv.mat.conj().T
        worst = max(worst, np.abs(gram - np.eye(64)).max())
    elapsed = time.perf_counter() - start
    report(
        "01 biorthogonality",
        worst <= 1e-10 and elapsed < 1.0,
        f"max deviation {worst:.3e} <= 1e-10, runtime {elapsed:.3f}s < 1s",
    )


def test_criterion_02_rank_one_sums(all_maps64):
    worst = 0.0
    for riesz in all_maps64:
        phi, psi = riesz.S.mat, riesz.S_inv.mat.conj().T
        worst = max(
            worst,
            np.linalg.norm(psi @ psi.conj().T - riesz.theta.mat, 2),
            np.linalg.norm(phi @ phi.conj().T - riesz.theta_inv.mat, 2),
        )
    report("02 rank-one sums", worst <= 1e-11, f"max deviation {worst:.3e} <= 1e-11")


def test_criterion_03_ccr(all_maps64):
    worst_ratio = 0.0
    for riesz in all_maps64:
        pair = make_pair(riesz)
        a, b = pair.a.mat, pair.b.mat
        block = (a @ b - b @ a - np.eye(64))[:63, :63]
        worst_ratio = max(worst_ratio, np.linalg.norm(block, 2) / (1e-10 * riesz.cond**2))
    report(
        "03 pseudo-bosonic CCR",
        worst_ratio <= 1.0,
        f"worst residual/tolerance ratio {worst_ratio:.3e} <= 1 at 1e-10*cond^2",
    )


def test_criterion_04_ladder_and_number(all_maps64):
    worst_ladder = 0.0
    worst_eigs = 0.0
    for riesz in all_maps64:
        pair = make_pair(riesz)
        worst_ladder = max(
            worst_ladder,
            max(r.max() for r in ladder_check(pair).values()),
            max(r.max() for r in number_operator_check(pair)),
        )
        eigs = np.sort_complex(np.linalg.eigvals(pair.b.mat @ pair.a.mat))[:63]
        worst_eigs = max(worst_eigs, np.abs(eigs - np.arange(63)).max())
    report(
        "04 ladder and number relations",
        worst_ladder <= 1e-9 and worst_eigs <= 1e-6,
        f"max ladder/number residual {worst_ladder:.3e} <= 1e-9, "
        f"max eigenvalue deviation {worst_eigs:.3e} <= 1e-6",
    )


def test_criterion_05_vacua(all_maps64):
    worst_match = 0.0
    worst_pairing = 0.0
    for riesz in all_maps64:
        phi0, psi0 = vacua(make_pair(riesz))
        for got, want in ((phi0, riesz.S.mat[:, 0]), (psi0, riesz.S_inv.mat[0].conj())):
            got_dir = got / np.linalg.norm(got)
            want_dir = want / np.linalg.norm(want)
            overlap = np.vdot(got_dir, want_dir)
            dist = np.linalg.norm(got_dir * overlap / abs(overlap) - want_dir)
            worst_match = max(worst_match, dist)
        worst_pairing = max(worst_pairing, abs(np.vdot(phi0, psi0) - 1.0))
    report(
        "05 vacuum verification",
        worst_match <= 1e-10 and worst_pairing <= 1e-12,
        f"max direction mismatch {worst_match:.3e} <= 1e-10, "
        f"max pairing deviation {worst_pairing:.3e} <= 1e-12",
    )


def test_criterion_06_projector_algebra(space64, projector_map64):
    P = np.zeros((64, 64), complex)
    P[0, 0] = 1.0
    T_inv = np.eye(64) - (1 + 1j) / 2 * P  # closed form
    np.testing.assert_allclose(projector_map64.S_inv.mat, T_inv, rtol=0, atol=1e-15)
    inv_residual = np.linalg.norm(projector_map64.S.mat @ T_inv - np.eye(64), 2)
    theta_residual = np.linalg.norm(projector_map64.theta.mat - (np.eye(64) - P / 2), 2)
    A, B = projector_map64.frame_bounds
    frame_residual = max(abs(A - 1.0), abs(B - 2.0))
    report(
        "06 projector-map algebra",
        inv_residual <= 1e-14 and theta_residual <= 1e-13 and frame_residual <= 1e-10,
        f"||T T^-1 - I|| {inv_residual:.3e} <= 1e-14, "
        f"||Theta - (I-P/2)|| {theta_residual:.3e} <= 1e-13, "
        f"frame-bound deviation {frame_residual:.3e} <= 1e-10",
    )


def test_criterion_07_power_similarity_and_bch(all_maps64):
    worst_power = 0.0
    for riesz in all_maps64:
        pair = make_pair(riesz)
        for z in Z_DISK:
            worst_power = max(worst_power, power_similarity_check(pair, z).max())

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        worst_bch = 0.0
        for riesz in all_maps64:
            for z in (1.0, 0.5 + 0.5j, 1.0j):
                disp = displaced_pair(riesz, z)
                worst_bch = max(worst_bch, *bch_factorization_check(disp, 32))
        assert not caught

        decays = []
        for dim in (16, 18, 20, 32, 64):
            space = FockSpace(dim)
            riesz = projector_map(space, space.basis_vector(0))
            decays.append(max(bch_factorization_check(displaced_pair(riesz, 1.0), 8)))
            # only dim 16 puts the cutoff 8 above the margin min(dim // 2, dim - 4 - 6):
            # 6 at dim 16, min(9, 8) = 8 at dim 18
            assert [w.category for w in caught] == [AccuracyRegimeWarning]
    # the truncation tail dominates up to dim 20 and falls by at least 100x
    # per two levels; from dim 22 on the residual sits at the roundoff floor,
    # where the order of two dims is luck, so dims 32 and 64 are read
    # against a bound
    tail, floor = decays[:3], decays[3:]
    decaying = all(a >= 100 * b for a, b in zip(tail, tail[1:])) and max(floor) <= 1e-14

    report(
        "07 similarity and factorization",
        worst_power <= 1e-7 and worst_bch <= 1e-8 and decaying,
        f"max power-similarity residual {worst_power:.3e} <= 1e-7, "
        f"max half-space factorization residual {worst_bch:.3e} <= 1e-8, "
        f"decay over dims 16/18/20: {tail[0]:.2e}, {tail[1]:.2e}, {tail[2]:.2e}, each at "
        f"least 100x below the last; dims 32/64: {floor[0]:.2e}, {floor[1]:.2e} <= 1e-14",
    )


def test_criterion_08_intertwining(all_maps64):
    rng = np.random.default_rng(2024)
    zs = 2.0 * np.sqrt(rng.uniform(0, 1, 20)) * np.exp(2j * np.pi * rng.uniform(0, 1, 20))
    worst = 0.0
    for riesz in all_maps64:
        for z in zs:
            disp = displaced_pair(riesz, complex(z))
            worst = max(worst, intertwining_check(disp))
    report("08 intertwining", worst <= 1e-9, f"max relative residual {worst:.3e} <= 1e-9 over 20 amplitudes")


def test_criterion_09_rbcs_properties(all_maps64):
    worst_pairing = 0.0
    worst_eigen = 0.0
    worst_two_route = 0.0
    for riesz in all_maps64:
        pair = make_pair(riesz)
        for z in Z_DISK:
            bc = rbcs(riesz, z)
            worst_pairing = max(worst_pairing, abs(np.vdot(bc.eta, bc.xi) - 1.0))
            r_eta, r_xi = eigen_check(pair, bc)
            worst_eigen = max(worst_eigen, r_eta, r_xi)
            [(phi_s, psi_s)] = series_route(pair, [bc])
            worst_two_route = max(
                worst_two_route,
                np.linalg.norm(phi_s - bc.eta),
                np.linalg.norm(psi_s - bc.xi),
            )
    report(
        "09 bicoherent-state properties",
        worst_pairing <= 1e-11 and worst_eigen <= 1e-10 and worst_two_route <= 1e-10,
        f"pairing deviation {worst_pairing:.3e} <= 1e-11, "
        f"eigen residual {worst_eigen:.3e} <= 1e-10, "
        f"two-route deviation {worst_two_route:.3e} <= 1e-10",
    )


def test_criterion_10_resolution_of_identity():
    start = time.perf_counter()
    worst = 0.0
    for dim in (16, 32):
        space = FockSpace(dim)
        quad = make_quadrature(dim, 2 * dim + 1)
        for riesz in (
            make_riesz_map(space, np.eye(0)),
            projector_map(space, space.basis_vector(0)),
        ):
            worst = max(worst, resolution_of_identity(riesz, quad))
    elapsed = time.perf_counter() - start
    report(
        "10 resolution of identity (positive control)",
        worst <= 1e-10 and elapsed < 10.0,
        f"max deviation {worst:.3e} <= 1e-10, runtime {elapsed:.2f}s < 10s",
    )


def test_criterion_10_negative_control():
    # The deviation metric must notice an under-resolved radial rule.  A
    # Gauss-Laguerre rule with n nodes integrates t^k exactly for
    # k <= 2n-1, and the resolution operator needs moments up to dim-1, so
    # dim/2 nodes are still exact (roundoff) and only a rule below that
    # bound can degrade.  The quarter rule (dim/4 nodes, exact through
    # degree dim/2-1) is the under-resolved side and warns; dim/2 nodes pin
    # the exact side, where nothing warns.  This spec decision is recorded in CHANGES.md.
    worst_quarter = np.inf
    worst_half = 0.0
    for dim in (16, 32):
        space = FockSpace(dim)
        quarter = make_quadrature(dim // 4, 2 * dim + 1)
        half = make_quadrature(dim // 2, 2 * dim + 1)
        for riesz in (
            make_riesz_map(space, np.eye(0)),
            projector_map(space, space.basis_vector(0)),
        ):
            with pytest.warns(UnderResolvedWarning):
                worst_quarter = min(worst_quarter, resolution_of_identity(riesz, quarter))
            with warnings.catch_warnings():
                warnings.simplefilter("error", UnderResolvedWarning)  # exact: no warning
                worst_half = max(worst_half, resolution_of_identity(riesz, half))
    report(
        "10 resolution of identity (negative control)",
        worst_quarter >= 1e-3 and worst_half <= 1e-10,
        f"min deviation at radial_count=dim/4 is {worst_quarter:.3e} >= 1e-3, "
        f"max deviation at radial_count=dim/2 is {worst_half:.3e} <= 1e-10",
    )


def test_criterion_11_coordinate_example(projector_map64):
    worst_l2 = 0.0
    worst_pairing = 0.0
    for z in Z_DISK:
        cv = cross_validate(rbcs(projector_map64, z))
        worst_l2 = max(worst_l2, cv.l2_dev_phi, cv.l2_dev_psi)
        worst_pairing = max(worst_pairing, abs(cv.pairing - 1.0))
    phi, psi = example_wavefunctions(1.0, np.array([0.0]))
    # frozen from 30-digit closed-form evaluation:
    # pi^(-1/4) (e^-1 + i e^-1/2) and pi^(-1/4) (e^-1 - (1-i)/2 e^-1/2)
    spot_phi = abs(phi[0] - (0.276323645547 + 0.455580672011j))
    spot_psi = abs(psi[0] - (0.0485333095417 + 0.227790336006j))
    report(
        "11 coordinate-representation example",
        worst_l2 <= 1e-8 and worst_pairing <= 1e-9 and max(spot_phi, spot_psi) <= 1e-6,
        f"L2 deviation {worst_l2:.3e} <= 1e-8, pairing deviation {worst_pairing:.3e} <= 1e-9, "
        f"spot-value deviation {max(spot_phi, spot_psi):.3e} <= 1e-6",
    )


def test_criterion_12_cli_suite(tmp_path):
    config = {
        "schema_version": 1,
        "dim": 64,
        "map_spec": {"kind": "projector", "u_index": 0},
        "z_samples": [[0, 0], [1, 0], [1, 1], [0, 2]],
        "outputs": str(tmp_path / "out_a"),
        "seed": 7,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))

    start = time.perf_counter()
    code = main(["verify", "--config", str(path)])
    elapsed = time.perf_counter() - start

    code_b = main(["verify", "--config", str(path), "--out", str(tmp_path / "out_b")])

    def load(tag):
        records = json.loads((tmp_path / tag / "report.json").read_text())
        for rec in records:
            rec.pop("wall_time")
        return records

    deterministic = load("out_a") == load("out_b")
    report(
        "12 full CLI suite",
        code == 0 and code_b == 0 and elapsed < 60.0 and deterministic,
        f"exit code {code}, runtime {elapsed:.2f}s < 60s, deterministic reports: {deterministic}",
    )
