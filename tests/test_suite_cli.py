import csv
import importlib
import json
import os
import pkgutil
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import pseudoboson
from pseudoboson import (
    ConfigError,
    DegenerateKernelError,
    OrthogonalVacuaError,
    UnderResolvedWarning,
    build_map,
    convergence_study,
    load_config,
    run_suite,
    save_riesz_map,
    suite_failed,
)
from pseudoboson import (FockSpace, bicoherent, coordinate, displaced_pair,
                         displacement, fock, intertwining_check, make_riesz_map, projector_map,
                         random_riesz_map, suite)
from pseudoboson.cli import main
from pseudoboson.config import MapSpec, RunConfig
from pseudoboson.fock import _spectral_norm
from pseudoboson.reports import DEFAULT_TOLERANCES, CheckReport, format_report_table

from conftest import in_graded_bracket, with_disp_entry

#: The one map whose closed forms emit-wavefunctions writes.
GROUND_PROJECTOR = {"kind": "projector", "u_index": 0}


def write_config(path, **overrides):
    record = {
        "schema_version": 1,
        "dim": 16,
        "map_spec": {"kind": "identity"},
        "z_samples": [[0, 0], [1, 0]],
        "outputs": str(path.parent / "out"),
    }
    record.update(overrides)
    path.write_text(json.dumps(record))
    return path


class TestConfig:
    def test_minimal_roundtrip(self, tmp_path):
        cfg = load_config(write_config(tmp_path / "c.json"))
        assert cfg.dim == 16
        assert cfg.map_spec.kind == "identity"
        assert cfg.z_samples == (0j, 1 + 0j)

    def test_unknown_top_level_key(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path / "c.json", extra=1))

    def test_unknown_map_key(self, tmp_path):
        path = write_config(tmp_path / "c.json", map_spec={"kind": "identity", "foo": 1})
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("key, value", [
        ("tolerances", {"ladder": 1e-9}),
        ("quadrature", {"radial_count": 16, "angular_count": 33}),
    ], ids=["tolerances", "quadrature"])
    def test_tolerances_key_rejected(self, tmp_path, key, value):
        # tolerances and the quadrature rule are not configurable, so
        # either key is an unknown key
        path = write_config(tmp_path / "c.json", **{key: value})
        with pytest.raises(ConfigError, match=key):
            load_config(path)
        assert main(["verify", "--config", str(path)]) == 2

    def test_schema_version_enforced(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path / "c.json", schema_version=2))

    def test_integral_floats_load(self, tmp_path):
        path = write_config(tmp_path / "c.json", dim=16.0, seed=3.0,
                            map_spec={"kind": "projector", "u_index": 2.0})
        cfg = load_config(path)
        assert (cfg.dim, cfg.map_spec.seed, cfg.map_spec.u_index) == (16, 3, 2)
        assert all(type(v) is int for v in (cfg.dim, cfg.map_spec.seed, cfg.map_spec.u_index))

    def test_small_dim_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path / "c.json", dim=3))

    def test_out_of_regime_needs_flag(self, tmp_path):
        path = write_config(tmp_path / "c.json", z_samples=[[5, 0]])
        with pytest.raises(ConfigError):
            load_config(path)
        load_config(write_config(tmp_path / "c2.json", z_samples=[[5, 0]],
                                 allow_out_of_regime=True))

    def test_overrides(self, tmp_path):
        cfg = load_config(write_config(tmp_path / "c.json"), dim_override=32,
                          seed_override=11, out_override=tmp_path / "elsewhere")
        assert cfg.dim == 32
        assert cfg.map_spec.seed == 11
        assert cfg.outputs == tmp_path / "elsewhere"

    def test_file_map_spec(self, tmp_path):
        riesz = random_riesz_map(FockSpace(16), 5.0, seed=2)
        save_riesz_map(riesz, tmp_path / "map.json")
        path = write_config(tmp_path / "c.json",
                            map_spec={"kind": "file", "path": str(tmp_path / "map.json")})
        cfg = load_config(path)
        loaded = build_map(cfg)
        np.testing.assert_array_equal(loaded.S.mat, riesz.S.mat)

    def test_unhandled_map_kind(self):
        # load_config admits only the known kinds; a hand-built spec of
        # another reaches build_map, which refuses it
        config = RunConfig(dim=16, map_spec=MapSpec("bogus"), z_samples=())
        with pytest.raises(ConfigError, match="bogus"):
            build_map(config)

    def test_file_map_dim_mismatch(self, tmp_path):
        riesz = random_riesz_map(FockSpace(8), 5.0, seed=2)
        save_riesz_map(riesz, tmp_path / "map.json")
        path = write_config(tmp_path / "c.json",
                            map_spec={"kind": "file", "path": str(tmp_path / "map.json")})
        with pytest.raises(ConfigError):
            build_map(load_config(path))


class TestRunSuite:
    def test_identity_dim16_all_pass(self, tmp_path):
        # amplitudes small enough that the dim-16 truncation tail stays
        # below the 1e-10 residual bar
        cfg = load_config(write_config(tmp_path / "c.json",
                                       z_samples=[[0, 0], [0.5, 0]]))
        reports = run_suite(cfg)
        assert not suite_failed(reports)
        assert all(r.status == "pass" for r in reports)
        assert max(r.residual for r in reports) <= 1e-10

    def test_projector_dim64_all_pass(self, tmp_path):
        path = write_config(tmp_path / "c.json", dim=64,
                            map_spec={"kind": "projector", "u_index": 0},
                            z_samples=[[0, 0], [1, 0], [1, 1], [0, 2]])
        reports = run_suite(load_config(path))
        assert not suite_failed(reports)
        ids = {r.check_id for r in reports}
        assert "coordinate_l2" in ids and "resolution_identity" in ids
        # the quadrature rule follows the dimension: the fewest exact radial
        # nodes (dim // 2 + 1) and 2 dim + 1 angular
        quad = next(r for r in reports if r.check_id == "resolution_identity")
        assert quad.params == {"radial": 33, "angular": 129}
        # the construction record says how much of S the transports touch
        construction = next(r for r in reports if r.check_id == "riesz_construction")
        assert construction.params == {"block": 1}

    def test_projector_svds_stay_small(self, tmp_path, monkeypatch):
        # the SVDs of a dim-64 run see only where the map deforms.  On the
        # projector map the vacua come from 0 x 1 blocks and no SVD with
        # singular vectors takes all 64 rows.  On it and on a random map,
        # where every record passes, bch_*, intertwining and power_similarity
        # certify each pass on the Frobenius bound and take no SVD at all;
        # asked for the exact value, the projector map's intertwining
        # residual (row 0 and column 0) is reduced to 2 rows
        seen, svd = [], np.linalg.svd

        def spy(a, *args, **kwargs):
            frame, callers = sys._getframe(1), set()
            while frame is not None:
                callers.add(frame.f_code.co_name)
                frame = frame.f_back
            seen.append((a.shape, kwargs.get("compute_uv", True), callers))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        numerators = {"bch_factorization_check", "intertwining_check", "power_similarity_check"}
        for map_spec in ({"kind": "projector", "u_index": 0},
                         {"kind": "random", "cond": 10.0, "seed": 1}):
            path = write_config(tmp_path / "c.json", dim=64, map_spec=map_spec,
                                z_samples=[[0, 0], [1, 0], [1, 1], [0, 2]])
            config = load_config(path)
            seen.clear()
            assert all(r.status == "pass" for r in run_suite(config))
            assert seen and not [shape for shape, _, callers in seen if numerators & callers]
            if map_spec["kind"] == "projector":
                vacua = [shape for shape, _, callers in seen if "vacua" in callers]
                assert vacua and all(rows <= 1 and cols <= 2 for rows, cols in vacua)
                assert all(shape[0] < 64 for shape, uv, _ in seen if uv)
                seen.clear()
                riesz = build_map(config)
                intertwining_check(displaced_pair(riesz, 1.0))
                assert [shape[0] for shape, _, callers in seen
                        if "intertwining_check" in callers] == [2]

    @pytest.mark.parametrize("dim, map_spec", [
        (64, {"kind": "random", "cond": 10.0, "seed": 13}),
        (64, {"kind": "random", "cond": 10.0, "seed": 238}),
        (128, {"kind": "random", "cond": 10.0, "seed": 3}),
        (256, {"kind": "projector", "u_index": 0}),
    ], ids=["rand64-seed13", "rand64-seed238", "rand128-seed3", "proj256"])
    def test_all_pass_beyond_dim64(self, tmp_path, dim, map_spec):
        # the exponential route of the normal-ordered factorization lost
        # these to float64 cancellation (bch_u/bch_v at 2i on the dim-64
        # seeds, at 1, 1+i and 2i from dim 128 on)
        path = write_config(tmp_path / "c.json", dim=dim, map_spec=map_spec,
                            z_samples=[[0, 0], [1, 0], [1, 1], [0, 2]])
        reports = run_suite(load_config(path))
        assert [r.check_id for r in reports if r.status != "pass"] == []

    @pytest.mark.parametrize("map_spec", [
        {"kind": "projector", "u_index": 0},
        {"kind": "random", "cond": 10.0, "seed": 1},
        {"kind": "random", "cond": 10.0, "seed": 5},
    ], ids=["proj64", "rand64-seed1", "rand64-seed5"])
    def test_reference_bound_changes_no_status(self, tmp_path, monkeypatch, map_spec):
        # the three records relative to a reference divide by a lower bound
        # of its norm; against the exact norm every status is the same, only
        # those records move, and never downward
        path = write_config(tmp_path / "c.json", dim=64, map_spec=map_spec,
                            z_samples=[[0, 0], [1, 0], [1, 1], [0, 2]])
        bounded = run_suite(load_config(path))
        monkeypatch.setattr(displacement, "_spectral_lower_bound", _spectral_norm)
        exact = run_suite(load_config(path))
        marked = {"power_similarity", "bch_u", "bch_v"}
        assert len(bounded) == len(exact)
        assert any(b.residual > e.residual for b, e in zip(bounded, exact))
        for b, e in zip(bounded, exact):
            assert (b.check_id, b.params, b.status) == (e.check_id, e.params, e.status)
            assert (b.params.get("reference") == "lower bound") == (b.check_id in marked)
            if b.check_id in marked:
                assert b.residual >= e.residual
            else:
                assert b.residual == e.residual

    def test_nan_displacement_fails_bch(self, tmp_path, monkeypatch):
        # a NaN in U reaches the numerator and the reference of bch_u and
        # the residual of intertwining: each record reads NaN and fails
        # instead of passing a <= test, on the bound or on the exact norm
        def nan_pair(riesz, z):
            return with_disp_entry(displaced_pair(riesz, z), "U", (1, 1), np.nan)

        monkeypatch.setattr(suite, "displaced_pair", nan_pair)
        path = write_config(tmp_path / "c.json", dim=32,
                            map_spec={"kind": "random", "cond": 10.0, "seed": 1})
        reports = run_suite(load_config(path))
        bch_u = [r for r in reports if r.check_id == "bch_u"]
        assert len(bch_u) == 2
        assert all(np.isnan(r.residual) and r.status == "fail" for r in bch_u)
        intertwining = [r for r in reports if r.check_id == "intertwining"]
        assert len(intertwining) == 2
        assert all(np.isnan(r.residual) and r.status == "fail" for r in intertwining)
        assert suite_failed(reports)

    def test_outputs_written(self, tmp_path):
        cfg = load_config(write_config(tmp_path / "c.json"))
        run_suite(cfg)
        out = tmp_path / "out"
        assert (out / "report.txt").exists()
        assert (out / "report.json").exists()
        assert (out / "residuals.csv").exists()
        records = json.loads((out / "report.json").read_text())
        assert all(rec["status"] == "pass" for rec in records)

    def test_ill_conditioned_map_fails_gracefully(self, tmp_path):
        path = write_config(tmp_path / "c.json",
                            map_spec={"kind": "random", "cond": 1e6, "seed": 1})
        reports = run_suite(load_config(path))
        assert suite_failed(reports)
        assert reports[0].check_id == "riesz_construction"
        assert reports[0].status == "fail"
        assert "error" in reports[0].params

    def test_wall_time_counted_once(self, tmp_path, monkeypatch):
        # records from one computation (bch_u/bch_v, eigen_eta/eigen_xi,
        # coordinate_l2/coordinate_pairing) must not each carry its span,
        # and the map build is charged to riesz_construction
        def slow_build_map(*args, **kwargs):
            time.sleep(0.2)
            return build_map(*args, **kwargs)

        monkeypatch.setattr(suite, "build_map", slow_build_map)
        path = write_config(tmp_path / "c.json", dim=24,
                            map_spec={"kind": "projector", "u_index": 0},
                            z_samples=[[0, 0], [1, 0], [1, 1]])
        cfg = load_config(path)
        start = time.perf_counter()
        reports = run_suite(cfg)
        elapsed = time.perf_counter() - start
        assert {"bch_v", "eigen_xi", "coordinate_pairing"} <= {r.check_id for r in reports}
        assert sum(r.wall_time for r in reports) <= elapsed
        construction = next(r for r in reports if r.check_id == "riesz_construction")
        assert construction.wall_time >= 0.2

    def test_projector_map_built_once(self, tmp_path, monkeypatch):
        # the cross-validation reuses the run's map instead of building
        # (and decomposing) the projector map again
        calls = []

        def counting_make_riesz_map(*args, **kwargs):
            calls.append(args)
            return make_riesz_map(*args, **kwargs)

        monkeypatch.setattr(coordinate, "make_riesz_map", counting_make_riesz_map)
        path = write_config(tmp_path / "c.json", dim=24,
                            map_spec={"kind": "projector", "u_index": 0})
        reports = run_suite(load_config(path))
        assert "coordinate_l2" in {r.check_id for r in reports}
        assert len(calls) == 1

    def test_determinism_modulo_wall_time(self, tmp_path):
        path = write_config(tmp_path / "c.json", dim=24,
                            map_spec={"kind": "random", "cond": 10.0, "seed": 5})

        def run(tag):
            cfg = load_config(path, out_override=tmp_path / tag)
            run_suite(cfg)
            records = json.loads((tmp_path / tag / "report.json").read_text())
            for rec in records:
                rec.pop("wall_time")
            return records

        assert run("a") == run("b")

    def test_out_of_regime_flagged_not_failed(self, tmp_path):
        path = write_config(tmp_path / "c.json", z_samples=[[1, 0], [5, 0]],
                            allow_out_of_regime=True)
        reports = run_suite(load_config(path))
        oor = [r for r in reports if r.status == "out-of-regime"]
        assert oor, "out-of-regime amplitudes must be flagged"
        assert all(r.params.get("z") == "5+0j" for r in oor)
        assert not suite_failed(reports)
        assert suite_failed(reports, strict=True)

    def test_seed_override_changes_random_map(self, tmp_path):
        # a random map spec without its own seed follows the global one
        path = write_config(tmp_path / "c.json", dim=16,
                            map_spec={"kind": "random", "cond": 5.0})
        cfg_a = load_config(path, seed_override=1)
        cfg_b = load_config(path, seed_override=2)
        assert not np.array_equal(build_map(cfg_a).S.mat, build_map(cfg_b).S.mat)
        assert np.array_equal(build_map(cfg_a).S.mat, build_map(cfg_a).S.mat)
        # a spec with its own seed follows it, and an override replaces it
        seeded = write_config(tmp_path / "s.json", dim=16,
                              map_spec={"kind": "random", "cond": 5.0, "seed": 1})
        own = build_map(load_config(seeded)).S.mat
        assert np.array_equal(own, build_map(cfg_a).S.mat)
        overridden = build_map(load_config(seeded, seed_override=2)).S.mat
        assert np.array_equal(overridden, build_map(cfg_b).S.mat)

    @pytest.mark.parametrize("top, own, override, expected", [
        (4, 1, 2, 2), (4, 1, None, 1), (4, None, None, 4), (None, None, None, 0),
        (None, 1, 2, 2), (4, None, 2, 2),
    ])
    def test_seed_resolution(self, tmp_path, top, own, override, expected):
        # the override, else the map's own seed, else the top-level one, else 0
        map_spec = {"kind": "random", "cond": 5.0}
        if own is not None:
            map_spec["seed"] = own
        seeds = {} if top is None else {"seed": top}
        cfg = load_config(write_config(tmp_path / "c.json", map_spec=map_spec, **seeds),
                          seed_override=override)
        assert cfg.map_spec.seed == expected
        np.testing.assert_array_equal(build_map(cfg).S.mat,
                                      random_riesz_map(FockSpace(16), 5.0, expected).S.mat)

    def test_nonground_projector_skips_coordinate_checks(self, tmp_path):
        # the closed-form wavefunctions exist only for the ground-state
        # projector; other indices run everything else
        path = write_config(tmp_path / "c.json",
                            map_spec={"kind": "projector", "u_index": 3})
        reports = run_suite(load_config(path))
        assert not suite_failed(reports)
        ids = {r.check_id for r in reports}
        assert "coordinate_l2" not in ids
        assert "rbcs_pairing" in ids

    @pytest.mark.parametrize("error", [DegenerateKernelError, OrthogonalVacuaError])
    def test_vacuum_refusal_recorded(self, tmp_path, monkeypatch, error):
        # a refused vacuum extraction is recorded under both vacuum ids
        def refuse(pair):
            raise error("vacuum extraction refused")

        monkeypatch.setattr(suite, "vacua", refuse)
        path = write_config(tmp_path / "c.json", dim=64,
                            map_spec={"kind": "projector", "u_index": 0},
                            z_samples=[[0, 0], [1, 0], [1, 1], [0, 2]])
        reports = run_suite(load_config(path))
        assert len(reports) == 54
        refused = [r for r in reports if r.check_id.startswith("vacuum_")]
        assert [r.check_id for r in refused] == ["vacuum_match", "vacuum_pairing"]
        for r in refused:
            assert r.residual == float("inf") and r.status == "fail"
            assert r.params["error"] == "vacuum extraction refused"

    def test_quadrature_refusal_recorded(self, tmp_path, nan_laguerre_weight):
        # a radial rule that fails its moment test when its order is built
        # is recorded as a refused resolution_identity, and the run exits 1
        path = write_config(tmp_path / "c.json", map_spec=GROUND_PROJECTOR)
        assert main(["verify", "--config", str(path)]) == 1
        records = json.loads((tmp_path / "out" / "report.json").read_text())
        (refused,) = [r for r in records if r["check_id"] == "resolution_identity"]
        assert refused["residual"] == float("inf") and refused["status"] == "fail"
        assert "factorial moment test failed" in refused["params"]["error"]
        assert all(r["status"] == "pass" for r in records if r is not refused)


def test_phase_aligned_distance_of_orthogonal_states():
    # no overlap, no phase to align: the plain distance of two unit vectors
    e = np.eye(4)
    assert suite._phase_aligned_distance(e[0], e[1]) == np.sqrt(2.0)


class TestFamilyRecords:
    """``biorthogonality``, ``theta_family`` and the rank-one records multiply
    the ``p x p`` block families: outside them ``phi_n = psi_n = e_n``."""

    FAMILY = ("biorthogonality", "theta_family", "rank_one_theta", "rank_one_theta_inv")

    @staticmethod
    def family_records(tmp_path, map_spec, dim=64):
        path = write_config(tmp_path / "c.json", dim=dim, map_spec=map_spec, z_samples=[[0, 0]])
        config = load_config(path)
        reports = {r.check_id: r for r in run_suite(config)}
        return build_map(config), {name: reports[name] for name in TestFamilyRecords.FAMILY}

    def test_identity_block_is_empty(self, tmp_path):
        riesz, records = self.family_records(tmp_path, {"kind": "identity"}, dim=16)
        assert riesz.block == 0
        for record in records.values():
            assert record.residual == 0.0 and record.status == "pass"

    @pytest.mark.parametrize("map_spec", [{"kind": "projector", "u_index": 0},
                                          {"kind": "random", "cond": 10.0, "seed": 1}])
    def test_matches_the_dense_families(self, tmp_path, map_spec):
        riesz, records = self.family_records(tmp_path, map_spec)
        phi, psi = riesz.S.mat, riesz.S_inv.mat.conj().T  # the dense families
        A, B = riesz.frame_bounds
        dense = {
            "biorthogonality": np.abs(phi.conj().T @ psi - np.eye(riesz.dim)).max(),
            "theta_family": np.linalg.norm(riesz.theta.mat @ phi - psi, axis=0).max(),
            "rank_one_theta": _spectral_norm(psi @ psi.conj().T - riesz.theta.mat) * A,
            "rank_one_theta_inv": _spectral_norm(phi @ phi.conj().T - riesz.theta_inv.mat) / B,
        }
        for name in ("biorthogonality", "theta_family"):
            assert records[name].residual == pytest.approx(dense[name], rel=1e-15, abs=0.0), name
        # a passing rank-one record may be the Frobenius bound of its p x p block
        for name in ("rank_one_theta", "rank_one_theta_inv"):
            assert in_graded_bracket(records[name].residual, dense[name], riesz.block), name
        assert all(record.status == "pass" for record in records.values())


class TestConvergenceStudy:
    def test_tables(self, tmp_path):
        path = write_config(tmp_path / "c.json",
                            map_spec={"kind": "projector", "u_index": 0},
                            z_samples=[[1, 0]])
        conv_path, quad_path = convergence_study(load_config(path), [16, 18, 20, 32, 64])
        with conv_path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["dim"]) for r in rows] == [16, 18, 20, 32, 64]
        eigen = [float(r["eigen_eta"]) for r in rows]
        assert eigen[0] > eigen[3] > eigen[4]
        # the factorization's truncation tail dominates up to dim 20 and
        # falls by at least 100x per two levels; from dim 22 on it sits at
        # the roundoff floor, where the order of two dims is luck, so dims
        # 32 and 64 are read against a bound
        bch = [float(r["bch_residual"]) for r in rows]
        assert all(a >= 100 * b for a, b in zip(bch[:3], bch[1:3]))
        assert max(bch[3:]) <= 1e-14
        assert all(float(r["resolution_deviation"]) <= 1e-10 for r in rows)

        with quad_path.open() as fh:
            qrows = list(csv.DictReader(fh))
        # quarter resolution degrades by many orders of magnitude
        quarter = [float(r["deviation"]) for r in qrows
                   if int(r["radial_count"]) == int(r["dim"]) // 4]
        full = [float(r["deviation"]) for r in qrows
                if int(r["radial_count"]) == int(r["dim"])]
        assert min(quarter) >= 1e-3
        assert max(full) <= 1e-10

    def test_out_of_regime_flagged(self, tmp_path):
        path = write_config(tmp_path / "c.json", z_samples=[[2.5, 0]],
                            allow_out_of_regime=True)
        conv_path, _ = convergence_study(load_config(path), [16, 32])
        with conv_path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["in_regime"] == "False"  # |z|^2 = 6.25 > 16/4
        # 6.25 <= 32/4, but cutoff 8 > _bch_cutoff(32, 2.5) = 1, as the status says
        assert rows[1]["in_regime"] == "False"
        assert rows[1]["status"] == "out-of-regime"

    def test_dims_must_ascend(self, tmp_path):
        cfg = load_config(write_config(tmp_path / "c.json"))
        with pytest.raises(ConfigError):
            convergence_study(cfg, [32, 16])

    def test_repeated_dims_are_refused(self, tmp_path):
        # a tie would write the same dim's rows twice to both tables
        path = write_config(tmp_path / "c.json")
        with pytest.raises(ConfigError, match="strictly ascending"):
            convergence_study(load_config(path), [16, 16, 32])
        assert main(["converge", "--config", str(path), "--dims", "16,16,32"]) == 2
        assert not (tmp_path / "out" / "convergence.csv").exists()

    def test_sweep_refused_midway_writes_no_table(self, tmp_path):
        # the dim-16 rows compute, then dim 32 is refused: neither table is written
        save_riesz_map(random_riesz_map(FockSpace(16), 5.0, seed=2), tmp_path / "map.json")
        path = write_config(tmp_path / "c.json",
                            map_spec={"kind": "file", "path": str(tmp_path / "map.json")})
        assert main(["converge", "--config", str(path), "--dims", "16,32"]) == 2
        assert list((tmp_path / "out").iterdir()) == []

    def test_projector_level_outside_a_swept_dim_is_refused(self, tmp_path):
        # the map needs level u_index at every dim of the sweep
        path = write_config(tmp_path / "c.json", dim=8,
                            map_spec={"kind": "projector", "u_index": 7})
        assert main(["converge", "--config", str(path), "--dims", "4,8"]) == 2
        assert not (tmp_path / "out" / "convergence.csv").exists()


def _rows(conv_path):
    with conv_path.open() as fh:
        return list(csv.DictReader(fh))


#: residuals that break each check behind a convergence.csv row
_BROKEN = {"eigen_check": (1.0, 1.0), "bch_factorization_check": (1.0, 1.0),
           "resolution_of_identity": 1.0}


class TestVerifyStatus:
    """``report.json`` is graded by the benchmark's own restated checks."""

    @pytest.mark.parametrize("seed", [1, 5])
    @pytest.mark.parametrize("workload", ["verify-rand-64", "verify-proj-256"])
    def test_agrees_with_benchmark_grading(self, tmp_path, bench, workload, seed):
        # a record renamed, dropped or flipped fails here, not only as a
        # benchmark run whose outputs are incorrect
        w = bench.WORKLOADS[workload]
        path = tmp_path / "c.json"
        path.write_text(json.dumps(bench.make_config(w, seed, str(tmp_path / "out"))))
        run_suite(load_config(path))
        failed, problems = bench.check_verify_records(w, bench.load_report(tmp_path / "out"))
        assert not failed and not problems


class TestConvergenceStatus:
    """``convergence.csv`` rows are graded by the recorder ``verify`` uses."""

    @pytest.mark.parametrize("seed", range(5))
    def test_benchmark_sweep(self, tmp_path, seed):
        # the fixed cutoff 8 exceeds _bch_cutoff(16, 1) = 6, so the dim-16
        # row is out of regime; every other row passes
        path = write_config(tmp_path / "c.json", map_spec={"kind": "random", "cond": 10.0},
                            seed=seed, z_samples=[[0, 0], [1, 0], [1, 1], [0, 2]])
        conv_path, _ = convergence_study(load_config(path), [16, 32, 64, 128])
        assert suite._bch_cutoff(16, 1.0) == 6
        assert [r["status"] for r in _rows(conv_path)] == [
            "out-of-regime", "pass", "pass", "pass"]

    def test_failure_is_graded_without_changing_exit_code(self, tmp_path, monkeypatch):
        monkeypatch.setattr(suite, "eigen_check", lambda *args: _BROKEN["eigen_check"])
        path = write_config(tmp_path / "c.json")
        assert main(["converge", "--config", str(path), "--dims", "16,32"]) == 0
        assert [r["status"] for r in _rows(tmp_path / "out" / "convergence.csv")] == [
            "fail", "fail"]

    def test_amplitude_out_of_regime(self, tmp_path):
        path = write_config(tmp_path / "c.json", z_samples=[[2.5, 0]],
                            allow_out_of_regime=True)
        conv_path, _ = convergence_study(load_config(path), [16])
        assert _rows(conv_path)[0]["status"] == "out-of-regime"  # |z|^2 = 6.25 > 16/4

    @pytest.mark.parametrize("broken", [None, *_BROKEN])
    def test_agrees_with_benchmark_grading(self, tmp_path, monkeypatch, bench, broken):
        # the benchmark grades convergence.csv with its own restated
        # tolerances; the rows it fails are exactly the rows read "fail".
        # It grades no factorization at dim 16, where the row is out of regime.
        if broken:
            monkeypatch.setattr(suite, broken, lambda *args, **kwargs: _BROKEN[broken])
        expected = (set() if broken is None else {32, 64, 128}
                    if broken == "bch_factorization_check" else {16, 32, 64, 128})
        w = bench.WORKLOADS["converge-rand-16-128"]
        for seed in (0, 1, 2):
            out = tmp_path / str(seed)
            path = tmp_path / f"c{seed}.json"
            path.write_text(json.dumps(bench.make_config(w, seed, str(out))))
            convergence_study(load_config(path), list(w.dims))
            conv, quad = bench.load_tables(out)
            failed, problems = bench.check_converge_rows(w, conv, quad)
            assert not problems
            assert {key[1] for key in failed if key[0] == "convergence"} == expected
            assert {int(r["dim"]) for r in conv if r["status"] == "fail"} == expected


class TestSvdBudget:
    """Every norm residual is graded by ``fock._graded_norm``: a record whose
    Frobenius bound is within its tolerance passes on the bound and takes no
    SVD; only a would-be fail takes one."""

    @staticmethod
    def spy_svds(monkeypatch):
        """The shapes of the matrices handed to the exact norm, from here on."""
        shapes, norm = [], fock._spectral_norm

        def spy(X):
            shapes.append(X.shape)
            return norm(X)

        monkeypatch.setattr(fock, "_spectral_norm", spy)  # called by _graded_norm alone
        return shapes

    @pytest.mark.parametrize("map_spec", [GROUND_PROJECTOR,
                                          {"kind": "random", "cond": 10.0, "seed": 1}],
                             ids=["projector", "random"])
    def test_passing_verify_takes_no_svd(self, tmp_path, monkeypatch, map_spec):
        path = write_config(tmp_path / "c.json", dim=64, map_spec=map_spec,
                            z_samples=[[0, 0], [1, 0], [1, 1], [0, 2]])
        shapes = self.spy_svds(monkeypatch)
        assert main(["verify", "--config", str(path)]) == 0
        assert shapes == []

    def test_sweep_takes_two_svds(self, tmp_path, monkeypatch):
        # the dim-16 bch_u and bch_v at the fixed cutoff 8, above tolerance
        # (the row is out of regime); every other norm passes on its bound
        path = write_config(tmp_path / "c.json",
                            map_spec={"kind": "random", "cond": 10.0, "seed": 1},
                            z_samples=[[0, 0], [1, 0], [1, 1], [0, 2]])
        shapes = self.spy_svds(monkeypatch)
        conv_path, _ = convergence_study(load_config(path), [16, 32, 64, 128])
        assert shapes == [(8, 8), (8, 8)]
        rows = _rows(conv_path)
        assert float(rows[0]["bch_residual"]) > DEFAULT_TOLERANCES["bch_u"][0]
        assert [r["status"] for r in rows] == ["out-of-regime", "pass", "pass", "pass"]


class TestCoherentBudget:
    """Each amplitude's coherent state is built once, by ``rbcs``: the series
    route and the coordinate cross-validation read the run's bicoherent pair."""

    @staticmethod
    def spy_coherent(monkeypatch):
        """The amplitudes handed to ``bicoherent.coherent``, from here on."""
        calls, build = [], bicoherent.coherent

        def spy(space, z):
            calls.append(z)
            return build(space, z)

        monkeypatch.setattr(bicoherent, "coherent", spy)
        return calls

    @pytest.mark.parametrize("map_spec", [GROUND_PROJECTOR,
                                          {"kind": "random", "cond": 10.0, "seed": 1}],
                             ids=["projector", "random"])
    def test_verify_builds_one_state_per_amplitude(self, tmp_path, monkeypatch, map_spec):
        path = write_config(tmp_path / "c.json", dim=64, map_spec=map_spec,
                            z_samples=[[0, 0], [1, 0], [1, 1], [0, 2]])
        calls = self.spy_coherent(monkeypatch)
        assert main(["verify", "--config", str(path)]) == 0
        assert calls == [0, 1, 1 + 1j, 2j]

    def test_sweep_builds_one_state_per_dim(self, tmp_path, monkeypatch):
        path = write_config(tmp_path / "c.json",
                            map_spec={"kind": "random", "cond": 10.0, "seed": 1},
                            z_samples=[[0, 0], [1, 0], [1, 1], [0, 2]])
        calls = self.spy_coherent(monkeypatch)
        convergence_study(load_config(path), [16, 32, 64, 128])
        assert calls == [1, 1, 1, 1]


class TestAmplitudeLoopBudget:
    """The excited families are grown once for every amplitude, up to the
    largest term count (N = 1, 35, 43, 54 at z = 0, 1, 1+i, 2i), and each
    amplitude's truncation tail is taken once for all its records."""

    @pytest.mark.parametrize("map_spec", [GROUND_PROJECTOR,
                                          {"kind": "random", "cond": 10.0, "seed": 1}],
                             ids=["projector", "random"])
    def test_families_grown_once(self, tmp_path, monkeypatch, map_spec):
        path = write_config(tmp_path / "c.json", dim=64, map_spec=map_spec,
                            z_samples=[[0, 0], [1, 0], [1, 1], [0, 2]])
        raises, tails = [], []
        grow, tail = bicoherent._raise, suite.coherent_tail_bound

        def count_raise(border, v):
            raises.append(None)
            return grow(border, v)

        def count_tail(dim, z):
            tails.append(z)
            return tail(dim, z)

        monkeypatch.setattr(bicoherent, "_raise", count_raise)
        monkeypatch.setattr(suite, "coherent_tail_bound", count_tail)
        reports = run_suite(load_config(path))
        assert not suite_failed(reports)
        assert len(raises) == 53  # not 34 + 42 + 53 = 129, one growth per amplitude
        assert tails == [0, 1, 1 + 1j, 2j]

    @pytest.mark.parametrize("map_spec", [GROUND_PROJECTOR,
                                          {"kind": "random", "cond": 10.0, "seed": 1}],
                             ids=["projector", "random"])
    def test_no_amplitudes_is_a_valid_run(self, tmp_path, map_spec):
        path = write_config(tmp_path / "c.json", dim=64, map_spec=map_spec, z_samples=[])
        assert load_config(path).z_samples == ()
        assert main(["verify", "--config", str(path)]) == 0
        records = json.loads((tmp_path / "out" / "report.json").read_text())
        assert len(records) == 14
        assert all(r["status"] == "pass" and "z" not in r["params"] for r in records)


def test_verify_cutoffs_stay_in_regime(tmp_path):
    # verify takes each factorization cutoff from _bch_cutoff, so only the
    # amplitude can put a bch record out of regime
    path = write_config(tmp_path / "c.json", dim=32, allow_out_of_regime=True,
                        z_samples=[[0, 0], [1, 0], [1, 1], [0, 2], [2.5, 0]])
    reports = run_suite(load_config(path))
    bch = [r for r in reports if r.check_id in ("bch_u", "bch_v")]
    assert len(bch) == 10
    for r in bch:
        z = complex(r.params["z"])
        assert r.params["cutoff"] == suite._bch_cutoff(32, z)
        assert r.status == "pass"


@pytest.mark.parametrize("dim", [4, 5, 16, 64])
@pytest.mark.parametrize("map_spec", [{"kind": "projector", "u_index": 0},
                                      {"kind": "random", "cond": 10.0, "seed": 1}],
                         ids=["projector", "random"])
def test_verify_rule_is_never_under_resolved(tmp_path, dim, map_spec):
    # verify's rule of dim // 2 + 1 nodes resolves the map's own dim, so it
    # has no UnderResolvedWarning to silence (converge's quarter rules, and
    # its half rules on odd dims, do)
    path = write_config(tmp_path / "c.json", dim=dim, map_spec=map_spec)
    with warnings.catch_warnings():
        warnings.simplefilter("error", UnderResolvedWarning)
        reports = run_suite(load_config(path))
    assert [r.check_id for r in reports].count("resolution_identity") == 1


@pytest.mark.parametrize("runner", ["verify", "converge"])
def test_unencoded_warnings_reach_caller(tmp_path, monkeypatch, runner):
    # the runners silence only the warnings their statuses and columns
    # encode (accuracy regime, under-resolved rule); anything else, such
    # as a numpy RuntimeWarning, must reach the caller
    real_eigen_check = suite.eigen_check

    def noisy_eigen_check(*args, **kwargs):
        warnings.warn("probe", RuntimeWarning)
        return real_eigen_check(*args, **kwargs)

    monkeypatch.setattr(suite, "eigen_check", noisy_eigen_check)
    cfg = load_config(write_config(tmp_path / "c.json"))
    with pytest.warns(RuntimeWarning, match="probe"):
        if runner == "verify":
            run_suite(cfg)
        else:
            convergence_study(cfg, [16])


#: ``(key, config overrides)`` of a config value that ``load_config`` refuses,
#: naming ``key``, with or without the command-line overrides.
MALFORMED_VALUES = [
    ("dim", {"dim": "abc"}),
    ("dim", {"dim": None}),
    ("seed", {"seed": "s"}),
    ("seed", {"seed": -1}),
    ("map_spec.cond", {"map_spec": {"kind": "random", "cond": "x"}}),
    ("map_spec.cond", {"map_spec": {"kind": "random", "cond": float("nan")}}),
    ("map_spec.cond", {"map_spec": {"kind": "random", "cond": float("inf")}}),
    ("map_spec.u_index", {"map_spec": {"kind": "projector", "u_index": "x"}}),
    ("map_spec.seed", {"map_spec": {"kind": "random", "seed": [1]}}),
    ("map_spec.seed", {"map_spec": {"kind": "random", "seed": -3}}),
    ("z_samples", {"z_samples": [["a", 0]]}),
    ("z_samples", {"z_samples": [[float("nan"), 0]], "allow_out_of_regime": True}),
    ("z_samples", {"z_samples": [[0, float("-inf")]], "allow_out_of_regime": True}),
    ("outputs", {"outputs": 5}),
    ("allow_out_of_regime", {"z_samples": [[3, 0]], "allow_out_of_regime": "false"}),
    ("allow_out_of_regime", {"allow_out_of_regime": 0}),
    ("dim", {"dim": 16.9}),
    ("dim", {"dim": True}),
    ("map_spec.u_index", {"map_spec": {"kind": "projector", "u_index": 2.7}}),
    ("seed", {"seed": 1.5}),
    ("map_spec.seed", {"map_spec": {"kind": "random", "seed": 1.5}}),
    ("z_samples", {"z_samples": 5}),
    ("z_samples", {"z_samples": None}),
    ("z_samples", {"z_samples": [[1e154, 0]], "allow_out_of_regime": True}),
    ("z_samples", {"z_samples": [[0, -1e160]], "allow_out_of_regime": True}),
    ("dim", {"dim": "16"}),
    ("seed", {"seed": "7"}),
    ("map_spec.cond", {"map_spec": {"kind": "random", "cond": "10"}}),
    ("z_samples", {"z_samples": [["1", 0]]}),
    ("map_spec.cond", {"map_spec": {"kind": "random", "cond": 0.5}}),
    ("map_spec.cond", {"map_spec": {"kind": "random", "cond": 0}}),
    ("map_spec", {"map_spec": 5}),
    ("'kind'", {"map_spec": {"cond": 10.0}}),
    ("map_spec kind", {"map_spec": {"kind": "bogus"}}),
    ("'path'", {"map_spec": {"kind": "file"}}),
    ("z_samples", {"z_samples": [[1, 0, 0]]}),
    ("z_samples", {"z_samples": [1]}),
    ("u_index", {"map_spec": {"kind": "projector", "u_index": 99}}),
    ("u_index", {"map_spec": {"kind": "projector", "u_index": -1}}),
]

#: ``(key, text)`` of a config file that ``load_config`` refuses as a
#: whole, naming ``key``: not JSON, not an object, or without a required key.
MALFORMED_FILES = [
    ("not valid JSON", "{dim: 16"),
    ("JSON object", "[1, 2]"),
    ("'dim'", '{"schema_version": 1, "map_spec": {"kind": "identity"}}'),
    ("'map_spec'", '{"schema_version": 1, "dim": 16}'),
]


class TestCli:
    def test_verify_exit_zero(self, tmp_path, capsys):
        path = write_config(tmp_path / "c.json")
        assert main(["verify", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "pass" in out

    def test_verify_prints_the_written_table(self, tmp_path, capsys):
        # stdout is report.txt, the table run_suite wrote, and the line
        # naming the directory: the bytes of the table formatted afresh
        path = write_config(tmp_path / "c.json", dim=32,
                            map_spec={"kind": "random", "cond": 10.0, "seed": 1})
        assert main(["verify", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        table = (tmp_path / "out" / "report.txt").read_text()
        assert out == table + f"reports written to {tmp_path / 'out'}\n"
        written = json.loads((tmp_path / "out" / "report.json").read_text())
        records = [CheckReport(**r) for r in written]
        assert table == format_report_table(records) + "\n"

    def test_verify_exit_one_on_failure(self, tmp_path):
        path = write_config(tmp_path / "c.json",
                            map_spec={"kind": "random", "cond": 1e6, "seed": 1})
        assert main(["verify", "--config", str(path)]) == 1

    @pytest.mark.parametrize("dim, z_samples", [
        (8, [[0, 0], [1, 0], [0.5, 0.5], [1, 0.9], [1, 1]]),
        (16, [[0, 0], [1, 0], [1, 1], [0, 2]]),
        (24, [[0, 0], [1, 0], [1, 1], [0, 2]]),
    ])
    def test_coordinate_l2_carries_the_truncation_tail(self, tmp_path, dim, z_samples):
        # coordinate_l2 measures the coherent tail sqrt(P(dim, |z|^2)), and
        # its tolerance carries cond times the tail's majorant: at these dims
        # the tail alone used to fail it (2i at dim 24: 3.1e-6 against 1e-8).
        # Dim 8 refuses 2i as out of regime; 1+i sits on its edge, |1+i|^2 =
        # 8/4 exactly (abs(1+1j) ** 2 would round to 2.0000000000000004)
        path = write_config(tmp_path / "c.json", dim=dim, map_spec=GROUND_PROJECTOR,
                            z_samples=z_samples)
        assert main(["verify", "--config", str(path)]) == 0
        records = json.loads((tmp_path / "out" / "report.json").read_text())
        l2 = [r for r in records if r["check_id"] == "coordinate_l2"]
        assert len(l2) == len(z_samples)
        assert all(r["status"] == "pass" for r in l2)
        assert max(r["residual"] for r in l2) > 1e-8  # the tail term is needed

    def test_overflowing_amplitude_is_graded(self, tmp_path):
        # at |z| = 1e70 the powers of z would overflow; the power check
        # carries them at z scaled by a power of two, so its residual is
        # finite, raises no RuntimeWarning, and is graded out-of-regime
        path = write_config(tmp_path / "c.json",
                            map_spec={"kind": "random", "cond": 10.0, "seed": 3},
                            z_samples=[[1e70, 0]], allow_out_of_regime=True)
        assert main(["verify", "--config", str(path)]) == 0
        records = json.loads((tmp_path / "out" / "report.json").read_text())
        assert len(records) == 22
        power = next(r for r in records if r["check_id"] == "power_similarity")
        assert np.isfinite(power["residual"]) and power["status"] == "out-of-regime"
        assert power["residual"] <= power["tolerance"]
        assert {r["status"] for r in records} == {"pass", "out-of-regime"}

    @pytest.mark.parametrize("z", [[1e-310, 0], [2.2e-313, 0], [0, -1e-320], [3e-320, 4e-320]])
    def test_subnormal_amplitude_is_graded(self, tmp_path, z):
        # z / |z| overflows at a subnormal z; the phase is taken from z
        # scaled by a power of two, so every record is graded, and passes
        path = write_config(tmp_path / "c.json",
                            map_spec={"kind": "random", "cond": 10.0, "seed": 3}, z_samples=[z])
        assert main(["verify", "--config", str(path)]) == 0
        records = json.loads((tmp_path / "out" / "report.json").read_text())
        assert len(records) == 22
        assert {r["status"] for r in records} == {"pass"}

    def test_vanished_state_reads_nan_without_warning(self, tmp_path):
        # at |z| = 1e70 the truncated coherent states underflow to zero:
        # eigen_check writes NaN instead of dividing 0 by 0
        path = write_config(tmp_path / "c.json",
                            map_spec={"kind": "random", "cond": 10.0, "seed": 3},
                            z_samples=[[1e70, 0]], allow_out_of_regime=True)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["verify", "--config", str(path)]) == 0
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)
                    and Path(w.filename).name == "bicoherent.py"]
        records = json.loads((tmp_path / "out" / "report.json").read_text())
        eigen = {r["check_id"]: r["residual"] for r in records if r["check_id"].startswith("eigen")}
        assert set(eigen) == {"eigen_eta", "eigen_xi"}
        assert all(np.isnan(r) for r in eigen.values())

    def test_config_error_exit_two(self, tmp_path, capsys):
        path = write_config(tmp_path / "c.json", extra=1)
        assert main(["verify", "--config", str(path)]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_missing_config_exit_two(self, tmp_path):
        assert main(["verify", "--config", str(tmp_path / "absent.json")]) == 2

    @pytest.mark.parametrize("key, text", MALFORMED_FILES)
    def test_malformed_config_file_exit_two(self, tmp_path, capsys, key, text):
        path = tmp_path / "c.json"
        path.write_text(text)
        assert main(["verify", "--config", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("configuration error: ") and key in err[0]

    @pytest.mark.parametrize("dims, key", [("a,b", "--dims"), ("2,8", ">= 4")])
    def test_malformed_dims_exit_two(self, tmp_path, capsys, dims, key):
        path = write_config(tmp_path / "c.json")
        assert main(["converge", "--config", str(path), "--dims", dims]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("configuration error: ") and key in err[0]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, overrides", MALFORMED_VALUES)
    def test_malformed_config_value_exit_two(self, tmp_path, capsys, key, overrides):
        path = write_config(tmp_path / "c.json", **overrides)
        assert main(["verify", "--config", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("configuration error: ") and key in err[0]

    @pytest.mark.parametrize("key, overrides", MALFORMED_VALUES)
    def test_malformed_config_value_under_flags_exit_two(self, tmp_path, capsys, key, overrides):
        # --dim, --seed and --out replace the config's values, but do not
        # excuse them from the checks
        path = write_config(tmp_path / "c.json", **overrides)
        flags = ["--dim", "64", "--seed", "3", "--out", str(tmp_path / "flagged")]
        assert main(["verify", "--config", str(path), *flags]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("configuration error: ") and key in err[0]

    @pytest.mark.parametrize("verb", ["converge", "emit-wavefunctions"])
    def test_overflowing_square_exit_two(self, tmp_path, capsys, verb):
        # 4|z|^2 overflows a float at |z| = 1e154: refused before any run
        path = write_config(tmp_path / "c.json", z_samples=[[1e154, 0]], allow_out_of_regime=True)
        assert main([verb, "--config", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("configuration error: ") and "z_samples" in err[0]

    def test_largest_squarable_amplitude_is_graded(self, tmp_path):
        # 4|z|^2 = 4e306 is still a finite float, so every record is graded
        path = write_config(tmp_path / "c.json",
                            map_spec={"kind": "random", "cond": 10.0, "seed": 3},
                            z_samples=[[1e153, 0]], allow_out_of_regime=True)
        assert main(["verify", "--config", str(path)]) == 0
        records = json.loads((tmp_path / "out" / "report.json").read_text())
        assert len(records) == 22
        assert {r["status"] for r in records} == {"pass", "out-of-regime"}

    @pytest.mark.parametrize("verb", ["verify", "converge", "emit-wavefunctions"])
    def test_unwritable_output_exit_two(self, tmp_path, capsys, verb):
        # a directory beneath a regular file cannot be made, even by root
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "out"
        overrides = {"map_spec": GROUND_PROJECTOR} if verb == "emit-wavefunctions" else {}
        path = write_config(tmp_path / "c.json", **overrides)
        assert main([verb, "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("configuration error: ") and str(out) in err[0]

    @pytest.mark.parametrize("content", [
        None,
        "not json",
        '{"dim": "abc", "entries": []}',
        '{"dim": 2, "entries": [[1], [0, 0], [0, 0], [1, 0]]}',
        '{"dim": 2, "entries": [["a", "b"], [0, 0], [0, 0], [1, 0]]}',
    ], ids=["missing", "invalid-json", "dim-not-a-number", "short-entry", "string-entry"])
    def test_malformed_map_file_exit_one(self, tmp_path, capsys, content):
        map_path = tmp_path / "map.json"
        if content is not None:
            map_path.write_text(content)
        path = write_config(tmp_path / "c.json", map_spec={"kind": "file", "path": str(map_path)})
        assert main(["verify", "--config", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and str(map_path) in err[0]

    def test_strict_flag(self, tmp_path):
        path = write_config(tmp_path / "c.json", z_samples=[[5, 0]],
                            allow_out_of_regime=True)
        assert main(["verify", "--config", str(path)]) == 0
        assert main(["verify", "--config", str(path), "--strict"]) == 1

    @pytest.mark.parametrize("verb, flags", [
        ("converge", ["--strict"]),
        ("emit-wavefunctions", ["--strict"]),
        ("emit-wavefunctions", ["--seed", "1"]),
    ])
    def test_verb_refuses_flags_it_does_not_read(self, tmp_path, verb, flags):
        path = write_config(tmp_path / "c.json", map_spec=GROUND_PROJECTOR)
        with pytest.raises(SystemExit) as exc:
            main([verb, "--config", str(path), *flags])
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("verb, flags", [
        ("verify", ["--out", "{out}", "--dim", "8", "--seed", "3", "--strict"]),
        ("converge", ["--out", "{out}", "--dim", "8", "--seed", "3", "--dims", "8,16"]),
        ("emit-wavefunctions", ["--out", "{out}", "--dim", "8"]),
    ])
    def test_verb_takes_its_flags(self, tmp_path, verb, flags):
        path = write_config(tmp_path / "c.json", map_spec=GROUND_PROJECTOR, z_samples=[[0, 0]])
        out = tmp_path / "elsewhere"
        assert main([verb, "--config", str(path),
                     *(f.format(out=out) for f in flags)]) == 0
        assert any(out.iterdir())

    @pytest.mark.parametrize("map_spec", [
        {"kind": "identity"},
        {"kind": "random", "cond": 10.0, "seed": 1},
        {"kind": "projector", "u_index": 1},
    ], ids=["identity", "random", "projector1"])
    def test_emit_wavefunctions_refuses_other_maps(self, tmp_path, capsys, map_spec):
        # the closed forms it writes are the ground-state projector's only
        path = write_config(tmp_path / "c.json", map_spec=map_spec)
        assert main(["emit-wavefunctions", "--config", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("configuration error: ")
        assert not (tmp_path / "out").exists()

    def test_dim_override(self, tmp_path):
        path = write_config(tmp_path / "c.json")
        assert main(["verify", "--config", str(path), "--dim", "8"]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        resolution = next(r for r in report if r["check_id"] == "resolution_identity")
        assert resolution["params"]["radial"] == 5

    def test_converge_writes_tables(self, tmp_path, capsys):
        path = write_config(tmp_path / "c.json")
        assert main(["converge", "--config", str(path), "--dims", "8,16"]) == 0
        assert (tmp_path / "out" / "convergence.csv").exists()
        assert (tmp_path / "out" / "quadrature.csv").exists()

    def test_emit_wavefunctions_takes_a_file_ground_projector(self, tmp_path):
        # the map decides, not the kind that names it
        save_riesz_map(projector_map(FockSpace(16), FockSpace(16).basis_vector(0)),
                       tmp_path / "map.json")
        for name, map_spec in (("proj", GROUND_PROJECTOR),
                               ("file", {"kind": "file", "path": str(tmp_path / "map.json")})):
            path = write_config(tmp_path / f"{name}.json", map_spec=map_spec,
                                z_samples=[[1, 1]], outputs=str(tmp_path / name))
            assert main(["emit-wavefunctions", "--config", str(path)]) == 0
        (proj,), (file,) = (sorted((tmp_path / n).glob("*.csv")) for n in ("proj", "file"))
        assert proj.read_bytes() == file.read_bytes()

    def test_emit_wavefunctions(self, tmp_path):
        path = write_config(tmp_path / "c.json", z_samples=[[1, 0], [0, 1]],
                            map_spec=GROUND_PROJECTOR)
        assert main(["emit-wavefunctions", "--config", str(path)]) == 0
        files = sorted((tmp_path / "out").glob("wavefunctions_*.csv"))
        assert len(files) == 2
        header = files[0].read_text().splitlines()[0]
        assert header == "x,re_Phi,im_Phi,re_phi,im_phi,re_psi,im_psi"


def test_cli_import_leaves_scipy_out(tmp_path):
    # the runtime is numpy only, and computes its Gauss rules without
    # numpy.polynomial; scipy and mpmath serve the tests as oracles.  The
    # benchmark's setup_s times this import and load_config in a fresh
    # process, and importing scipy alone costs more than all of that
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    path = write_config(tmp_path / "c.json")
    code = ("import sys; import pseudoboson.cli; from pseudoboson.config import load_config; "
            f"load_config({str(path)!r}); "
            "sys.exit(any(m.split('.')[0] in ('scipy', 'mpmath') or m == 'numpy.polynomial' "
            "for m in sys.modules))")
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


#: every process-level cache in src/, with a small argument list for each
_PROCESS_CACHES = {
    "algebra._sqrt_range": (3, 9),
    "bicoherent._laguerre_rule": (5,),
    "coordinate._grid_stack": (6,),
    "coordinate.gauss_hermite_grid": (6,),
    "displacement._position_spectrum": (6,),
}


def test_process_caches_hand_out_read_only_arrays():
    # a cached array is shared by every later call in the process, so no
    # caller may write into it and corrupt a later run
    found = set()
    for info in pkgutil.iter_modules(pseudoboson.__path__):
        if info.name == "__main__":
            continue  # importing it runs the CLI
        mod = importlib.import_module(f"pseudoboson.{info.name}")
        found |= {f"{info.name}.{name}" for name, obj in vars(mod).items()
                  if hasattr(obj, "cache_info") and obj.__module__ == mod.__name__}
    assert found == set(_PROCESS_CACHES)
    for name, args in _PROCESS_CACHES.items():
        mod, fn = name.split(".")
        out = getattr(importlib.import_module(f"pseudoboson.{mod}"), fn)(*args)
        for arr in out if isinstance(out, tuple) else (out,):
            assert isinstance(arr, np.ndarray) and not arr.flags.writeable, name


@pytest.mark.parametrize("dim", [4, 5])
@pytest.mark.parametrize("map_spec", [{"kind": "identity"},
                                      {"kind": "random", "cond": 10.0, "seed": 2}],
                         ids=["identity", "random-seed2"])
def test_bch_without_margin_is_out_of_regime(tmp_path, dim, map_spec):
    # dims 4 and 5 leave no cutoff below the factorization's margin
    # dim - ceil(4|z|^2) - 6: its cutoff is clamped to 1, where the residual
    # is truncation tail (7.8e-4 at dim 4, z = 1, on the identity map), so
    # bch_u and bch_v are out of regime at every amplitude, and every other
    # record is graded as before
    path = write_config(tmp_path / "c.json", dim=dim, map_spec=map_spec,
                        z_samples=[[0, 0], [1, 0]])
    reports = run_suite(load_config(path))
    bch = [r for r in reports if r.check_id in ("bch_u", "bch_v")]
    assert len(bch) == 4
    assert all(r.params["cutoff"] == 1 and r.status == "out-of-regime" for r in bch)
    assert min(r.residual for r in bch if r.params["z"] == "1+0j") > 1e-5
    assert all(r.status == "pass" for r in reports if r.check_id not in ("bch_u", "bch_v"))
    assert suite._bch_margin(dim, 0) < 1 and suite._bch_cutoff(dim, 1) == 1
