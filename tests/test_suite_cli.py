import csv
import importlib
import inspect
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from pseudoboson import (
    ConfigError,
    DegenerateKernelError,
    OrthogonalVacuaError,
    ValidationError,
    build_map,
    convergence_study,
    load_config,
    run_suite,
    save_riesz_map,
    suite_failed,
)
from pseudoboson import coordinate, make_riesz_map, make_space, random_riesz_map, suite
from pseudoboson.cli import main


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
        assert cfg.seed == 11
        assert cfg.outputs == tmp_path / "elsewhere"

    def test_file_map_spec(self, tmp_path):
        riesz = random_riesz_map(make_space(16), 5.0, seed=2)
        save_riesz_map(riesz, tmp_path / "map.json")
        path = write_config(tmp_path / "c.json",
                            map_spec={"kind": "file", "path": str(tmp_path / "map.json")})
        cfg = load_config(path)
        loaded = build_map(cfg)
        np.testing.assert_array_equal(loaded.S.mat, riesz.S.mat)

    def test_file_map_dim_mismatch(self, tmp_path):
        riesz = random_riesz_map(make_space(8), 5.0, seed=2)
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

    def test_coordinate_refusal_recorded(self, tmp_path, monkeypatch):
        # a cross-validation that raises is recorded as two refusals and
        # the run still reports
        def refuse(z, riesz):
            raise ValidationError("cross-validation refused")

        monkeypatch.setattr(suite, "cross_validate", refuse)
        path = write_config(tmp_path / "c.json",
                            map_spec={"kind": "projector", "u_index": 0})
        reports = run_suite(load_config(path))
        refused = [r for r in reports if r.check_id.startswith("coordinate_")]
        assert [r.check_id for r in refused] == ["coordinate_l2"] * 2 + ["coordinate_pairing"] * 2
        for r in refused:
            assert r.residual == float("inf") and r.status == "fail"
            assert r.params["error"] == "cross-validation refused"
        records = json.loads((tmp_path / "out" / "report.json").read_text())
        assert len(records) == len(reports)

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


class TestConvergenceStudy:
    def test_tables(self, tmp_path):
        path = write_config(tmp_path / "c.json",
                            map_spec={"kind": "projector", "u_index": 0},
                            z_samples=[[1, 0]])
        conv_path, quad_path = convergence_study(load_config(path), [16, 32, 64])
        with conv_path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["dim"]) for r in rows] == [16, 32, 64]
        eigen = [float(r["eigen_eta"]) for r in rows]
        assert eigen[0] > eigen[1] > eigen[2]
        bch = [float(r["bch_residual"]) for r in rows]
        assert bch[0] >= bch[1] >= bch[2]
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
        assert rows[1]["in_regime"] == "True"   # 6.25 <= 32/4

    def test_dims_must_ascend(self, tmp_path):
        cfg = load_config(write_config(tmp_path / "c.json"))
        with pytest.raises(ConfigError):
            convergence_study(cfg, [32, 16])


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


class TestCli:
    def test_verify_exit_zero(self, tmp_path, capsys):
        path = write_config(tmp_path / "c.json")
        assert main(["verify", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "pass" in out

    def test_verify_exit_one_on_failure(self, tmp_path):
        path = write_config(tmp_path / "c.json",
                            map_spec={"kind": "random", "cond": 1e6, "seed": 1})
        assert main(["verify", "--config", str(path)]) == 1

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

    def test_strict_flag(self, tmp_path):
        path = write_config(tmp_path / "c.json", z_samples=[[5, 0]],
                            allow_out_of_regime=True)
        assert main(["verify", "--config", str(path)]) == 0
        assert main(["verify", "--config", str(path), "--strict"]) == 1

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

    def test_emit_wavefunctions(self, tmp_path):
        path = write_config(tmp_path / "c.json", z_samples=[[1, 0], [0, 1]])
        assert main(["emit-wavefunctions", "--config", str(path)]) == 0
        files = sorted((tmp_path / "out").glob("wavefunctions_*.csv"))
        assert len(files) == 2
        header = files[0].read_text().splitlines()[0]
        assert header == "x,re_Phi,im_Phi,re_phi,im_phi,re_psi,im_psi"


def test_benchmark_spans_are_public_functions():
    # the benchmark's layer trace wraps each function of a module's __all__
    # defined in that module (plus Operator.__post_init__) and refuses a
    # per-layer metric whose span it cannot find
    bench = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    spans = {m["name"].rsplit(".", 1)[0] for m in bench["per_layer"]}
    assert spans
    for span in spans:
        module, name = span.split(".")
        mod = importlib.import_module(f"pseudoboson.{module}")
        obj = getattr(mod, name, None)
        if span == "fock.Operator":
            assert inspect.isclass(obj) and "__post_init__" in vars(obj)
            continue
        assert name in mod.__all__, span
        assert inspect.isfunction(obj) and obj.__module__ == mod.__name__, span


def test_cli_import_leaves_scipy_out():
    # the runtime is numpy only, and computes its Gauss rules without
    # numpy.polynomial; scipy serves the tests as an oracle
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import pseudoboson.cli, sys; "
            "sys.exit('scipy' in sys.modules or 'numpy.polynomial' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0
