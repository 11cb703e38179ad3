import json

import numpy as np

from pseudoboson import (
    DEFAULT_TOLERANCES,
    CheckReport,
    build_map,
    coherent_tail_bound,
    format_report_table,
    load_config,
    reports_to_json,
    run_suite,
)
from pseudoboson.reports import default_tolerance


def test_check_records_carry_table_tolerance(tmp_path):
    # the runner composes every tolerance: the table value at the map's
    # cond, plus the stated tail term of the three checks that compare
    # against truncated coherent states
    path = tmp_path / "c.json"
    path.write_text(json.dumps({
        "schema_version": 1,
        "dim": 24,
        "map_spec": {"kind": "random", "cond": 10.0, "seed": 3},
        "outputs": str(tmp_path / "out"),
    }))
    cfg = load_config(path)
    cond = build_map(cfg).cond
    reports = run_suite(cfg)
    assert {r.check_id for r in reports} == set(DEFAULT_TOLERANCES) - {
        "coordinate_l2", "coordinate_pairing"}
    for r in reports:
        tail = coherent_tail_bound(24, complex(r.params.get("z", "0")))
        extra = {
            "rbcs_pairing": 4.0 * cond * tail**2,
            "eigen_eta": 10.0 * np.sqrt(24) * cond * tail,
            "eigen_xi": 10.0 * np.sqrt(24) * cond * tail,
        }.get(r.check_id, 0.0)
        assert r.tolerance == default_tolerance(r.check_id, cond) + extra, r
        if r.check_id in ("rbcs_pairing", "eigen_eta", "eigen_xi") and r.params["z"] != "0+0j":
            assert r.tolerance > default_tolerance(r.check_id, cond), r


def test_table_summary_counts():
    reports = [
        CheckReport(check_id="a", residual=0.0, tolerance=1e-9, status="pass"),
        CheckReport(check_id="b", residual=1.0, tolerance=1e-9, status="fail"),
        CheckReport(check_id="c", residual=0.5, tolerance=1e-9, status="out-of-regime"),
    ]
    table = format_report_table(reports)
    assert "3 checks: 1 pass, 1 fail, 1 out-of-regime" in table
    assert table.count("\n") >= 5


def test_json_roundtrip():
    reports = [
        CheckReport(check_id="a", params={"z": "1+0j"}, residual=1e-12,
                    tolerance=1e-9, status="pass", wall_time=0.25)
    ]
    records = json.loads(reports_to_json(reports))
    assert records == [
        {
            "check_id": "a",
            "params": {"z": "1+0j"},
            "residual": 1e-12,
            "tolerance": 1e-9,
            "status": "pass",
            "wall_time": 0.25,
        }
    ]
