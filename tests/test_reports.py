import json

from pseudoboson import (
    DEFAULT_TOLERANCES,
    CheckReport,
    ResidualRecord,
    SafeSubspace,
    bch_factorization_check,
    biorthogonal_family,
    displaced_pair,
    format_report_table,
    intertwining_check,
    ladder_check,
    make_pair,
    metric_operator,
    number_operator_check,
    power_similarity_check,
    reports_to_json,
    theta_conjugacy_check,
)


def test_residual_record_pass_flag():
    assert ResidualRecord(check="x", n=0, residual=1e-12, tolerance=1e-9).passed
    assert not ResidualRecord(check="x", n=0, residual=1e-6, tolerance=1e-9).passed


def test_check_records_carry_table_tolerance(random_map64):
    # every check takes its tolerance from DEFAULT_TOLERANCES at the map's cond
    riesz = random_map64
    pair, met = make_pair(riesz), metric_operator(riesz)
    fam = biorthogonal_family(riesz)
    disp = displaced_pair(riesz, 1.0)
    sub = SafeSubspace(riesz.space, 32)
    groups = {
        "ladder": ladder_check(pair, fam),
        "number_operator": number_operator_check(pair, fam),
        "theta_conjugacy": [theta_conjugacy_check(pair, met, sub)],
        "power_similarity": power_similarity_check(pair, 1.0),
        "intertwining": [intertwining_check(disp, met, sub)],
    }
    for record in bch_factorization_check(pair, disp, sub):
        groups[record.check] = [record]
    assert set(groups) >= {"bch_u", "bch_v"}
    for name, records in groups.items():
        base, power = DEFAULT_TOLERANCES[name]
        assert all(r.tolerance == base * riesz.cond**power for r in records), name


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
