"""Self-test of the benchmark's correctness checks and of the tracer.

Run from the root of a checkout::

    python3 perfbench/selftest.py

Each check first runs once on a small real output of the program and
must accept it; then it is fed a deliberately perturbed copy (one entry
of ``W`` changed, a report record dropped, a status flipped, ...) and
must reject it.  Exits 1 if any case goes the wrong way.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from pseudoboson import FockSpace, build_map, cli, load_config, rbcs, weyl  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer  # noqa: E402

WORK = ROOT / ".perfbench_out" / "selftest"
# The verify workloads at dim 32 (dim 16 leaves truncation tails above
# the tolerances at |z|^2 = 4).
SMALL_RAND = dataclasses.replace(wl.WORKLOADS["verify-rand-64"], name="selftest-rand", dim=32)
SMALL_PROJ = dataclasses.replace(
    wl.WORKLOADS["verify-proj-256"], name="selftest-proj", dim=32, named_faults=frozenset())
FAILURES = []


def expect(what: str, ok: bool):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def run_cli(w: wl.Workload, seed: int = 5):
    out = WORK / w.name
    config_path = WORK / f"{w.name}.json"
    config_path.write_text(json.dumps(wl.make_config(w, seed, str(out))))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(wl.cli_args(w, str(config_path), str(out)))
    return rc, worker.outputs_of(w, out), config_path


def test_verify(w: wl.Workload):
    rc, records, _ = run_cli(w)
    failed, problems = worker.check_outputs(w, records, rc)
    expect(f"{w.name}: real report accepted ({len(records)} records)",
           not failed and not problems and len(records) == len(wl.expected_check_keys(w)))
    # perturb counted records that passed
    i, j, k = [n for n, r in enumerate(records)
               if wl.record_key(r) not in w.uncounted and r["status"] == "pass"][:3]

    key = wl.record_key(records[i])
    failed, _ = wl.check_verify_records(w, records[:i] + records[i + 1:])
    expect(f"{w.name}: dropped record {key} counted as failed", failed == {key})

    _, problems = wl.check_verify_records(w, records + [records[i]])
    expect(f"{w.name}: duplicate record rejected", bool(problems))

    extra = dict(records[i], params={"z": "9+9j"})
    _, problems = wl.check_verify_records(w, records + [extra])
    expect(f"{w.name}: record the config does not call for rejected", bool(problems))

    flipped = copy.deepcopy(records)
    flipped[j]["status"] = "fail"
    failed, _ = wl.check_verify_records(w, flipped)
    expect(f"{w.name}: status fail with residual <= tolerance counted as failed",
           failed == {wl.record_key(records[j])})

    lying = copy.deepcopy(records)
    lying[k]["residual"] = 10 * lying[k]["tolerance"]
    failed, _ = wl.check_verify_records(w, lying)
    expect(f"{w.name}: status pass with residual > tolerance counted as failed",
           failed == {wl.record_key(records[k])})

    _, problems = worker.check_outputs(w, records, 1 - rc)
    expect(f"{w.name}: exit code {1 - rc} where the report calls for {rc} rejected", bool(problems))

    for n, r in enumerate(records):
        if wl.record_key(r) in w.uncounted:
            inconsistent = copy.deepcopy(records)
            inconsistent[n]["status"] = "pass" if r["status"] == "fail" else "fail"
            failed, problems = wl.check_verify_records(w, inconsistent)
            expect(f"{w.name}: uncounted {wl.record_key(r)} with a flipped status rejected",
                   bool(problems) and not failed)
            _, problems = wl.check_verify_records(w, records[:n] + records[n + 1:])
            expect(f"{w.name}: uncounted {wl.record_key(r)} dropped rejected", bool(problems))

    timed = copy.deepcopy(records)
    timed[i]["wall_time"] += 1.0
    changed = copy.deepcopy(records)
    changed[i]["residual"] = 2.0 * changed[i]["residual"] + 1e-20
    expect(f"{w.name}: determinism ignores wall_time",
           wl.strip_wall_time(timed) == wl.strip_wall_time(records))
    expect(f"{w.name}: determinism sees a changed residual",
           wl.strip_wall_time(changed) != wl.strip_wall_time(records))


def test_converge():
    w = wl.Workload("selftest-converge", "converge", 16, "random", dims=(16, 32))
    rc, (conv, quad), _ = run_cli(w)
    failed, problems = worker.check_outputs(w, (conv, quad), rc)
    expect(f"{w.name}: real tables accepted ({len(conv)} + {len(quad)} rows)",
           not failed and not problems)

    for radial, dev, what in ((32, "1.0e-08", "full rule"), (16, "1.0e-08", "half rule"),
                              (8, "5.0e-04", "quarter rule")):
        bad = copy.deepcopy(quad)
        row = next(r for r in bad if int(r["dim"]) == 32 and int(r["radial_count"]) == radial)
        row["deviation"] = dev
        failed, _ = wl.check_converge_rows(w, conv, bad)
        expect(f"{w.name}: {what} deviation {dev} counted as failed",
               failed == {("quadrature", 32, radial)})

    bad = copy.deepcopy(conv)
    bad[0]["resolution_deviation"] = "2.0e-10"
    failed, _ = wl.check_converge_rows(w, bad, quad)
    expect(f"{w.name}: convergence row above 1e-10 counted as failed",
           failed == {("convergence", 16, None)})

    for dim, column, value, counted in ((32, "eigen_xi", "1.0e-09", True),
                                        (16, "eigen_eta", "1.0e-04", True),
                                        (32, "bch_residual", "2.0e-08", True),
                                        (16, "bch_residual", "2.0e-08", False)):
        bad = copy.deepcopy(conv)
        next(r for r in bad if int(r["dim"]) == dim)[column] = value
        failed, _ = wl.check_converge_rows(w, bad, quad)
        expect(f"{w.name}: {column} {value} at dim {dim} "
               + ("counted as failed" if counted else "unbounded without the cutoff margin"),
               failed == ({("convergence", dim, None)} if counted else set()))

    bad = copy.deepcopy(conv)
    bad[1]["z"] = "2+0j"
    _, problems = wl.check_converge_rows(w, bad, quad)
    expect(f"{w.name}: convergence row at another amplitude rejected", bool(problems))

    failed, _ = wl.check_converge_rows(w, conv, quad[1:])
    expect(f"{w.name}: dropped quadrature row counted as failed", len(failed) == 1)

    bad = copy.deepcopy(quad)
    bad[0]["angular_count"] = "31"
    _, problems = wl.check_converge_rows(w, conv, bad)
    expect(f"{w.name}: wrong angular count rejected", bool(problems))


def test_direct_outputs():
    for z in (1 + 1j, 2j):
        W = np.array(weyl(FockSpace(32), z).mat)
        expect(f"weyl(z={wl.format_z(z)}) at dim 32 matches the closed form",
               not wl.check_displacement(W, z))
        W[2, 1] += 1e-9
        expect(f"weyl(z={wl.format_z(z)}) with one entry changed by 1e-9 rejected",
               bool(wl.check_displacement(W, z)))

    _, _, config_path = run_cli(SMALL_PROJ)
    riesz = build_map(load_config(config_path))
    bc = rbcs(riesz, 1 + 1j)
    expect("projector rbcs matches the closed-form pair",
           not wl.check_projector_pair(bc.eta, bc.xi, 1 + 1j))
    eta = np.array(bc.eta)
    eta[0] += 1e-10
    expect("projector rbcs with eta_0 changed by 1e-10 rejected",
           bool(wl.check_projector_pair(eta, bc.xi, 1 + 1j)))
    xi = np.array(bc.xi)
    xi[0] = bc.eta[0]  # the classic slip: the same deformation on both sides
    expect("projector rbcs with xi built like eta rejected",
           bool(wl.check_projector_pair(bc.eta, xi, 1 + 1j)))

    _, _, config_path = run_cli(SMALL_RAND)
    S = np.array(build_map(load_config(config_path)).S.mat)
    expect("random map has cond 10", not wl.check_random_map(S))
    S[0, 0] *= 1.01
    expect("random map with one entry scaled by 1.01 rejected", bool(wl.check_random_map(S)))


def test_tracer():
    tracer = Tracer()
    names = set(tracer.install())
    missing = {worker.split_metric(name)[0] for name in worker.PER_LAYER} - names
    expect(f"tracer wraps every per-layer span ({len(names)} wrapped)", not missing)

    begin = tracer.mark()
    run_cli(SMALL_PROJ)
    summary = tracer.summarize(begin, tracer.mark())
    expect("traced verify: one cli.main, one run_suite",
           summary["cli.main"]["calls"] == 1 and summary["suite.run_suite"]["calls"] == 1)
    expect("traced verify: make_pair and weyl are seen through the modules that import them",
           summary["algebra.make_pair"]["calls"] > 1 and summary["displacement.weyl"]["calls"] > 1)
    total_self = sum(agg["self_s"] for agg in summary.values())
    expect("traced verify: self times add up to the root span",
           abs(total_self - summary["cli.main"]["s"]) <= 1e-9 * max(1.0, total_self))
    expect("traced verify: self time never exceeds inclusive time",
           all(agg["self_s"] <= agg["s"] + 1e-12 for agg in summary.values()))


def main() -> int:
    WORK.mkdir(parents=True, exist_ok=True)
    test_verify(SMALL_RAND)
    test_verify(SMALL_PROJ)
    test_converge()
    test_direct_outputs()
    test_tracer()  # last: it wraps the package for the rest of the process
    print(f"{len(FAILURES)} failing case(s)" if FAILURES else "all cases behave")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
