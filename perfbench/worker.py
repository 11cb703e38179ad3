"""One workload in one process: a closed loop with one client.

Runs ``pseudoboson.cli.main`` in process, one untimed warm-up iteration
and then iterations back to back until ``--seconds`` have passed; the
fastest iteration is the wall time.  Between iterations, spread through
the run, fresh processes time the set-up (import and config load).  Each
iteration's outputs are checked (outside the timed region) with the
checks of :mod:`workloads`; the program's direct outputs (``W(z)``, the
projector pair, the random map) are checked once, before the loop.
With ``--trace-file`` the package is wrapped by :class:`tracer.Tracer` and
per-iteration layer figures are reported instead of the wall time.

The result is written as JSON to ``--result``.  ``run.py`` starts this
script with BLAS pinned to one thread and ``PYTHONPATH`` set to the
checkout's ``src``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl
from pseudoboson import bicoherent, cli, config, displacement, fock
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent

#: Fresh processes timed for ``setup_s``, spread through the timed loop;
#: the fastest is reported, since start-up noise only ever adds time.
SETUP_PROBES = 10
PROBE_TIMEOUT = 20

# Start-up as the CLI pays it: interpreter, package import, config load.
_PROBE = (
    "import time; import pseudoboson.cli; from pseudoboson.config import load_config; "
    "load_config({config!r}); print(repr(time.monotonic()))"
)

#: Per-layer metrics, as ``BENCHMARK.json`` lists them, named
#: ``<span>.<quantity>``: the span is a traced function (``fock.Operator``
#: is ``Operator.__post_init__``), the quantity a key of
#: :meth:`Tracer.summarize`, or ``constructions``, the call count of
#: ``Operator.__post_init__``.
PER_LAYER = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
UNITS = {"calls": "count", "s": "s", "self_s": "s", "sys_s": "s", "node_bytes": "B"}
COUNTS = ("calls", "node_bytes")


def measure_setup(config_path: Path) -> float:
    """Time from process start until ``pseudoboson.cli`` is imported and
    the config is loaded, in a fresh process with this one's environment.
    ``time.monotonic`` is one clock for every process on the machine."""
    t0 = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-c", _PROBE.format(config=str(config_path))],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1]) - t0


def split_metric(name: str) -> tuple[str, str]:
    """``(span, quantity)`` of a per-layer metric name."""
    span, quantity = name.rsplit(".", 1)
    return span, "calls" if quantity == "constructions" else quantity


def check_direct_outputs(w: wl.Workload, config_path: Path) -> list[str]:
    """Call the program's layers directly and compare with closed forms."""
    cfg = config.load_config(config_path)
    problems = []
    dims = w.dims or (w.dim,)
    for z in wl.amplitudes():
        # the largest dimension keeps every amplitude inside |z|^2 <= dim/4
        W = displacement.weyl(fock.FockSpace(max(dims)), z).mat
        problems += wl.check_displacement(W, z)
    for dim in dims:
        riesz = config.build_map(cfg, dim=dim)
        if w.map_kind == "random":
            problems += wl.check_random_map(riesz.S.mat)
        else:
            for z in wl.amplitudes():
                bc = bicoherent.rbcs(riesz, z)
                problems += wl.check_projector_pair(bc.eta, bc.xi, z)
    return problems


def output_files(w: wl.Workload, out_dir: Path) -> list[Path]:
    names = ["report.json"] if w.verb == "verify" else ["convergence.csv", "quadrature.csv"]
    return [out_dir / n for n in names]


def outputs_of(w: wl.Workload, out_dir: Path):
    if w.verb == "verify":
        return wl.load_report(out_dir)
    return wl.load_tables(out_dir)


def check_outputs(w: wl.Workload, outputs, rc: int) -> tuple[set, list[str]]:
    if w.verb == "verify":
        failed, problems = wl.check_verify_records(w, outputs)
        statuses = {r["status"] for r in outputs}
        expected_rc = 1 if "fail" in statuses else 0
    else:
        failed, problems = wl.check_converge_rows(w, *outputs)
        expected_rc = 0
    if rc != expected_rc:
        problems.append(f"exit code {rc}, outputs call for {expected_rc}")
    return failed, problems


def comparable(w: wl.Workload, outputs):
    return wl.strip_wall_time(outputs) if w.verb == "verify" else outputs


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--config", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace-file", type=Path, help="trace the package; write the spans here")
    p.add_argument("--result", required=True, type=Path)
    args = p.parse_args(argv)
    w = wl.WORKLOADS[args.workload]
    phases = {}
    t_phase = time.perf_counter()

    problems = check_direct_outputs(w, args.config)
    phases["direct_checks"] = time.perf_counter() - t_phase

    tracer = None
    if args.trace_file:
        tracer = Tracer()
        wrapped = set(tracer.install())
        missing = sorted({split_metric(name)[0] for name in PER_LAYER} - wrapped)
        if missing:
            print(f"per-layer spans not found in the package: {missing}", file=sys.stderr)
            return 2
    argv_cli = wl.cli_args(w, str(args.config), str(args.out))

    def iteration():
        for path in output_files(w, args.out):  # never read a stale output
            path.unlink(missing_ok=True)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            begin = tracer.mark() if tracer else 0
            t0 = time.perf_counter()
            rc = cli.main(argv_cli)
            dt = time.perf_counter() - t0
            end = tracer.mark() if tracer else 0
        return rc, dt, (begin, end)

    t_phase = time.perf_counter()
    rc, _, _ = iteration()  # warm-up: fills caches, and is the determinism reference
    phases["warm_up"] = time.perf_counter() - t_phase
    reference = outputs_of(w, args.out)
    _, warm_problems = check_outputs(w, reference, rc)
    problems += warm_problems
    reference = comparable(w, reference)

    times, windows, setup, failed_ops = [], [], [], 0
    failed_keys: set = set()
    probes = 0 if tracer else SETUP_PROBES
    start, probing = time.perf_counter(), 0.0
    # the loop runs for --seconds of iterations; the set-up probes between
    # them (one each tenth of the way) do not count towards that time
    while not times or time.perf_counter() - start - probing < args.seconds:
        rc, dt, window = iteration()
        times.append(dt)
        windows.append(window)
        outputs = outputs_of(w, args.out)
        failed, iter_problems = check_outputs(w, outputs, rc)
        if comparable(w, outputs) != reference:
            iter_problems.append("outputs differ from the warm-up iteration's")
        failed_ops += len(failed)
        failed_keys |= failed
        problems += iter_problems
        t_probe = time.perf_counter()
        if len(setup) < probes * (t_probe - start - probing) / args.seconds:
            setup.append(measure_setup(args.config))
            probing += time.perf_counter() - t_probe
    while len(setup) < probes:
        setup.append(measure_setup(args.config))

    phases["loop"] = time.perf_counter() - start - probing
    phases["setup_probes"] = probing
    unnamed = sorted(failed_keys - w.named_faults, key=str)
    if unnamed:
        print(f"{w.name}: failed operations outside the named faults: {unnamed}", file=sys.stderr)
    if w.verb == "verify":
        uncounted_fails = sorted(
            {wl.record_key(r) for r in reference if r["status"] == "fail"} & w.uncounted, key=str)
        if uncounted_fails:
            print(f"{w.name}: seed-dependent records failed, not counted: {uncounted_fails}",
                  file=sys.stderr)

    result = {
        "correct": not problems,
        "problems": sorted(set(problems)),
        "attempted": len(times) * wl.operations_per_iteration(w),
        "failed": failed_ops,
        "iterations": len(times),
        "phase_s": phases,
        "wall_s": min(times),
        "setup_s": min(setup) if setup else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        result["per_layer"] = per_layer(tracer, windows)
        tracer.write(args.trace_file)
    args.result.write_text(json.dumps(result))
    return 0


def per_layer(tracer: Tracer, windows) -> dict:
    """Median over iterations of each per-layer quantity.  Counts must
    repeat exactly from one iteration to the next."""
    summaries = [tracer.summarize(b, e) for b, e in windows]
    out = {}
    for name in PER_LAYER:
        span, quantity = split_metric(name)
        absent = 0 if quantity in COUNTS else 0.0  # never called in this workload
        values = [s.get(span, {}).get(quantity, absent) for s in summaries]
        if quantity in COUNTS:
            if len(set(values)) > 1:
                raise RuntimeError(f"{name} varies between iterations: {sorted(set(values))}")
            value = values[0]
        else:
            value = statistics.median(values)
        out[name] = {"value": value, "unit": UNITS[quantity]}
    return out


if __name__ == "__main__":
    sys.exit(main())
