"""Benchmark of ``pseudoboson verify`` and ``pseudoboson converge``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload verify-rand-64 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

For one workload the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics (``wall_s``, ``setup_s``, ``peak_rss_mb``) with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  ``--workload all`` runs every
workload untraced and prints one summary line per workload.

The program is imported from ``src/`` of the checkout this script sits
in; without it the benchmark exits with code 2.  Scratch output (the
generated config, the program's reports, the trace) goes to
``.perfbench_out/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: The worker must end within this (seconds).
WORKER_TIMEOUT = 150


def child_env() -> dict:
    """The program's environment: BLAS pinned to one thread (two threads
    on a 2-core box ran slower and spread wider), ``src`` on the path."""
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=str(SRC))
    return env


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    w = wl.WORKLOADS[name]
    work = ROOT / ".perfbench_out" / name
    work.mkdir(parents=True, exist_ok=True)
    config_path = work / "config.json"
    report_dir = work / "report"
    config_path.write_text(json.dumps(wl.make_config(w, seed, str(report_dir)), indent=2))
    result_path = work / "result.json"
    trace_path = work / "trace.jsonl"
    result_path.unlink(missing_ok=True)
    trace_path.unlink(missing_ok=True)

    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
           "--config", str(config_path), "--out", str(report_dir),
           "--seconds", str(seconds), "--result", str(result_path)]
    if trace:
        cmd += ["--trace-file", str(trace_path)]
    done = subprocess.run(cmd, env=child_env(), cwd=ROOT, timeout=WORKER_TIMEOUT)
    if done.returncode != 0 or not result_path.exists():
        raise RuntimeError(f"{name}: worker exited with code {done.returncode}")
    res = json.loads(result_path.read_text())
    for problem in res["problems"]:
        print(f"{name}: {problem}", file=sys.stderr)

    if trace:
        metrics = res["per_layer"]
    else:
        metrics = {
            "wall_s": {"value": res["wall_s"], "unit": "s"},
            "setup_s": {"value": res["setup_s"], "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    phases = ", ".join(f"{k} {v:.1f} s" for k, v in res["phase_s"].items())
    print(f"{name}: {res['iterations']} iterations; {phases}", file=sys.stderr)
    return {
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not (SRC / "pseudoboson" / "__init__.py").is_file():
        print(f"no program to benchmark: {SRC / 'pseudoboson'} is missing", file=sys.stderr)
        return 2

    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
        print(json.dumps(result))
        return 0
    results = {}
    for name in wl.WORKLOADS:
        res = results[name] = run_workload(name, args.seed, args.seconds, 0)
        shown = " ".join(f"{k}={m['value']:.4g} {m['unit']}" for k, m in res["metrics"].items())
        print(f"{name}: {shown} attempted={res['attempted']} failed={res['failed']} "
              f"correct={res['correct']}")
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
