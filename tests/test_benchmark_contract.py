"""What the benchmark reads of the package, from ``BENCHMARK.json`` alone.

The benchmark's tracer wraps every function a module lists in ``__all__``
and defined there, plus ``fock.Operator.__post_init__``, and reports each
``per_layer`` figure from those spans; its direct-output checks read the
dense ``.mat`` of ``weyl`` and of a built map's ``S``, and the ``eta`` and
``xi`` of ``rbcs`` on the projector map.  A span that is no longer there
makes a traced run exit with "per-layer spans not found", a fault no other
test sees.  The benchmark's own self-test runs here too."""

import importlib
import inspect
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from pseudoboson import FockSpace, build_map, load_config, projector_map, rbcs, weyl

ROOT = Path(__file__).parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

#: The one self-test case that fails on a correct program: it expects more
#: than one ``make_pair`` call in a traced ``verify``, and ``run_suite``
#: builds the pair once (ROADMAP item 1).
KNOWN_SELFTEST_FAILURE = "traced verify: make_pair and weyl are seen through the modules that import them"


def test_every_per_layer_span_is_traced():
    spans = {entry["name"].rsplit(".", 1)[0] for entry in BENCHMARK["per_layer"]}
    assert spans
    for span in spans - {"fock.Operator"}:
        module, name = span.split(".")
        mod = importlib.import_module(f"pseudoboson.{module}")
        assert name in mod.__all__, span
        fn = getattr(mod, name)
        assert inspect.isfunction(fn) and fn.__module__ == mod.__name__, span
    assert inspect.isfunction(importlib.import_module("pseudoboson.fock").Operator.__post_init__)


def test_direct_outputs_are_dense_arrays(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({
        "schema_version": 1, "dim": 16, "map_spec": {"kind": "random", "cond": 10.0, "seed": 1},
        "z_samples": [[1, 0]], "outputs": str(tmp_path / "out")}))
    W = weyl(FockSpace(8), 1).mat
    S = build_map(load_config(path), dim=16).S.mat
    assert isinstance(W, np.ndarray) and W.shape == (8, 8)
    assert isinstance(S, np.ndarray) and S.shape == (16, 16)


def test_bicoherent_states_are_vectors():
    space = FockSpace(16)
    bc = rbcs(projector_map(space, space.basis_vector(0)), 1 + 1j)
    for state in (bc.eta, bc.xi):
        assert isinstance(state, np.ndarray) and state.shape == (16,)


def test_benchmark_selftest_passes():
    # perfbench/selftest.py feeds the benchmark's checks (closed forms of
    # weyl, rbcs and the map, and the reports' own rules) the program's
    # outputs, and perturbed copies of them; it writes only under the
    # ignored .perfbench_out/.  Any failing case but the known one fails here
    result = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                            cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = result.stdout.splitlines()
    failing = [line.removeprefix("FAIL ") for line in lines if line.startswith("FAIL ")]
    assert failing in ([], [KNOWN_SELFTEST_FAILURE]), result.stdout + result.stderr
    summary = f"{len(failing)} failing case(s)" if failing else "all cases behave"
    assert lines[-1:] == [summary], result.stdout + result.stderr
    assert result.returncode == (1 if failing else 0), result.stderr
