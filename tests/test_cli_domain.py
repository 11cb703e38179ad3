"""Every input in the CLI's domain either runs to graded outputs or is
refused as a configuration error: dims 4 to 64, the identity, projector
(first and last level) and random maps, and amplitudes from 0 and the
subnormals up to the regime edge ``sqrt(dim/4)`` along the real, imaginary
and diagonal directions.  ``verify`` exits 0 or 1 with a report whose
statuses decide the exit code, ``converge`` exits 0 with both tables, and
a refusal exits 2 with a ``configuration error``; nothing raises."""

import contextlib
import csv
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from pseudoboson.cli import main

STATUSES = {"pass", "fail", "out-of-regime"}
DIRECTIONS = (1.0, 1j, (1 + 1j) / math.sqrt(2.0))


@st.composite
def amplitudes(draw, dim):
    edge = math.sqrt(dim / 4)
    t = draw(st.sampled_from([0.0, 1e-320, -1e-320, 1e-310, 1e-150, edge, -edge])
             | st.floats(-edge, edge))
    z = t * draw(st.sampled_from(DIRECTIONS))
    return [z.real, z.imag]


@st.composite
def runs(draw):
    dim = draw(st.integers(4, 64))
    kind = draw(st.sampled_from(["identity", "projector-first", "projector-last", "random"]))
    map_spec = {"identity": {"kind": "identity"},
                "projector-first": {"kind": "projector", "u_index": 0},
                "projector-last": {"kind": "projector", "u_index": dim - 1},
                "random": {"kind": "random", "cond": 10.0,
                           "seed": draw(st.integers(0, 2**16))}}[kind]
    z_samples = draw(st.lists(amplitudes(dim), min_size=1, max_size=3))
    dims = sorted(draw(st.sets(st.integers(4, 64), min_size=1, max_size=3)))
    return dim, map_spec, z_samples, dims


def run_cli(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return code, err.getvalue()


@settings(max_examples=40, deadline=None)
@given(runs())
def test_every_run_is_graded_or_refused(run):
    dim, map_spec, z_samples, dims = run
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        config = tmp / "c.json"
        config.write_text(json.dumps({"schema_version": 1, "dim": dim, "map_spec": map_spec,
                                      "z_samples": z_samples, "outputs": str(tmp / "verify")}))

        code, err = run_cli(["verify", "--config", str(config)])
        if code == 2:
            assert err.startswith("configuration error"), err
        else:
            assert code in (0, 1), (code, err)
            statuses = [r["status"] for r in json.loads((tmp / "verify/report.json").read_text())]
            assert statuses and set(statuses) <= STATUSES
            assert code == ("fail" in statuses)

        code, err = run_cli(["converge", "--config", str(config), "--out", str(tmp / "converge"),
                             "--dims", ",".join(map(str, dims))])
        if code == 2:
            assert err.startswith("configuration error"), err
        else:
            assert code == 0, (code, err)
            with (tmp / "converge/convergence.csv").open() as fh:
                rows = list(csv.DictReader(fh))
            assert [int(r["dim"]) for r in rows] == dims
            assert {r["status"] for r in rows} <= STATUSES
            assert (tmp / "converge/quadrature.csv").stat().st_size > 0
