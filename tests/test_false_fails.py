"""The false-fail sweep: ``run_suite`` over dims 4 to 96 by 4 on six maps,
at the README amplitudes that are in regime and at the regime edge
``i sqrt(dim/4)``.  Every ``fail`` it writes must be a named open fault of
the program, and every named fault must still show.  The number of graded
records per map is pinned too, so a mend that stops grading more than its
fault shows as records lost."""

import collections
import json
import math

from pseudoboson import FockSpace, load_config, random_riesz_map, run_suite, save_riesz_map
from pseudoboson.suite import _format_z

DIMS = range(4, 97, 4)
README = (0j, 1 + 0j, 1 + 1j, 2j)

_TAIL = ("CHANGES.md, FOUND: `_bch_margin` admits cutoffs where the truncation tail, not a "
         "violated identity, fails `bch_u`/`bch_v` in regime (ROADMAP item 10)")
_SERIES = ("CHANGES.md, FOUND: `series_route` makes `two_route` fail on random cond-10 maps "
           "already at edge amplitudes from dim 59 (ROADMAP item 5)")
_DENSE = ("CHANGES.md, FOUND: `run_suite` grades records on a dense `file` map that deforms "
          "level `dim - 1`, which carries the commutator's truncation corner into every level "
          "(ROADMAP item 10)")

#: ``(map, check, amplitude)`` of every record that fails on a correct
#: program, ``amplitude`` being ``"readme"``, ``"edge"`` or ``None`` for a
#: map-level record, with the FOUND line that names the fault.  The list may
#: only shrink: the change that mends a fault deletes its entries.
OPEN_FAULTS = {
    ("random", "bch_u", "readme"): _TAIL,  # dims 12-36
    ("random", "bch_v", "readme"): _TAIL,
    ("random", "two_route", "edge"): _SERIES,  # from dim 64
    ("dense", "bch_u", "readme"): _DENSE,  # dims 12-96
    ("dense", "bch_v", "readme"): _DENSE,
    ("dense", "ccr", None): _DENSE,  # every dim
    ("dense", "two_route", "edge"): _DENSE,  # from dim 56
    ("dense", "two_route", "readme"): _DENSE,  # 2i at dim 96
}

#: Records graded ``pass`` or ``fail`` per map over the whole grid.
GRADED = {"identity": 1154, "projector-0": 1370, "projector-top": 1154,
          "random-1": 1154, "random-5": 1154, "dense": 1154}


def _maps(dim, tmp_path):
    dense = tmp_path / f"dense-{dim}.json"
    save_riesz_map(random_riesz_map(FockSpace(dim), 10.0, 7, top_margin=0), dense)
    return {"identity": {"kind": "identity"},
            "projector-0": {"kind": "projector", "u_index": 0},
            "projector-top": {"kind": "projector", "u_index": dim - 1},
            "random-1": {"kind": "random", "cond": 10.0, "seed": 1},
            "random-5": {"kind": "random", "cond": 10.0, "seed": 5},
            "dense": {"kind": "file", "path": str(dense)}}


def test_every_fail_is_an_open_fault(tmp_path):
    graded, fails = collections.Counter(), collections.defaultdict(list)
    for dim in DIMS:
        readme = [z for z in README if z.real**2 + z.imag**2 <= dim / 4]
        edge = complex(0.0, math.sqrt(dim / 4))
        kinds = {_format_z(edge): "edge", **{_format_z(z): "readme" for z in readme}}
        for name, map_spec in _maps(dim, tmp_path).items():
            path = tmp_path / "c.json"
            # the edge's square rounds above dim/4 at some dims: graded out of regime there
            path.write_text(json.dumps({
                "schema_version": 1, "dim": dim, "map_spec": map_spec,
                "z_samples": [[z.real, z.imag] for z in readme + [edge]],
                "allow_out_of_regime": True,
                "outputs": str(tmp_path / "out")}))
            for r in run_suite(load_config(path)):
                graded[name] += r.status != "out-of-regime"
                if r.status == "fail":
                    z = r.params.get("z")
                    key = (name.split("-")[0], r.check_id, kinds[z] if z else None)
                    fails[key].append((dim, z))
    unnamed = {key: seen for key, seen in fails.items() if key not in OPEN_FAULTS}
    assert not unnamed
    assert set(fails) == set(OPEN_FAULTS)
    assert graded == GRADED
