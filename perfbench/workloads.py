"""Workload definitions and the benchmark's own correctness checks.

Each workload is a generated ``pseudoboson`` config plus the command
line one iteration runs.  The checks take the program's outputs (the
records of ``report.json``, the rows of ``convergence.csv`` and
``quadrature.csv``, a displacement matrix, a bicoherent pair, a map) and
compare them with what the benchmark derives on its own: from the config,
from closed forms evaluated with scipy/mpmath, or from properties the
method must have.  No check compares against a stored copy of earlier
output.

Every check returns a list of problems (empty when the output is
correct); the per-operation checks also return the operations that
failed.  This module imports only numpy, scipy and mpmath, never the
program, so the self-test can feed it perturbed outputs directly; scipy
and mpmath are imported where they are used, so ``run.py`` does not
load them.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: The README's four amplitudes, as ``[re, im]`` pairs.
AMPLITUDES = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 2.0))

#: Condition number of every random map the benchmark builds.
RANDOM_COND = 10.0

#: Checks the suite runs once per map, independent of the amplitudes.
MAP_CHECKS = (
    "riesz_construction", "biorthogonality", "theta_family", "rank_one_theta",
    "rank_one_theta_inv", "theta_positivity", "ccr", "vacuum_match",
    "vacuum_pairing", "ladder", "number_operator", "number_spectrum",
    "theta_conjugacy",
)
#: Checks the suite runs once per amplitude.
AMPLITUDE_CHECKS = (
    "power_similarity", "bch_u", "bch_v", "intertwining", "rbcs_pairing",
    "two_route", "eigen_eta", "eigen_xi",
)
#: Checks the suite adds per amplitude with ``|z|^2 <= dim/4`` for the
#: ground-state projector map.
COORDINATE_CHECKS = ("coordinate_l2", "coordinate_pairing")

#: Deviation below which a resolution of the identity counts as exact,
#: and above which an under-resolved one counts as degraded.
EXACT_DEVIATION = 1e-10
DEGRADED_DEVIATION = 1e-3


@dataclass(frozen=True)
class Workload:
    name: str
    verb: str  # "verify" or "converge"
    dim: int
    map_kind: str  # "random" or "projector"
    dims: tuple[int, ...] = ()  # converge sweep
    #: ``(check_id, z)`` keys that fail on every iteration because of a
    #: named fault of the program; they count as failed until mended.
    named_faults: frozenset = frozenset()
    #: Keys whose pass/fail depends on the seed (a residual that sits at
    #: its tolerance).  They are still checked for presence and for a
    #: status that agrees with the residual, but are not operations:
    #: counting them would make the failed share depend on the seed.
    uncounted: frozenset = frozenset()


def format_z(z: complex) -> str:
    """Amplitude label as ``report.json`` writes it."""
    return f"{z.real:g}{z.imag:+g}j"


_Z = [complex(re, im) for re, im in AMPLITUDES]

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify-rand-64", "verify", 64, "random",
            # float64 cancellation in the BCH product puts these at
            # 0.3-1.04x their tolerance; 2 of 300 seeds fail (13, 238)
            uncounted=frozenset({("bch_u", "0+2j"), ("bch_v", "0+2j")}),
        ),
        Workload(
            "verify-proj-256", "verify", 256, "projector",
            named_faults=frozenset(
                # (a) float64 cancellation in expm(z b) @ expm(-conj(z) a)
                [(c, format_z(z)) for z in _Z[1:] for c in ("bch_u", "bch_v")]
                # (b) laggauss(256) returns non-finite weights: rule refused
                + [("resolution_identity", None)]
            ),
        ),
        Workload("converge-rand-16-128", "converge", 16, "random", dims=(16, 32, 64, 128)),
    )
}


def make_config(w: Workload, seed: int, outputs: str) -> dict:
    """The program's JSON config for workload ``w`` at ``seed``."""
    if w.map_kind == "random":
        map_spec = {"kind": "random", "cond": RANDOM_COND, "seed": seed}
    else:
        map_spec = {"kind": "projector", "u_index": 0}
    return {
        "schema_version": 1,
        "dim": w.dim,
        "map_spec": map_spec,
        "z_samples": [list(z) for z in AMPLITUDES],
        "outputs": outputs,
        "seed": seed,
    }


def cli_args(w: Workload, config_path: str, out_dir: str) -> list[str]:
    """Arguments of one iteration's ``pseudoboson.cli.main`` call."""
    args = [w.verb, "--config", config_path, "--out", out_dir]
    if w.verb == "converge":
        args += ["--dims", ",".join(str(d) for d in w.dims)]
    return args


def amplitudes() -> list[complex]:
    return list(_Z)


# ---------------------------------------------------------------- verify


def expected_check_keys(w: Workload) -> set:
    """``(check_id, z label or None)`` of every record ``verify`` must write."""
    keys = {(c, None) for c in MAP_CHECKS} | {("resolution_identity", None)}
    keys |= {(c, format_z(z)) for z in _Z for c in AMPLITUDE_CHECKS}
    if w.map_kind == "projector":
        keys |= {
            (c, format_z(z)) for z in _Z if abs(z) ** 2 <= w.dim / 4.0 for c in COORDINATE_CHECKS
        }
    return keys


def record_key(record: dict) -> tuple:
    return record["check_id"], record.get("params", {}).get("z")


def load_report(out_dir: Path) -> list[dict]:
    return json.loads((Path(out_dir) / "report.json").read_text())


def check_verify_records(w: Workload, records: list[dict]) -> tuple[set, list[str]]:
    """Failed operations and structural problems of one ``report.json``.

    An operation (one expected, counted record) fails when its status is
    not ``pass``, when the status disagrees with ``residual <= tolerance``,
    or when it is missing.  Records the config does not call for,
    duplicate records, and missing or inconsistent uncounted records are
    structural problems.
    """
    expected = expected_check_keys(w)
    problems = []
    failed = set()
    seen = set()
    for r in records:
        key = record_key(r)
        if key not in expected:
            problems.append(f"unexpected record {key}")
            continue
        if key in seen:
            problems.append(f"duplicate record {key}")
        seen.add(key)
        residual, tolerance, status = float(r["residual"]), float(r["tolerance"]), r["status"]
        # every amplitude is inside the accuracy regime, so the only
        # consistent statuses are pass and fail
        consistent = status == ("pass" if residual <= tolerance else "fail")
        if key in w.uncounted:
            if not consistent:
                problems.append(f"{key}: status {status} disagrees with residual {residual:.3e}"
                                f" and tolerance {tolerance:.3e}")
        elif status != "pass" or not consistent:
            failed.add(key)
    missing = expected - seen
    failed |= missing - w.uncounted
    problems += [f"missing record {key}" for key in sorted(missing & w.uncounted)]
    return failed, problems


def strip_wall_time(records: list[dict]) -> list[dict]:
    return [{k: v for k, v in r.items() if k != "wall_time"} for r in records]


# -------------------------------------------------------------- converge


def load_tables(out_dir: Path) -> tuple[list[dict], list[dict]]:
    def rows(name):
        with (Path(out_dir) / name).open(newline="") as fh:
            return list(csv.DictReader(fh))

    return rows("convergence.csv"), rows("quadrature.csv")


#: The amplitude ``converge`` sweeps: the first non-zero one of the config.
CONVERGE_Z = next(complex(re, im) for re, im in AMPLITUDES if (re, im) != (0.0, 0.0))

#: The program's default tolerances (``DEFAULT_TOLERANCES``) of the checks
#: behind the ``bch_residual`` and ``eigen_*`` columns; neither scales with
#: ``cond``.
BCH_TOL = 1e-8
EIGEN_TOL = 1e-10


def coherent_tail(dim: int, z: complex) -> float:
    """Norm of the part of a normalized coherent state beyond ``dim``
    levels: ``sqrt(e^(-x) sum_{k>=dim} x^k/k!)`` with ``x = |z|^2``, which
    is the regularized lower incomplete gamma ``P(dim, x)``."""
    from scipy.special import gammainc

    return math.sqrt(float(gammainc(dim, abs(z) ** 2)))


def _quarter(dim: int) -> int:
    return max(2, dim // 4)


def _radial_rules(dim: int) -> set:
    """Radial node counts ``converge`` writes to ``quadrature.csv``."""
    return {_quarter(dim), max(2, dim // 2), dim}


def check_converge_rows(
    w: Workload, conv: list[dict], quad: list[dict]
) -> tuple[set, list[str]]:
    """Failed operations (table rows) and structural problems of one sweep.

    Gauss-Laguerre with ``n`` nodes is exact through degree ``2n-1``
    (Golub & Welsch 1969) and the resolution needs moments up to
    ``dim-1``: every rule with ``radial >= ceil(dim/2)`` must resolve
    the identity to roundoff, and the quarter rule must not.

    The displacement and eigen columns of ``convergence.csv`` must meet
    the program's default tolerances: ``eigen_eta``/``eigen_xi`` that of
    ``eigen_check`` plus ``10 sqrt(dim) cond`` times the coherent tail
    beyond ``dim``, as ``verify`` allows; ``bch_residual`` that of
    ``bch_factorization_check``, on the rows where the fixed cutoff keeps
    the top margin ``verify`` leaves (``dim - ceil(4|z|^2) - 6``), and
    no bound on the others.
    """
    expected = {("convergence", d, None) for d in w.dims} | {
        ("quadrature", d, r) for d in w.dims for r in _radial_rules(d)
    }
    problems = []
    failed = set()
    seen = set()

    def visit(key, ok):
        if key not in expected:
            problems.append(f"unexpected row {key}")
            return
        if key in seen:
            problems.append(f"duplicate row {key}")
        seen.add(key)
        if not ok:
            failed.add(key)

    cutoff = max(2, w.dims[0] // 2)
    for row in conv:
        dim = int(row["dim"])
        if (row["z"], int(row["cutoff"])) != (format_z(CONVERGE_Z), cutoff):
            problems.append(f"convergence row {dim} has z {row['z']} and cutoff {row['cutoff']},"
                            f" the sweep calls for {format_z(CONVERGE_Z)} and {cutoff}")
        eigen_bound = EIGEN_TOL + 10.0 * math.sqrt(dim) * RANDOM_COND * coherent_tail(dim, CONVERGE_Z)
        ok = (float(row["resolution_deviation"]) <= EXACT_DEVIATION
              and float(row["eigen_eta"]) <= eigen_bound
              and float(row["eigen_xi"]) <= eigen_bound)
        if dim - math.ceil(4 * abs(CONVERGE_Z) ** 2) - 6 >= cutoff:
            ok = ok and float(row["bch_residual"]) <= BCH_TOL
        visit(("convergence", dim, None), ok)
    for row in quad:
        dim, radial, dev = int(row["dim"]), int(row["radial_count"]), float(row["deviation"])
        if int(row["angular_count"]) != 2 * dim + 1:
            problems.append(f"quadrature row {dim}/{radial} has angular {row['angular_count']}")
        if radial >= math.ceil(dim / 2):
            ok = dev <= EXACT_DEVIATION
        else:
            ok = radial == _quarter(dim) and dev >= DEGRADED_DEVIATION
        visit(("quadrature", dim, radial), ok)
    failed |= expected - seen
    return failed, problems


def operations_per_iteration(w: Workload) -> int:
    if w.verb == "verify":
        return len(expected_check_keys(w) - w.uncounted)
    return len(w.dims) + sum(len(_radial_rules(d)) for d in w.dims)


# ---------------------------------------------- checks of direct outputs

#: Agreement demanded of the closed forms below.  Measured: 7e-15 for
#: the displacement block at dim 256, 2e-16 for the projector pair.
CLOSED_FORM_TOL = 1e-12


def displacement_closed_form(z: complex, size: int) -> np.ndarray:
    """``<m|D(z)|n>`` for ``m, n < size`` of the untruncated displacement:
    ``sqrt(n!/m!) z^(m-n) e^(-|z|^2/2) L_n^(m-n)(|z|^2)`` for ``m >= n``
    and its mirror ``sqrt(m!/n!) (-conj z)^(n-m) ... L_m^(n-m)`` above
    the diagonal."""
    from scipy.special import eval_genlaguerre, gammaln

    z = complex(z)
    x = abs(z) ** 2
    m, n = np.indices((size, size))
    lo, hi = np.minimum(m, n), np.maximum(m, n)
    base = np.where(m >= n, z, -z.conjugate())
    ratio = np.exp(0.5 * (gammaln(lo + 1) - gammaln(hi + 1)))
    return ratio * base ** (hi - lo) * math.exp(-x / 2) * eval_genlaguerre(lo, hi - lo, x)


def check_displacement(W: np.ndarray, z: complex) -> list[str]:
    """The low quarter block of the truncated ``W(z)`` must equal the
    closed form: for ``|z|^2 <= dim/4`` the truncation reaches that
    block only through a tail far below roundoff."""
    size = W.shape[0] // 4
    err = float(np.abs(W[:size, :size] - displacement_closed_form(z, size)).max())
    if not err <= CLOSED_FORM_TOL:
        return [f"weyl(z={format_z(z)}) low block differs from closed form by {err:.3e}"]
    return []


def projector_pair_closed_form(z: complex, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """``eta = Phi + i Phi_0 e_0`` and ``xi = Phi - (1-i)/2 Phi_0 e_0`` for
    ``T = 1 + i|e_0><e_0|``, with ``Phi_k = e^(-|z|^2/2) z^k / sqrt(k!)``
    evaluated in 30-digit mpmath."""
    import mpmath

    with mpmath.workdps(30):
        zz = mpmath.mpc(z.real, z.imag)
        g = mpmath.exp(-abs(zz) ** 2 / 2)
        phi = np.array(
            [complex(g * zz**k / mpmath.sqrt(mpmath.factorial(k))) for k in range(dim)]
        )
    eta, xi = phi.copy(), phi.copy()
    eta[0] += 1j * phi[0]
    xi[0] -= (1 - 1j) / 2 * phi[0]
    return eta, xi


def check_projector_pair(eta: np.ndarray, xi: np.ndarray, z: complex) -> list[str]:
    ref_eta, ref_xi = projector_pair_closed_form(z, len(eta))
    err = max(float(np.abs(eta - ref_eta).max()), float(np.abs(xi - ref_xi).max()))
    if not err <= CLOSED_FORM_TOL:
        return [f"rbcs(z={format_z(z)}) differs from the closed-form pair by {err:.3e}"]
    return []


def check_random_map(S: np.ndarray, cond: float = RANDOM_COND) -> list[str]:
    """numpy's own SVD of the generated map must give the configured
    condition number."""
    sigma = np.linalg.svd(S, compute_uv=False)
    got = float(sigma[0] / sigma[-1])
    if not abs(got - cond) <= 1e-8 * cond:
        return [f"random map has cond {got!r}, config asks {cond}"]
    return []
