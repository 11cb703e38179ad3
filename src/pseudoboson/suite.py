"""Batch verification runner: executes the full check suite for one
configuration and emits reports plus plot-ready CSV tables.

The checks return plain residuals; ``verify`` and ``converge`` grade
them through one recorder against the table of ``reports``, with the
truncation tail at each record's amplitude, so the runners stay honest
at small dimensions where the tail, not roundoff, limits what the
identity can show.
"""

from __future__ import annotations

import csv
import math
import time
import warnings
from pathlib import Path

import numpy as np

from .algebra import (
    _commutator_block,
    _map_vacua,
    ladder_check,
    make_pair,
    number_operator_check,
    theta_conjugacy_check,
    vacua,
)
from .bicoherent import (
    coherent_tail_bound,
    eigen_check,
    make_quadrature,
    rbcs,
    resolution_of_identity,
    series_route,
)
from .config import RunConfig, build_map
from .coordinate import _is_ground_state_projector, cross_validate
from .displacement import (
    _bch_margin,
    bch_factorization_check,
    displaced_pair,
    in_accuracy_regime,
    intertwining_check,
    power_similarity_check,
)
from .errors import (
    AccuracyRegimeWarning,
    ConditioningError,
    ConfigError,
    DegenerateKernelError,
    NotInvertibleError,
    OrthogonalVacuaError,
    UnderResolvedError,
    UnderResolvedWarning,
)
from .fock import _graded_norm
from .reports import CheckReport, default_tolerance, format_report_table, reports_to_json

__all__ = ["run_suite", "convergence_study", "suite_failed"]


def _format_z(z: complex) -> str:
    return f"{z.real:g}{z.imag:+g}j"


def _bch_cutoff(dim: int, z: complex) -> int:
    """The cutoff of the factorization at ``z``: :func:`_bch_margin`, at least 1."""
    return max(1, _bch_margin(dim, z))


class _Recorder:
    """Grades residuals into reports for one map, the one place a tolerance
    is composed and a regime decided: a record at ``z`` is out of regime
    when ``|z|^2 > dim/4`` or its ``cutoff`` exceeds ``_bch_margin``, the
    rule the factorization check warns by.  A report's wall time is the time
    since the previous one (the first counts from ``start``), so a shared
    object's build is charged to the next check, and of several records
    from one computation the first carries its time."""

    def __init__(self, riesz, start: float):
        self.riesz = riesz
        self.reports: list[CheckReport] = []
        self._lap = start
        self._tails = {None: 0.0}  # the truncation tail at each amplitude, taken once

    def tolerance(self, name: str, z: complex | None = None) -> float:
        """The tolerance of the record ``name`` at ``z``, with the truncation
        tail at ``z``; checks that certify a pass on a bound are handed it."""
        if z not in self._tails:
            self._tails[z] = coherent_tail_bound(self.riesz.dim, z)
        return default_tolerance(name, self.riesz.cond, self.riesz.dim, self._tails[z])

    def add(self, name: str, residual: float, z: complex | None = None, **params):
        now = time.perf_counter()
        regime = True
        if z is not None:
            params = {"z": _format_z(z), **params}
            regime = (in_accuracy_regime(self.riesz.space, z)
                      and params.get("cutoff", -math.inf) <= _bch_margin(self.riesz.dim, z))
        tol = self.tolerance(name, z)
        status = ("pass" if residual <= tol else "fail") if regime else "out-of-regime"
        self.reports.append(
            CheckReport(
                check_id=name,
                params=params,
                residual=float(residual),
                tolerance=tol,
                status=status,
                wall_time=now - self._lap,
            )
        )
        self._lap = now

    def add_norm(self, name: str, diff: np.ndarray, denominator: float = 1.0, **params):
        """Records ``||diff|| / denominator``, graded against the record's
        tolerance by :func:`~pseudoboson.fock._graded_norm`: a pass may read
        the Frobenius bound, a fail reads the exact norm."""
        self.add(name, _graded_norm(diff, denominator, self.tolerance(name)), **params)

    def refuse(self, names: tuple[str, ...], exc: Exception, z: complex | None = None):
        """Records a refused computation as ``inf`` with the error text."""
        for name in names:
            self.add(name, float("inf"), z, error=str(exc))


def _record_bch_eigen(rec: _Recorder, pair, disp, bc, cutoff: int):
    """Records ``bch_u``/``bch_v`` at ``cutoff`` and ``eigen_eta``/``eigen_xi``;
    the caller owns ``disp``, so it alone decides how long ``disp`` lives."""
    tol = min(rec.tolerance(name, disp.z) for name in ("bch_u", "bch_v"))
    bch = bch_factorization_check(disp, cutoff, tol=tol)
    for name, residual in zip(("bch_u", "bch_v"), bch):
        rec.add(name, residual, disp.z, cutoff=cutoff, reference="lower bound")
    for name, residual in zip(("eigen_eta", "eigen_xi"), eigen_check(pair, bc)):
        rec.add(name, residual, disp.z, border=pair.border)


def _output_dir(path) -> Path:
    """``path`` as a directory, created if missing and probed with a write;
    one that cannot be written raises :class:`ConfigError` naming it."""
    out_dir = Path(path)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        probe = out_dir / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise ConfigError(f"output directory {out_dir} is not writable: {exc}") from exc
    return out_dir


def _phase_aligned_distance(v: np.ndarray, w: np.ndarray) -> float:
    """Distance between unit vectors modulo a global phase."""
    overlap = np.vdot(v, w)
    if abs(overlap) == 0.0:
        return float(np.linalg.norm(v - w))
    return float(np.linalg.norm(v * (overlap / abs(overlap)) - w))


def run_suite(config: RunConfig) -> list[CheckReport]:
    """Execute every check for one configuration.

    Construction failures (singular or too-ill-conditioned maps) surface
    as failed reports rather than exceptions.  Reports are assembled in a
    deterministic order (sorted by check id, then parameters) and written
    to ``config.outputs`` as a human-readable table, a JSON record list,
    and a flat CSV.
    """
    out_dir = _output_dir(config.outputs)
    start = time.perf_counter()
    try:
        riesz = build_map(config)
    except (NotInvertibleError, ConditioningError) as exc:  # no map: no cond to grade with
        reports = [CheckReport(check_id="riesz_construction", params={"error": str(exc)},
                               residual=float("inf"), tolerance=0.0, status="fail")]
        _write_outputs(out_dir, reports)
        return reports

    rec = _Recorder(riesz, start)
    dim, p = riesz.dim, riesz.block

    rec.add("riesz_construction", riesz.inverse_residual, block=p)

    # the families' first p vectors on their first p levels: phi_n = psi_n = e_n elsewhere
    phi, psi = riesz.S_block, riesz.S_inv_block.conj().T
    rec.add("biorthogonality", np.abs(phi.conj().T @ psi - np.eye(p)).max(initial=0.0))

    theta, theta_inv = riesz.theta_block, riesz.theta_inv_block
    rec.add("theta_family", np.linalg.norm(theta @ phi - psi, axis=0).max(initial=0.0))

    # relative to ||Theta|| = 1/A and ||Theta^-1|| = B, the frame bounds
    A, B = riesz.frame_bounds
    rec.add_norm("rank_one_theta", psi @ psi.conj().T - theta, 1.0 / A)
    rec.add_norm("rank_one_theta_inv", phi @ phi.conj().T - theta_inv, B)

    # Theta is the identity outside its block: one more eigenvalue 1 when p < dim
    eigs = np.append(np.linalg.eigvalsh(theta), np.ones(min(1, dim - p)))
    rec.add("theta_positivity", max(0.0, 1.0 / B - eigs.min(), eigs.max() - 1.0 / A))

    pair = make_pair(riesz)
    q, k, N = pair.border, dim - 1, pair.number_block
    # both sides are exact outside the leading m x m block, m = min(q + 1, dim):
    # [a, b] - 1 is zero there below the corner, b a is diag(m, ..., dim - 1)
    rec.add_norm("ccr", _commutator_block(pair)[:k, :k] - np.eye(min(len(N), k)), border=q)
    n_eigs = np.sort_complex(np.append(np.linalg.eigvals(N), np.arange(len(N), dim)))
    rec.add("number_spectrum", np.abs(n_eigs[: dim - 1] - np.arange(dim - 1)).max(), border=q)

    try:
        phi0, psi0 = vacua(pair)
    except (DegenerateKernelError, OrthogonalVacuaError) as exc:
        rec.refuse(("vacuum_match", "vacuum_pairing"), exc)
    else:
        phi0_cf, psi0_cf = _map_vacua(riesz)
        r_phi = _phase_aligned_distance(phi0, phi0_cf / np.linalg.norm(phi0_cf))
        r_psi = _phase_aligned_distance(psi0 / np.linalg.norm(psi0),
                                        psi0_cf / np.linalg.norm(psi0_cf))
        rec.add("vacuum_match", max(r_phi, r_psi), border=q)
        rec.add("vacuum_pairing", abs(np.vdot(phi0, psi0) - 1.0), border=q)

    rec.add("ladder", max(r.max() for r in ladder_check(pair).values()), border=q)
    rec.add("number_operator", max(r.max() for r in number_operator_check(pair)), border=q)
    rec.add("theta_conjugacy",
            theta_conjugacy_check(pair, tol=rec.tolerance("theta_conjugacy")), border=q)

    states = []  # each amplitude's bicoherent pair, kept for the series route and cross-validation
    for z in config.z_samples:
        with warnings.catch_warnings():
            # regime warnings are encoded in the status
            warnings.simplefilter("ignore", AccuracyRegimeWarning)
            tol = rec.tolerance("power_similarity", z)
            rec.add("power_similarity", power_similarity_check(pair, z, tol=tol).max(), z,
                    border=q, reference="lower bound")
            cutoff = _bch_cutoff(dim, z)
            disp = displaced_pair(riesz, z, cutoff)
            bc = rbcs(riesz, z)
            states.append(bc)
            _record_bch_eigen(rec, pair, disp, bc, cutoff)
            rec.add("intertwining", intertwining_check(disp, tol=rec.tolerance("intertwining", z)),
                    z, border=disp.border)
            del disp  # W's block and its strips: not alive beside the next amplitude's
            rec.add("rbcs_pairing", abs(np.vdot(bc.eta, bc.xi) - 1.0), z)

    # every amplitude's series over one growth of the excited families
    for bc, (phi_s, psi_s) in zip(states, series_route(pair, states)):
        rec.add("two_route", max(np.linalg.norm(phi_s - bc.eta), np.linalg.norm(psi_s - bc.xi)),
                bc.z, border=q)

    try:
        quad = make_quadrature(dim, dim // 2 + 1, 2 * dim + 1)
    except UnderResolvedError as exc:
        rec.refuse(("resolution_identity",), exc)
    else:
        rec.add("resolution_identity",
                resolution_of_identity(riesz, quad, tol=rec.tolerance("resolution_identity")),
                radial=quad.radial_count, angular=quad.angular_count)

    if _is_ground_state_projector(riesz):
        for bc in states:
            if not in_accuracy_regime(riesz.space, bc.z):
                continue  # closed-form comparison needs a suppressed tail
            cv = cross_validate(bc)
            rec.add("coordinate_l2", max(cv.l2_dev_phi, cv.l2_dev_psi), bc.z)
            rec.add("coordinate_pairing", abs(cv.pairing - 1.0), bc.z)

    reports = sorted(rec.reports, key=lambda r: (r.check_id, str(sorted(r.params.items()))))
    _write_outputs(out_dir, reports)
    return reports


def suite_failed(reports: list[CheckReport], strict: bool = False) -> bool:
    """True when any check failed (with ``strict``, out-of-regime runs
    count as failures too)."""
    bad = {"fail", "out-of-regime"} if strict else {"fail"}
    return any(r.status in bad for r in reports)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> Path:
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])
    return path


def _write_outputs(out_dir: Path, reports: list[CheckReport]):
    (out_dir / "report.txt").write_text(format_report_table(reports) + "\n")
    (out_dir / "report.json").write_text(reports_to_json(reports) + "\n")
    _write_csv(out_dir / "residuals.csv", ["check_id", "params", "residual", "tolerance", "status"],
               [[r.check_id, ";".join(f"{k}={v}" for k, v in sorted(r.params.items())),
                 f"{r.residual:.6e}", f"{r.tolerance:.6e}", r.status] for r in reports])


def convergence_study(config: RunConfig, dims: list[int]) -> tuple[Path, Path]:
    """Residual decay tables over a sweep of truncation dimensions.

    Writes two CSVs into the output directory once every dim has computed,
    so a sweep refused at any dim writes neither, and returns their paths:

    * ``convergence.csv`` with columns ``dim, z, in_regime, cutoff,
      bch_residual, eigen_eta, eigen_xi, resolution_deviation, status``
      at the first nonzero configured amplitude, or 1 if there is none
      (the factorization is compared at a cutoff fixed across the sweep,
      half the smallest dim, so the rows are comparable; ``bch_residual``
      is the larger of the ``bch_u`` and ``bch_v`` records, relative to the
      lower bound of the reference norm as in ``verify``).  ``status`` is
      the worst one over the row's ``bch_*``, ``eigen_*`` and full-rule
      ``resolution_identity`` records, graded as ``verify`` grades them,
      and ``in_regime`` is false when any of them is ``out-of-regime``;
    * ``quadrature.csv`` with columns ``dim, radial_count,
      angular_count, deviation`` including deliberately under-resolved
      rows that show where exactness is lost.
    """
    if len(dims) == 0 or any(a >= b for a, b in zip(dims, dims[1:])):
        raise ConfigError(f"dims must be a non-empty strictly ascending list, got {dims}")
    if dims[0] < 4:
        raise ConfigError(f"dims must all be >= 4, got {dims}")
    if config.map_spec.kind == "projector" and config.map_spec.u_index >= dims[0]:
        raise ConfigError(f"projector u_index {config.map_spec.u_index} outside [0, {dims[0]})")
    out_dir = _output_dir(config.outputs)

    z = next((z for z in config.z_samples if z != 0), 1.0 + 0.0j)
    cutoff = max(2, dims[0] // 2)

    conv_rows, quad_rows = [], []  # written once every dim has computed
    for dim in dims:
        riesz = build_map(config, dim=dim)
        rec = _Recorder(riesz, time.perf_counter())
        pair = make_pair(riesz)
        with warnings.catch_warnings():
            # the status and the under-resolved rows carry these
            warnings.simplefilter("ignore", AccuracyRegimeWarning)
            warnings.simplefilter("ignore", UnderResolvedWarning)
            _record_bch_eigen(rec, pair, displaced_pair(riesz, z, cutoff), rbcs(riesz, z), cutoff)
            # each rule once; the full rule (radial = dim) fills both tables
            tol = rec.tolerance("resolution_identity")
            deviations = {
                radial: resolution_of_identity(
                    riesz, make_quadrature(radial, radial, 2 * dim + 1), tol=tol)
                for radial in sorted({max(2, dim // 4), max(2, dim // 2), dim})
            }
        rec.add("resolution_identity", deviations[dim])
        r = {x.check_id: x.residual for x in rec.reports}
        status = ("fail" if suite_failed(rec.reports) else
                  "out-of-regime" if suite_failed(rec.reports, strict=True) else "pass")
        in_regime = all(x.status != "out-of-regime" for x in rec.reports)
        conv_rows.append([dim, _format_z(z), in_regime, cutoff,
                          f"{max(r['bch_u'], r['bch_v']):.6e}", f"{r['eigen_eta']:.6e}",
                          f"{r['eigen_xi']:.6e}", f"{deviations[dim]:.6e}", status])
        quad_rows += [[dim, radial, 2 * dim + 1, f"{v:.6e}"] for radial, v in deviations.items()]

    return (_write_csv(out_dir / "convergence.csv",
                       ["dim", "z", "in_regime", "cutoff", "bch_residual", "eigen_eta",
                        "eigen_xi", "resolution_deviation", "status"], conv_rows),
            _write_csv(out_dir / "quadrature.csv",
                       ["dim", "radial_count", "angular_count", "deviation"], quad_rows))
