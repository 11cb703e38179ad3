"""Batch verification runner: executes the full check suite for one
configuration and emits reports plus plot-ready CSV tables.

The checks return plain residuals and the runner grades them: every
tolerance is ``default_tolerance(check_id, cond)``.  The pairing and
eigen-relation checks, which compare against truncated coherent states,
add an explicit truncation-tail term to it, so the runner stays honest
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
    ladder_check,
    make_pair,
    number_operator_check,
    theta_conjugacy_check,
    vacua,
    vacua_from_map,
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
from .coordinate import cross_validate
from .displacement import (
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
    ValidationError,
)
from .fock import SafeSubspace, _spectral_norm
from .reports import CheckReport, default_tolerance, format_report_table, reports_to_json
from .riesz import _lmul, biorthogonal_family, metric_operator, theta_rank_one_sums

__all__ = ["run_suite", "convergence_study", "suite_failed"]


def _format_z(z: complex) -> str:
    return f"{z.real:g}{z.imag:+g}j"


class _Recorder:
    """Grades residuals into reports: the one place a tolerance is
    composed, as the table value at the map's ``cond`` plus the check's
    tail term.  A report's wall time is the time since the previous one
    (the first counts from ``start``), so each span is counted once: a
    shared object's build is charged to the next check, and of several
    records from one computation the first carries its time."""

    def __init__(self, cond: float, start: float):
        self.cond = cond
        self.reports: list[CheckReport] = []
        self._lap = start

    def add(self, name: str, residual: float, *, params: dict | None = None,
            in_regime: bool = True, extra_tol: float = 0.0):
        now = time.perf_counter()
        tol = default_tolerance(name, self.cond) + extra_tol
        if not in_regime:
            status = "out-of-regime"
        else:
            status = "pass" if residual <= tol else "fail"
        self.reports.append(
            CheckReport(
                check_id=name,
                params=params or {},
                residual=float(residual),
                tolerance=tol,
                status=status,
                wall_time=now - self._lap,
            )
        )
        self._lap = now


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
    out_dir = Path(config.outputs)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        probe = out_dir / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise ConfigError(f"output directory {out_dir} is not writable: {exc}") from exc

    start = time.perf_counter()
    try:
        riesz = build_map(config)
    except (NotInvertibleError, ConditioningError) as exc:
        reports = [
            CheckReport(
                check_id="riesz_construction",
                params={"error": str(exc)},
                residual=float("inf"),
                tolerance=0.0,
                status="fail",
            )
        ]
        _write_outputs(out_dir, reports)
        return reports

    rec = _Recorder(riesz.cond, start)
    dim = riesz.dim
    space = riesz.space
    eye = np.eye(dim)

    rec.add("riesz_construction", riesz.inverse_residual, params={"block": riesz.block})

    fam = biorthogonal_family(riesz)
    rec.add("biorthogonality", np.abs(fam.gram() - eye).max())

    met = metric_operator(riesz)
    p = riesz.block
    rec.add("theta_family",
            np.linalg.norm(_lmul(met.theta.mat[:p, :p], fam.phi) - fam.psi, axis=0).max())

    # relative to ||Theta|| = 1/A and ||Theta^-1|| = B, the frame bounds
    A, B = riesz.frame_bounds
    theta_sum, theta_inv_sum = theta_rank_one_sums(fam)
    rec.add("rank_one_theta", _spectral_norm(theta_sum.mat - met.theta.mat) * A)
    rec.add("rank_one_theta_inv", _spectral_norm(theta_inv_sum.mat - met.theta_inv.mat) / B)

    theta_eigs = np.linalg.eigvalsh(met.theta.mat)
    rec.add("theta_positivity", max(0.0, 1.0 / B - theta_eigs[0], theta_eigs[-1] - 1.0 / A))

    pair = make_pair(riesz)
    sub_top = SafeSubspace(space, dim - 1)
    a, b, k = pair.a.mat, pair.b.mat, sub_top.cutoff
    rec.add("ccr", _spectral_norm((a @ b - b @ a - eye)[:k, :k]))

    cf = vacua_from_map(riesz)
    try:
        extracted = vacua(pair)
    except (DegenerateKernelError, OrthogonalVacuaError) as exc:
        for name in ("vacuum_match", "vacuum_pairing"):
            rec.add(name, float("inf"), params={"error": str(exc)})
    else:
        r_phi = _phase_aligned_distance(extracted.phi0, cf.phi0 / np.linalg.norm(cf.phi0))
        psi_dir = extracted.psi0 / np.linalg.norm(extracted.psi0)
        r_psi = _phase_aligned_distance(psi_dir, cf.psi0 / np.linalg.norm(cf.psi0))
        rec.add("vacuum_match", max(r_phi, r_psi))
        rec.add("vacuum_pairing", abs(np.vdot(extracted.phi0, extracted.psi0) - 1.0))

    rec.add("ladder", max(r.max() for r in ladder_check(pair, fam).values()))
    rec.add("number_operator", max(r.max() for r in number_operator_check(pair, fam)))

    n_eigs = np.sort_complex(np.linalg.eigvals(pair.b.mat @ pair.a.mat))[: dim - 1]
    rec.add("number_spectrum", np.abs(n_eigs - np.arange(dim - 1)).max())

    rec.add("theta_conjugacy", theta_conjugacy_check(pair, met, sub_top))

    for z in config.z_samples:
        in_regime = in_accuracy_regime(space, z)
        zp = {"z": _format_z(z)}
        tail = coherent_tail_bound(dim, z)
        # factorization needs a top margin beyond the coherent excursion;
        # the half-space is used whenever the margin allows it
        bch_cutoff = max(1, min(dim // 2, dim - math.ceil(4 * abs(z) ** 2) - 6))
        with warnings.catch_warnings():
            # regime warnings are encoded in the status
            warnings.simplefilter("ignore", AccuracyRegimeWarning)
            rec.add("power_similarity", power_similarity_check(pair, z).max(),
                    params=zp, in_regime=in_regime)
            disp = displaced_pair(riesz, z)
            bch = bch_factorization_check(pair, disp, SafeSubspace(space, bch_cutoff))
            for name, residual in zip(("bch_u", "bch_v"), bch):
                rec.add(name, residual, params={**zp, "cutoff": bch_cutoff}, in_regime=in_regime)
            rec.add("intertwining", intertwining_check(disp, met, sub_top),
                    params=zp, in_regime=in_regime)

            bc = rbcs(riesz, z)
            rec.add("rbcs_pairing", abs(np.vdot(bc.eta, bc.xi) - 1.0),
                    params=zp, in_regime=in_regime,
                    extra_tol=4.0 * riesz.cond * tail**2)

            phi_s, psi_s = series_route(pair, z, cf)
            rec.add("two_route",
                    max(np.linalg.norm(phi_s - bc.eta), np.linalg.norm(psi_s - bc.xi)),
                    params=zp, in_regime=in_regime)

            r_eta, r_xi = eigen_check(pair, bc)
            eigen_tail = 10.0 * np.sqrt(dim) * riesz.cond * tail
            rec.add("eigen_eta", r_eta, params=zp, in_regime=in_regime, extra_tol=eigen_tail)
            rec.add("eigen_xi", r_xi, params=zp, in_regime=in_regime, extra_tol=eigen_tail)

    try:
        quad = make_quadrature(dim, dim // 2 + 1, 2 * dim + 1)
    except UnderResolvedError as exc:
        rec.add("resolution_identity", float("inf"), params={"error": str(exc)})
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UnderResolvedWarning)
            rec.add("resolution_identity", resolution_of_identity(riesz, quad),
                    params={"radial": quad.radial_count, "angular": quad.angular_count})

    if config.map_spec.kind == "projector" and config.map_spec.u_index == 0:
        for z in config.z_samples:
            if not in_accuracy_regime(space, z):
                continue  # closed-form comparison needs a suppressed tail
            zp = {"z": _format_z(z)}
            try:
                cv = cross_validate(z, riesz)
            except ValidationError as exc:
                for name in ("coordinate_l2", "coordinate_pairing"):
                    rec.add(name, float("inf"), params={**zp, "error": str(exc)})
                continue
            rec.add("coordinate_l2", max(cv.l2_dev_phi, cv.l2_dev_psi), params=zp)
            rec.add("coordinate_pairing", abs(cv.pairing - 1.0), params=zp)

    reports = sorted(rec.reports, key=lambda r: (r.check_id, str(sorted(r.params.items()))))
    _write_outputs(out_dir, reports)
    return reports


def suite_failed(reports: list[CheckReport], strict: bool = False) -> bool:
    """True when any check failed (with ``strict``, out-of-regime runs
    count as failures too)."""
    bad = {"fail", "out-of-regime"} if strict else {"fail"}
    return any(r.status in bad for r in reports)


def _write_outputs(out_dir: Path, reports: list[CheckReport]):
    (out_dir / "report.txt").write_text(format_report_table(reports) + "\n")
    (out_dir / "report.json").write_text(reports_to_json(reports) + "\n")
    with (out_dir / "residuals.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["check_id", "params", "residual", "tolerance", "status"])
        for r in reports:
            params = ";".join(f"{k}={v}" for k, v in sorted(r.params.items()))
            writer.writerow([r.check_id, params, f"{r.residual:.6e}", f"{r.tolerance:.6e}", r.status])


def convergence_study(config: RunConfig, dims: list[int]) -> tuple[Path, Path]:
    """Residual decay tables over a sweep of truncation dimensions.

    Writes two CSVs into the output directory and returns their paths:

    * ``convergence.csv`` with columns ``dim, z, in_regime, cutoff,
      bch_residual, eigen_eta, eigen_xi, resolution_deviation`` (the
      factorization is compared at a cutoff fixed across the sweep so
      the rows are comparable);
    * ``quadrature.csv`` with columns ``dim, radial_count,
      angular_count, deviation`` including deliberately under-resolved
      rows that show where exactness is lost.
    """
    if list(dims) != sorted(dims) or len(dims) == 0:
        raise ConfigError(f"dims must be a non-empty ascending list, got {dims}")
    if dims[0] < 4:
        raise ConfigError(f"dims must all be >= 4, got {dims}")
    out_dir = Path(config.outputs)
    out_dir.mkdir(parents=True, exist_ok=True)

    z = next((z for z in config.z_samples if z != 0), 1.0 + 0.0j)
    cutoff = max(2, dims[0] // 2)

    conv_path = out_dir / "convergence.csv"
    quad_path = out_dir / "quadrature.csv"
    with conv_path.open("w", newline="") as fh, quad_path.open("w", newline="") as qfh:
        conv = csv.writer(fh)
        quad_writer = csv.writer(qfh)
        conv.writerow(["dim", "z", "in_regime", "cutoff", "bch_residual",
                       "eigen_eta", "eigen_xi", "resolution_deviation"])
        quad_writer.writerow(["dim", "radial_count", "angular_count", "deviation"])
        for dim in dims:
            riesz = build_map(config, dim=dim)
            pair = make_pair(riesz)
            space = riesz.space
            in_regime = in_accuracy_regime(space, z)
            with warnings.catch_warnings():
                # the in_regime column and the under-resolved rows carry these
                warnings.simplefilter("ignore", AccuracyRegimeWarning)
                warnings.simplefilter("ignore", UnderResolvedWarning)
                disp = displaced_pair(riesz, z)
                bch = max(bch_factorization_check(pair, disp, SafeSubspace(space, cutoff)))
                r_eta, r_xi = eigen_check(pair, rbcs(riesz, z))
                # each rule once; the full rule (radial = dim) fills both tables
                deviations = {
                    radial: resolution_of_identity(
                        riesz, make_quadrature(radial, radial, 2 * dim + 1))
                    for radial in sorted({max(2, dim // 4), max(2, dim // 2), dim})
                }
            conv.writerow([dim, _format_z(z), in_regime, cutoff, f"{bch:.6e}",
                           f"{r_eta:.6e}", f"{r_xi:.6e}", f"{deviations[dim]:.6e}"])
            for radial, dev in deviations.items():
                quad_writer.writerow([dim, radial, 2 * dim + 1, f"{dev:.6e}"])
    return conv_path, quad_path
