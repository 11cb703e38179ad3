"""Check reports of the batch verification runner and the tolerance
table it grades residuals against."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

__all__ = ["DEFAULT_TOLERANCES", "TAIL_TERMS", "default_tolerance", "CheckReport",
           "format_report_table", "reports_to_json"]

#: check name -> (base tolerance, power of cond multiplying it)
DEFAULT_TOLERANCES: dict[str, tuple[float, int]] = {
    "riesz_construction": (1e-12, 1),
    "biorthogonality": (1e-10, 0),
    "theta_family": (1e-10, 0),
    "rank_one_theta": (1e-11, 0),
    "rank_one_theta_inv": (1e-11, 0),
    "theta_positivity": (1e-10, 0),
    "ccr": (1e-10, 2),
    "vacuum_match": (1e-10, 0),
    "vacuum_pairing": (1e-12, 0),
    "ladder": (1e-9, 0),
    "number_operator": (1e-9, 0),
    "number_spectrum": (1e-6, 2),
    "theta_conjugacy": (1e-10, 3),
    "power_similarity": (1e-7, 0),
    "bch_u": (1e-8, 0),
    "bch_v": (1e-8, 0),
    "intertwining": (1e-9, 0),
    "rbcs_pairing": (1e-11, 0),
    "two_route": (1e-9, 1),
    "eigen_eta": (1e-10, 0),
    "eigen_xi": (1e-10, 0),
    "resolution_identity": (1e-10, 0),
    "coordinate_l2": (1e-8, 0),
    "coordinate_pairing": (1e-9, 0),
}


#: check name -> term ``f(cond, dim, tail)`` added for comparing against
#: coherent states truncated at ``dim`` levels with omitted norm <= ``tail``
TAIL_TERMS = {
    "rbcs_pairing": lambda cond, dim, tail: 4.0 * cond * tail**2,
    "eigen_eta": lambda cond, dim, tail: 10.0 * math.sqrt(dim) * cond * tail,
    "eigen_xi": lambda cond, dim, tail: 10.0 * math.sqrt(dim) * cond * tail,
    "coordinate_l2": lambda cond, dim, tail: cond * tail,
}


def default_tolerance(name: str, cond: float, dim: int = 0, tail: float = 0.0) -> float:
    """Tolerance of a named check for a map of condition number ``cond``:
    the registered base times the registered power of ``cond``, plus the
    check's tail term, if any, for a ``dim``-level truncation."""
    base, power = DEFAULT_TOLERANCES[name]
    tol = float(base) * float(cond) ** power
    term = TAIL_TERMS.get(name)
    return tol + term(cond, dim, tail) if term else tol


@dataclass(frozen=True)
class CheckReport:
    """Aggregated verdict for one suite check.

    ``status`` is ``"pass"`` iff ``residual <= tolerance``, except for
    runs outside the accuracy regime which report ``"out-of-regime"``.
    """

    check_id: str
    params: dict = field(default_factory=dict)
    residual: float = 0.0
    tolerance: float = 0.0
    status: str = "pass"
    wall_time: float = 0.0


def format_report_table(reports: list[CheckReport]) -> str:
    """Fixed-width human-readable table, one line per report."""
    lines = [
        f"{'check':38s} {'residual':>12s} {'tolerance':>12s} {'status':>14s} {'time[s]':>8s}",
        "-" * 88,
    ]
    for r in reports:
        params = " ".join(f"{k}={v}" for k, v in r.params.items())
        name = f"{r.check_id} {params}".strip()
        lines.append(
            f"{name:38s} {r.residual:12.3e} {r.tolerance:12.3e} {r.status:>14s} {r.wall_time:8.3f}"
        )
    n_fail = sum(1 for r in reports if r.status == "fail")
    n_oor = sum(1 for r in reports if r.status == "out-of-regime")
    lines.append("-" * 88)
    lines.append(f"{len(reports)} checks: {len(reports) - n_fail - n_oor} pass, "
                 f"{n_fail} fail, {n_oor} out-of-regime")
    return "\n".join(lines)


def reports_to_json(reports: list[CheckReport]) -> str:
    """Machine-readable JSON array of report records."""
    return json.dumps([vars(r) for r in reports], indent=2)
