"""Run configuration for the batch verification runner.

Configs are JSON with a versioned schema.  Unknown keys anywhere are
rejected outright so a mistyped key can never be silently ignored.
Tolerances are not configurable: every check is graded against
``DEFAULT_TOLERANCES``.  Neither is the quadrature: ``verify`` uses the
rule with ``dim // 2 + 1`` radial nodes (the fewest that pass its
moment test) and ``2 dim + 1`` angular nodes.

Example::

    {
      "schema_version": 1,
      "dim": 64,
      "map_spec": {"kind": "projector", "u_index": 0},
      "z_samples": [[0, 0], [1, 0], [1, 1], [0, 2]],
      "outputs": "out",
      "seed": 7
    }

``map_spec.kind`` is one of ``identity``, ``projector`` (rank-one
deformation on basis vector ``u_index``), ``random`` (seeded, fixed
condition number), or ``file`` (serialized map record).  A random map
uses ``map_spec.seed`` when given, else the top-level ``seed``; a
``--seed`` override replaces both.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import ConditioningError, ConfigError
from .fock import FockSpace
from .riesz import RieszMap, load_riesz_map, make_riesz_map, random_riesz_map
from .fock import identity as identity_op
from .coordinate import projector_map
from .displacement import in_accuracy_regime

__all__ = ["MapSpec", "RunConfig", "load_config", "build_map"]

SCHEMA_VERSION = 1

_MAP_KEYS = {
    "identity": set(),
    "projector": {"u_index"},
    "random": {"cond", "seed"},
    "file": {"path"},
}


@dataclass(frozen=True)
class MapSpec:
    """How the run builds its invertible map."""

    kind: str
    u_index: int = 0
    cond: float = 10.0
    seed: int | None = None
    path: str | None = None


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration."""

    dim: int
    map_spec: MapSpec
    z_samples: tuple[complex, ...]
    outputs: Path = Path("out")
    seed: int = 0
    allow_out_of_regime: bool = False


def _reject_unknown(record: dict, allowed: set, where: str):
    unknown = set(record) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _parse_map_spec(record) -> MapSpec:
    if not isinstance(record, dict) or "kind" not in record:
        raise ConfigError("map_spec must be an object with a 'kind' key")
    kind = record["kind"]
    if kind not in _MAP_KEYS:
        raise ConfigError(f"unknown map_spec kind {kind!r}; expected one of {sorted(_MAP_KEYS)}")
    _reject_unknown(record, {"kind"} | _MAP_KEYS[kind], f"map_spec ({kind})")
    spec = MapSpec(kind=kind)
    if kind == "projector":
        spec = replace(spec, u_index=int(record.get("u_index", 0)))
    elif kind == "random":
        spec = replace(
            spec,
            cond=float(record.get("cond", 10.0)),
            seed=int(record["seed"]) if "seed" in record else None,
        )
    elif kind == "file":
        if "path" not in record:
            raise ConfigError("map_spec kind 'file' requires 'path'")
        spec = replace(spec, path=str(record["path"]))
    return spec


def _parse_z(values) -> tuple[complex, ...]:
    samples = []
    for v in values:
        if not (isinstance(v, (list, tuple)) and len(v) == 2):
            raise ConfigError(f"z_samples entries must be [re, im] pairs, got {v!r}")
        samples.append(complex(float(v[0]), float(v[1])))
    return tuple(samples)


def load_config(
    path: str | Path,
    *,
    dim_override: int | None = None,
    seed_override: int | None = None,
    out_override: str | Path | None = None,
) -> RunConfig:
    """Load, validate, and apply command-line overrides to a config file.

    Raises :class:`ConfigError` on any malformed content; unknown keys
    are rejected rather than ignored.
    """
    path = Path(path)
    try:
        record = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(record, dict):
        raise ConfigError("config root must be a JSON object")
    _reject_unknown(
        record,
        {
            "schema_version",
            "dim",
            "map_spec",
            "z_samples",
            "outputs",
            "seed",
            "allow_out_of_regime",
        },
        "config",
    )
    if record.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version must be {SCHEMA_VERSION}, got {record.get('schema_version')!r}"
        )
    if "dim" not in record or "map_spec" not in record:
        raise ConfigError("config requires 'dim' and 'map_spec'")

    dim = int(record["dim"]) if dim_override is None else int(dim_override)
    if dim < 4:
        raise ConfigError(f"dim must be >= 4, got {dim}")

    map_spec = _parse_map_spec(record["map_spec"])
    if map_spec.kind == "projector" and not 0 <= map_spec.u_index < dim:
        raise ConfigError(f"projector u_index {map_spec.u_index} outside [0, {dim})")

    z_samples = _parse_z(record.get("z_samples", [[0, 0], [1, 0], [1, 1], [0, 2]]))

    allow_oor = bool(record.get("allow_out_of_regime", False))
    if not allow_oor:
        bad = [z for z in z_samples if not in_accuracy_regime(FockSpace(dim), z)]
        if bad:
            raise ConfigError(
                f"z_samples outside accuracy regime |z|^2 <= dim/4: {bad}; "
                "set allow_out_of_regime to run them flagged"
            )

    outputs = Path(out_override) if out_override is not None else Path(record.get("outputs", "out"))
    seed = int(record.get("seed", 0)) if seed_override is None else int(seed_override)
    if seed_override is not None and map_spec.seed is not None:
        map_spec = replace(map_spec, seed=seed)  # the override wins over map_spec.seed

    return RunConfig(
        dim=dim,
        map_spec=map_spec,
        z_samples=z_samples,
        outputs=outputs,
        seed=seed,
        allow_out_of_regime=allow_oor,
    )


#: Conditioning budget for suite runs; every residual tolerance scales
#: with a power of cond, so beyond this the run would prove nothing.
SUITE_MAX_COND = 1e4


def build_map(config: RunConfig, dim: int | None = None) -> RieszMap:
    """Construct the run's invertible map at ``dim`` (default: the
    configured dimension).

    Maps with ``cond > SUITE_MAX_COND`` raise :class:`ConditioningError`,
    which the runner reports as a failed construction check.
    """
    dim = config.dim if dim is None else dim
    space = FockSpace(dim)
    spec = config.map_spec
    if spec.kind == "identity":
        riesz = make_riesz_map(identity_op(space))
    elif spec.kind == "projector":
        riesz = projector_map(space, space.basis_vector(spec.u_index)).riesz
    elif spec.kind == "random":
        seed = spec.seed if spec.seed is not None else config.seed
        riesz = random_riesz_map(space, spec.cond, seed)
    elif spec.kind == "file":
        riesz = load_riesz_map(spec.path)
        if riesz.dim != dim:
            raise ConfigError(f"map file has dim {riesz.dim} but the run wants dim {dim}")
    else:
        raise ConfigError(f"unhandled map kind {spec.kind!r}")
    if riesz.cond > SUITE_MAX_COND:
        raise ConditioningError(
            f"cond(S) = {riesz.cond:.3e} exceeds the suite budget {SUITE_MAX_COND:.0e}"
        )
    return riesz
