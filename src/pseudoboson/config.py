"""Run configuration for the batch verification runner.

Configs are JSON with a versioned schema.  Unknown keys anywhere are
rejected outright so a mistyped key can never be silently ignored.
Tolerances are not configurable: every check is graded against
``DEFAULT_TOLERANCES``.  Neither is the quadrature: ``verify`` uses the
rule with ``dim // 2 + 1`` radial nodes (exact through ``t^dim``, past
every moment the space reads) and ``2 dim + 1`` angular nodes.

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
condition number), or ``file`` (serialized map record).  The seed is
resolved once, into ``MapSpec.seed``: the ``--seed`` override when
given, else ``map_spec.seed``, else the top-level ``seed``, else 0; only
a random map reads it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ConditioningError, ConfigError
from .fock import FockSpace
from .riesz import RieszMap, load_riesz_map, make_riesz_map, random_riesz_map
from .coordinate import projector_map
from .displacement import in_accuracy_regime

__all__ = ["MapSpec", "RunConfig", "load_config", "build_map"]

SCHEMA_VERSION = 1

#: The numeric keys of each map kind, with the conversion each value
#: takes; a ``file`` map's ``path`` is read as a string.
_MAP_KEYS = {
    "identity": {},
    "projector": {"u_index": int},
    "random": {"cond": float, "seed": int},
    "file": {},
}


@dataclass(frozen=True)
class MapSpec:
    """How the run builds its invertible map."""

    kind: str
    u_index: int = 0
    cond: float = 10.0
    seed: int = 0
    path: str | None = None


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration."""

    dim: int
    map_spec: MapSpec
    z_samples: tuple[complex, ...]
    outputs: Path = Path("out")


def _reject_unknown(record: dict, allowed: set, where: str):
    unknown = set(record) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _number(convert, value, key: str):
    """``convert(value)`` for ``convert`` ``int`` or ``float``, refused with a
    :class:`ConfigError` naming ``key`` unless it is a finite number, and for
    ``int`` an integral one (``16`` and ``16.0``, not ``16.9``, ``true`` or
    ``"16"``)."""
    try:
        if isinstance(value, (bool, str)):
            raise TypeError(f"a {type(value).__name__} is not a number")
        number = float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{key} must be a finite number, got {value!r}") from exc
    if not math.isfinite(number):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    if convert is float:
        return number
    if not number.is_integer():
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return value if isinstance(value, int) else int(number)


def _integer(value, key: str, low: int) -> int:
    """``value`` as an integral number (:func:`_number`), refused below ``low``."""
    number = _number(int, value, key)
    if number < low:
        raise ConfigError(f"{key} must be >= {low}, got {number}")
    return number


def _parse_map_spec(record) -> MapSpec:
    if not isinstance(record, dict) or "kind" not in record:
        raise ConfigError("map_spec must be an object with a 'kind' key")
    kind = record["kind"]
    if kind not in _MAP_KEYS:
        raise ConfigError(f"unknown map_spec kind {kind!r}; expected one of {sorted(_MAP_KEYS)}")
    if kind == "file":
        _reject_unknown(record, {"kind", "path"}, "map_spec (file)")
        if "path" not in record:
            raise ConfigError("map_spec kind 'file' requires 'path'")
        return MapSpec(kind, path=str(record["path"]))
    keys = _MAP_KEYS[kind]
    _reject_unknown(record, {"kind", *keys}, f"map_spec ({kind})")
    spec = MapSpec(kind, **{key: _number(convert, record[key], f"map_spec.{key}")
                            for key, convert in keys.items() if key in record})
    _integer(spec.seed, "map_spec.seed", 0)
    if spec.cond < 1:
        raise ConfigError(f"map_spec.cond must be >= 1, got {spec.cond!r}")
    return spec


def _parse_z(values) -> tuple[complex, ...]:
    """The amplitudes of a JSON array of ``[re, im]`` pairs, each with a
    finite ``4|z|^2`` (the runner's cutoffs and regime test square ``|z|``)."""
    if not isinstance(values, list):
        raise ConfigError(f"z_samples must be an array of [re, im] pairs, got {values!r}")
    samples = []
    for v in values:
        if not (isinstance(v, (list, tuple)) and len(v) == 2):
            raise ConfigError(f"z_samples entries must be [re, im] pairs, got {v!r}")
        z = complex(*(_number(float, x, "z_samples") for x in v))
        try:
            finite = math.isfinite(4 * abs(z) ** 2)
        except OverflowError:
            finite = False
        if not finite:
            raise ConfigError(f"z_samples entry {v!r} is too large: 4|z|^2 overflows")
        samples.append(z)
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

    dim = _integer(record["dim"], "dim", 4)
    if dim_override is not None:
        dim = _integer(dim_override, "dim", 4)

    map_spec = _parse_map_spec(record["map_spec"])
    if map_spec.kind == "projector" and not 0 <= map_spec.u_index < dim:
        raise ConfigError(f"projector u_index {map_spec.u_index} outside [0, {dim})")

    z_samples = _parse_z(record.get("z_samples", [[0, 0], [1, 0], [1, 1], [0, 2]]))

    allow_oor = record.get("allow_out_of_regime", False)
    if not isinstance(allow_oor, bool):
        raise ConfigError(f"allow_out_of_regime must be true or false, got {allow_oor!r}")
    if not allow_oor:
        bad = [z for z in z_samples if not in_accuracy_regime(FockSpace(dim), z)]
        if bad:
            raise ConfigError(
                f"z_samples outside accuracy regime |z|^2 <= dim/4: {bad}; "
                "set allow_out_of_regime to run them flagged"
            )

    outputs = record.get("outputs", "out")
    if not isinstance(outputs, (str, Path)):
        raise ConfigError(f"outputs must be a path string, got {outputs!r}")
    seed = _integer(record.get("seed", MapSpec.seed), "seed", 0)
    if "seed" in record["map_spec"]:
        seed = map_spec.seed
    if seed_override is not None:
        seed = _integer(seed_override, "seed", 0)

    return RunConfig(
        dim=dim,
        map_spec=replace(map_spec, seed=seed),
        z_samples=z_samples,
        outputs=Path(outputs if out_override is None else out_override),
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
        riesz = make_riesz_map(space, np.eye(0))
    elif spec.kind == "projector":
        riesz = projector_map(space, space.basis_vector(spec.u_index))
    elif spec.kind == "random":
        riesz = random_riesz_map(space, spec.cond, spec.seed)
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
