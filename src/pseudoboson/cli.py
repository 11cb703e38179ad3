"""Command-line entry point for batch verification.

Verbs
-----
``verify --config <path> [--out <dir>] [--dim <n>] [--seed <n>] [--strict]``
    Run the full check suite for a config; exit 0 when every check
    passes, 1 on any failure (with ``--strict``, on any out-of-regime
    check too), 2 on configuration errors.
``converge --config <path> [--out <dir>] [--dim <n>] [--seed <n>] [--dims <list>]``
    Emit residual-decay and quadrature-degradation CSV tables over a
    dimension sweep; exit 0 whatever the rows say, 2 on configuration
    errors.
``emit-wavefunctions --config <path> [--out <dir>] [--dim <n>]``
    Write one plot-ready wavefunction CSV per configured amplitude, from
    the closed forms of the ground-state projector map; the config's map
    must be that one.

``--out``, ``--dim`` and ``--seed`` override the config's ``outputs``,
``dim`` (the config is validated at it) and seed.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .config import build_map, load_config
from .coordinate import _is_ground_state_projector, write_wavefunction_csv
from .errors import ConfigError, PseudoBosonError
from .suite import _format_z, _output_dir, convergence_study, run_suite, suite_failed

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pseudoboson",
        description="Residual-quantified verification of pseudo-bosonic "
        "operator pairs and bicoherent states on a truncated Fock space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    verify = sub.add_parser("verify", help="run the full check suite")
    converge = sub.add_parser("converge", help="residual decay over a dimension sweep")
    emit = sub.add_parser("emit-wavefunctions", help="write per-z wavefunction CSVs")
    for p in (verify, converge, emit):
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--dim", type=int, default=None, help="dimension override")
    for p in (verify, converge):
        p.add_argument("--seed", type=int, default=None, help="seed override")
    verify.add_argument("--strict", action="store_true",
                        help="treat out-of-regime checks as failures")
    converge.add_argument("--dims", default="16,32,64",
                          help="comma-separated strictly ascending dimensions (default 16,32,64)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(
            args.config,
            dim_override=args.dim,
            seed_override=getattr(args, "seed", None),
            out_override=args.out,
        )
        if args.command == "verify":
            reports = run_suite(config)
            # the table run_suite wrote, not formatted a second time
            sys.stdout.write((config.outputs / "report.txt").read_text())
            print(f"reports written to {config.outputs}")
            return 1 if suite_failed(reports, strict=args.strict) else 0
        if args.command == "converge":
            try:
                dims = [int(d) for d in args.dims.split(",") if d.strip()]
            except ValueError as exc:
                raise ConfigError(f"--dims must be comma-separated integers: {exc}") from exc
            conv_path, quad_path = convergence_study(config, dims)
            print(f"wrote {conv_path}")
            print(f"wrote {quad_path}")
            return 0
        if not _is_ground_state_projector(build_map(config)):
            raise ConfigError("emit-wavefunctions writes the closed forms of the ground-state "
                              "projector map 1 + i|e_0><e_0|; map_spec names another map")
        out_dir = _output_dir(config.outputs)
        x = np.linspace(-8.0, 8.0, 801)
        for i, z in enumerate(config.z_samples):
            path = out_dir / f"wavefunctions_z{i}_{_format_z(z)}.csv"
            write_wavefunction_csv(path, z, x)
            print(f"wrote {path}")
        return 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except PseudoBosonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
