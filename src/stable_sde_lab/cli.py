"""Command line entry point: ``stable-sde-lab run --config FILE``."""

from __future__ import annotations

import argparse
import sys
import traceback
from dataclasses import replace

from .driver import SamplerIntegrityError
from .harness import (
    EXIT_CONFIG,
    EXIT_CRASH,
    EXIT_INVARIANT,
    EXIT_PASS,
    ClockCoverageError,
    ConfigError,
    ExperimentResult,
    load_config,
    run_experiment,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stable-sde-lab",
        description="Simulation experiments for monotone SDEs driven by one-sided stable subordinators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run one experiment from a config file")
    run.add_argument("--config", required=True, help="flat key=value config file")
    run.add_argument("--seed", type=int, default=None, help="override the master seed")
    run.add_argument("--out", default=None, help="override the output directory")
    return parser


def _print_result(result: ExperimentResult) -> None:
    for row in result.rows:
        status = "PASS" if row.passed else "FAIL"
        line = f"{status} {row.name}: value={row.value:.6g} threshold={row.threshold:.6g}"
        if row.detail:
            line += f" ({row.detail})"
        print(line)
    for artifact in result.artifacts:
        print(f"wrote {artifact}")
    print(f"exit {result.exit_code}")


def main(argv: list[str] | None = None) -> int:
    """Run the command; a crash exits 4, never as a statistical failure."""
    try:
        return _main(argv)
    except Exception:
        traceback.print_exc()
        return EXIT_CRASH


def _main(argv: list[str] | None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
        return EXIT_CONFIG if exc.code else EXIT_PASS
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        if args.out is not None:
            cfg = replace(cfg, out=args.out)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        result = run_experiment(cfg)
    except (FloatingPointError, SamplerIntegrityError, ClockCoverageError) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    _print_result(result)
    return result.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
