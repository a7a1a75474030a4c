"""Command-line entry point.

    bsderisk <task> --config scenario.json [--set key.path=value ...]
                    [--out DIR] [--seed N] [--format csv|json-lines]
    bsderisk report --in payload.(csv|jsonl) [--out DIR] [--format ...]

Tasks: simulate, solve, risk, allocate, verify. The subcommand overrides
the config's ``task`` field; naming both with different values is a
validation error. ``--out`` falls back to the BSDERISK_OUT environment
variable, then the working directory.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 config
parse error, 3 config validation error or a payoff unsupported on the
simulated paths (``unsupported-payoff:``), 4 solver failure, 5 estimator
failure. Error text goes to stderr prefixed with the failure kind; stdout
carries only the emitted file paths and the check tally, so repeated runs
print identical bytes.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from .errors import (
    ConfigParseError,
    ConfigValidationError,
    EstimatorFailure,
    SolverFailure,
    UnsupportedPayoff,
)
from .reporting import FORMATS, emit_report, read_report
from .scenario import TASKS, apply_overrides, build_scenario, load_config, run_scenario

__all__ = ["main"]


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="scenario JSON file")
    parser.add_argument(
        "--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE",
        help="override a config entry by dotted path; value parsed as JSON, "
             "else taken as a string (repeatable)",
    )
    _add_out_flags(parser)
    parser.add_argument("--seed", type=int, default=None, help="replace mc.seed")


def _add_out_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--out", default=None,
        help="output directory (default: $BSDERISK_OUT, then the working directory)",
    )
    parser.add_argument("--format", choices=FORMATS, default="csv", dest="fmt")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bsderisk",
        description="Monte Carlo risk engine for dynamic convex risk measures",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for task in TASKS:
        p = sub.add_parser(task, help=f"run a {task} scenario")
        _add_run_flags(p)
    p = sub.add_parser("report", help="re-emit a stored report payload")
    p.add_argument("--in", dest="payload", required=True, help="existing payload file")
    _add_out_flags(p)
    return parser


def _out_dir(args) -> str:
    return args.out or os.environ.get("BSDERISK_OUT") or "."


def _run_task(args) -> int:
    raw = load_config(args.config)
    apply_overrides(raw, args.overrides)
    cfg = build_scenario(raw, task=args.command, seed=args.seed)
    start = time.monotonic()
    report = run_scenario(cfg)
    report.provenance["wall_seconds"] = time.monotonic() - start
    payload, sidecar = emit_report(report, args.fmt, _out_dir(args))
    print(payload)
    print(sidecar)
    print(f"checks passed {report.checks_passed}/{report.checks_total}")
    return 0 if report.all_passed else 1


def _run_report(args) -> int:
    report = read_report(args.payload)
    try:
        payload, sidecar = emit_report(report, args.fmt, _out_dir(args))
    except ValueError as exc:
        # the payload's first row names the files
        raise ConfigParseError(f"{args.payload}: {exc}") from exc
    print(payload)
    print(sidecar)
    print(f"checks passed {report.checks_passed}/{report.checks_total}")
    return 0 if report.all_passed else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "report":
            return _run_report(args)
        return _run_task(args)
    except ConfigParseError as exc:
        print(f"config-parse-error: {exc}", file=sys.stderr)
        return 2
    except ConfigValidationError as exc:
        print(f"config-validation-error: {exc}", file=sys.stderr)
        return 3
    except UnsupportedPayoff as exc:
        print(f"unsupported-payoff: {exc}", file=sys.stderr)
        return 3
    except SolverFailure as exc:
        print(f"solver-failure: {exc}", file=sys.stderr)
        return 4
    except EstimatorFailure as exc:
        kind = type(exc).__name__
        slug = {
            "SignedDensityFailure": "estimator-failure/signed-density",
            "RootFailure": "estimator-failure/root",
        }.get(kind, "estimator-failure")
        print(f"{slug}: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
