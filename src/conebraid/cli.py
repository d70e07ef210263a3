"""Command line front end.

Every subcommand loads a JSON config, runs one named check suite (verify
runs all of them unless --suite narrows it), emits the report, and exits
with 0 when every check passed, 1 when any check failed, and 2 on
configuration problems.  No other exit codes are used.  The planned row
count is printed before the numerics start; report files contain no
timing data and are byte stable for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import sys

from .config import load_config
from .errors import ConebraidError, ConfigError, UsageError
from .report import emit_report
from .suites import SUITE_NAMES, plan_counts, run_suite

_SUBCOMMANDS = ("verify", "braiding", "homotopy", "decay", "seqalg", "report")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conebraid",
        description="Check suites for cone-localized charge braiding and sequence algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _SUBCOMMANDS:
        p = sub.add_parser(name, help=f"run the {name} checks" if name != "report" else "run all checks, emit csv and json")
        p.add_argument("--config", required=True, help="path to the JSON run configuration")
        p.add_argument("--out", default=None, help="output directory (default: config out_dir)")
        p.add_argument("--format", default="csv", choices=("csv", "json"), help="report file format")
        p.add_argument("--seed", type=int, default=None, help="override the configured seed")
        if name == "verify":
            p.add_argument(
                "--suite",
                default="all",
                choices=SUITE_NAMES,
                help="which suite to run (default: all)",
            )
    return parser


def _suite_for(args) -> str:
    if args.command == "verify":
        return args.suite
    if args.command == "report":
        return "all"
    return args.command


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"--seed must be nonnegative, got {args.seed}")
        suite = _suite_for(args)
        plan = plan_counts(config, suite)
        total = sum(n for _, n in plan)
        detail = ", ".join(f"{name}: {n}" for name, n in plan)
        print(f"plan: suite {suite!r} -> {total} rows ({detail})")
        report = run_suite(config, suite, seed=args.seed)
        out_dir = args.out if args.out is not None else config.out_dir
        fmt = "both" if args.command == "report" else args.format
        written = emit_report(report, out_dir, fmt)
    except (ConfigError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConebraidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failures = report.failures()
    n_pass = len(report.rows) - len(failures)
    print(
        f"ran {len(report.rows)} checks in {report.wall_time_s:.2f}s: "
        f"{n_pass} passed, {len(failures)} failed"
    )
    for row in failures:
        where = f" R={row.radius:g}" if row.radius is not None else ""
        pair = f" {row.charge_pair}" if row.charge_pair else ""
        cone = f" {row.cone_id}" if row.cone_id else ""
        print(
            f"FAIL {row.check_id}{pair}{cone}{where} "
            f"residual={row.residual:.3e} > {row.threshold:.0e}"
        )
    for path in written:
        print(f"wrote {path}")
    return 0 if report.all_passed() else 1


if __name__ == "__main__":
    raise SystemExit(main())
