"""Command line front end.

`conebraid verify` loads a JSON config, runs the named check suite (all of
them unless --suite narrows it), emits the report, and exits with

- 0 when every check passed;
- 1 when any check failed, or when the run could not finish: a
  DomainError (an operand outside its domain, such as a radial rule over
  its node cap) or an InternalError prints one line on stderr and writes
  no report;
- 2 on configuration problems, with one line on stderr and no report.

No other exit codes are used.  The planned row count is printed, and
flushed, before the numerics start.  If the reader of stdout goes away
(as under `| head -1`), the rest of the output is dropped and the exit
code is still the verdict.  Report files contain no timing data and are
byte stable for a fixed config; the config alone sets the seed.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import load_config
from .errors import ConebraidError, ConfigError, UsageError
from .report import emit_report
from .suites import SUITE_NAMES, plan_counts, run_suite


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conebraid",
        description="Check suites for cone-localized charge braiding and sequence algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("verify", help="run the checks")
    p.add_argument("--config", required=True, help="path to the JSON run configuration")
    p.add_argument("--out", default="out", help="output directory (default: out)")
    p.add_argument("--format", default="csv", choices=("csv", "json"), help="report file format")
    p.add_argument("--suite", default="all", choices=SUITE_NAMES, help="which suite to run (default: all)")
    return parser


def _say(text: str) -> None:
    """Print and flush text; once stdout's reader is gone, drop it instead of raising.

    The recipe of the Python docs (signal module, note on SIGPIPE): point
    stdout at devnull, so that later prints and the interpreter's last
    flush write nowhere.
    """
    try:
        print(text, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        plan = plan_counts(config, args.suite)
        total = sum(n for _, n in plan)
        detail = ", ".join(f"{name}: {n}" for name, n in plan)
        _say(f"plan: suite {args.suite!r} -> {total} rows ({detail})")
        report = run_suite(config, args.suite)
        written = emit_report(report, args.out, args.format)
    except (ConfigError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConebraidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failures = report.failures()
    n_pass = len(report.rows) - len(failures)
    lines = [f"ran {len(report.rows)} checks in {report.wall_time_s:.2f}s: {n_pass} passed, {len(failures)} failed"]
    for row in failures:
        where = f" R={row.radius:g}" if row.radius is not None else ""
        pair = f" {row.charge_pair}" if row.charge_pair else ""
        cone = f" {row.cone_id}" if row.cone_id else ""
        lines.append(f"FAIL {row.check_id}{pair}{cone}{where} residual={row.residual:.3e} > {row.threshold:.0e}")
    lines.extend(f"wrote {path}" for path in written)
    _say("\n".join(lines))
    return 0 if report.all_passed() else 1


if __name__ == "__main__":
    raise SystemExit(main())
