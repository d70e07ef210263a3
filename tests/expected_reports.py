"""The committed expected reports: configs/expected/<name>.csv is the
`verify --suite all` CSV of configs/<name>.json, written by verify and never
edited by hand.  A suite's rows are the rows whose check_id has its prefix."""

import csv
from pathlib import Path

from conebraid.report import CheckRow

EXPECTED_DIR = Path(__file__).resolve().parent.parent / "configs" / "expected"


def expected_csv(name: str, suite: str = "all") -> str:
    """The header and one suite's rows of configs/expected/<name>.csv, as CSV text."""
    header, *rows = (EXPECTED_DIR / f"{name}.csv").read_text().splitlines()
    return "\n".join([header, *(row for row in rows if suite == "all" or row.startswith(f"{suite}/"))]) + "\n"


def expected_rows(name: str, suite: str = "all") -> list[CheckRow]:
    """One suite's rows of configs/expected/<name>.csv, in report order; repr floats read back exactly."""
    rows = csv.DictReader(expected_csv(name, suite).splitlines())
    return [
        CheckRow(
            r["check_id"], r["charge_pair"], r["cone_id"], float(r["radius"]) if r["radius"] else None,
            complex(float(r["value_re"]), float(r["value_im"])), float(r["residual"]), float(r["threshold"]),
            r["pass"] == "true",
        )
        for r in rows
    ]


def expected_run(name: str, suite: str = "all") -> tuple[int, int]:
    """(row count, exit code) of `verify --suite <suite>` on configs/<name>.json.

    The exit code is 1 exactly when a pass cell is false.
    """
    rows = expected_rows(name, suite)
    return len(rows), int(not all(row.passed for row in rows))
