"""The committed expected reports: configs/expected/<name>.csv is the
`verify --suite all` CSV of configs/<name>.json, written by verify and never
edited by hand.  A suite's rows are the rows whose check_id has its prefix."""

import csv
from pathlib import Path

EXPECTED_DIR = Path(__file__).resolve().parent.parent / "configs" / "expected"


def expected_lines(name: str, suite: str = "all") -> list[str]:
    """The header and one suite's rows of configs/expected/<name>.csv, as CSV lines."""
    header, *rows = (EXPECTED_DIR / f"{name}.csv").read_text().splitlines()
    return [header, *(row for row in rows if suite == "all" or row.startswith(f"{suite}/"))]


def expected_run(name: str, suite: str = "all") -> tuple[int, int]:
    """(row count, exit code) of `verify --suite <suite>` on configs/<name>.json.

    The exit code is 1 exactly when a pass cell is false.
    """
    rows = list(csv.DictReader(expected_lines(name, suite)))
    return len(rows), int(any(row["pass"] == "false" for row in rows))
