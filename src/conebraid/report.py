"""Check reports and their CSV/JSON emission.

A report is a flat list of rows, one per (check, radius); checks without a
radius schedule leave the radius cell empty.  Row order is fixed by
(check_id, charge_pair, cone_id, radius) so emission is byte stable for a
given config and seed.  Wall time is kept on the Report object for console
output only; it never enters the emitted files, which must be identical
across runs.
"""

from __future__ import annotations

import io
import json
from pathlib import Path
from typing import NamedTuple

from .errors import ConfigError

CSV_COLUMNS = (
    "check_id",
    "charge_pair",
    "cone_id",
    "radius",
    "value_re",
    "value_im",
    "residual",
    "threshold",
    "pass",
)


class CheckRow(NamedTuple):
    check_id: str
    charge_pair: str
    cone_id: str
    radius: float | None
    value: complex
    residual: float
    threshold: float
    passed: bool

    def sort_key(self):
        r = self.radius if self.radius is not None else -1.0
        return (self.check_id, self.charge_pair, self.cone_id, r)


class Report:
    def __init__(
        self,
        suite: str,
        config_digest: str,
        seed: int,
        rows: list[CheckRow] | None = None,
        wall_time_s: float = 0.0,
    ):
        self.suite = suite
        self.config_digest = config_digest
        self.seed = seed
        self.rows = [] if rows is None else rows
        self.wall_time_s = wall_time_s

    def sorted_rows(self) -> list[CheckRow]:
        return sorted(self.rows, key=CheckRow.sort_key)

    def all_passed(self) -> bool:
        return all(row.passed for row in self.rows)

    def failures(self) -> list[CheckRow]:
        return [row for row in self.sorted_rows() if not row.passed]

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(",".join(CSV_COLUMNS) + "\n")
        for row in self.sorted_rows():
            cells = (
                row.check_id,
                row.charge_pair,
                row.cone_id,
                "" if row.radius is None else repr(float(row.radius)),
                repr(float(row.value.real)),
                repr(float(row.value.imag)),
                repr(float(row.residual)),
                repr(float(row.threshold)),
                "true" if row.passed else "false",
            )
            buf.write(",".join(cells) + "\n")
        return buf.getvalue()

    def to_json(self) -> str:
        payload = {
            "metadata": {
                "suite": self.suite,
                "config_digest": self.config_digest,
                "seed": self.seed,
            },
            "rows": [
                {
                    "check_id": row.check_id,
                    "charge_pair": row.charge_pair,
                    "cone_id": row.cone_id,
                    "radius": row.radius,
                    "value_re": row.value.real,
                    "value_im": row.value.imag,
                    "residual": row.residual,
                    "threshold": row.threshold,
                    "pass": row.passed,
                }
                for row in self.sorted_rows()
            ],
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def emit_report(report: Report, out_dir, fmt: str) -> list[Path]:
    """Write the report as out_dir/<suite>_report.<fmt> and return the written paths."""
    if fmt not in ("csv", "json"):
        raise ConfigError(f"unknown report format {fmt!r}")
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    path = out / f"{report.suite}_report.{fmt}"
    try:
        path.write_text(report.to_csv() if fmt == "csv" else report.to_json())
    except OSError as exc:
        raise ConfigError(f"cannot write report file {path}: {exc}") from exc
    return [path]
