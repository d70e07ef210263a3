"""Check reports and their CSV/JSON emission.

A report is a flat list of rows, one per (check, radius); checks without a
radius schedule leave the radius cell empty.  A Report sorts its rows once,
when it is built, by (check_id, charge_pair, cone_id, radius), so emission
is byte stable for a given config.  Both formats write one record per row,
keyed by CSV_COLUMNS.  Wall time is kept on the Report object for console
output only; it never enters the emitted files, which must be identical
across runs.
"""

from __future__ import annotations

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

    def record(self) -> dict:
        """The row's cells keyed by CSV_COLUMNS: strings, floats, None for no radius, and the verdict."""
        radius = None if self.radius is None else float(self.radius)
        numbers = (self.value.real, self.value.imag, self.residual, self.threshold)
        cells = (self.check_id, self.charge_pair, self.cone_id, radius, *map(float, numbers), bool(self.passed))
        return dict(zip(CSV_COLUMNS, cells))


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else value


class Report:
    def __init__(
        self,
        suite: str,
        config_digest: str,
        seed: int,
        rows: list[CheckRow],
        wall_time_s: float = 0.0,
    ):
        self.suite = suite
        self.config_digest = config_digest
        self.seed = seed
        self.rows = sorted(rows, key=CheckRow.sort_key)
        self.wall_time_s = wall_time_s

    def all_passed(self) -> bool:
        return all(row.passed for row in self.rows)

    def failures(self) -> list[CheckRow]:
        return [row for row in self.rows if not row.passed]

    def to_csv(self) -> str:
        lines = [",".join(CSV_COLUMNS)]
        lines.extend(",".join(map(_csv_cell, row.record().values())) for row in self.rows)
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "metadata": {
                "suite": self.suite,
                "config_digest": self.config_digest,
                "seed": self.seed,
            },
            "rows": [row.record() for row in self.rows],
        }
        return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


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
