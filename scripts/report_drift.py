"""Compare two reports of one config and seed, row by row.

    python scripts/report_drift.py OLD.json NEW.json
    python scripts/report_drift.py OLD.csv NEW.csv

Rows are matched on (check_id, charge_pair, cone_id, radius).  The script
prints the largest |difference| of value_re, value_im and residual over the
matched rows, every row whose threshold moved, and every row whose pass/fail
verdict flipped.  It exits 1 on a flip, on a moved threshold (thresholds are
compared exactly), on rows present in only one report, or on a drift above
BUDGET (the 1e-12 a change may move any reported number by), and 0
otherwise.  It also prints which metadata keys differ (a config digest
moves whenever the config file changes); that line does not change the exit
code.  Two reports of different suites or seeds are not two runs of one
check, so the script prints one line on stderr and exits 2 without
comparing rows.  A .csv report carries no metadata, so a pair with one in
it compares rows only; each CSV cell is read as the JSON report holds it,
and rows of both formats pass one record check.  A report the script cannot
read (a missing file, JSON without a metadata object and a rows list, a
column missing or extra, a non-numeric cell, a verdict other than true or
false, two rows with one key, or a JSON object with a repeated key, which
json.load would read as its last value) is refused the same way: one line
on stderr naming the file, and exit 2.
"""

import argparse
import contextlib
import csv
import json
import math
import sys

BUDGET = 1e-12
FIELDS = ("value_re", "value_im", "residual")
NUMBERS = (*FIELDS, "threshold")
COLUMNS = ("check_id", "charge_pair", "cone_id", "radius", *NUMBERS, "pass")
VERDICTS = {"true": True, "false": False}
# metadata that must agree for the rows to be comparable
SAME_RUN_KEYS = ("suite", "seed")


def _csv_values(cells: list[str]) -> dict:
    """A CSV row's cells as the JSON report writes them; a cell that fits no column's type stays text."""
    if len(cells) != len(COLUMNS):
        raise ValueError(f"{len(cells)} cells, not {len(COLUMNS)}")
    row = dict(zip(COLUMNS, cells))
    for k in (*NUMBERS, "radius"):
        with contextlib.suppress(ValueError):
            row[k] = float(row[k])
    row["pass"] = VERDICTS.get(row["pass"], row["pass"])
    return {**row, "radius": None if row["radius"] == "" else row["radius"]}


def _record(row) -> dict:
    """A row of either format, checked: the nine columns, text ids, numbers, and a true/false verdict."""
    if not isinstance(row, dict):
        raise ValueError(f"a {type(row).__name__}, not a row")
    odd = [f"no {k}" for k in COLUMNS if k not in row] + [f"extra column {k!r}" for k in row if k not in COLUMNS]
    if odd:
        raise ValueError(", ".join(odd))
    for k in COLUMNS[:3]:
        if not isinstance(row[k], str):
            raise ValueError(f"{k} {row[k]!r} is not text")
    for k in (*NUMBERS, "radius"):
        if type(row[k]) not in (int, float) and not (k == "radius" and row[k] is None):  # a bool is no number
            raise ValueError(f"could not convert {k} {row[k]!r} to a number")
    if not isinstance(row["pass"], bool):
        raise ValueError(f"pass cell {row['pass']!r} is neither true nor false")
    return row


def _unique(pairs: list) -> dict:
    """A JSON object's pairs as a dict, refusing a repeated key."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ValueError(f"the key {key!r} is repeated in one object")
        data[key] = value
    return data


def _load(path: str) -> tuple[dict, dict]:
    """The report's metadata ({} for a CSV report) and its checked rows by key."""
    is_csv = path.endswith(".csv")
    with open(path, newline="") as fh:
        if is_csv:
            reader = csv.reader(fh)
            if tuple(next(reader, ())) != COLUMNS:
                raise ValueError(f"the header is not {','.join(COLUMNS)}")
            metadata, numbered = {}, [(f"line {reader.line_num}", cells) for cells in reader]
        else:
            report = json.load(fh, object_pairs_hook=_unique)
            if not (isinstance(report, dict) and isinstance(report.get("metadata"), dict)
                    and isinstance(report.get("rows"), list)):
                raise ValueError("the report needs a metadata object and a rows list")
            metadata, numbered = report["metadata"], [(f"row {n}", row) for n, row in enumerate(report["rows"], 1)]
    rows = {}
    for where, row in numbered:
        try:
            r = _record(_csv_values(row) if is_csv else row)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        key = (r["check_id"], r["charge_pair"], r["cone_id"], r["radius"])
        if key in rows:
            raise ValueError(f"two rows have the key {key}")
        rows[key] = r
    return metadata, rows


def _delta(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    delta = abs(a - b)
    return math.inf if math.isnan(delta) else delta


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("old", help="report (.json or .csv) before the change")
    parser.add_argument("new", help="report (.json or .csv) after the change")
    args = parser.parse_args(argv)

    loaded = []
    for path in (args.old, args.new):
        try:
            loaded.append(_load(path))
        except (OSError, ValueError, csv.Error) as exc:
            print(f"error: cannot read report {path}: {exc}", file=sys.stderr)
            return 2
    (old_meta, old), (new_meta, new) = loaded
    if not (old_meta and new_meta):  # a CSV report has no metadata to pair with
        old_meta = new_meta = {}
    differ = [f"{k} {old_meta.get(k)!r} vs {new_meta.get(k)!r}" for k in SAME_RUN_KEYS if old_meta.get(k) != new_meta.get(k)]
    if differ:
        print(f"error: the reports are of different runs ({', '.join(differ)})", file=sys.stderr)
        return 2
    changed = sorted(k for k in old_meta.keys() | new_meta.keys() if old_meta.get(k) != new_meta.get(k))
    print(f"metadata keys changed: {', '.join(changed) or 'none'}")
    unmatched = sorted(set(old) ^ set(new), key=repr)
    for key in unmatched:
        print(f"row only in {'old' if key in old else 'new'}: {key}")
    shared = [key for key in old if key in new]
    worst = {f: max((_delta(old[k][f], new[k][f]) for k in shared), default=0.0) for f in FIELDS}
    for f in FIELDS:
        print(f"max |delta {f}| = {worst[f]:.3e}")
    moved = [key for key in shared if old[key]["threshold"] != new[key]["threshold"]]
    for key in moved:
        print(f"threshold moved: {key} {old[key]['threshold']!r} -> {new[key]['threshold']!r}")
    flips = [key for key in shared if old[key]["pass"] != new[key]["pass"]]
    for key in flips:
        print(f"verdict flip: {key} {old[key]['pass']} -> {new[key]['pass']}")
    drifted = max(worst.values()) > BUDGET
    print(
        f"{len(shared)} rows compared, {len(unmatched)} unmatched, {len(moved)} thresholds moved, "
        f"{len(flips)} flipped, drift {'above' if drifted else 'within'} {BUDGET:g}"
    )
    return 1 if unmatched or moved or flips or drifted else 0


if __name__ == "__main__":
    raise SystemExit(main())
