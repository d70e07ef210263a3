"""Compare two JSON reports of one config and seed, row by row.

    python scripts/report_drift.py OLD.json NEW.json

Rows are matched on (check_id, charge_pair, cone_id, radius).  The script
prints the largest |difference| of value_re, value_im and residual over the
matched rows, and every row whose pass/fail verdict flipped.  It exits 1 on
a flip, on rows present in only one report, or on a drift above BUDGET (the
1e-12 a change may move any reported number by), and 0 otherwise.
"""

import argparse
import json
import math

BUDGET = 1e-12
FIELDS = ("value_re", "value_im", "residual")


def _rows(path: str) -> dict:
    with open(path) as fh:
        rows = json.load(fh)["rows"]
    return {(r["check_id"], r["charge_pair"], r["cone_id"], r["radius"]): r for r in rows}


def _delta(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    delta = abs(a - b)
    return math.inf if math.isnan(delta) else delta


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("old", help="report JSON before the change")
    parser.add_argument("new", help="report JSON after the change")
    args = parser.parse_args(argv)

    old, new = _rows(args.old), _rows(args.new)
    unmatched = sorted(set(old) ^ set(new), key=repr)
    for key in unmatched:
        print(f"row only in {'old' if key in old else 'new'}: {key}")
    shared = [key for key in old if key in new]
    worst = {f: max((_delta(old[k][f], new[k][f]) for k in shared), default=0.0) for f in FIELDS}
    for f in FIELDS:
        print(f"max |delta {f}| = {worst[f]:.3e}")
    flips = [key for key in shared if old[key]["pass"] != new[key]["pass"]]
    for key in flips:
        print(f"verdict flip: {key} {old[key]['pass']} -> {new[key]['pass']}")
    drifted = max(worst.values()) > BUDGET
    print(
        f"{len(shared)} rows compared, {len(unmatched)} unmatched, {len(flips)} flipped, "
        f"drift {'above' if drifted else 'within'} {BUDGET:g}"
    )
    return 1 if unmatched or flips or drifted else 0


if __name__ == "__main__":
    raise SystemExit(main())
