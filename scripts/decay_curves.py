"""Residual decay curves for the localized-implementation checks.

Runs the decay suite over a radius ladder and writes the first charge
pair's five residuals (implementation against a fixed observable,
implementation against a transported-arrow label, abelianness of far-apart
transporter labels, tensor ordering, cone extension) as CSV, one row per
radius.  The implementation residual against a fixed test observable
carries the charge's Coulomb-type 1/R tail and crosses 1e-2 only near
R = 125; every transporter-label variant decays like 1/R^2 or faster and is
already below 1e-2 by R = 20.
"""

import argparse
import csv
from pathlib import Path

from conebraid.config import load_config
from conebraid.suites import run_suite
from ladder import check_ladder, geometric_ladder

ROOT = Path(__file__).resolve().parent.parent

# each residual column and the decay suite check it reads
CHECKS = {
    "implementation": "decay/implementation",
    "impl_transported": "decay/implementation_transported",
    "abelianness": "decay/abelianness",
    "tensor": "decay/tensor_ordering",
    "extension": "decay/extension",
}
COLUMNS = ("radius", *CHECKS)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default=ROOT / "configs" / "decay_extended.json")
    parser.add_argument("--out", default=ROOT / "out" / "decay_curves.csv")
    parser.add_argument("--r-min", type=float, default=10.0)
    parser.add_argument("--r-max", type=float, default=320.0)
    parser.add_argument("--points", type=int, default=6)
    args = parser.parse_args()
    check_ladder(parser, args)

    config = load_config(args.config)
    ladder = tuple(geometric_ladder(args.r_min, args.r_max, args.points))
    report = run_suite(config._replace(radii=ladder).validate(), "decay")
    first_pair = f"{config.charges[0].name}:{config.charges[1].name}"
    residual = {(row.check_id, row.radius): row.residual for row in report.rows if row.charge_pair == first_pair}
    rows = [(radius, *(residual[check, radius] for check in CHECKS.values())) for radius in ladder]

    header = " ".join(f"{c:>16s}" for c in COLUMNS)
    print(header)
    for row in rows:
        print(f"{row[0]:16.1f}" + "".join(f" {v:16.6e}" for v in row[1:]))

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(COLUMNS)
        writer.writerows(rows)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
