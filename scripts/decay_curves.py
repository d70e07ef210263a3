"""Residual decay curves for the localized-implementation checks.

Sweeps the four decay residuals (implementation against a fixed observable,
implementation against a transported-arrow label, abelianness of far-apart
transporter labels, tensor ordering, cone extension) over a radius ladder
and writes them as CSV.  The implementation residual against a fixed test
observable carries the charge's Coulomb-type 1/R tail and crosses 1e-2
only near R = 125; every transporter-label variant decays like 1/R^2 or
faster and is already below 1e-2 by R = 20.
"""

import argparse
import csv
from pathlib import Path

import numpy as np

import conebraid.category as C
from conebraid.config import load_config
from conebraid.suites import TRANSPORTER_OFFSET, RunContext

ROOT = Path(__file__).resolve().parent.parent

COLUMNS = ("radius", "implementation", "impl_transported", "abelianness", "tensor", "extension")


def sweep(ctx: RunContext, radii) -> list[tuple]:
    gamma, delta = (ctx.objects[n] for n in list(ctx.objects)[:2])
    cone_u = ctx.cone
    cone_v = ctx.cone.opposite()
    off = TRANSPORTER_OFFSET
    shift_u = (0.0,) + tuple(off * a for a in cone_u.axis)
    shift_v = (0.0,) + tuple(off * a for a in cone_v.axis)
    r = C.hom_basis(gamma, C.translate_object(gamma, shift_u))
    s = C.hom_basis(delta, C.translate_object(delta, shift_v))
    s_plus = C.hom_basis(delta, C.translate_object(delta, shift_u))
    rows = []
    for radius in radii:
        ta = cone_u.translation(radius)
        rows.append(
            (
                radius,
                C.implementation_residual(gamma, ta, delta.data),
                C.implementation_residual(gamma, ta, s.label),
                C.abelianness_residual(
                    C.transported_arrow(r, cone_u, radius).label,
                    C.transported_arrow(s, cone_v, radius).label,
                ),
                C.tensor_abelianness_residual(r, s, cone_u, cone_v, radius),
                C.extension_residual(gamma, s_plus, cone_u, cone_v, radius),
            )
        )
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default=ROOT / "configs" / "decay_extended.json")
    parser.add_argument("--out", default=ROOT / "out" / "decay_curves.csv")
    parser.add_argument("--r-min", type=float, default=10.0)
    parser.add_argument("--r-max", type=float, default=320.0)
    parser.add_argument("--points", type=int, default=6)
    args = parser.parse_args()

    ctx = RunContext(load_config(args.config))
    radii = list(np.geomspace(args.r_min, args.r_max, args.points))
    rows = sweep(ctx, radii)

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
