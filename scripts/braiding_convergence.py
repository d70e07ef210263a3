"""Braiding phase convergence against the separation radius.

Sweeps the asymptotic exchange phase for the default Gaussian pair over a
geometric radius ladder and compares the residual against the closed form
|exp(i F(2R)) - 1| with F(d) = sqrt(pi/2) erf(d/2) / d, which is the exact
value for unit-width Gaussians.  The residual falls off like 1.2533/(2R),
so the 1e-3 level is reached only near R = 627; the printed table makes
that crossing explicit.
"""

import argparse
import cmath
import math

from conebraid.category import braiding_asymptotic, braiding_exact
from conebraid.config import load_config
from conebraid.suites import RunContext
from ladder import check_ladder, geometric_ladder

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def closed_form(d: float) -> float:
    return math.sqrt(math.pi / 2.0) * math.erf(d / 2.0) / d


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default=ROOT / "configs" / "default.json")
    parser.add_argument("--r-min", type=float, default=10.0)
    parser.add_argument("--r-max", type=float, default=640.0)
    parser.add_argument("--points", type=int, default=7)
    args = parser.parse_args()
    check_ladder(parser, args)

    ctx = RunContext(load_config(args.config))
    gamma, delta = list(ctx.vectors.values())[:2]
    exact = braiding_exact(gamma, delta).coeff

    print(f"exact phase: {exact:.12f}")
    print(f"{'R':>8s} {'residual':>14s} {'closed form':>14s} {'ratio to 1/R':>13s}")
    for radius in geometric_ladder(args.r_min, args.r_max, args.points):
        phase, _, _ = braiding_asymptotic(gamma, delta, ctx.cone, radius)
        res = abs(phase - exact)
        pred = abs(cmath.exp(1j * closed_form(2.0 * radius)) - 1.0)
        print(f"{radius:8.1f} {res:14.6e} {pred:14.6e} {res * 2.0 * radius:13.6f}")

    target = 1e-3
    r_cross = math.sqrt(math.pi / 2.0) / (2.0 * target)
    print(f"residual reaches {target:g} near R = {r_cross:.0f} (1/R tail, erf factor ~ 1)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
