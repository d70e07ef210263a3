"""Time the package's layers one call at a time: the layer curves.

    python scripts/layer_bench.py [--repeats N] > BENCH_n.json

It needs only the standard library and conebraid (installed, or on
PYTHONPATH=src), and reads the checkout's configs/default.json.  In one
process it times these cases, each sample starting from an empty pair
memo (field._pair_integral) and bump-transform memo:

- pair_integral/<kind>/d=<d>: one fresh pair integral of unit-width atoms at
  spatial distance d in DISTANCES, by the route field takes for it.
  gauss_sigma is sigma of a Gaussian g and a Gaussian h atom: the erf form
  from CLOSED_FORM_MIN_DELTA on, the panel rule below it.  gauss_re is Re
  of two Gaussian h atoms, and bump_sigma sigma of a smooth bump g and a
  Gaussian h atom; both always take the panel rule;
- rule_build/64: the cold RADIAL_RULE_PANEL_ORDER-node Gauss-Legendre rule;
- symplectic/<cold|warm>/<n>: sigma of an n-atom charge against an n-atom
  test vector, n = 1..MAX_TERMS, all pairs at d >= 1 (the erf form); warm
  runs the same call once, untimed, first;
- weyl_mul, compose, tensor_mor and braiding_asymptotic on the transport
  arrows of the default config's charge pair at radius 10;
- seqalg_sample: one seqalg tail entry, Ad U_n(W(delta)) at the first index
  of seqalg.SAMPLES, with its transporter built fresh.

Each case reports the median and interquartile range of its time over
--repeats samples, next to three counts that do not depend on the box, all
of the timed call: atom_pairs (pair memo lookups), pair_integrals (fresh
pair integrals) and nodes (panel nodes those walked).  The counts come
from one untimed pass before the timed samples.  A layer claim compares
alternating runs of this script on the parent and the change.
"""

import argparse
import json
import math
import os
import platform
import statistics
import sys
import time
from functools import partial
from pathlib import Path

from conebraid import category as cat
from conebraid import field as fld
from conebraid import quadrature
from conebraid import seqalg as sa
from conebraid.config import load_config
from conebraid.suites import SEQALG_RADIUS, RunContext, _antipodal
from conebraid.weyl import weyl, weyl_mul

DEFAULT_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "default.json"
DISTANCES = (0.3, 2.0, 20.0, 200.0, 2000.0)
MAX_TERMS = 16
REPEATS = 21


def _pair_cases():
    gauss = fld.Profile("gauss", 1.0)
    bump = fld.Profile("bump", shape=fld.RadialPolynomial(fld.BUMP_SHAPES["smooth"], 1.0))
    kinds = {
        "gauss_sigma": (fld.SIGMA, (gauss, "g", 0.0), (gauss, "h", 0.0)),
        "gauss_re": (fld.RE, (gauss, "h", 0.0), (gauss, "h", 0.0)),
        "bump_sigma": (fld.SIGMA, (bump, "g", 0.0), (gauss, "h", 0.0)),
    }
    for kind, keys in kinds.items():
        for d in DISTANCES:
            yield f"pair_integral/{kind}/d={d:g}", None, partial(fld._pair_integral, *keys, d)


def _symplectic_cases():
    charge, test = fld.make_charge_vector(), fld.make_test_vector(channel="h")
    for n in range(1, MAX_TERMS + 1):
        # the h atoms sit off the g atoms' line at irregular steps, so the n^2 distances differ
        x = y = fld.zero_vector()
        for i in range(n):
            x = x + charge.translate((0.0, float(i), 0.0, 0.0))
            y = y + test.translate((0.0, 0.0, 1.0 + i * math.pi / 3.0, 0.0))
        call = partial(fld.symplectic, x, y)
        yield f"symplectic/cold/{n}", None, call
        yield f"symplectic/warm/{n}", call, call


def _operation_cases():
    ctx = RunContext(load_config(DEFAULT_CONFIG))
    ((_, a, b),) = ctx.charge_pairs()
    ta, tb = _antipodal(ctx.config.cone, 10.0)
    u = cat.hom_basis(a, a.translate(ta))
    v = cat.hom_basis(b, b.translate(tb))
    w = cat.hom_basis(u.target, u.target.translate((0.0, 1.0, 0.0, 0.0)))
    yield "weyl_mul", None, partial(weyl_mul, u, v)
    yield "compose", None, partial(cat.compose, w, u)
    yield "tensor_mor", None, partial(cat.tensor_mor, u, v)
    yield "braiding_asymptotic", None, partial(cat.braiding_asymptotic, a, b, ta, tb)

    rho, w_delta = fld.make_charge_vector(), weyl(fld.make_test_vector(channel="h"))
    n = sa.SAMPLES[0]
    t = _antipodal(ctx.config.cone, SEQALG_RADIUS * n**4)[0]

    def seqalg_sample():
        transport = sa.SequenceElement(lambda m: cat.hom_basis(rho, rho.translate(t)), 1.0)
        return sa.adjoint_morphism(transport, w_delta).at(n)

    yield "seqalg_sample", None, seqalg_sample


def _cold(setup) -> None:
    """Empty pair and bump-transform memos, then the untimed setup."""
    fld._pair_integral.cache_clear()
    quadrature._bump_transform.cache_clear()
    if setup is not None:
        setup()


def _sample(setup, call) -> float:
    _cold(setup)
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


def _counts(setup, call) -> dict:
    """The call's pair memo lookups, fresh pair integrals and panel nodes, in one untimed sample."""
    _cold(setup)
    panel, nodes = fld._panel_pair_integral, []

    def counted(form, ka, kb, delta):
        nodes.append(fld._panel_count(ka, kb, delta) * fld.RADIAL_RULE_PANEL_ORDER)
        return panel(form, ka, kb, delta)

    before = fld._pair_integral.cache_info()
    fld._panel_pair_integral = counted
    try:
        call()
    finally:
        fld._panel_pair_integral = panel
    after = fld._pair_integral.cache_info()
    misses = after.misses - before.misses
    return {"atom_pairs": after.hits - before.hits + misses, "pair_integrals": misses, "nodes": sum(nodes)}


def run(repeats: int) -> dict:
    cases = [
        *_pair_cases(),
        (
            f"rule_build/{fld.RADIAL_RULE_PANEL_ORDER}",
            quadrature.gauss_legendre_unit.cache_clear,
            partial(quadrature.gauss_legendre_unit, fld.RADIAL_RULE_PANEL_ORDER),
        ),
        *_symplectic_cases(),
        *_operation_cases(),
    ]
    out = []
    for name, setup, call in cases:
        counts = _counts(setup, call)
        times = [_sample(setup, call) for _ in range(repeats)]
        q1, _, q3 = statistics.quantiles(times, n=4, method="inclusive") if repeats > 1 else (times[0],) * 3
        out.append({"name": name, **counts, "median_s": statistics.median(times), "iqr_s": q3 - q1})
    return {
        "command": f"python scripts/layer_bench.py --repeats {repeats}",
        "repeats": repeats,
        "python": platform.python_version(),
        "machine": {"nproc": os.cpu_count(), "arch": platform.machine()},
        "cases": out,
    }


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"need at least one repeat, got {value}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--repeats", type=_positive, default=REPEATS, help=f"samples per case (default {REPEATS})")
    args = parser.parse_args(argv)
    json.dump(run(args.repeats), sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
