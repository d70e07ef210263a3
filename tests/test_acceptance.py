"""Acceptance gate: one test per release criterion, one printed verdict line each.

Each test computes its quantities from scratch at the stated tolerances and
asserts the criterion exactly as stated; a failing criterion is reported,
not weakened.  Verdict lines go to stdout so a verbose run shows one line
per criterion next to the pytest outcome.

The limit checks (criteria 3 and 4, and the implementation part of
criterion 6) are evaluated at R -> infinity: the values at the radii
10..40 are extrapolated to 1/R = 0 (Richardson extrapolation in 1/R), and
the thresholds apply to the extrapolated limit and to its error estimate.
The values at each radius are first pinned to the erf closed form
F(d) = sqrt(pi/2) erf(d/2) / d, so the extrapolation starts from numbers
that are known to be right.
"""

import math
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erf

import conebraid.category as C
import conebraid.field as F
import conebraid.seqalg as SA
from conebraid.config import load_config
from conebraid.suites import LAW_SAMPLES, TRANSPORTER_OFFSET, RunContext, run_suite
from conebraid.weyl import commutator_norm, gram_matrix

ROOT = Path(__file__).resolve().parent.parent
CONFIG_PATH = ROOT / "configs" / "default.json"

HALF_ANGLE = math.radians(30.0)
RADII = (10.0, 20.0, 30.0, 40.0)


def coupling(d: float) -> float:
    """Closed-form symplectic coupling F(d) of unit-width Gaussians at separation d."""
    if d == 0.0:
        return 1.0 / math.sqrt(2.0)
    return math.sqrt(math.pi / 2.0) * erf(d / 2.0) / d


def extrapolate(values, radii=RADII):
    """Limit at 1/R = 0 of values sampled at the radii, and its error estimate.

    The limit is the cubic in 1/R through all four points evaluated at 0; the
    error estimate is its gap to the quadratic through the three points left
    after dropping the smallest radius.
    """
    x = 1.0 / np.asarray(radii, dtype=float)
    v = np.asarray(values)
    limit = np.polyfit(x, v, len(x) - 1)[-1]
    coarse = np.polyfit(x[1:], v[1:], len(x) - 2)[-1]
    return limit, float(abs(limit - coarse))


def braiding_phases(gamma, delta, cone, radii=RADII) -> list[complex]:
    """The transported exchange phase at each radius, one braiding_asymptotic call per radius."""
    return [C.braiding_asymptotic(gamma, delta, cone, radius)[0] for radius in radii]


def phase_pin(phases, radii=RADII) -> float:
    """Largest distance of braiding phases at the radii from exp(i (F(2R) - F(0)))."""
    return max(abs(p - np.exp(1j * (coupling(2.0 * r) - coupling(0.0)))) for r, p in zip(radii, phases))


def spread(values) -> float:
    """Largest pairwise distance among the values."""
    return max((abs(p - q) for i, p in enumerate(values) for q in values[i + 1 :]), default=0.0)


def verdict(num: int, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def ctx():
    return RunContext(load_config(CONFIG_PATH))


@pytest.fixture(scope="module")
def pair(ctx):
    return ctx.vectors["gamma"], ctx.vectors["delta"]


def test_criterion_01_symplectic_oracle(pair):
    started = time.perf_counter()
    gamma, delta = pair
    q = c = s = t = 1.0
    closed = q * c / math.sqrt(s * s + t * t)
    # independent 1-D oracle: (2 pi)^{-3/2} 4 pi int exp(-(s^2+t^2) r^2 / 2) dr
    oracle = (2.0 * math.pi) ** -1.5 * 4.0 * math.pi * quad(
        lambda r: math.exp(-0.5 * (s * s + t * t) * r * r), 0.0, np.inf
    )[0]
    value = F.symplectic(gamma, delta)
    elapsed = time.perf_counter() - started
    ok = (
        abs(closed - 1.0 / math.sqrt(2.0)) < 1e-12
        and abs(oracle - closed) < 1e-9
        and abs(value - closed) < 1e-6
        and elapsed < 1.0
    )
    verdict(1, ok, f"symplectic value {value:.10f} vs closed form {closed:.10f} in {elapsed:.3f}s")


def test_criterion_02_exact_braiding_phase(pair):
    gamma, delta = pair
    sigma = F.symplectic(gamma, delta)
    coeff = C.braiding_exact(gamma, delta).coeff
    dev = abs(coeff - np.exp(-1j * sigma))
    verdict(2, dev <= 1e-12, f"braiding coefficient deviates from e^(-i sigma) by {dev:.3e}")


def test_criterion_03_braiding_limit_convergence(ctx, pair):
    started = time.perf_counter()
    gamma, delta = pair
    exact = C.braiding_exact(gamma, delta).coeff
    phases = braiding_phases(gamma, delta, ctx.cone)
    res = [abs(p - exact) for p in phases]
    elapsed = time.perf_counter() - started
    pin = phase_pin(phases)
    limit, estimate = extrapolate(phases)
    dist = abs(limit - exact)
    ok = (
        pin < 1e-12
        and all(b < a for a, b in zip(res, res[1:]))
        and dist < 1e-3
        and estimate < 1e-3
        and elapsed < 60.0
    )
    verdict(
        3,
        ok,
        f"residual {res[-1]:.3e} at R=40 (R=10: {res[0]:.3e}, closed form to {pin:.1e}), "
        f"extrapolated limit {dist:.1e} from exact, error estimate {estimate:.1e} "
        f"(target 1e-3) in {elapsed:.1f}s",
    )


def test_criterion_04_cone_rotation_chain(ctx, pair):
    gamma, delta = pair
    exact = C.braiding_exact(gamma, delta).coeff
    chain = ctx.homotopy_chain()
    runs = [braiding_phases(gamma, delta, cone) for cone in chain]
    at_40 = [phases[-1] for phases in runs]
    at_40_spread = spread(at_40)
    pin = max(phase_pin(phases) for phases in runs)
    extrapolated = [extrapolate(phases) for phases in runs]
    limits = [limit for limit, _ in extrapolated]
    estimate = max(est for _, est in extrapolated)
    limit_spread = spread(limits)
    worst = max(abs(p - exact) for p in limits)
    residual = max(abs(p - exact) for p in at_40)
    ok = (
        pin < 1e-12
        and at_40_spread <= 1e-3
        and worst <= 1e-3
        and limit_spread <= 1e-3
        and estimate <= 1e-3
    )
    verdict(
        4,
        ok,
        f"{len(chain)}-cone chain: residual {residual:.3e} at R=40 (spread {at_40_spread:.1e}, "
        f"closed form to {pin:.1e}), extrapolated limits worst {worst:.1e} from exact, "
        f"spread {limit_spread:.1e}, error estimate {estimate:.1e}",
    )


def test_criterion_05_coherence_suite(ctx):
    report = run_suite(ctx.config, "laws")
    identity_rows = [r for r in report.rows if r.check_id != "laws/gram_psd"]
    worst = max(r.residual for r in identity_rows)
    ok = LAW_SAMPLES >= 100 and worst <= 1e-12
    verdict(
        5,
        ok,
        f"max identity residual {worst:.3e} over {LAW_SAMPLES} seeded samples",
    )


def _decay_triple(ctx, pair, radius):
    gamma, delta = pair
    cone_u = ctx.cone
    cone_v = ctx.cone.opposite()
    off = TRANSPORTER_OFFSET
    shift_u = (0.0,) + tuple(off * a for a in cone_u.axis)
    shift_v = (0.0,) + tuple(off * a for a in cone_v.axis)
    r = C.hom_basis(gamma, F.translate(gamma, shift_u))
    s = C.hom_basis(delta, F.translate(delta, shift_v))
    impl = C.implementation_residual(gamma, cone_u.translation(radius), delta)
    abel = C.abelianness_residual(
        C.transported_arrow(r, cone_u, radius).label,
        C.transported_arrow(s, cone_v, radius).label,
    )
    tens = C.tensor_abelianness_residual(r, s, cone_u, cone_v, radius)
    return impl, abel, tens


def test_criterion_06_localization_decay(ctx, pair):
    triples = [_decay_triple(ctx, pair, radius) for radius in RADII]
    near, far = triples[0], triples[-1]
    impl = [t[0] for t in triples]
    pin = max(abs(v - abs(np.exp(1j * coupling(r)) - 1.0)) for r, v in zip(RADII, impl))
    limit, estimate = extrapolate(impl)
    ok = (
        pin < 1e-12
        and all(b < a for a, b in zip(impl, impl[1:]))
        and abs(limit) < 1e-2
        and estimate < 1e-2
        and all(f < 1e-2 for f in far[1:])
        and all(f < n for f, n in zip(far[1:], near[1:]))
    )
    verdict(
        6,
        ok,
        f"implementation residual {impl[-1]:.3e} at R=40 (R=10: {impl[0]:.3e}, "
        f"closed form to {pin:.1e}), extrapolated limit {abs(limit):.1e}, "
        f"error estimate {estimate:.1e}; abelianness/tensor residuals at R=40: "
        f"{far[1]:.2e}/{far[2]:.2e} (R=10: {near[1]:.2e}/{near[2]:.2e})",
    )


def test_criterion_07_extension_independence(ctx, pair):
    gamma, delta = pair
    off = TRANSPORTER_OFFSET
    shift = (0.0,) + tuple(off * a for a in ctx.cone.axis)
    s_plus = C.hom_basis(delta, F.translate(delta, shift))
    res = C.extension_residual(gamma, s_plus, ctx.cone, ctx.cone.opposite(), 40.0)
    verdict(7, res < 1e-2, f"opposite-cone extension residual {res:.4e} at R=40")


def test_criterion_08_weyl_model_validity(ctx, pair):
    gamma, delta = pair
    shift = (0.0, 0.0, 0.0, 2.0)
    r = C.hom_basis(gamma, F.translate(gamma, shift))
    f = F.intertwiner_label(delta, F.translate(delta, (0.0, 1.0, 0.0, -1.0)))
    rel = max(
        C.intertwiner_relation_residual(r, f),
        C.intertwiner_relation_residual(C.braiding_exact(gamma, delta), f),
    )

    rng = np.random.default_rng(0)
    labels = []
    for _ in range(8):
        vec = F.make_test_vector(
            amplitude=float(rng.uniform(0.2, 1.5)),
            width=float(rng.uniform(0.6, 1.6)),
            channel=str(rng.choice(["g", "h"])),
        )
        labels.append(F.translate(vec, (0.0, *rng.uniform(-2.0, 2.0, size=3))))
    min_eig = float(np.linalg.eigvalsh(gram_matrix(labels)).min())

    x = delta
    y = F.translate(gamma, (0.0, 0.0, 0.0, 1.0))
    y = F.scale(math.pi / F.symplectic(x, y), y)
    comm = commutator_norm(x, y)

    ok = rel <= 1e-12 and min_eig >= -1e-10 and abs(comm - 2.0) <= 1e-10
    verdict(
        8,
        ok,
        f"intertwiner relation {rel:.2e}, gram min eigenvalue {min_eig:.2e}, "
        f"pi-commutator norm {comm:.12f}",
    )


def test_criterion_09_sequence_algebra_corpus():
    assert (SA.TAIL_START, len(SA.SAMPLES), SA.NULL_TOLERANCE) == (32, 16, 1e-6)
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    p = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    p /= np.linalg.norm(p, 2)

    drift = SA.SequenceElement(lambda n: SA.matrix(q + 0.5**n * p), 2.0)
    unit = SA.polar_unitarize(drift)
    defect = max(SA.unitarity_defect(unit.at(n)) for n in SA.SAMPLES)
    null_ok = SA.is_null(SA.seq_sub(unit, drift))

    forward_ok = SA.stability_probe(drift, SA.constant(SA.matrix(q)), random.Random(0))

    b = SA.matrix(q + np.array([[0.0, 0.0], [0.0, 1.0]]))
    alt = SA.SequenceElement(lambda n: SA.matrix(q) if n % 2 == 0 else b, SA.norm(b) + 1.0)
    even = SA.subsequence(alt, lambda n: 2 * n)
    odd = SA.subsequence(alt, lambda n: 2 * n + 1)
    converse_ok = not SA.equivalent(even, odd)

    ok = defect <= 1e-12 and null_ok and forward_ok and converse_ok
    verdict(
        9,
        ok,
        f"polar defect {defect:.2e}, null distance {null_ok}, "
        f"stability over {SA.PROBE_MAPS} maps {forward_ok}, converse separation {converse_ok}",
    )


def test_criterion_10_byte_identical_reruns(tmp_path):
    # the config alone sets the seed
    seeded = ROOT / "configs" / "seed11.json"
    outputs = []
    for sub in ("a", "b"):
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "conebraid",
                "verify",
                "--config",
                str(seeded),
                "--out",
                str(tmp_path / sub),
            ],
            cwd=ROOT,
            capture_output=True,
            text=True,
        )
        assert proc.returncode in (0, 1), proc.stderr
        outputs.append((tmp_path / sub / "all_report.csv").read_bytes())
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    verdict(10, ok, f"two seeded runs emit identical CSV ({len(outputs[0])} bytes)")
