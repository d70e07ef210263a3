"""Named check suites over a run configuration.

Each suite turns a RunConfig into a flat list of report rows, one per
(check, radius); checks without a radius schedule leave the radius cell
empty.  Row counts are computed up front from config shape alone, so the
plan can be printed before any numerics run and asserted afterwards.  All
randomness flows from the configured seed, so the config digest and the
suite name fix a report's bytes.

The check policy (thresholds, sample counts, the homotopy chain) is fixed
here, so a config can change what is checked but never how strictly.
"""

from __future__ import annotations

import cmath
import math
import time
from typing import TYPE_CHECKING

from . import category as cat
from . import field as fld
from .config import ChargeCfg, RunConfig
from .errors import ConfigError, InternalError
from .report import CheckRow, Report
from .weyl import gram_matrix, min_eigenvalue, weyl, weyl_mul

if TYPE_CHECKING:
    import random

SUITE_NAMES = ("laws", "braiding", "homotopy", "decay", "seqalg", "all")

# Row thresholds: identities and Gram positivity hold to rounding, and the
# limit claims are judged against the exact braiding phase or zero.
LAWS_THRESHOLD = 1e-12
GRAM_THRESHOLD = 1e-10
BRAIDING_THRESHOLD = 1e-3
HOMOTOPY_THRESHOLD = 1e-3
DECAY_THRESHOLD = 1e-2
EXTENSION_THRESHOLD = 1e-2
LAW_SAMPLES = 100  # random object triples; each law row is the worst over them
HOMOTOPY_STEPS = 6  # cones rotated from the configured one, in a fixed plane
HOMOTOPY_STEP_DEG = 30.0
TRANSPORTER_OFFSET = 2.0  # decay transporters' shift along each cone axis

_LAW_CHECKS = (
    "laws/hexagon_left",
    "laws/hexagon_right",
    "laws/naturality",
    "laws/interchange",
    "laws/compose_associativity",
    "laws/compose_units",
    "laws/star_isometry",
    "laws/braiding_symmetry",
    "laws/weyl_exchange",
    "laws/weyl_associativity",
    "laws/intertwiner_relation",
    "laws/auto_action_homomorphism",
    "laws/gram_psd",
)
_BRAIDING_CHECKS = (
    "braiding/limit_vs_exact",
    "braiding/categorical_vs_closed_form",
    "braiding/rephase_invariance",
)
_DECAY_CHECKS = (
    "decay/implementation",
    "decay/implementation_transported",
    "decay/abelianness",
    "decay/tensor_ordering",
    "decay/extension",
)
_SEQALG_CHECKS = (
    "seqalg/polar_unitarity",
    "seqalg/polar_null_distance",
    "seqalg/polar_singular_fallback",
    "seqalg/subsequence_stability",
    "seqalg/subsequence_converse",
    "seqalg/null_ideal",
    "seqalg/adjoint_constant",
    "seqalg/adjoint_center",
    "seqalg/adjoint_alternating",
)

def vector_from_charge_cfg(cfg: ChargeCfg) -> fld.FieldVector:
    if cfg.profile == "gaussian-momentum":
        if cfg.channel == "g":
            if cfg.q == 0.0:
                return fld.make_test_vector(amplitude=1.0, width=cfg.s, channel="g")
            return fld.make_charge_vector(q=cfg.q, width=cfg.s)
        return fld.make_test_vector(amplitude=cfg.q, width=cfg.s, channel="h")
    # a bump atom is its shape's value, so charges of equal shape share atoms and pair integrals
    shape = fld.RadialPolynomial(fld.BUMP_SHAPES[cfg.shape], cfg.support_radius)
    return fld.make_bump_vector(shape, channel=cfg.channel, amplitude=cfg.q)


class RunContext:
    """Materialized configuration: one field vector per charge (the charge's object), and the cone."""

    def __init__(self, config: RunConfig):
        self.config = config
        self.vectors = {c.name: vector_from_charge_cfg(c) for c in config.charges}
        self.cone = config.cone_spec()

    def charge_pairs(self):
        names = list(self.vectors)
        return [(names[i], names[j]) for i in range(len(names)) for j in range(i + 1, len(names))]

    def homotopy_chain(self):
        """The configured cone, then cones rotated from it in a fixed plane through its axis."""
        axis0 = self.cone.axis
        # the plane holds the unit probe e_i, whose dot with the axis is axis0[i]
        i = 1 if abs(axis0[0]) > 0.9 else 0
        ortho = tuple(float(k == i) - axis0[i] * a for k, a in enumerate(axis0))
        norm = math.hypot(*ortho)
        ortho = tuple(c / norm for c in ortho)
        step = math.radians(HOMOTOPY_STEP_DEG)
        chain = [self.cone]
        for k in range(1, HOMOTOPY_STEPS + 1):
            cos, sin = math.cos(k * step), math.sin(k * step)
            axis = tuple(cos * a + sin * o for a, o in zip(axis0, ortho))
            chain.append(cat.ConeSpec(axis, self.cone.half_angle, self.cone.time_slope, self.cone.time_exponent))
        return chain


def plan_counts(config: RunConfig, suite: str) -> list[tuple[str, int]]:
    """(label, row count) per sub-suite, computable without running numerics.

    A plan with the homotopy suite needs cones wider than half a chain step,
    so that consecutive cones of the chain overlap.  A plan with the
    braiding, homotopy or decay suite needs every charge pair to couple: at
    equal times sigma pairs only g with h, and a cone with time_slope 0
    transports at equal times, so a pair in one channel braids trivially
    and its rows read literal zeros.  Both are rejected here, before any
    suite runs.
    """
    if suite not in SUITE_NAMES:
        raise ConfigError(f"unknown suite {suite!r}; choose one of {', '.join(SUITE_NAMES)}")
    if suite in ("homotopy", "all") and 2.0 * config.cone.half_angle_deg <= HOMOTOPY_STEP_DEG:
        raise ConfigError(
            f"the homotopy chain steps by {HOMOTOPY_STEP_DEG:g} degrees, so its cones need "
            f"half_angle_deg above {HOMOTOPY_STEP_DEG / 2:g}, got {config.cone.half_angle_deg:g}"
        )
    if suite in ("braiding", "homotopy", "decay", "all") and config.cone.time_slope == 0.0:
        for i, first in enumerate(config.charges):
            for second in config.charges[i + 1 :]:
                if first.channel == second.channel:
                    raise ConfigError(
                        f"charges {first.name!r} and {second.name!r} share channel {first.channel!r} "
                        "on a cone with time_slope 0, so they braid trivially and no braiding, "
                        "homotopy or decay row can fail"
                    )
    n_charges = len(config.charges)
    n_pairs = n_charges * (n_charges - 1) // 2
    n_radii = len(config.radii)
    n_cones = HOMOTOPY_STEPS + 1
    counts = {
        "laws": len(_LAW_CHECKS),
        "braiding": len(_BRAIDING_CHECKS) * n_radii * n_pairs,
        "homotopy": (n_cones + 1) * n_pairs,
        "decay": len(_DECAY_CHECKS) * n_radii * n_pairs,
        "seqalg": len(_SEQALG_CHECKS),
    }
    if suite == "all":
        return [(name, counts[name]) for name in ("laws", "braiding", "homotopy", "decay", "seqalg")]
    return [(suite, counts[suite])]


def _row(check_id, charge_pair, cone_id, radius, value, residual, threshold) -> CheckRow:
    """One report row; a non-finite value or residual is an InternalError, since no report may hold one."""
    value, residual = complex(value), float(residual)
    if not (cmath.isfinite(value) and math.isfinite(residual)):
        raise InternalError(f"{check_id} {charge_pair} {cone_id} R={radius}: non-finite {value} or {residual}")
    return CheckRow(
        check_id=check_id,
        charge_pair=charge_pair,
        cone_id=cone_id,
        radius=radius,
        value=value,
        residual=residual,
        threshold=float(threshold),
        passed=bool(residual <= threshold),
    )


# Spacetime shift bounds of random objects and arrows.
_OBJECT_SHIFT = ((-1.0, -3.0, -3.0, -3.0), (1.0, 3.0, 3.0, 3.0))
_ARROW_SHIFT = ((-1.0, -2.0, -2.0, -2.0), (1.0, 2.0, 2.0, 2.0))


def _uniform(rng: random.Random, low, high) -> tuple[float, ...]:
    """One draw l + (h - l) u per pair of bounds, u = rng.random()."""
    return tuple([l + (h - l) * rng.random() for l, h in zip(low, high)])


def _random_object(ctx: RunContext, rng: random.Random) -> fld.FieldVector:
    names = list(ctx.vectors)
    base = ctx.vectors[names[rng.randrange(len(names))]]
    (magnitude,) = _uniform(rng, (0.5,), (2.0,))
    factor = magnitude * (-1.0, 1.0)[rng.randrange(2)]
    shift = _uniform(rng, *_OBJECT_SHIFT)
    return fld.translate(fld.scale(factor, base), shift)


def _random_arrow(rng: random.Random, obj: fld.FieldVector) -> cat.Intertwiner:
    shift = _uniform(rng, *_ARROW_SHIFT)
    arrow = cat.hom_basis(obj, fld.translate(obj, shift))
    (angle,) = _uniform(rng, (0.0,), (2.0 * math.pi,))
    return cat.rephase(arrow, cmath.exp(1j * angle))


def _coeff_distance(u, v, label: fld.FieldVector) -> float:
    return float(abs(u.coeff_of(label) - v.coeff_of(label)))


def run_laws(ctx: RunContext, rng: random.Random) -> list[CheckRow]:
    worst = {check: 0.0 for check in _LAW_CHECKS}

    def bump(check: str, value: float) -> None:
        worst[check] = max(worst[check], float(value))

    for _ in range(LAW_SAMPLES):
        x = _random_object(ctx, rng)
        y = _random_object(ctx, rng)
        z = _random_object(ctx, rng)
        hex_left, hex_right = cat.hexagon_residuals(x, y, z)
        bump("laws/hexagon_left", hex_left)
        bump("laws/hexagon_right", hex_right)

        r = _random_arrow(rng, x)
        s = _random_arrow(rng, y)
        bump("laws/naturality", cat.naturality_residual(r, s))

        r2 = _random_arrow(rng, r.target)
        s2 = _random_arrow(rng, s.target)
        lhs = cat.tensor_mor(cat.compose(r2, r), cat.compose(s2, s))
        rhs = cat.compose(cat.tensor_mor(r2, s2), cat.tensor_mor(r, s))
        bump("laws/interchange", abs(lhs.coeff - rhs.coeff))

        r3 = _random_arrow(rng, r2.target)
        left = cat.compose(cat.compose(r3, r2), r)
        right = cat.compose(r3, cat.compose(r2, r))
        bump("laws/compose_associativity", abs(left.coeff - right.coeff))
        bump(
            "laws/compose_units",
            abs(cat.compose(cat.identity(r.target), r).coeff - r.coeff),
        )
        bump(
            "laws/star_isometry",
            abs(cat.compose(cat.star_mor(r), r).coeff - abs(r.coeff) ** 2),
        )

        round_trip = cat.compose(cat.braiding_exact(y, x), cat.braiding_exact(x, y))
        bump("laws/braiding_symmetry", abs(round_trip.coeff - 1.0))

        wx, wy, wz = weyl(x), weyl(y), weyl(z)
        phase = cmath.exp(1j * fld.symplectic(x, y))
        bump(
            "laws/weyl_exchange",
            _coeff_distance(weyl_mul(wx, wy), weyl_mul(weyl(y, phase), wx), fld.add(x, y)),
        )
        xyz = fld.add(fld.add(x, y), z)
        bump(
            "laws/weyl_associativity",
            _coeff_distance(
                weyl_mul(weyl_mul(wx, wy), wz), weyl_mul(wx, weyl_mul(wy, wz)), xyz
            ),
        )

        f = fld.intertwiner_label(z, fld.translate(z, (0.0, 1.0, -0.5, 0.5)))
        bump("laws/intertwiner_relation", cat.intertwiner_relation_residual(r, f))

        u = weyl(f)
        lhs_w = cat.auto_action(x, weyl_mul(u, r))
        rhs_w = weyl_mul(cat.auto_action(x, u), cat.auto_action(x, r))
        bump(
            "laws/auto_action_homomorphism",
            _coeff_distance(lhs_w, rhs_w, fld.add(f, r.label)),
        )

    labels = []
    for _ in range(8):
        width, amp = _uniform(rng, (0.6, 0.2), (1.6, 1.5))
        chan = rng.choice(("g", "h"))
        vec = fld.make_test_vector(amplitude=amp, width=width, channel=chan)
        shift = (0.0, *_uniform(rng, (-2.0,) * 3, (2.0,) * 3))
        labels.append(fld.translate(vec, shift))
    gram = gram_matrix(labels)
    min_eig = min_eigenvalue(gram)
    # min_eigenvalue reads the matrix as Hermitian, so the residual also judges that it is
    hermitian = max(abs(z - gram[l][k].conjugate()) for k, row in enumerate(gram) for l, z in enumerate(row))

    rows = []
    for check in _LAW_CHECKS:
        if check == "laws/gram_psd":
            rows.append(_row(check, "", "", None, min_eig, max(0.0, -min_eig, hermitian), GRAM_THRESHOLD))
        else:
            rows.append(_row(check, "", "", None, worst[check], worst[check], LAWS_THRESHOLD))
    return rows


def run_braiding(ctx: RunContext, rng: random.Random) -> list[CheckRow]:
    rows = []
    for name_a, name_b in ctx.charge_pairs():
        pair = f"{name_a}:{name_b}"
        a, b = ctx.vectors[name_a], ctx.vectors[name_b]
        exact = cat.braiding_exact(a, b).coeff
        for radius in ctx.config.radii:
            phase, closed, phase_r = cat.braiding_asymptotic(a, b, ctx.cone, radius, rng=rng)
            rows.append(
                _row("braiding/limit_vs_exact", pair, "", radius, phase, abs(phase - exact), BRAIDING_THRESHOLD)
            )
            rows.append(
                _row(
                    "braiding/categorical_vs_closed_form",
                    pair,
                    "",
                    radius,
                    phase - closed,
                    abs(phase - closed),
                    LAWS_THRESHOLD,
                )
            )
            rows.append(
                _row(
                    "braiding/rephase_invariance",
                    pair,
                    "",
                    radius,
                    phase - phase_r,
                    abs(phase - phase_r),
                    LAWS_THRESHOLD,
                )
            )
    return rows


def run_homotopy(ctx: RunContext) -> list[CheckRow]:
    """Each chain cone's braiding at the largest radius, the one radius the rows report."""
    radius = ctx.config.radii[-1]
    chain = ctx.homotopy_chain()
    rows = []
    for name_a, name_b in ctx.charge_pairs():
        pair = f"{name_a}:{name_b}"
        a, b = ctx.vectors[name_a], ctx.vectors[name_b]
        exact = cat.braiding_exact(a, b).coeff
        limits = [cat.braiding_asymptotic(a, b, cone, radius)[0] for cone in chain]
        for k, limit in enumerate(limits):
            rows.append(
                _row(
                    "homotopy/limit_vs_exact",
                    pair,
                    f"cone{k:02d}",
                    radius,
                    limit,
                    abs(limit - exact),
                    HOMOTOPY_THRESHOLD,
                )
            )
        spread = max(
            (abs(p - q) for i, p in enumerate(limits) for q in limits[i + 1 :]),
            default=0.0,
        )
        rows.append(_row("homotopy/mutual_spread", pair, "", radius, spread, spread, HOMOTOPY_THRESHOLD))
    return rows


def run_decay(ctx: RunContext) -> list[CheckRow]:
    cone_u = ctx.cone
    cone_v = ctx.cone.opposite()
    shift_u = (0.0,) + tuple(TRANSPORTER_OFFSET * c for c in cone_u.axis)
    shift_v = (0.0,) + tuple(TRANSPORTER_OFFSET * c for c in cone_v.axis)
    rows = []
    for name_a, name_b in ctx.charge_pairs():
        pair = f"{name_a}:{name_b}"
        a, b = ctx.vectors[name_a], ctx.vectors[name_b]
        r = cat.hom_basis(a, fld.translate(a, shift_u))
        s = cat.hom_basis(b, fld.translate(b, shift_v))
        s_plus = cat.hom_basis(b, fld.translate(b, shift_u))
        for radius in ctx.config.radii:
            ta = cone_u.translation(radius)
            impl = cat.implementation_residual(a, ta, b)
            rows.append(_row("decay/implementation", pair, "", radius, impl, impl, DECAY_THRESHOLD))
            impl_t = cat.implementation_residual(a, ta, s.label)
            rows.append(
                _row("decay/implementation_transported", pair, "", radius, impl_t, impl_t, DECAY_THRESHOLD)
            )
            x_far = cat.transported_arrow(r, cone_u, radius).label
            y_far = cat.transported_arrow(s, cone_v, radius).label
            abel = cat.abelianness_residual(x_far, y_far)
            rows.append(_row("decay/abelianness", pair, "", radius, abel, abel, DECAY_THRESHOLD))
            tens = cat.tensor_abelianness_residual(r, s, cone_u, cone_v, radius)
            rows.append(_row("decay/tensor_ordering", pair, "", radius, tens, tens, DECAY_THRESHOLD))
            ext = cat.extension_residual(a, s_plus, cone_u, cone_v, radius)
            rows.append(_row("decay/extension", pair, "", radius, ext, ext, EXTENSION_THRESHOLD))
    return rows


def _normal_matrix(rng: random.Random):
    """A 2 x 2 matrix of independent standard complex normal entries (real, then imaginary parts)."""
    re = [rng.gauss(0.0, 1.0) for _ in range(4)]
    im = [rng.gauss(0.0, 1.0) for _ in range(4)]
    z = [complex(x, y) for x, y in zip(re, im)]
    return ((z[0], z[1]), (z[2], z[3]))


def run_seqalg(ctx: RunContext, rng: random.Random) -> list[CheckRow]:
    from . import seqalg as sa

    eye = sa.UNIT

    # a random unitary [[a, -conj(b)], [b, conj(a)]] with |a|^2 + |b|^2 = 1
    a, b = (complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(2))
    size = math.hypot(abs(a), abs(b))
    a, b = a / size, b / size
    q = sa.matrix(((a, -b.conjugate()), (b, a.conjugate())))
    p = _normal_matrix(rng)
    p = sa.scale(1.0 / sa.norm(p), p)
    a_val = _normal_matrix(rng)

    rows = []
    drift = sa.SequenceElement(lambda n: sa.add(q, sa.scale(0.5**n, p)), 2.0)
    unit = sa.polar_unitarize(drift)
    defect = max(sa.unitarity_defect(unit.at(n)) for n in sa.SAMPLES)
    rows.append(_row("seqalg/polar_unitarity", "", "", None, defect, defect, LAWS_THRESHOLD))

    dist = sa.limsup_norm(sa.seq_sub(unit, drift))
    rows.append(_row("seqalg/polar_null_distance", "", "", None, dist, dist, sa.NULL_TOLERANCE))

    # early entries with smallest singular value 1e-12, under the polar cutoff
    near_singular = sa.mul(sa.matrix(((1.0, 0.0), (0.0, 1e-12))), q)
    gappy = sa.SequenceElement(lambda n: near_singular if n < 8 else q, 1.0)
    fallback = sa.polar_unitarize(gappy)
    fb_res = sa.norm(sa.sub(fallback.at(5), eye))
    rows.append(_row("seqalg/polar_singular_fallback", "", "", None, fb_res, fb_res, LAWS_THRESHOLD))

    ok = sa.stability_probe(drift, sa.constant(q), rng)
    rows.append(
        _row("seqalg/subsequence_stability", "", "", None, complex(sa.PROBE_MAPS), 0.0 if ok else 1.0, 0.5)
    )

    b_val = sa.add(q, sa.matrix(((0.0, 0.0), (0.0, 1.0))))
    alt = sa.SequenceElement(lambda n: q if n % 2 == 0 else b_val, sa.norm(b_val) + 1.0)
    even = sa.subsequence(alt, lambda n: 2 * n)
    odd = sa.subsequence(alt, lambda n: 2 * n + 1)
    gap = sa.limsup_norm(sa.seq_sub(even, odd))
    separated = not sa.equivalent(even, odd)
    rows.append(
        _row("seqalg/subsequence_converse", "", "", None, gap, 0.0 if separated else 1.0, 0.5)
    )

    null_s = sa.SequenceElement(lambda n: sa.scale(0.5**n, p), 1.0)
    ideal = max(
        sa.limsup_norm(sa.seq_mul(null_s, alt)),
        sa.limsup_norm(sa.seq_mul(alt, null_s)),
    )
    rows.append(_row("seqalg/null_ideal", "", "", None, ideal, ideal, sa.NULL_TOLERANCE))

    adj = sa.adjoint_morphism(unit, a_val)
    target = sa.mul(sa.mul(sa.star(q), a_val), q)
    adj_res = max(sa.norm(sa.sub(adj.at(n), target)) for n in sa.SAMPLES)
    rows.append(_row("seqalg/adjoint_constant", "", "", None, adj_res, adj_res, sa.NULL_TOLERANCE))

    center = sa.SequenceElement(lambda n: sa.scale(cmath.exp(1j * n), eye), 1.0)
    cen_res = max(
        sa.norm(sa.sub(sa.adjoint_morphism(center, a_val).at(n), a_val)) for n in sa.SAMPLES
    )
    rows.append(_row("seqalg/adjoint_center", "", "", None, cen_res, cen_res, LAWS_THRESHOLD))

    rot = sa.matrix(((0.0, -1.0), (1.0, 0.0)))
    rot_q = sa.mul(rot, q)
    u_alt = sa.SequenceElement(lambda n: q if n % 2 == 0 else rot_q, 1.0)
    adj_alt = sa.adjoint_morphism(u_alt, a_val)
    adj_even = sa.subsequence(adj_alt, lambda n: 2 * n)
    adj_odd = sa.subsequence(adj_alt, lambda n: 2 * n + 1)
    adj_gap = sa.limsup_norm(sa.seq_sub(adj_even, adj_odd))
    unstable = not sa.equivalent(adj_even, adj_odd)
    rows.append(
        _row("seqalg/adjoint_alternating", "", "", None, adj_gap, 0.0 if unstable else 1.0, 0.5)
    )
    return rows


def run_suite(config: RunConfig, suite: str) -> Report:
    """Run a named suite and assemble the report; row count must match the plan."""
    plan = plan_counts(config, suite)
    expected = sum(n for _, n in plan)
    seed = config.seed
    started = time.perf_counter()
    ctx = RunContext(config)
    rows: list[CheckRow] = []
    parts = [name for name, _ in plan]
    # imported here: a run of the homotopy or decay suite alone draws nothing
    import random

    if "laws" in parts:
        rows.extend(run_laws(ctx, random.Random(seed)))
    if "braiding" in parts:
        rows.extend(run_braiding(ctx, random.Random(seed + 1)))
    if "homotopy" in parts:
        rows.extend(run_homotopy(ctx))
    if "decay" in parts:
        rows.extend(run_decay(ctx))
    if "seqalg" in parts:
        rows.extend(run_seqalg(ctx, random.Random(seed + 2)))
    if len(rows) != expected:
        raise InternalError(f"suite {suite!r} produced {len(rows)} rows, planned {expected}")
    return Report(
        suite=suite,
        config_digest=config.digest(),
        seed=seed,
        rows=rows,
        wall_time_s=time.perf_counter() - started,
    )
