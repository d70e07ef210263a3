"""Named check suites over a run configuration.

Each suite turns a RunConfig into a flat list of report rows, one per
(check, radius); checks without a radius schedule leave the radius cell
empty.  Row counts are computed up front from config shape alone, so the
plan can be printed before any numerics run and asserted afterwards.  All
randomness flows from the configured seed, so the config digest and the
suite name fix a report's bytes.

The check policy (thresholds, sample counts, the homotopy chain) is fixed
here, so a config can change what is checked but never how strictly.
Every transport is computed here too and handed to category as 4-vectors:
cone translations, their antipodes, the homotopy chain's cones and the
decay transporters' shifts.
"""

from __future__ import annotations

import cmath
import math
import time
from typing import TYPE_CHECKING

from . import category as cat
from . import field as fld
from .config import ChargeCfg, RunConfig
from .errors import ConfigError, RunError
from .report import CheckRow, Report
from .weyl import distance, gram_matrix, min_eigenvalue, star, weyl, weyl_mul

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
SEPARATION_THRESHOLD = 0.5  # the seqalg verdict rows read 0.0 when the sequences separate as claimed, else 1.0
LAW_SAMPLES = 100  # random object triples; each law row is the worst over them
HOMOTOPY_STEPS = 6  # cones rotated from the configured one, in a fixed plane
HOMOTOPY_STEP_DEG = 30.0
TRANSPORTER_OFFSET = 2.0  # decay transporters' shift: + along the cone axis, - for the second charge
SEQALG_RADIUS = 10.0  # the seqalg ladder's first rung: R_n = SEQALG_RADIUS * n**4
MAX_CHARGES, MAX_RADII = 8, 16  # the largest plan: 28 pairs, 3,830 rows

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
    """Materialized configuration: one field vector per charge (the charge's object)."""

    def __init__(self, config: RunConfig):
        self.config = config
        self.vectors = {c.name: vector_from_charge_cfg(c) for c in config.charges}

    def charge_pairs(self):
        """(report key "a:b", a's vector, b's vector) for each charge pair, in config order."""
        items = list(self.vectors.items())
        return [(f"{na}:{nb}", a, b) for i, (na, a) in enumerate(items) for nb, b in items[i + 1 :]]

    def homotopy_chain(self):
        """The configured cone, then cones rotated from it in a fixed plane through its axis."""
        cone = self.config.cone
        axis0 = cone.direction
        # the plane holds the unit probe e_i, whose dot with the axis is axis0[i]
        i = 1 if abs(axis0[0]) > 0.9 else 0
        ortho = tuple(float(k == i) - axis0[i] * a for k, a in enumerate(axis0))
        norm = math.hypot(*ortho)
        ortho = tuple(c / norm for c in ortho)
        step = math.radians(HOMOTOPY_STEP_DEG)
        chain = [cone]
        for k in range(1, HOMOTOPY_STEPS + 1):
            cos, sin = math.cos(k * step), math.sin(k * step)
            chain.append(cone._replace(axis=tuple(cos * a + sin * o for a, o in zip(axis0, ortho))))
        return chain


def plan_counts(config: RunConfig, suite: str) -> list[tuple[str, int]]:
    """(label, row count) per sub-suite, computable without running numerics.

    A plan has at most MAX_CHARGES charges and MAX_RADII radii.  With the
    braiding, homotopy or decay suite every charge pair must couple: at
    equal times sigma pairs only g with h, and a cone with time_slope 0
    transports at equal times, so a pair in one channel braids trivially
    and its rows read literal zeros.  With seqalg the cone must be
    spacelike at SEQALG_RADIUS.  Each is rejected here, before any suite runs.
    """
    if suite not in SUITE_NAMES:
        raise ConfigError(f"unknown suite {suite!r}; choose one of {', '.join(SUITE_NAMES)}")
    if len(config.charges) > MAX_CHARGES or len(config.radii) > MAX_RADII:
        counts = f"{len(config.charges)} charges and {len(config.radii)} radii"
        raise ConfigError(f"a run takes at most {MAX_CHARGES} charges and {MAX_RADII} radii, got {counts}")
    if suite in ("braiding", "homotopy", "decay", "all") and config.cone.time_slope == 0.0:
        for i, first in enumerate(config.charges):
            for second in config.charges[i + 1 :]:
                if first.channel == second.channel:
                    raise ConfigError(
                        f"charges {first.name!r} and {second.name!r} share channel {first.channel!r} "
                        "on a cone with time_slope 0, so they braid trivially and no braiding, "
                        "homotopy or decay row can fail"
                    )
    if suite in ("seqalg", "all"):
        # |a0| / R = time_slope R^(time_exponent - 1) falls with R, so the first rung is the one to check
        config.cone.translation(SEQALG_RADIUS)
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
    """One report row; a non-finite value or residual is a RunError, since no report may hold one."""
    value, residual = complex(value), float(residual)
    if not (cmath.isfinite(value) and math.isfinite(residual)):
        raise RunError(f"{check_id} {charge_pair} {cone_id} R={radius}: non-finite {value} or {residual}")
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
        bump("laws/interchange", distance(lhs, rhs))

        r3 = _random_arrow(rng, r2.target)
        left = cat.compose(cat.compose(r3, r2), r)
        bump("laws/compose_associativity", distance(left, cat.compose(r3, cat.compose(r2, r))))
        bump("laws/compose_units", distance(cat.compose(cat.identity(r.target), r), r))
        square = weyl(fld.zero_vector(), abs(r.coeff) ** 2)
        bump("laws/star_isometry", distance(cat.compose(cat.star_mor(r), r), square))

        round_trip = cat.compose(cat.braiding_exact(y, x), cat.braiding_exact(x, y))
        bump("laws/braiding_symmetry", distance(round_trip, weyl(fld.zero_vector())))

        wx, wy, wz = weyl(x), weyl(y), weyl(z)
        phase = cmath.exp(1j * fld.symplectic(x, y))
        bump("laws/weyl_exchange", distance(weyl_mul(wx, wy), weyl_mul(weyl(y, phase), wx)))
        left_w = weyl_mul(weyl_mul(wx, wy), wz)
        bump("laws/weyl_associativity", distance(left_w, weyl_mul(wx, weyl_mul(wy, wz))))

        f = cat.hom_basis(z, fld.translate(z, (0.0, 1.0, -0.5, 0.5))).label
        bump("laws/intertwiner_relation", cat.intertwiner_relation_residual(r, f))

        u = weyl(f)
        lhs_w = cat.auto_action(x, weyl_mul(u, r))
        rhs_w = weyl_mul(cat.auto_action(x, u), cat.auto_action(x, r))
        bump("laws/auto_action_homomorphism", distance(lhs_w, rhs_w))

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


def _antipodal(cone, radius):
    """The cone translation at the radius and its antipode, the transport into the opposite cone -C."""
    ta = cone.translation(radius)
    return ta, tuple(-c for c in ta)


def run_braiding(ctx: RunContext, rng: random.Random) -> list[CheckRow]:
    transports = [(radius, *_antipodal(ctx.config.cone, radius)) for radius in ctx.config.radii]
    rows = []
    for pair, a, b in ctx.charge_pairs():
        exact = cat.braiding_exact(a, b).coeff
        for radius, ta, tb in transports:
            phase, closed, phase_r = cat.braiding_asymptotic(a, b, ta, tb, rng=rng)
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
    transports = [_antipodal(cone, radius) for cone in ctx.homotopy_chain()]
    rows = []
    for pair, a, b in ctx.charge_pairs():
        exact = cat.braiding_exact(a, b).coeff
        limits = [cat.braiding_asymptotic(a, b, ta, tb)[0] for ta, tb in transports]
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
    cone = ctx.config.cone
    shift_u = (0.0,) + tuple(TRANSPORTER_OFFSET * c for c in cone.direction)
    shift_v = tuple(-c for c in shift_u)
    transports = [(radius, *_antipodal(cone, radius)) for radius in ctx.config.radii]
    rows = []
    for pair, a, b in ctx.charge_pairs():
        r = cat.hom_basis(a, fld.translate(a, shift_u))
        s = cat.hom_basis(b, fld.translate(b, shift_v))
        s_plus = cat.hom_basis(b, fld.translate(b, shift_u))
        for radius, tu, tv in transports:
            impl = cat.implementation_residual(a, tu, b)
            rows.append(_row("decay/implementation", pair, "", radius, impl, impl, DECAY_THRESHOLD))
            impl_t = cat.implementation_residual(a, tu, s.label)
            rows.append(
                _row("decay/implementation_transported", pair, "", radius, impl_t, impl_t, DECAY_THRESHOLD)
            )
            r_far = cat.transported_arrow(r, tu)
            s_far = cat.transported_arrow(s, tv)
            abel = cat.abelianness_residual(r_far.label, s_far.label)
            rows.append(_row("decay/abelianness", pair, "", radius, abel, abel, DECAY_THRESHOLD))
            tens = cat.tensor_abelianness_residual(r_far, s_far)
            rows.append(_row("decay/tensor_ordering", pair, "", radius, tens, tens, DECAY_THRESHOLD))
            ext = cat.extension_residual(a, s_plus, tu, tv)
            rows.append(_row("decay/extension", pair, "", radius, ext, ext, EXTENSION_THRESHOLD))
    return rows


def run_seqalg(ctx: RunContext, rng: random.Random) -> list[CheckRow]:
    """Asymptopia on the field: sequences of the unit Gaussian pair's transports along the cone.

    The charge rho moves by the cone translation t_n at R_n = SEQALG_RADIUS
    n^4 and delta by its antipode -t_n (_antipodal), whatever the charges,
    so every far pair takes the erf closed form.  The transporters U_n span
    (rho, rho_n), Ad U_n(W(delta)) must converge to rho(W(delta)), and the
    exchange phase eps_{R_n} to the exact braiding phase.
    """
    from . import seqalg as sa

    cone = ctx.config.cone
    rho, delta = fld.make_charge_vector(), fld.make_test_vector(channel="h")
    zero, w_delta = fld.zero_vector(), weyl(delta)
    # the seed draws only this offset and the probe maps: the odd entries of
    # the alternating transporters start from rho shifted along the axis
    offset = rng.uniform(1.0, 2.0)
    rho_odd = rho.translate((0.0, *(offset * c for c in cone.direction)))

    def radius(n):
        return SEQALG_RADIUS * n**4

    def transporter(source, n):
        return cat.hom_basis(source, source.translate(_antipodal(cone, radius(n))[0]))

    def exchange(n):
        return weyl(zero, cat.braiding_asymptotic(rho, delta, *_antipodal(cone, radius(n)))[0])

    transport = sa.SequenceElement(lambda n: transporter(rho, n), 1.0)
    eps = sa.SequenceElement(exchange, 1.0)
    limit = sa.constant(cat.auto_action(rho, w_delta))

    rows = []
    # the transporters pushed off unitarity by 1/R_n
    drift = sa.SequenceElement(
        lambda n: weyl(transport.at(n).label, 1.0 + 1.0 / radius(n)), 1.0 + 1.0 / radius(1)
    )
    unit = sa.polar_unitarize(drift)
    defect = max(distance(weyl_mul(star(unit.at(n)), unit.at(n)), weyl(zero)) for n in sa.SAMPLES)
    rows.append(_row("seqalg/polar_unitarity", "", "", None, defect, defect, LAWS_THRESHOLD))

    dist = sa.limsup_norm(unit, drift)
    rows.append(_row("seqalg/polar_null_distance", "", "", None, dist, dist, sa.NULL_TOLERANCE))

    # early entries of modulus 1e-12, under the polar cutoff
    gappy = sa.SequenceElement(lambda n: weyl(transport.at(n).label, 1e-12 if n < 8 else 1.0), 1.0)
    fb_res = distance(sa.polar_unitarize(gappy).at(5), weyl(zero))
    rows.append(_row("seqalg/polar_singular_fallback", "", "", None, fb_res, fb_res, LAWS_THRESHOLD))

    # the transporters alternate between the sources rho and rho_odd, so the even entries
    # converge to rho's action and the odd ones to rho_odd's: the probe must reject them
    u_alt = sa.SequenceElement(lambda n: transporter(rho if n % 2 == 0 else rho_odd, n), 1.0)
    adj_alt = sa.adjoint_morphism(u_alt, w_delta)
    adj = sa.adjoint_morphism(unit, w_delta)
    ok = sa.stability_probe(adj, limit, rng) and not sa.stability_probe(adj_alt, limit, rng)
    stab_res = 0.0 if ok else 1.0
    rows.append(_row("seqalg/subsequence_stability", "", "", None, sa.PROBE_MAPS, stab_res, SEPARATION_THRESHOLD))

    even = sa.subsequence(adj_alt, {n: 2 * n for n in sa.SAMPLES})
    odd = sa.subsequence(adj_alt, {n: 2 * n + 1 for n in sa.SAMPLES})
    gap = sa.limsup_norm(adj_alt, limit)
    conv_res = 0.0 if sa.equivalent(even, limit) and not sa.equivalent(adj_alt, limit) else 1.0
    rows.append(_row("seqalg/subsequence_converse", "", "", None, gap, conv_res, SEPARATION_THRESHOLD))

    # (eps_{R_n} - eps_exact) W(delta) is null, and so are its products with the transporters
    exact = cat.braiding_exact(rho, delta).coeff
    null_s = sa.SequenceElement(lambda n: weyl(delta, eps.at(n).coeff - exact), 2.0)
    ideal = max(
        sa.limsup_norm(sa.seq_mul(null_s, transport)),
        sa.limsup_norm(sa.seq_mul(transport, null_s)),
    )
    rows.append(_row("seqalg/null_ideal", "", "", None, ideal, ideal, sa.NULL_TOLERANCE))

    adj_res = sa.limsup_norm(adj, limit)
    rows.append(_row("seqalg/adjoint_constant", "", "", None, adj_res, adj_res, sa.NULL_TOLERANCE))

    # the exchange phases are central, so their adjoint action is trivial
    cen_res = sa.limsup_norm(sa.adjoint_morphism(eps, w_delta), sa.constant(w_delta))
    rows.append(_row("seqalg/adjoint_center", "", "", None, cen_res, cen_res, LAWS_THRESHOLD))

    adj_gap = sa.limsup_norm(even, odd)
    alt_res = 1.0 if sa.equivalent(even, odd) else 0.0
    rows.append(_row("seqalg/adjoint_alternating", "", "", None, adj_gap, alt_res, SEPARATION_THRESHOLD))
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
        raise RunError(f"suite {suite!r} produced {len(rows)} rows, planned {expected}")
    return Report(
        suite=suite,
        config_digest=config.digest(),
        seed=seed,
        rows=rows,
        wall_time_s=time.perf_counter() - started,
    )
