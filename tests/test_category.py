"""Category structure, braiding, and residual-decay checks.

Closed-form reference for the default pair (unit-charge Gaussian gamma,
unit Gaussian test vector delta, both width 1):

    sigma(gamma_a, delta_b) = F(|a - b|),   F(d) = sqrt(pi/2) erf(d/2) / d

with F(0) = 1/sqrt(2).  All braiding and residual values below reduce to
combinations of F at a few separations, which tests/oracle_report.py
evaluates in mpmath: ``phases`` gives each row's phase, ``coupling`` F.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from conebraid import category as C
from conebraid import field as F
from conebraid.config import ConeSpec, load_config
from conebraid.errors import ConfigError, RunError
from conebraid.suites import RunContext, run_braiding, run_homotopy
from conebraid.weyl import label_id
from oracle_report import coupling, defect, phases


@pytest.fixture(scope="module")
def objs():
    return F.make_charge_vector(), F.make_test_vector()


def test_cone_spec_validation():
    # the config checks the cone's fields as it loads (REFUSED in tests/test_cli.py)
    cone = ConeSpec((0.0, 0.0, 2.0))
    assert cone.direction == (0.0, 0.0, 1.0)
    assert cone.translation(10.0) == (0.0, 0.0, 0.0, 10.0)
    tilted = ConeSpec(time_slope=0.5, time_exponent=0.5)
    a = tilted.translation(4.0)
    assert abs(a[0] - 0.5 * 2.0) < 1e-14
    with pytest.raises(ConfigError):
        cone.translation(0.0)


def test_cone_translation_refuses_a_timelike_radius():
    # a0 = 2 R^0.9 is 15.9 at R = 10: the cone itself refuses the transport,
    # with the message a config with this cone exits 2 on
    cone = ConeSpec(time_slope=2.0, time_exponent=0.9)
    with pytest.raises(ConfigError, match=r"^cone transport at radius 10 is not spacelike: .* = 15\.8866 >= R$"):
        cone.translation(10.0)
    # far out, R^0.9 falls behind R and the path is spacelike again
    a0, *_ = cone.translation(1.0e6)
    assert 0.0 < a0 < 1.0e6


@pytest.mark.parametrize("axis", [(1.0, 2.0, 2.0), (0.3, -1.7, 2.9), (2.0, -3.0, 6.0), (-5.0, 0.0, 1e-3)])
def test_cone_axis_normalized_within_an_ulp_of_numpy(axis):
    # the axis is normalized with math.hypot; numpy's norm may differ in the last bit
    cone = ConeSpec(axis)
    want = np.asarray(axis) / np.linalg.norm(axis)
    assert all(type(c) is float for c in cone.direction)
    for got, ref in zip(cone.direction, want):
        assert abs(got - ref) <= math.ulp(ref)


def test_hom_sets_separated_by_charge(objs):
    gam, dlt = objs
    with pytest.raises(RunError, match="needs equal charges"):
        C.hom_basis(gam, F.make_charge_vector(q=2.0))
    with pytest.raises(RunError, match="needs equal charges"):
        C.hom_basis(gam, dlt)
    u = C.hom_basis(gam, F.translate(gam, (0.0, 0.0, 0.0, 5.0)))
    assert u.coeff == 1.0 and u.label.charge == 0.0
    ident = C.identity(gam)
    assert ident.label.is_zero


def test_compose_unit_and_star(objs):
    gam, _ = objs
    u = C.hom_basis(gam, F.translate(gam, (0.0, 0.0, 0.0, 2.0)))
    assert abs(C.compose(C.identity(u.target), u).coeff - u.coeff) < 1e-14
    assert abs(C.compose(u, C.identity(gam)).coeff - u.coeff) < 1e-14
    back = C.compose(C.star_mor(u), u)
    assert back.label.is_zero
    assert abs(back.coeff - 1.0) < 1e-13
    with pytest.raises(RunError, match="compose needs target"):
        C.compose(u, u)


def test_compose_associative(objs):
    gam, _ = objs
    o1 = F.translate(gam, (0.0, 0.0, 0.0, 2.0))
    o2 = F.translate(gam, (0.0, 1.0, 0.0, 2.0))
    o3 = F.translate(gam, (0.0, 1.0, -1.0, 3.0))
    r = C.rephase(C.hom_basis(gam, o1), np.exp(0.4j))
    s = C.rephase(C.hom_basis(o1, o2), np.exp(-1.1j))
    t = C.hom_basis(o2, o3)
    left = C.compose(t, C.compose(s, r))
    right = C.compose(C.compose(t, s), r)
    assert abs(left.coeff - right.coeff) < 1e-13
    assert label_id(left.label) == label_id(right.label)


def test_braiding_exact_value_and_symmetry(objs):
    gam, dlt = objs
    eps = C.braiding_exact(gam, dlt)
    assert eps.label.is_zero
    assert abs(eps.coeff - np.exp(-1j * float(coupling(0)))) < 1e-12
    rev = C.compose(C.braiding_exact(dlt, gam), eps)
    assert abs(rev.coeff - 1.0) < 1e-13
    iota = F.zero_vector()
    assert abs(C.braiding_exact(gam, iota).coeff - 1.0) < 1e-14


def _antipodal(cone, radius):
    """The transports the suites pass: the cone translation and its antipode."""
    ta = cone.translation(radius)
    return ta, tuple(-c for c in ta)


def test_braiding_asymptotic_matches_closed_form(objs):
    gam, dlt = objs
    cone = ConeSpec()
    sig = float(coupling(0))
    resid = []
    for radius in (10.0, 20.0, 30.0, 40.0):
        phase, closed, rephased = C.braiding_asymptotic(gam, dlt, *_antipodal(cone, radius))
        pred = np.exp(1j * float(phases(radius)["braiding/limit_vs_exact"]))
        assert abs(phase - pred) < 1e-12
        assert abs(closed - pred) < 1e-12
        assert rephased is None
        resid.append(abs(phase - np.exp(-1j * sig)))
    assert all(b < a for a, b in zip(resid, resid[1:]))
    # finite-radius deviation is the Coulomb tail F(2R); frozen at R = 40
    assert abs(resid[-1] - 0.015666266503532578) < 1e-9


def test_braiding_asymptotic_trivial_and_validation(objs):
    gam, dlt = objs
    cone = ConeSpec()
    for radius in (1.0, 2.0, 3.0):
        phase, _, _ = C.braiding_asymptotic(F.zero_vector(), dlt, *_antipodal(cone, radius))
        assert abs(phase - 1.0) < 1e-14
    # the suites take the transports from the cone, which refuses a radius that is not positive
    with pytest.raises(ConfigError):
        cone.translation(0.0)


def test_braiding_asymptotic_rephase_invariant(objs):
    gam, dlt = objs
    cone = ConeSpec()
    assert C.braiding_asymptotic(gam, dlt, *_antipodal(cone, 5.0))[2] is None
    # one call transports once and exchanges the plain and the rephased arrows
    rng = np.random.default_rng(11)
    for radius in (5.0, 10.0, 15.0):
        phase, _, rephased = C.braiding_asymptotic(gam, dlt, *_antipodal(cone, radius), rng=rng)
        assert abs(phase - rephased) < 1e-12
    with pytest.raises(RunError, match="unit modulus"):
        C.rephase(C.identity(gam), 2.0)


def test_hexagons_naturality_interchange(objs):
    gam, dlt = objs
    tau = F.scale(0.5, F.translate(F.make_charge_vector(), (0, 1.0, 0, 0)))
    h1, h2 = C.hexagon_residuals(gam, dlt, tau)
    assert h1 < 1e-12 and h2 < 1e-12
    assert C.hexagon_residuals(gam, dlt, F.zero_vector()) == (0.0, 0.0)
    r = C.hom_basis(gam, F.translate(gam, (0.0, 0.0, 0.0, 2.0)))
    s = C.hom_basis(dlt, F.translate(dlt, (0.0, 1.0, 0.0, 0.0)))
    assert C.naturality_residual(r, s) < 1e-12
    r2 = C.hom_basis(r.target, F.translate(gam, (0.0, 0.0, 0.0, 4.0)))
    s2 = C.hom_basis(s.target, F.translate(dlt, (0.0, 2.0, 0.0, 0.0)))
    lhs = C.tensor_mor(C.compose(r2, r), C.compose(s2, s))
    rhs = C.compose(C.tensor_mor(r2, s2), C.tensor_mor(r, s))
    assert abs(lhs.coeff - rhs.coeff) < 1e-12
    assert label_id(lhs.label) == label_id(rhs.label)


def test_tensor_with_unit_object(objs):
    gam, _ = objs
    iota = F.zero_vector()
    r = C.hom_basis(gam, F.translate(gam, (0.0, 0.0, 0.0, 2.0)))
    right = C.tensor_mor(r, C.identity(iota))
    left = C.tensor_mor(C.identity(iota), r)
    assert abs(right.coeff - r.coeff) < 1e-14
    assert abs(left.coeff - r.coeff) < 1e-14
    assert label_id(right.label) == label_id(r.label)


def test_tensor_mor_objects_are_field_sums(objs):
    # an object is its field vector, and the tensor product of objects is field.add
    gam, dlt = objs
    r = C.hom_basis(gam, F.translate(gam, (0.0, 0.0, 0.0, 2.0)))
    s = C.hom_basis(dlt, F.translate(dlt, (0.5, 0.0, 1.0, 0.0)))
    rs = C.tensor_mor(r, s)
    for got, left, right in ((rs.source, r.source, s.source), (rs.target, r.target, s.target)):
        want = F.add(left, right)
        assert got.terms == want.terms and got.charge == want.charge == 1.0
    assert C.tensor_mor(s, r).source.terms == rs.source.terms
    # an arrow out of the sum composes after r x s; one out of a factor alone does not
    assert abs(C.compose(C.identity(F.add(r.target, s.target)), rs).coeff - rs.coeff) < 1e-15
    with pytest.raises(RunError, match="compose needs target"):
        C.compose(C.identity(r.target), rs)
    with pytest.raises(RunError, match="compose needs target"):
        C.compose(rs, rs)


def test_auto_action_is_homomorphism(objs):
    gam, dlt = objs
    from conebraid import weyl as W

    f = dlt
    g = F.translate(dlt, (0.0, 0.7, 0.0, 0.0))
    lhs = W.weyl_mul(C.auto_action(gam, W.weyl(f)), C.auto_action(gam, W.weyl(g)))
    rhs = C.auto_action(gam, W.weyl_mul(W.weyl(f), W.weyl(g)))
    assert W.label_id(lhs.label) == W.label_id(rhs.label)
    assert abs(lhs.coeff - rhs.coeff) < 1e-13
    # zero object acts trivially
    same = C.auto_action(F.zero_vector(), W.weyl(f))
    assert same.coeff == 1.0 and same.label is f


def test_intertwiner_relation(objs):
    gam, dlt = objs
    r = C.hom_basis(gam, F.translate(gam, (0.0, 0.0, 0.0, 2.0)))
    assert C.intertwiner_relation_residual(r, dlt) < 1e-12
    eps = C.braiding_exact(gam, dlt)
    assert C.intertwiner_relation_residual(eps, F.translate(dlt, (0, 0.5, 0, 0))) < 1e-12


def test_intertwiner_relation_label_mismatch_is_the_norm_of_two_generators(objs, monkeypatch):
    # a product that drops its left label leaves the two sides on different
    # labels, which are |c_a| + |c_b| = 2 apart for unit coefficients
    gam, dlt = objs
    from conebraid import weyl as W

    r = C.hom_basis(gam, F.translate(gam, (0.0, 0.0, 0.0, 2.0)))
    monkeypatch.setattr(C, "weyl_mul", lambda a, b: W.WeylElement(a.coeff * b.coeff, b.label))
    assert C.intertwiner_relation_residual(r, dlt) == 2.0


def test_arrows_are_weyl_generators(objs):
    # compose is weyl_mul and star_mor is star, bit for bit, with source and target attached
    gam, _ = objs
    from conebraid import weyl as W

    o1 = F.translate(gam, (0.0, 0.0, 0.0, 2.0))
    o2 = F.translate(gam, (0.3, 1.0, 0.0, 2.0))
    r = C.rephase(C.hom_basis(gam, o1), np.exp(0.4j))
    s = C.rephase(C.hom_basis(o1, o2), np.exp(-1.1j))
    assert isinstance(r, W.WeylElement)
    sr, prod = C.compose(s, r), W.weyl_mul(s, r)
    assert sr.source is gam and sr.target is o2
    assert sr.coeff == prod.coeff and sr.label.terms == prod.label.terms
    back, adjoint = C.star_mor(r), W.star(r)
    assert back.source is o1 and back.target is gam
    assert back.coeff == adjoint.coeff and back.label.terms == adjoint.label.terms


def test_implementation_residual(objs):
    gam, dlt = objs
    # at a = 0 the formula reduces to the plain commutator value
    at_zero = C.implementation_residual(gam, (0.0, 0.0, 0.0, 0.0), dlt)
    assert abs(at_zero - defect(coupling(0))) < 1e-12
    assert C.implementation_residual(gam, (0.0, 0.0, 0.0, 40.0), F.zero_vector()) == 0.0
    for radius in (10.0, 40.0):
        got = C.implementation_residual(gam, (0.0, 0.0, 0.0, radius), dlt)
        assert abs(got - defect(phases(radius)["decay/implementation"])) < 1e-12


def test_abelianness_residual_closed_form(objs):
    gam, dlt = objs
    cone = ConeSpec()
    off = 2.0
    r = C.hom_basis(gam, F.translate(gam, (0.0, 0.0, 0.0, off)))
    s = C.hom_basis(dlt, F.translate(dlt, (0.0, 0.0, 0.0, -off)))
    assert C.abelianness_residual(r.label, F.zero_vector()) == 0.0
    with pytest.raises(RunError, match="first label must be chargeless"):
        C.abelianness_residual(gam, s.label)
    vals = {}
    for radius in (10.0, 40.0):
        ta, tb = _antipodal(cone, radius)
        rf = C.transported_arrow(r, ta)
        sf = C.transported_arrow(s, tb)
        got = C.abelianness_residual(rf.label, sf.label)
        assert abs(got - defect(phases(radius)["decay/abelianness"])) < 1e-12
        vals[radius] = got
    assert vals[40.0] < vals[10.0] < 1e-2


def test_transported_arrow_geometry(objs):
    gam, _ = objs
    cone = ConeSpec()
    r = C.hom_basis(gam, F.translate(gam, (0.0, 0.0, 0.0, 2.0)))
    far = C.transported_arrow(r, cone.translation(10.0))
    direct = C.hom_basis(
        F.translate(gam, (0.0, 0.0, 0.0, 10.0)),
        F.translate(gam, (0.0, 0.0, 0.0, 12.0)),
    ).label
    assert label_id(far.label) == label_id(direct)
    assert abs(abs(far.coeff) - 1.0) < 1e-13


def test_tensor_abelianness_residual_closed_form(objs):
    gam, dlt = objs
    cone = ConeSpec()
    r = C.hom_basis(gam, F.translate(gam, (0.0, 0.0, 0.0, 2.0)))
    s = C.hom_basis(dlt, F.translate(dlt, (0.0, 0.0, 0.0, -2.0)))
    ta, tb = _antipodal(cone, 10.0)
    r_id = C.transported_arrow(C.identity(gam), ta)
    s_id = C.transported_arrow(C.identity(dlt), tb)
    assert C.tensor_abelianness_residual(r_id, s_id) == 0.0
    vals = {}
    for radius in (10.0, 40.0):
        ta, tb = _antipodal(cone, radius)
        got = C.tensor_abelianness_residual(C.transported_arrow(r, ta), C.transported_arrow(s, tb))
        # the ordering angle telescopes to F(2R + 4) - F(2R)
        assert abs(got - defect(phases(radius)["decay/tensor_ordering"])) < 1e-12
        vals[radius] = got
    assert vals[40.0] < vals[10.0]
    assert vals[40.0] < 1e-2


def test_extension_residual_closed_form(objs):
    gam, dlt = objs
    cone = ConeSpec()
    s = C.hom_basis(dlt, F.translate(dlt, (0.0, 0.0, 0.0, 2.0)))
    tu, tv = _antipodal(cone, 10.0)
    assert C.extension_residual(gam, s, tu, tu) == 0.0
    assert C.extension_residual(gam, C.identity(dlt), tu, tv) == 0.0
    vals = {}
    for radius in (10.0, 40.0):
        got = C.extension_residual(gam, s, *_antipodal(cone, radius))
        # |e^{-i(F(R - 2) - F(R))} - e^{-i(F(R + 2) - F(R))}| = |e^{i(F(R + 2) - F(R - 2))} - 1|
        assert abs(got - defect(phases(radius)["decay/extension"])) < 1e-12
        vals[radius] = got
    assert vals[40.0] < vals[10.0]
    assert vals[40.0] < 1e-2


def test_cone_homotopy_chain(objs):
    gam, dlt = objs
    chain = [
        ConeSpec((math.sin(k * math.pi / 6.0), 0.0, math.cos(k * math.pi / 6.0)))
        for k in range(7)
    ]
    # the braiding at the largest radius is the same on every cone of the chain
    limits = [C.braiding_asymptotic(gam, dlt, *_antipodal(cone, 30.0))[0] for cone in chain]
    spread = max(abs(p - q) for p in limits for q in limits)
    assert spread < 1e-12


def _default_context():
    return RunContext(load_config(Path(__file__).resolve().parent.parent / "configs" / "default.json"))


def test_run_homotopy_braids_each_chain_cone_once_at_the_largest_radius(monkeypatch):
    ctx = _default_context()
    calls = []
    braid = C.braiding_asymptotic

    def spy(a, b, ta, tb, rng=None):
        calls.append((a, b, ta, tb, rng))
        return braid(a, b, ta, tb, rng)

    monkeypatch.setattr(C, "braiding_asymptotic", spy)
    rows = run_homotopy(ctx)
    transports = [_antipodal(cone, ctx.config.radii[-1]) for cone in ctx.homotopy_chain()]
    want = [(a, b, ta, tb, None) for _, a, b in ctx.charge_pairs() for ta, tb in transports]
    assert len(transports) == 7 and calls == want
    assert {row.radius for row in rows} == {ctx.config.radii[-1]}


def test_run_braiding_draws_u_then_v_at_each_radius(monkeypatch):
    events, rephased = [], []

    class RecordingRng:
        """Only uniform, so any other draw fails; the k-th draw returns 0.1 k."""

        def uniform(self, low, high):
            events.append(("draw", low, high))
            return 0.1 * sum(event[0] == "draw" for event in events)

    braid, rephase = C.braiding_asymptotic, C.rephase

    def spy(a, b, ta, tb, rng=None):
        events.append(("transport", ta, tb))
        return braid(a, b, ta, tb, rng)

    def record(r, z):
        rephased.append((r.source, z))
        return rephase(r, z)

    monkeypatch.setattr(C, "braiding_asymptotic", spy)
    monkeypatch.setattr(C, "rephase", record)
    ctx = _default_context()
    run_braiding(ctx, RecordingRng())
    draw = ("draw", 0.0, 2.0 * math.pi)
    transports = [_antipodal(ctx.config.cone, radius) for radius in ctx.config.radii]
    assert events == [event for ta, tb in transports for event in (("transport", ta, tb), draw, draw)]
    # the first draw of each radius rephases u (out of the first charge), the second v
    ((_, a, b),) = ctx.charge_pairs()
    sources = [a, b] * len(ctx.config.radii)
    assert len(rephased) == len(sources)
    for k, ((source, z), want) in enumerate(zip(rephased, sources), start=1):
        assert source is want and abs(z - np.exp(0.1j * k)) < 1e-15
