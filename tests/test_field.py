"""Field vector checks against closed forms and independent 1-D quadrature.

The reference pair throughout: gamma is the unit-charge Gaussian g-channel
vector (width 1), delta the unit-amplitude Gaussian h-channel vector
(width 1).  For that pair the symplectic form has the closed form

    sigma(gamma_a, delta_b) = sqrt(pi/2) erf(|a-b| / 2) / |a-b|

(limit 1/sqrt(2) at a = b), which ``coupling`` of tests/oracle_report.py
supplies in mpmath at 30 digits, independently of the package quadrature.
scipy.integrate.quad provides a second independent route for the radial
integrals, and mpmath.quad at 30 digits a third for atom-pair integrals on
both the closed-form and the panel route.
"""

import copy
from fractions import Fraction
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from conebraid import field as F
from conebraid import weyl as W
from conebraid import quadrature as Q
from conebraid.config import RunConfig
from conebraid.errors import ConfigError, DomainError, UsageError
from conebraid.field import RadialPolynomial
from conebraid.quadrature import radial_fourier
from conebraid.suites import RunContext

from oracle_report import coupling
from panel_transform import composite_rule, numpy_radial_fourier, panel_fourier


def pair_key(vec):
    """The (profile, channel, t) pair key of a one-term vector's atom, as _pair_integral takes it."""
    ((_, (profile, channel, offset)),) = vec.terms
    return profile, channel, offset[0]


@pytest.fixture(scope="module")
def pair():
    return F.make_charge_vector(q=1.0, width=1.0), F.make_test_vector(1.0, 1.0)


def test_constructor_bookkeeping():
    gam = F.make_charge_vector(q=1.0)
    dlt = F.make_test_vector()
    assert gam.charge == 1.0
    assert dlt.charge == 0.0
    assert F.make_charge_vector(q=-2.5).charge == -2.5
    assert F.make_charge_vector(q=0.0).is_zero
    v = F.make_test_vector(channel="g")
    assert v.charge == 0.0 and not v.is_zero
    with pytest.raises(ConfigError):
        F.make_charge_vector(width=0.0)
    with pytest.raises(ConfigError):
        F.make_test_vector(channel="x")


def test_sigma_reference_value(pair):
    gam, dlt = pair
    assert abs(F.symplectic(gam, dlt) - float(coupling(0))) < 1e-12


@pytest.mark.parametrize("d", [0.5, 2.0, 10.0, 20.0, 40.0])
def test_sigma_translated_closed_form(pair, d):
    gam, dlt = pair
    val = F.symplectic(F.translate(gam, (0.0, 0.0, 0.0, d)), dlt)
    assert abs(val - float(coupling(d))) < 1e-12
    # depends only on the separation
    both = F.symplectic(
        F.translate(gam, (0.0, 1.0, 2.0, d)), F.translate(dlt, (0.0, 1.0, 2.0, 0.0))
    )
    assert abs(both - float(coupling(d))) < 1e-12


@pytest.mark.parametrize("d", [150.0, 1280.0])
def test_sigma_large_separation_panel_route(pair, d):
    # large separations need hundreds of composite panels
    gam, dlt = pair
    val = F.symplectic(F.translate(gam, (0.0, 0.0, 0.0, d)), dlt)
    assert abs(val - float(coupling(d))) < 1e-12


def test_radial_rule_cap_raises_before_building(pair, monkeypatch):
    gam, dlt = pair
    # R = 1e6 (separation 2e6) needs 31.8M nodes and stays under the cap
    panels = F._panel_count(pair_key(gam), pair_key(dlt), 2.0e6)
    assert panels == 497_360 and 64 * panels <= F.RADIAL_RULE_MAX_NODES
    with pytest.raises(DomainError, match="exceeds the cap of 33554432 nodes"):
        F._panel_count(pair_key(gam), pair_key(dlt), 2.0e8)
    # the pair integral raises before it reads a rule or evaluates a node
    monkeypatch.setattr(Q, "gauss_legendre_unit", None)
    monkeypatch.setattr(F.Profile, "values", None)
    with pytest.raises(DomainError, match="exceeds the cap of 33554432 nodes"):
        F._panel_pair_integral(F.RE, pair_key(gam), pair_key(dlt), 2.0e8)


@pytest.mark.parametrize("d, panels", [(0.5, 3), (1280.0, 319)])
def test_radial_rule_is_composite_panels(pair, d, panels):
    # n = max(192, ceil(10 * d * R_MAX / (2 pi))) nodes, rounded up to 64-node panels
    gam, dlt = pair
    assert F._panel_count(pair_key(gam), pair_key(dlt), d) == panels


def test_panel_route_holds_no_composite_rule():
    # the route walks the cached 64-node rule panel by panel, so its peak
    # memory does not grow with the separation: a gauss2 Re pair at d = 1e4
    # walks 2,487 panels, whose stacked rule alone would take about 2.5 MB
    key = (F.Profile("gauss2", width=1.0), "g", 0.0)
    F._panel_pair_integral(F.RE, key, key, 1.0)
    tracemalloc.start()
    try:
        F._panel_pair_integral(F.RE, key, key, 1.0e4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_sigma_against_independent_quadrature(pair):
    gam, dlt = pair
    d = 7.0
    val = F.symplectic(F.translate(gam, (0.0, d, 0.0, 0.0)), dlt)
    ref = 4.0 * np.pi * (2.0 * np.pi) ** -1.5 * quad(
        lambda r: np.exp(-(r**2)) * np.sinc(r * d / np.pi), 0.0, np.inf, limit=400
    )[0]
    assert abs(val - ref) < 1e-10


def test_sigma_antisymmetric_bilinear(pair):
    gam, dlt = pair
    assert F.symplectic(gam, gam) == 0.0
    assert abs(F.symplectic(dlt, gam) + F.symplectic(gam, dlt)) < 1e-14
    shifted = F.translate(dlt, (0.0, 1.0, 0.0, 0.0))
    mix = F.add(F.scale(0.7, dlt), shifted)
    lhs = F.symplectic(gam, mix)
    rhs = 0.7 * F.symplectic(gam, dlt) + F.symplectic(gam, shifted)
    assert abs(lhs - rhs) < 1e-12


def test_scalar_product_reference(pair):
    _, dlt = pair
    val = F.scalar_product(dlt, dlt)
    assert abs(val - 2.0 * np.pi) < 1e-12
    assert abs(F.vacuum_exponent(dlt) - np.pi / 2.0) < 1e-12


def test_sigma_is_minus_imag_on_test_vectors(pair):
    _, dlt = pair
    y = F.translate(dlt, (0.0, 0.3, -0.2, 0.5))
    assert abs(F.symplectic(dlt, y) + F.scalar_product(dlt, y).imag) < 1e-13
    # hermitian symmetry of the pairing
    x = F.add(dlt, F.scale(0.4, y))
    assert abs(F.scalar_product(x, y) - np.conj(F.scalar_product(y, x))) < 1e-13


def test_charge_class_scalar_product_rejected(pair):
    gam, dlt = pair
    with pytest.raises(DomainError):
        F.scalar_product(gam, dlt)
    with pytest.raises(DomainError):
        F.scalar_product(dlt, gam)
    with pytest.raises(DomainError):
        F.vacuum_exponent(gam)
    # sigma stays defined for charge class
    assert abs(F.symplectic(gam, dlt) - float(coupling(0))) < 1e-12


def _mpmath_profile(profile):
    """The profile's momentum values as an mpmath function, independent of the package transform.

    A bump of support R and coefficients c_k has the transform
    4 pi (2 pi)^{-3/2} R^3 sum_k c_k M_{2k+2}(r R), where
    M_m(x) = int_0^1 u^m sinc(x u) du = 1F2((m+1)/2; 3/2, (m+3)/2; -x^2/4) / (m+1).
    """
    w = mpmath.mpf(profile.width)
    if profile.kind == "gauss":
        return lambda r: mpmath.exp(-((w * r) ** 2) / 2)
    if profile.kind == "gauss2":
        return lambda r: r * r * mpmath.exp(-((w * r) ** 2) / 2)
    R, coeffs = mpmath.mpf(profile.shape.support), profile.shape.coeffs

    def bump(r):
        z = -((r * R) ** 2) / 4
        moments = sum(c * mpmath.hyp1f2(k + 1.5, 1.5, k + 2.5, z) / (2 * k + 3) for k, c in enumerate(coeffs))
        return 4 * mpmath.pi / (2 * mpmath.pi) ** 1.5 * R**3 * moments

    return bump


def _mpmath_channels(profile, channel, t):
    """r -> (G, H) of an atom, g~ = e^{-i p.d} G and h~ = e^{-i p.d} H, under free evolution by t."""
    phi, t = _mpmath_profile(profile), mpmath.mpf(t)
    if channel == "g":
        return lambda r: (mpmath.cos(r * t) * phi(r), -mpmath.sin(r * t) / r * phi(r))
    return lambda r: (r * mpmath.sin(r * t) * phi(r), mpmath.cos(r * t) * phi(r))


def _mpmath_pair(form, ka, kb, delta, r_max):
    """The pair integral 4 pi int_0^r_max K(r) sinc(r delta) dr by mpmath.quad at 30 digits.

    ka, kb are (profile, channel, time offset) as in F._pair_integral, and
    K = G_a H_b - G_b H_a (sigma) or G_a G_b / r + r H_a H_b (Re).
    """
    with mpmath.workdps(30):
        fa, fb = _mpmath_channels(*ka), _mpmath_channels(*kb)
        d = mpmath.mpf(delta)

        def integrand(r):
            (ga, ha), (gb, hb) = fa(r), fb(r)
            kernel = ga * hb - gb * ha if form == F.SIGMA else ga * gb / r + ha * hb * r
            return kernel * (mpmath.sin(r * d) / (r * d) if d else 1)

        span = r_max * (1.0 + delta + abs(ka[2]) + abs(kb[2]))
        value = mpmath.quad(integrand, mpmath.linspace(0, r_max, 2 + int(span / 3)))
        return float(4 * mpmath.pi * value)


def _mpmath_form(form, x, y, r_max):
    """sigma(x, y) or Re (x, y) of two one-term vectors from _mpmath_pair."""
    ((cx, ax),), ((cy, ay),) = x.terms, y.terms
    ka, kb = ((a.profile, a.channel, a.offset[0]) for a in (ax, ay))
    return cx * cy * _mpmath_pair(form, ka, kb, math.dist(ax.offset[1:], ay.offset[1:]), r_max)


def _close(value, ref):
    return abs(value - ref) <= 1e-12 * max(1.0, abs(ref))


def test_small_offsets_against_oracles():
    gam = F.make_charge_vector()
    dlt = F.make_test_vector()
    a = (0.0, 0.4, -0.3, 0.8)
    assert _close(F.symplectic(F.translate(gam, a), dlt), float(coupling(math.hypot(*a))))
    # Re (x, y) of two h-channel Gaussians takes the panel rule
    y = F.translate(dlt, (0.0, 0.5, 0.5, -0.7))
    val = F.scalar_product(dlt, y)
    assert _close(val.real, _mpmath_form(F.RE, dlt, y, F.R_MAX)) and val.imag == 0.0
    v = F.make_test_vector(channel="g")
    assert abs(F.symplectic(v, dlt) - np.pi**1.5) < 1e-12


@pytest.mark.parametrize("d", [0.5 * F.CLOSED_FORM_MIN_DELTA, F.CLOSED_FORM_MIN_DELTA])
def test_sigma_at_the_closed_form_threshold_against_erf(pair, d):
    # just below the minimum separation sigma takes the panel rule, from it on the closed form
    gam, dlt = pair
    assert _close(F.symplectic(F.translate(gam, (0.0, 0.0, 0.0, d)), dlt), float(coupling(d)))


SMOOTH = RadialPolynomial((1.0, -2.0, 1.0), 1.0)


@pytest.mark.parametrize(
    "form, x, y",
    [
        (F.SIGMA, ("gauss2", "g", (0.7, 0.0, 0.0, 0.0)), ("gauss", "h", (0.0, 0.0, 0.0, 0.0))),
        (F.SIGMA, ("gauss2", "g", (0.7, 1.3, 0.0, 0.0)), ("gauss", "h", (0.0, 0.0, 0.0, 0.0))),
        (F.SIGMA, ("gauss2", "g", (-1.1, 0.0, 0.9, 0.0)), ("gauss", "g", (0.4, 0.0, 0.0, 0.0))),
        (F.RE, ("gauss2", "g", (0.7, 1.3, 0.0, 0.0)), ("gauss", "h", (0.0, 0.0, 0.0, 0.0))),
        (F.SIGMA, ("bump", "g", (0.7, 0.0, 0.0, 0.0)), ("gauss", "h", (0.0, 0.0, 0.0, 0.0))),
        (F.SIGMA, ("bump", "g", (0.7, 0.0, 0.0, 2.5)), ("gauss", "h", (0.0, 0.0, 0.0, 0.0))),
        (F.SIGMA, ("bump", "h", (0.7, 0.0, 1.0, 0.0)), ("gauss", "h", (0.0, 0.0, 0.0, 0.0))),
    ],
    ids=lambda v: v if isinstance(v, str) else f"{v[0]}{v[1]}@" + ",".join(f"{c:g}" for c in v[2]),
)
def test_panel_route_pairs_match_mpmath(form, x, y):
    # pairs with a time offset off the closed form, in the truncated model on (0, R_MAX]
    def vector(kind, channel, offset):
        if kind == "bump":
            v = F.make_bump_vector(SMOOTH, channel)
        elif kind == "gauss2":
            v = F.make_test_vector(channel="g")
        else:
            v = F.make_charge_vector() if channel == "g" else F.make_test_vector()
        return F.translate(v, offset)

    vx, vy = vector(*x), vector(*y)
    value = F.symplectic(vx, vy) if form == F.SIGMA else F.scalar_product(vx, vy).real
    assert _close(value, _mpmath_form(form, vx, vy, F.R_MAX))


def test_time_translation(pair):
    gam, dlt = pair
    gt = F.translate(gam, (0.7, 0.0, 0.0, 0.0))
    assert gt.charge == 1.0
    dt = F.translate(dlt, (1.3, 0.0, 0.0, 0.0))
    assert abs(F.vacuum_exponent(dt) - F.vacuum_exponent(dlt)) < 1e-12
    # evolution is symplectic: joint translation leaves sigma fixed
    a = (0.9, 0.4, -1.1, 2.2)
    joint = F.symplectic(F.translate(gam, a), F.translate(dlt, a))
    assert abs(joint - F.symplectic(gam, dlt)) < 1e-12


def test_time_translation_against_independent_quadrature(pair):
    gam, dlt = pair
    t = 0.7
    val = F.symplectic(F.translate(gam, (t, 0.0, 0.0, 0.0)), dlt)
    # kernel cos(rt) e^{-r^2} plus t sinc(rt) r e^{-r^2} cos-term bookkeeping
    # collapses to cos(r t) e^{-r^2} here since delta has no g channel
    ref = 4.0 * np.pi * (2.0 * np.pi) ** -1.5 * quad(
        lambda r: np.exp(-(r**2)) * np.cos(r * t), 0.0, np.inf, limit=200
    )[0]
    assert abs(val - ref) < 1e-10


def test_translate_composition(pair):
    gam, _ = pair
    t1 = F.translate(F.translate(gam, (0.0, 1.0, 2.0, 3.0)), (1.0, -1.0, 0.5, 0.0))
    t2 = F.translate(gam, (1.0, 0.0, 2.5, 3.0))
    assert t1.terms == t2.terms
    with pytest.raises(UsageError):
        F.translate(gam, (1.0, 2.0))
    with pytest.raises(UsageError):
        F.translate(gam, (float("nan"), 0.0, 0.0, 0.0))


def test_translate_merges_offsets_that_round_together(pair):
    # 0.1 and its successor both land on 1.1 after a shift by 1
    _, dlt = pair
    x = F.add(
        F.translate(dlt, (0.0, 0.1, 0.0, 0.0)),
        F.scale(2.0, F.translate(dlt, (0.0, math.nextafter(0.1, 1.0), 0.0, 0.0))),
    )
    assert len(x.terms) == 2
    moved = F.translate(x, (0.0, 1.0, 0.0, 0.0))
    want = F.scale(3.0, F.translate(dlt, (0.0, 1.1, 0.0, 0.0)))
    assert moved.terms == want.terms
    assert W.label_id(moved) == W.label_id(want)
    assert F.subtract(moved, want).is_zero
    # opposite coefficients cancel to the zero vector
    after = math.nextafter(0.1, 1.0)
    diff = F.subtract(F.translate(dlt, (0.0, 0.1, 0.0, 0.0)), F.translate(dlt, (0.0, after, 0.0, 0.0)))
    assert len(diff.terms) == 2
    assert F.translate(diff, (0.0, 1.0, 0.0, 0.0)).is_zero


def test_translate_restores_the_term_order(pair):
    # (0.1, 0, 5) sorts before (0.1 + ulp, 0, 3); after a shift by 1 the first
    # spatial components tie, and the order of the two atoms flips
    _, dlt = pair
    x = F.add(
        F.translate(dlt, (0.0, 0.1, 0.0, 5.0)),
        F.scale(2.0, F.translate(dlt, (0.0, math.nextafter(0.1, 1.0), 0.0, 3.0))),
    )
    moved = F.translate(x, (0.0, 1.0, 0.0, 0.0))
    assert [a.offset for _, a in moved.terms] == [(0.0, 1.1, 0.0, 3.0), (0.0, 1.1, 0.0, 5.0)]
    assert [c for c, _ in moved.terms] == [2.0, 1.0]
    # sums of the moved vector merge its atoms pairwise
    assert F.subtract(moved, moved).is_zero
    assert [c for c, _ in F.add(moved, moved).terms] == [4.0, 2.0]


def test_linear_structure(pair):
    gam, dlt = pair
    assert F.add(gam, F.negate(gam)).is_zero
    assert F.scale(0.0, gam).is_zero
    assert F.scale(2.0, F.scale(3.0, dlt)).terms == F.scale(6.0, dlt).terms
    assert F.add(gam, dlt).charge == 1.0
    assert F.add(dlt, F.translate(dlt, (0.0, 1.0, 0.0, 0.0))).charge == 0.0
    z = F.zero_vector()
    assert F.symplectic(z, dlt) == 0.0
    assert F.add(z, gam).terms == gam.terms
    with pytest.raises(UsageError):
        F.scale(1j, dlt)


def test_intertwiner_label(pair):
    gam, dlt = pair
    ga = F.translate(gam, (0.0, 0.0, 0.0, 10.0))
    lab = F.intertwiner_label(gam, ga)
    assert lab.charge == 0.0 and len(lab.terms) == 2
    want = float(coupling(10.0)) - float(coupling(0))
    assert abs(F.symplectic(lab, dlt) - want) < 1e-12
    assert F.intertwiner_label(gam, gam).is_zero
    with pytest.raises(DomainError):
        F.intertwiner_label(gam, F.scale(2.0, gam))


def test_difference_of_equal_charges_is_a_test_vector_however_built(pair):
    # the charge is a vector's only class: moved - gamma summed by add is the
    # intertwiner label's vector, scalar product included, bit for bit
    gam, _ = pair
    moved = F.translate(gam, (0.0, 0.0, 0.0, 10.0))
    s = F.add(moved, F.negate(gam))
    lab = F.intertwiner_label(gam, moved)
    assert s.charge == 0.0 and s.terms == lab.terms
    value = F.scalar_product(s, s)
    assert value == F.scalar_product(lab, lab) and value.real > 0.0


def test_intertwiner_label_norm_against_independent_quadrature(pair):
    gam, _ = pair
    d = 10.0
    lab = F.intertwiner_label(gam, F.translate(gam, (0.0, 0.0, 0.0, d)))
    # (x, x) = (2 pi)^{-3} 4 pi int 2 r^{-1} e^{-r^2} (1 - sinc(r d)) dr
    ref = (
        (2.0 * np.pi) ** -3
        * 4.0
        * np.pi
        * quad(
            lambda r: 2.0 * np.exp(-(r**2)) * (1.0 - np.sinc(r * d / np.pi)) / r,
            0.0,
            np.inf,
            limit=400,
        )[0]
    )
    assert abs(4.0 * F.vacuum_exponent(lab) - ref) < 1e-9


def test_bump_vector():
    ball = F.make_bump_vector(RadialPolynomial((1.0,), 1.0))
    # charge equals the position-space integral of the profile
    assert abs(ball.charge - 4.0 * np.pi / 3.0) < 1e-12
    # an equal shape built separately is the same atom
    again = F.make_bump_vector(RadialPolynomial((1.0,), 1.0))
    assert again.terms == ball.terms and again.charge == ball.charge
    # another support is another atom, of 8 times the charge
    wide = F.make_bump_vector(RadialPolynomial((1.0,), 2.0))
    assert wide.terms[0][1] != ball.terms[0][1]
    assert math.isclose(wide.charge, 8.0 * ball.charge, rel_tol=1e-14)
    # a bare callable is not a shape
    with pytest.raises(UsageError):
        F.make_bump_vector(lambda r: np.ones_like(r))
    dlt = F.make_test_vector()
    val = F.symplectic(ball, dlt)
    # sigma(ball, delta) = 4 pi int f~(r) e^{-r^2/2} dr, f~ the profile transform
    ref = 4.0 * np.pi * quad(
        lambda r: panel_fourier(lambda s: np.ones_like(s), 1.0, r) * np.exp(-0.5 * r**2),
        0.0,
        np.inf,
        limit=200,
    )[0]
    assert abs(val - ref) < 1e-8


def test_bump_transform_memo_follows_the_shape():
    # the memo must serve the transform of the atom's own shape: shape (2,) is
    # twice shape (1,), so after (1,) is memoized, (2,) doubles sigma and charge
    dlt = F.make_test_vector()
    one = F.make_bump_vector(RadialPolynomial((1.0,), 1.0))
    before = F.symplectic(one, dlt)
    two = F.make_bump_vector(RadialPolynomial((2.0,), 1.0))
    after = F.symplectic(two, dlt)
    assert after == 2.0 * before
    assert two.charge == 2.0 * one.charge
    # the memoized transform is the uncached closed form, read-only
    u, w = composite_rule(F._panel_count(pair_key(two), pair_key(dlt), 0.0))
    r = F.R_MAX * u
    uncached = radial_fourier(RadialPolynomial((2.0,), 1.0), r.tolist())
    cached = two.terms[0][1].profile.values(r.tolist())
    assert cached.readonly and cached.tolist() == uncached
    ref = 4.0 * np.pi * float(np.dot(F.R_MAX * w, np.asarray(uncached) * np.exp(-0.5 * r**2)))
    assert math.isclose(after, ref, rel_tol=1e-14)


def test_bump_vector_keeps_its_transform_after_another_shape():
    # a bump atom holds its shape by value: building and evaluating a bump of
    # another shape leaves its sigma unchanged, and the two are distinct atoms
    # and distinct Weyl labels
    dlt = F.make_test_vector()
    one = F.make_bump_vector(RadialPolynomial((1.0,), 1.0))
    before = F.symplectic(one, dlt)
    two = F.make_bump_vector(RadialPolynomial((2.0,), 1.0))
    assert F.symplectic(two, dlt) == 2.0 * before
    assert F.symplectic(one, dlt) == before
    assert one.terms[0][1] != two.terms[0][1]
    assert W.label_id(one) != W.label_id(two)


def test_value_types_are_immutable_and_compare_by_value_or_identity():
    from conebraid import category as C

    shape = RadialPolynomial((1.0, -2.0, 1.0), 2.5)
    profile = F.Profile("bump", shape=shape)
    atom = F.Atom(profile, "g", (0.0, 1.0, 0.0, 0.0))
    vec = F.make_charge_vector()
    cone = C.ConeSpec((0.0, 0.0, 2.0), 0.5)
    gauss = F.Profile("gauss", width=1.5)
    values = [
        (shape, RadialPolynomial([1, -2, 1], 2.5)),
        (profile, F.Profile("bump", shape=RadialPolynomial((1.0, -2.0, 1.0), 2.5))),
        (atom, F.Atom(F.Profile("bump", shape=shape), "g", (0.0, 1.0, 0.0, 0.0))),
        (gauss, F.Profile("gauss", width=1.5)),
        (F.Atom(gauss, "h"), F.Atom(F.Profile("gauss", width=1.5), "h", (0.0, 0.0, 0.0, 0.0))),
    ]
    for x, twin in values:
        assert x == twin and hash(x) == hash(twin) and x is not twin
        # copy rebuilds through the checking constructor, whose argument
        # order differs from the fields' for a RadialPolynomial
        copied = copy.deepcopy(x)
        assert copied == x and type(copied) is type(x)
    # the value types are their fields' tuples: equality and hash are the tuple's
    for cls in (RadialPolynomial, F.Profile, F.Atom):
        assert cls.__hash__ is tuple.__hash__ and cls.__eq__ is tuple.__eq__
    assert atom != F.Atom(profile, "h", (0.0, 1.0, 0.0, 0.0)) and profile != F.Profile("gauss", width=1.0)
    # vectors (a category object is its vector), generators and cones compare by identity
    assert vec != F.make_charge_vector() and vec == vec
    assert cone != C.ConeSpec((0.0, 0.0, 1.0), 0.5) and cone == cone
    assert W.weyl(vec) != W.weyl(vec)
    for obj, name in [
        (shape, "support"),
        (profile, "width"),
        (atom, "channel"),
        (vec, "terms"),
        (W.weyl(vec), "coeff"),
        (cone, "axis"),
    ]:
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)


def test_profile_checks_its_kind_and_width():
    # a misspelt kind is a misuse of the library; a Gaussian of width 0 is
    # flat up to the cutoff, a negative width repeats a positive one, and a
    # width on a bump would make a second profile of the same function
    with pytest.raises(UsageError, match="profile kind"):
        F.Profile("gaus", width=1.0)
    for width in (0.0, -1.0, math.inf, math.nan):
        for kind in ("gauss", "gauss2"):
            with pytest.raises(ConfigError, match="width must be positive"):
                F.Profile(kind, width=width)
    with pytest.raises(UsageError, match="no width"):
        F.Profile("bump", width=5.0, shape=RadialPolynomial((1.0,), 1.0))
    # the vector constructors build the profile first, so a zero vector checks its width too
    with pytest.raises(ConfigError, match="width must be positive"):
        F.make_charge_vector(q=0.0, width=-1.0)
    with pytest.raises(ConfigError, match="width must be positive"):
        F.make_test_vector(amplitude=0.0, width=0.0)


def test_bump_profile_needs_a_shape():
    with pytest.raises(UsageError):
        F.Profile("bump")
    with pytest.raises(UsageError):
        F.Profile("gauss", width=1.0, shape=RadialPolynomial((1.0,), 1.0))
    with pytest.raises(UsageError):
        F.Profile("gauss", width=1.0, shape=(2.5, (1.0,)))
    # a profile is the tuple of its fields, with shape () for a Gaussian
    shape = RadialPolynomial((1.0, -2.0, 1.0), 2.5)
    assert shape == (2.5, (1.0, -2.0, 1.0))
    assert F.Profile("bump", shape=shape) == ("bump", 0.0, (2.5, (1.0, -2.0, 1.0)))
    assert F.Profile("gauss", width=1.5) == ("gauss", 1.5, ())


@pytest.mark.parametrize("support", [0.5, 1.0, 2.5])
@pytest.mark.parametrize("coeffs", [(1.0,), (1.0, -2.0, 1.0)], ids=["indicator", "smooth"])
def test_bump_value_at_zero_is_the_transform_at_zero(coeffs, support):
    # a bump's charge is (2 pi)^{3/2} times its transform at zero momentum:
    # q = 4 pi int_0^R r^2 f(r) dr = 4 pi R^3 sum_k c_k / (2k + 3), an exact
    # rational times 4 pi R^3; an h-channel bump carries none
    shape = RadialPolynomial(coeffs, support)
    charge = F.make_bump_vector(shape).charge
    exact = Fraction(support) ** 3 * sum(Fraction(c) / (2 * k + 3) for k, c in enumerate(coeffs))
    assert type(charge) is float and math.isclose(charge, 4.0 * math.pi * float(exact), rel_tol=1e-15)
    assert F.make_bump_vector(shape, channel="h").charge == 0.0


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    st.lists(st.floats(-10.0, 10.0, allow_nan=False), min_size=1, max_size=4),
    st.floats(1e-3, 1e3),
)
def test_bump_value_at_zero_matches_the_transform_bit_for_bit(coeffs, support):
    shape = RadialPolynomial(tuple(coeffs), support)
    q = F.TWO_PI_32 * radial_fourier(shape, 0.0)
    assert F.make_bump_vector(shape).charge == (0.0 if abs(q) < 1e-12 else q)
    exact = Fraction(support) ** 3 * sum(Fraction(c) / (2 * k + 3) for k, c in enumerate(coeffs))
    assert math.isclose(q, 4.0 * math.pi * float(exact), rel_tol=1e-14, abs_tol=1e-290)


@pytest.fixture(scope="module")
def mixed(pair):
    # multi-term vectors with time offsets, both channels and spatial separations
    gam, dlt = pair
    g2 = F.make_test_vector(amplitude=0.6, width=1.3, channel="g")
    x = F.add(F.translate(gam, (0.3, 1.0, 0.0, 2.0)), F.scale(0.7, F.translate(dlt, (-0.4, 0.0, 1.0, 0.0))))
    x = F.add(x, F.translate(g2, (0.0, -2.0, 0.5, 0.0)))
    y = F.add(dlt, F.translate(g2, (0.9, 0.5, 0.2, 5.0)))
    y = F.add(y, F.scale(-1.2, F.translate(dlt, (0.0, 3.0, 0.0, -1.0))))
    return x, y


def test_sigma_exactly_antisymmetric(mixed):
    x, y = mixed
    assert F.symplectic(x, y) == -F.symplectic(y, x)
    assert F.symplectic(x, x) == 0.0


def test_sigma_exactly_additive_over_pairs(pair):
    # each pair is integrated on its own rule, so a far pair does not change the near one
    gam, dlt = pair
    z1 = F.translate(dlt, (0.0, 0.0, 0.0, 1.5))
    z_far = F.translate(dlt, (0.0, 0.0, 0.0, 400.0))
    assert F.symplectic(gam, F.add(z1, z_far)) == F.symplectic(gam, z1) + F.symplectic(gam, z_far)


def test_scalar_product_of_a_vector_with_itself_is_real(mixed):
    x, y = mixed
    v = F.add(F.scale(0.5, y), F.translate(F.make_test_vector(channel="g"), (0.4, 0.0, 0.0, 1.0)))
    assert v.charge == 0.0 and len(v.terms) == 4
    val = F.scalar_product(v, v)
    assert val.imag == 0.0 and val.real > 0.0


def test_swapped_operands_share_pair_integrals(mixed):
    # (a, b) and (b, a) read one memo entry; the swapped SIGMA value is negated exactly
    x, y = mixed
    F._pair_integral.cache_clear()
    forward = F.symplectic(x, y)
    misses = F._pair_integral.cache_info().misses
    assert misses > 0
    assert F.symplectic(y, x) == -forward
    assert F._pair_integral.cache_info().misses == misses


def _numpy_channel_factors(key, r):
    """(G, H) of an atom key on the momenta r, in numpy (the package's channel mixing, restated)."""
    profile, channel, t = key
    if profile.kind == "bump":
        phi = numpy_radial_fourier(profile.shape, r)
    else:
        phi = np.exp(-0.5 * (profile.width * r) ** 2) * (r**2 if profile.kind == "gauss2" else 1.0)
    c, s = np.cos(r * t) * phi, np.sin(r * t) * phi
    return (c, -s / r) if channel == "g" else (r * s, c)


def _direct_pair_sum(form, ka, kb, delta):
    """4 pi dot(w, K sinc(r delta)) on the pair's own rule in numpy, and 4 pi dot(w, |K|)."""
    u, w = composite_rule(F._panel_count(ka, kb, delta))
    r, w = F.R_MAX * u, F.R_MAX * w
    (gx, hx), (gy, hy) = _numpy_channel_factors(ka, r), _numpy_channel_factors(kb, r)
    kern = gx * hy - gy * hx if form == F.SIGMA else gx * gy / r + hx * hy * r
    direct = float(np.dot(w, kern * np.sinc(r * (delta / np.pi))))
    return 4.0 * np.pi * direct, 4.0 * np.pi * float(np.dot(w, np.abs(kern)))


def _split_phase_cases():
    gauss = F.Profile("gauss", width=1.0)
    bump = F.Profile("bump", shape=RadialPolynomial((1.0, -2.0, 1.0), 1.0))
    pairs = [
        ((gauss, "g", 0.0), (gauss, "h", 0.0)),
        ((gauss, "g", 0.5), (gauss, "g", -0.5)),
        ((gauss, "h", 3.0), (gauss, "g", 0.0)),
        ((gauss, "h", 0.0), (gauss, "h", 3.0)),
        # the smooth bump's closed-form transform costs O(1) per node, so it runs at every delta
        ((bump, "g", 0.0), (gauss, "h", 0.5)),
    ]
    for delta in (0.0, 0.3, 1.5, 150.0, 1280.0, 1.0e4, 8.0e4):
        for ka, kb in pairs:
            for form in (F.SIGMA, F.RE):
                name = "-".join(f"{p.kind}{c}{t:+g}" for p, c, t in (ka, kb))
                yield pytest.param(form, ka, kb, delta, id=f"{form}-{name}-d{delta:g}")


@pytest.mark.parametrize("form, ka, kb, delta", _split_phase_cases())
def test_pair_integral_matches_direct_sinc_sum(form, ka, kb, delta):
    # the stdlib panel route against the same rule sum in numpy: they differ
    # by rounding only, each node's sinc by about eps, so the difference is
    # bounded by eps times the pair's zero-separation size 4 pi sum |w K|
    value = F._panel_pair_integral(form, ka, kb, delta)
    ref, size = _direct_pair_sum(form, ka, kb, delta)
    assert abs(value - ref) <= (1e-15 if delta == 0.0 else 1e-13) * size
    # the kernel is bit-exactly antisymmetric (SIGMA) or symmetric (RE) under a swap
    swapped = F._panel_pair_integral(form, kb, ka, delta)
    assert swapped == (-value if form == F.SIGMA else value)


def test_pair_integral_memo_is_bounded_and_holds_floats(monkeypatch):
    info = F._pair_integral.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize
    gauss = F.Profile("gauss", width=1.0)
    g, h = (gauss, "g", 0.0), (gauss, "h", 0.5)
    value = F._pair_integral(F.SIGMA, g, h, 3.0)
    assert type(value) is float and type(F._pair_integral(F.RE, g, h, 3.0)) is float
    # kernels that vanish identically size no panels
    monkeypatch.setattr(F, "_panel_count", None)
    undecorated = F._pair_integral.__wrapped__
    assert undecorated(F.SIGMA, g, g, 3.0) == 0.0
    assert undecorated(F.RE, g, (gauss, "h", 0.0), 3.0) == 0.0


@pytest.mark.parametrize("t", [0.7, -1.1, 3.0])
def test_equal_time_kernels_vanish_without_a_rule(monkeypatch, t):
    # at equal time offsets sigma in equal channels and Re in unequal ones
    # vanish identically; with unequal profiles the panel sum is rounding only
    gauss, broad = F.Profile("gauss", width=1.0), F.Profile("gauss", width=1.3)
    bump = F.Profile("bump", shape=RadialPolynomial((1.0, -2.0, 1.0), 1.0))
    cases = [
        (form, (pa, ca, t), (pb, cb, t), delta)
        for pa, pb in ((gauss, broad), (gauss, bump), (bump, broad))
        for form, channels in ((F.SIGMA, ("gg", "hh")), (F.RE, ("gh", "hg")))
        for ca, cb in channels
        for delta in (0.0, 0.3, 2.5)
    ]
    for form, ka, kb, delta in cases:
        assert abs(F._panel_pair_integral(form, ka, kb, delta)) <= 1e-15
    x = F.translate(F.make_test_vector(width=1.0, channel="g"), (t, 0.0, 0.0, 0.0))
    y = F.translate(F.make_charge_vector(width=1.3), (t, 0.3, 0.0, 0.0))
    monkeypatch.setattr(F, "_panel_count", None)
    for form, ka, kb, delta in cases:
        assert F._pair_integral.__wrapped__(form, ka, kb, delta) == 0.0
    assert F.symplectic(x, y) == 0.0


CLOSED_FORM_DELTAS = (0.5, 1.5, 20.0, 150.0, 1280.0, 1.0e4, 8.0e4)


@pytest.mark.parametrize("offsets", [(0.0, 0.0), (0.5, -1.2), (3.0, 0.0), (0.0, 7.5)])
@pytest.mark.parametrize("widths", [(1.0, 1.0), (1.0, 1.3)])
@pytest.mark.parametrize("cx, cy", [("g", "g"), ("g", "h"), ("h", "g"), ("h", "h")])
def test_gauss_sigma_closed_form_matches_panel_route(cx, cy, widths, offsets):
    # the closed form integrates over [0, inf); the rule stops at R_MAX = 10,
    # where e^{-a R_MAX^2} <= e^{-100}, so the two agree to the rule's bound.
    # The rule sum is taken in numpy here, since the stdlib panel route costs
    # about a microsecond per node; test_pair_integral_matches_direct_sinc_sum
    # pins the package's sum to this one on rules up to separation 8e4
    ka = (F.Profile("gauss", width=widths[0]), cx, offsets[0])
    kb = (F.Profile("gauss", width=widths[1]), cy, offsets[1])
    size = _direct_pair_sum(F.SIGMA, ka, kb, 0.0)[1]
    for delta in CLOSED_FORM_DELTAS:
        value = F._pair_integral.__wrapped__(F.SIGMA, ka, kb, delta)
        assert type(value) is float
        assert abs(value - _direct_pair_sum(F.SIGMA, ka, kb, delta)[0]) <= 1e-13 * size
        assert F._pair_integral.__wrapped__(F.SIGMA, kb, ka, delta) == -value


@pytest.mark.parametrize(
    "cx, cy, widths, offsets, delta",
    [
        ("g", "g", (1.0, 1.0), (0.0, 7.5), 0.5),
        ("g", "g", (1.0, 1.3), (3.0, 0.0), 20.0),
        ("g", "h", (1.0, 1.0), (0.0, 7.5), 0.5),
        ("g", "h", (1.0, 1.3), (3.0, 0.0), 1.5),
        ("h", "g", (1.0, 1.3), (0.5, -1.2), 0.5),
        ("h", "h", (1.0, 1.3), (0.5, -1.2), 1.5),
        ("h", "h", (1.0, 1.0), (3.0, 0.0), 20.0),
    ],
)
def test_gauss_sigma_closed_form_matches_mpmath(cx, cy, widths, offsets, delta):
    ka = (F.Profile("gauss", width=widths[0]), cx, offsets[0])
    kb = (F.Profile("gauss", width=widths[1]), cy, offsets[1])
    value = F._pair_integral.__wrapped__(F.SIGMA, ka, kb, delta)
    # the closed form integrates over [0, inf); past r = 16 the integrand is below e^{-256}
    ref = _mpmath_pair(F.SIGMA, ka, kb, delta, 16.0)
    assert abs(value - ref) <= 1e-13 * max(1.0, abs(ref))


def test_pair_integral_fallbacks_reach_the_panel_rule(monkeypatch):
    # below the minimum separation, with a short cutoff tail, for gauss2 and
    # for RE the pair integral sizes its panels; the closed form sizes none
    calls = []

    def sentinel(ka, kb, delta):
        calls.append((ka, kb, delta))
        return panel_count(ka, kb, delta)

    panel_count = F._panel_count
    monkeypatch.setattr(F, "_panel_count", sentinel)
    gauss, broad = F.Profile("gauss", width=1.0), F.Profile("gauss", width=0.5)
    g, h = (gauss, "g", 0.0), (gauss, "h", 0.5)
    undecorated = F._pair_integral.__wrapped__
    undecorated(F.SIGMA, g, h, 3.0)
    assert calls == []
    assert 0.5 * (0.5**2 + 0.5**2) * F.R_MAX**2 < F.CLOSED_FORM_MIN_TAIL
    fallbacks = [
        (F.SIGMA, g, h, 0.5 * F.CLOSED_FORM_MIN_DELTA),
        (F.SIGMA, (broad, "g", 0.0), (broad, "h", 0.5), 3.0),
        (F.SIGMA, (F.Profile("gauss2", width=1.0), "g", 0.0), h, 3.0),
        (F.RE, g, (gauss, "g", 0.5), 3.0),
    ]
    for form, ka, kb, delta in fallbacks:
        calls.clear()
        value = undecorated(form, ka, kb, delta)
        assert len(calls) == 1
        assert value == F._panel_pair_integral(form, ka, kb, delta)


def test_vectors_from_two_contexts_agree():
    # every vector lives in the one model with cutoff R_MAX, so vectors of
    # two materializations of one config combine as those of one do
    one, two = RunContext(RunConfig()), RunContext(RunConfig())
    (gam, dlt), (gam2, dlt2) = (tuple(ctx.vectors.values()) for ctx in (one, two))
    assert F.symplectic(gam, dlt2) == F.symplectic(gam2, dlt) == F.symplectic(gam, dlt)
    assert F.add(gam, dlt2).terms == F.add(gam, dlt).terms


@pytest.mark.parametrize(
    "shape_x, shape_y", [("indicator", "indicator"), ("indicator", "smooth"), ("smooth", "smooth")]
)
def test_disjoint_bump_sigma_matches_shell_theorem(shape_x, shape_y, monkeypatch):
    # Two radial bumps of support 1 at t = 0 and distance d > 2 couple like
    # point charges (Newton's shell theorem): sigma = 2 pi^2 phi_x(0) phi_y(0) / d
    # in the model without a momentum cutoff.  The panel rule stops at R_MAX,
    # so the gap is the cutoff error, and it must shrink as the cutoff grows
    # past the model's R_MAX (set here on the module for one evaluation).
    coeffs = {"indicator": (1.0,), "smooth": (1.0, -2.0, 1.0)}
    px, py = (F.Profile("bump", shape=RadialPolynomial(coeffs[shape], 1.0)) for shape in (shape_x, shape_y))
    for d in (2.5, 20.0):
        exact = 2.0 * math.pi**2 * radial_fourier(px.shape, 0.0) * radial_fourier(py.shape, 0.0) / d
        gap = {}
        for r_max in (F.R_MAX, 40.0):
            with monkeypatch.context() as m:
                m.setattr(F, "R_MAX", r_max)
                gap[r_max] = abs(F._panel_pair_integral(F.SIGMA, (px, "g", 0.0), (py, "h", 0.0), d) - exact)
        assert gap[F.R_MAX] == abs(F._pair_integral.__wrapped__(F.SIGMA, (px, "g", 0.0), (py, "h", 0.0), d) - exact)
        assert gap[40.0] < gap[F.R_MAX]
        if shape_x == shape_y == "smooth":
            assert gap[40.0] <= 1e-12
