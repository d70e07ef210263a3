"""Randomized invariants: bilinearity, cocycle laws, category coherence, tail quotients."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import conebraid.category as C
import conebraid.field as F
import conebraid.seqalg as SA
from conebraid.errors import UsageError
from conebraid.weyl import star, weyl, weyl_mul

COMMON = dict(derandomize=True, deadline=None)

widths = st.floats(0.6, 1.8)
amps = st.floats(-2.0, 2.0).filter(lambda a: abs(a) > 0.05)
coords = st.floats(-2.5, 2.5)
times = st.floats(-0.8, 0.8)
atom_params = st.tuples(st.sampled_from(["g", "h"]), widths, amps, times, coords, coords, coords)
vec_params = st.lists(atom_params, min_size=1, max_size=2)
obj_params = st.tuples(st.booleans(), atom_params)


def build_vec(params):
    out = F.zero_vector()
    for chan, w, amp, t, x, y, z in params:
        v = F.make_test_vector(amplitude=amp, width=w, channel=chan)
        out = F.add(out, F.translate(v, (t, x, y, z)))
    return out


def build_obj(params):
    charged, (chan, w, amp, t, x, y, z) = params
    if charged:
        v = F.make_charge_vector(q=amp, width=w)
    else:
        v = F.make_test_vector(amplitude=amp, width=w, channel=chan)
    return F.translate(v, (t, x, y, z))


@settings(max_examples=30, **COMMON)
@given(vec_params, vec_params, st.floats(-2, 2), st.floats(-2, 2))
def test_symplectic_antisymmetric_bilinear(px, py, a, b):
    x, y = build_vec(px), build_vec(py)
    sxy = F.symplectic(x, y)
    assert abs(sxy + F.symplectic(y, x)) <= 1e-10 * (1.0 + abs(sxy))
    combo = F.add(F.scale(a, x), F.scale(b, y))
    z = build_vec(px[:1])
    lhs = F.symplectic(combo, z)
    rhs = a * F.symplectic(x, z) + b * F.symplectic(y, z)
    assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(lhs) + abs(rhs))


@settings(max_examples=25, **COMMON)
@given(vec_params, vec_params, vec_params)
def test_weyl_cocycle_laws(px, py, pz):
    x, y, z = build_vec(px), build_vec(py), build_vec(pz)
    wx, wy, wz = weyl(x), weyl(y), weyl(z)
    merged = F.add(x, y)
    exchange = weyl_mul(weyl(y, np.exp(1j * F.symplectic(x, y))), wx)
    assert abs(weyl_mul(wx, wy).coeff_of(merged) - exchange.coeff_of(merged)) <= 1e-12
    xyz = F.add(merged, z)
    left = weyl_mul(weyl_mul(wx, wy), wz)
    right = weyl_mul(wx, weyl_mul(wy, wz))
    assert abs(left.coeff_of(xyz) - right.coeff_of(xyz)) <= 1e-12
    # star is an anti-homomorphism and an involution
    prod = weyl_mul(wx, wy)
    assert abs(star(star(prod)).coeff_of(merged) - prod.coeff_of(merged)) <= 1e-14
    rev = weyl_mul(star(wy), star(wx))
    neg = F.negate(merged)
    assert abs(star(prod).coeff_of(neg) - rev.coeff_of(neg)) <= 1e-12


@settings(max_examples=25, **COMMON)
@given(vec_params, st.floats(-1.5, 1.5).filter(lambda s: abs(s) > 1e-3))
def test_vacuum_exponent_quadratic(px, s):
    x = build_vec(px)
    base = F.vacuum_exponent(x)
    assert abs(F.vacuum_exponent(F.scale(s, x)) - s * s * base) <= 1e-9 * (1.0 + base)


@settings(max_examples=20, **COMMON)
@given(obj_params, obj_params, obj_params, st.floats(0, 2 * math.pi), st.floats(0, 2 * math.pi))
def test_category_coherence(pa, pb, pc, phi1, phi2):
    a, b, c = build_obj(pa), build_obj(pb), build_obj(pc)
    h1, h2 = C.hexagon_residuals(a, b, c)
    assert max(h1, h2) <= 1e-12
    r = C.rephase(C.hom_basis(a, F.translate(a, (0.0, 1.0, 0.0, -0.5))), np.exp(1j * phi1))
    s = C.rephase(C.hom_basis(b, F.translate(b, (0.3, 0.0, -1.0, 0.0))), np.exp(1j * phi2))
    assert C.naturality_residual(r, s) <= 1e-12
    round_trip = C.compose(C.braiding_exact(b, a), C.braiding_exact(a, b))
    assert abs(round_trip.coeff - 1.0) <= 1e-12
    assert abs(C.compose(C.star_mor(r), r).coeff - abs(r.coeff) ** 2) <= 1e-12


@settings(max_examples=20, **COMMON)
@given(obj_params, st.floats(0, 2 * math.pi), times, coords)
def test_transport_keeps_intertwiner_relation(pa, phi, t, off):
    a = build_obj(pa)
    r = C.rephase(C.hom_basis(a, F.translate(a, (t, off, 0.4, -0.2))), np.exp(1j * phi))
    f = F.intertwiner_label(a, F.translate(a, (0.0, -0.7, 1.1, 0.3)))
    assert C.intertwiner_relation_residual(r, f) <= 1e-12


matrices = st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8).map(
    lambda v: SA.matrix(
        ((complex(v[0], v[4]), complex(v[1], v[5])), (complex(v[2], v[6]), complex(v[3], v[7])))
    )
)


@settings(max_examples=25, **COMMON)
@given(matrices, matrices)
def test_seqalg_quotient_laws(matrices_a, matrices_b):
    a, b = matrices_a, matrices_b
    s = SA.SequenceElement(lambda n: SA.add(a, SA.scale(0.5**n, b)), SA.norm(a) + SA.norm(b) + 1.0)
    t = SA.constant(b)
    # star distributes over differences on the quotient
    lhs = SA.seq_star(SA.seq_sub(s, t))
    rhs = SA.seq_sub(SA.seq_star(s), SA.seq_star(t))
    assert SA.limsup_norm(SA.seq_sub(lhs, rhs)) <= 1e-12
    # limsup is subadditive and null elements are absorbed
    assert SA.limsup_norm(SA.seq_sub(s, t)) <= (
        SA.limsup_norm(s) + SA.limsup_norm(t) + 1e-12
    )
    null = SA.SequenceElement(lambda n: SA.scale(0.5**n, b), SA.norm(b) + 1.0)
    assert SA.is_null(null)
    assert SA.equivalent(SA.seq_sub(t, null), t)


@settings(max_examples=200, **COMMON)
@given(st.lists(st.tuples(st.integers(1, 12), st.integers(1, 30)), min_size=1, max_size=12))
def test_subsequence_check_matches_all_pairs_scan(draws):
    # the neighbour check raises exactly where a scan of every evaluated pair does
    base = SA.constant(SA.UNIT)
    images = {}
    for n, m in draws:
        images.setdefault(n, m)
    sub = SA.subsequence(base, images.__getitem__)
    accepted = {}
    for n, _ in draws:
        m = images[n]
        broken = any((k < n and mk >= m) or (k > n and mk <= m) for k, mk in accepted.items())
        if broken:
            with pytest.raises(UsageError, match="not strictly increasing"):
                sub.at(n)
        else:
            sub.at(n)
            accepted[n] = m


@settings(max_examples=25, **COMMON)
@given(vec_params, times, coords, coords, coords, times, coords, coords, coords)
def test_translation_composes(px, t1, x1, y1, z1, t2, x2, y2, z2):
    x = build_vec(px)
    probe = F.make_test_vector(amplitude=1.0, width=1.0, channel="h")
    a, b = (t1, x1, y1, z1), (t2, x2, y2, z2)
    twice = F.translate(F.translate(x, a), b)
    once = F.translate(x, tuple(p + q for p, q in zip(a, b)))
    ref = F.symplectic(once, probe)
    assert abs(F.symplectic(twice, probe) - ref) <= 1e-10 * (1.0 + abs(ref))


def _dict_and_sort(terms):
    """Canonical terms by a dict merge and a sort: the reference for the field's one-pass merge."""
    merged = {}
    for c, a in terms:
        merged[a] = merged.get(a, 0.0) + c
    kept = [(c, a) for a, c in merged.items() if c != 0.0]
    return tuple(sorted(kept, key=lambda t: t[1]))


def _old_sort_key(atom):
    """The atom order the field once cached per atom, rebuilt from the fields:
    ((kind, width, () or (support, *coeffs)), channel, offset)."""
    profile = atom.profile
    shape = (profile.shape.support, *profile.shape.coeffs) if profile.kind == "bump" else ()
    return ((profile.kind, profile.width, shape), atom.channel, atom.offset)


# Few values per field, so random atoms often tie in a leading field.
order_profiles = st.one_of(
    st.builds(F.Profile, st.sampled_from(["gauss", "gauss2"]), st.sampled_from([0.5, 1.0, 1.3])),
    st.builds(
        lambda coeffs, support: F.Profile("bump", shape=F.RadialPolynomial(coeffs, support)),
        st.sampled_from([(1.0,), (1.0, -2.0), (1.0, -2.0, 1.0), (2.0,)]),
        st.sampled_from([1.0, 2.5]),
    ),
)
order_offsets = st.tuples(*[st.sampled_from([-1.0, -0.0, 0.0, 0.5])] * 4)
order_atoms = st.builds(F.Atom, order_profiles, st.sampled_from(["g", "h"]), order_offsets)


@settings(max_examples=300, **COMMON)
@given(st.lists(order_atoms, min_size=2, max_size=8))
def test_atoms_order_as_their_old_sort_key(atoms):
    # sorting atoms as tuples gives the order of the old key, tie for tie
    assert [id(a) for a in sorted(atoms)] == [id(a) for a in sorted(atoms, key=_old_sort_key)]
    for a in atoms:
        for b in atoms:
            assert (a < b, a == b) == (_old_sort_key(a) < _old_sort_key(b), _old_sort_key(a) == _old_sort_key(b))


def _bits(terms):
    return [(c.hex(), math.copysign(1.0, c), a) for c, a in terms]


# A few atoms and exactly opposite coefficients, so sums meet equal atoms and
# cancel exactly; factors of 1e-30 underflow products of 1e-300 to +-0.0.
merge_atoms = st.tuples(
    st.sampled_from(["g", "h"]), st.sampled_from([1.0, 1.3]), st.sampled_from([0.0, 0.5]), st.sampled_from([0.0, -1.0])
)
merge_coeffs = st.sampled_from([1.0, -1.0, 0.5, -0.5, 3.0, 1e-300, -1e-300])
merge_terms = st.lists(st.tuples(merge_coeffs, merge_atoms), max_size=5)
merge_factors = st.sampled_from([1.0, -1.0, 2.0, 1e-30, -1e-30])


def build_merge_vec(terms):
    out = F.zero_vector()
    for c, (chan, w, t, x) in terms:
        v = F.make_test_vector(amplitude=c, width=w, channel=chan)
        out = F.add(out, F.translate(v, (t, x, 0.0, 0.0)))
    return out


def merge_atom(chan, w, t, x):
    """The atom build_merge_vec makes of these parameters."""
    return F.Atom(F.Profile("gauss" if chan == "h" else "gauss2", w), chan, (t, x, 0.0, 0.0))


@settings(max_examples=300, **COMMON)
@given(merge_terms, merge_terms, merge_factors, merge_factors)
# float addition is not associative: in input order these sum to 0.0, reversed to 1e-300
@example([(1e-300, ("h", 1.0, 0.0, 0.0)), (1.0, ("h", 1.0, 0.0, 0.0))], [(-1.0, ("h", 1.0, 0.0, 0.0))], 1.0, 1.0)
def test_merged_sum_equals_dict_and_sort(tx, ty, fx, fy):
    x, y = build_merge_vec(tx), build_merge_vec(ty)
    # unsorted terms with repeated atoms merge in input order
    items = [(c, merge_atom(*params)) for c, params in tx + ty]
    assert _bits(F._canonical_terms(items)) == _bits(_dict_and_sort(items))
    # scale drops the products that underflow, which the dict merge drops too
    sx, sy = F.scale(fx, x), F.scale(fy, y)
    assert _bits(sx.terms) == _bits(_dict_and_sort([(fx * c, a) for c, a in x.terms]))
    assert _bits(sy.terms) == _bits(_dict_and_sort([(fy * c, a) for c, a in y.terms]))
    for u, v in ((sx, sy), (sx, F.negate(sx)), (sx, F.negate(F.add(sx, sy)))):
        total = F.add(u, v)
        assert _bits(total.terms) == _bits(_dict_and_sort(u.terms + v.terms))
        assert total.is_zero == (not total.terms)
