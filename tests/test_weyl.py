"""Weyl generator product, star, label identity, vacuum functional, and gram positivity checks."""

import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conebraid import category as C
from conebraid import field as F
from conebraid import weyl as W
from conebraid.errors import RunError
from conebraid.field import RadialPolynomial


@pytest.fixture(scope="module")
def pair():
    return F.make_charge_vector(q=1.0, width=1.0), F.make_test_vector(1.0, 1.0)


def test_commutator_norm_reference(pair):
    gam, dlt = pair
    # sigma = 1/sqrt(2), so |e^{i sigma} - 1| = 2 sin(1/(2 sqrt 2))
    want = 2.0 * math.sin(0.5 / math.sqrt(2.0))
    got = W.commutator_norm(gam, dlt)
    assert abs(got - want) < 1e-12
    assert abs(got - 0.6924671875610711) < 1e-12


def test_commutator_norm_maximal_at_sigma_pi(pair):
    gam, dlt = pair
    scaled = F.scale(math.pi * math.sqrt(2.0), gam)
    assert abs(F.symplectic(scaled, dlt) - math.pi) < 1e-12
    assert abs(W.commutator_norm(scaled, dlt) - 2.0) < 1e-12


def test_generators_are_unitary(pair):
    _, dlt = pair
    a = W.weyl(F.translate(dlt, (0.0, 1.0, 0.0, 0.0)))
    p = W.weyl_mul(W.star(a), a)
    assert p.label.is_zero
    assert abs(p.coeff - 1.0) < 1e-14


def test_exchange_relation(pair):
    gam, dlt = pair
    y = F.translate(dlt, (0.0, 2.0, 0.0, 0.0))
    ab = W.weyl_mul(W.weyl(gam), W.weyl(y))
    ba = W.weyl_mul(W.weyl(y), W.weyl(gam))
    assert W.label_id(ab.label) == W.label_id(ba.label)
    ratio = ab.coeff / ba.coeff
    assert abs(ratio - np.exp(1j * F.symplectic(gam, y))) < 1e-14


def test_product_associative_and_star_antimultiplicative(pair):
    gam, dlt = pair
    e1 = W.weyl(F.translate(dlt, (0, 1, 0, 0)), 0.5j)
    e2 = W.weyl(F.add(gam, F.translate(dlt, (0, 0, 1, 0))), -1.5)
    e3 = W.weyl(F.translate(dlt, (0.5, 0, 0, 1)), 0.25 + 1j)
    left = W.weyl_mul(W.weyl_mul(e1, e2), e3)
    right = W.weyl_mul(e1, W.weyl_mul(e2, e3))
    assert W.label_id(left.label) == W.label_id(right.label)
    assert abs(left.coeff - right.coeff) < 1e-12
    # the product carries the cocycle of each pair of factors
    sig = F.symplectic
    x1, x2, x3 = e1.label, e2.label, e3.label
    want = 0.5j * -1.5 * (0.25 + 1j) * np.exp(0.5j * (sig(x1, x2) + sig(x1, x3) + sig(x2, x3)))
    assert abs(left.coeff - want) < 1e-12
    s1 = W.star(W.weyl_mul(e1, e2))
    s2 = W.weyl_mul(W.star(e2), W.star(e1))
    assert W.label_id(s1.label) == W.label_id(s2.label) == W.label_id(F.negate(F.add(x1, x2)))
    assert abs(s1.coeff - s2.coeff) < 1e-12
    # star is an involution, bit for bit
    twice = W.star(W.star(e2))
    assert twice.coeff == e2.coeff and twice.label.terms == e2.label.terms


def test_label_identity_is_exact(pair):
    _, dlt = pair
    # 0.1 + 0.2 rounds to 0.30000000000000004, so the two routes give one offset
    jitter = F.translate(F.translate(dlt, (0.0, 0.1, 0.0, 0.0)), (0.0, 0.2, 0.0, 0.0))
    direct = F.translate(dlt, (0.0, 0.30000000000000004, 0.0, 0.0))
    assert W.label_id(jitter) == W.label_id(direct)
    # offsets and coefficients one ulp apart are distinct labels
    ulp = F.translate(dlt, (0.0, math.nextafter(0.30000000000000004, 1.0), 0.0, 0.0))
    assert W.label_id(ulp) != W.label_id(direct)
    assert W.label_id(F.scale(math.nextafter(1.0, 2.0), direct)) != W.label_id(direct)
    other = F.translate(dlt, (0.0, 0.3001, 0.0, 0.0))
    assert W.label_id(other) != W.label_id(direct)
    # distance is 0 between equal coefficients on an equal label, built separately,
    # and |c_a| + |c_b| on any other label
    element = W.weyl(direct, 2.0j)
    assert W.distance(element, W.weyl(jitter, 2.0j)) == 0.0
    assert W.distance(element, W.weyl(direct, 2.0j)) == 0.0
    assert W.distance(element, W.weyl(ulp, 2.0j)) == 4.0
    assert W.distance(element, W.weyl(other, 2.0j)) == 4.0
    assert W.distance(W.weyl(ulp, -1.0), W.weyl(ulp, -1.0)) == 0.0
    assert W.distance(W.weyl(ulp, -1.0), W.weyl(direct, -1.0)) == 2.0
    # a generator times the star of an equal label is a multiple of the unit
    back = W.weyl_mul(W.weyl(jitter), W.star(W.weyl(direct)))
    assert back.label.is_zero and abs(back.coeff - 1.0) < 1e-14
    assert not W.weyl_mul(W.weyl(ulp), W.star(W.weyl(direct))).label.is_zero


def test_distance_is_the_norm_of_the_difference(pair):
    # |c_a - c_b| on equal labels, |c_a| + |c_b| on unequal ones, either way round
    gam, dlt = pair
    a = W.weyl(dlt, 3.0 + 4.0j)
    same = W.weyl(F.make_test_vector(1.0, 1.0), 1.0 + 1.0j)
    other = W.weyl(gam, -1.0j)
    assert same.label is not dlt and W.label_id(same.label) == W.label_id(dlt)
    assert W.distance(a, same) == W.distance(same, a) == abs(2.0 + 3.0j)
    assert W.distance(a, other) == W.distance(other, a) == 6.0
    assert W.distance(a, a) == 0.0
    assert type(W.distance(a, same)) is float and type(W.distance(a, other)) is float


def test_conjugation_by_generator_rephases(pair):
    gam, dlt = pair
    # W(u)* W(y) W(u) = e^{-i sigma(u, y)} W(y)
    u = W.weyl(gam)
    y = F.translate(dlt, (0.0, 0.0, 0.0, 3.0))
    out = W.weyl_mul(W.weyl_mul(W.star(u), W.weyl(y)), u)
    assert W.label_id(out.label) == W.label_id(y)
    assert abs(out.coeff - np.exp(-1j * F.symplectic(gam, y))) < 1e-13


def test_gram_matrix_values_and_positivity(pair):
    gam, dlt = pair
    g2 = W.gram_matrix([F.zero_vector(), dlt])
    assert type(g2) is list and all(type(v) is complex for row in g2 for v in row)
    assert abs(g2[0][0] - 1.0) < 1e-14
    assert abs(g2[0][1] - math.exp(-math.pi / 2.0)) < 1e-12
    fam = [
        F.zero_vector(),
        dlt,
        F.translate(dlt, (0.0, 1.5, 0.0, 0.0)),
        F.scale(0.5, F.translate(dlt, (0.3, 0.0, 0.0, 2.0))),
    ]
    g4 = np.array(W.gram_matrix(fam))
    assert np.array_equal(g4, g4.conj().T)
    assert np.linalg.eigvalsh(g4).min() > -1e-12
    # chargeless differences of translated charge vectors are admissible labels
    lab1 = C.hom_basis(gam, F.translate(gam, (0.0, 0.0, 0.0, 3.0))).label
    lab2 = C.hom_basis(gam, F.translate(gam, (0.0, 0.0, 0.0, 6.0))).label
    g3 = W.gram_matrix([F.zero_vector(), lab1, lab2])
    assert np.linalg.eigvalsh(g3).min() > -1e-12


def test_gram_matrix_guard(pair):
    _, dlt = pair
    labels = [F.scale(0.1 * (k + 1), dlt) for k in range(17)]
    with pytest.raises(RunError, match="limited to 16 labels"):
        W.gram_matrix(labels)
    assert W.gram_matrix([]) == []
    with pytest.raises(RunError, match="empty matrix"):
        W.min_eigenvalue([])


def _random_hermitian(rng, n, kind):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    if kind == "psd":
        return a @ a.conj().T / n
    if kind == "near_identity":
        return np.eye(n) + 1e-9 * (a + a.conj().T)
    return (a + a.conj().T) / 2.0


@pytest.mark.parametrize("kind", ["indefinite", "psd", "near_identity"])
@pytest.mark.parametrize("n", [1, 2, 3, 8, 16])
def test_min_eigenvalue_matches_eigvalsh(n, kind):
    # cyclic Jacobi on the real symmetric embedding against LAPACK, at 1e-13
    # relative to the matrix norm
    rng = np.random.default_rng(100 * n + len(kind))
    for _ in range(5):
        h = _random_hermitian(rng, n, kind)
        got = W.min_eigenvalue(h.tolist())
        assert type(got) is float
        assert abs(got - np.linalg.eigvalsh(h).min()) <= 1e-13 * max(1.0, np.linalg.norm(h, 2))


def test_min_eigenvalue_of_gram_matrices(pair):
    # the laws suite's Gram matrices: 8 labels, smallest eigenvalue from 1e-1
    # down to a rank-deficient family's rounding level
    _, dlt = pair
    rng = np.random.default_rng(3)
    for repeat in (False, True):
        labels = [F.translate(dlt, (0.0, *rng.uniform(-2.0, 2.0, size=3))) for _ in range(8)]
        if repeat:
            labels[7] = labels[0]
        g = W.gram_matrix(labels)
        assert abs(W.min_eigenvalue(g) - np.linalg.eigvalsh(np.array(g)).min()) <= 1e-13


def test_bump_labels_follow_their_shape():
    # shapes f and 2 f: unequal atoms must stay unequal labels
    first = F.make_bump_vector(RadialPolynomial((1.0, -2.0, 1.0), 1.0))
    second = F.make_bump_vector(RadialPolynomial((2.0, -4.0, 2.0), 1.0))
    assert first.terms != second.terms
    assert W.label_id(first) != W.label_id(second)
    assert W.distance(W.weyl(first), W.weyl(second)) == 2.0
    # vectors built separately from equal shapes share one atom and one label
    again = F.make_bump_vector(RadialPolynomial((1.0, -2.0, 1.0), 1.0))
    assert again.terms == first.terms
    assert W.label_id(again) == W.label_id(first)
    assert W.distance(W.weyl(first, -1.0), W.weyl(again, -1.0)) == 0.0


@lru_cache(maxsize=1)
def _label_pool():
    """Gaussian, gauss2 and bump vectors (both shapes, two supports), their scales and translations.

    The pool is built twice over, so equal vectors also occur as separately built objects.
    """
    pool = []
    for _ in range(2):
        base = [
            F.make_charge_vector(q=1.0, width=1.0),
            F.make_charge_vector(q=1.0, width=1.3),
            F.make_test_vector(1.0, 1.0, channel="h"),
            F.make_test_vector(1.0, 1.0, channel="g"),
        ]
        base += [
            F.make_bump_vector(RadialPolynomial(coeffs, support), channel=channel)
            for coeffs in ((1.0,), (1.0, -2.0, 1.0))
            for support in (1.0, 2.5)
            for channel in ("g", "h")
        ]
        for v in base:
            pool += [
                v,
                F.scale(-0.5, v),
                F.translate(v, (0.0, 1.0, 0.0, 0.0)),
                F.translate(v, (0.5, 0.0, 0.0, 2.0)),
                F.add(v, F.translate(base[0], (0.0, 0.0, 3.0, 0.0))),
            ]
    return tuple(pool)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.data())
def test_one_label_identity(data):
    # equal terms and equal Weyl labels are the same relation on every pair of the pool
    pool = _label_pool()
    n = len(pool)
    i = data.draw(st.integers(0, n - 1))
    # half the draws take the separately built twin of x
    j = data.draw(st.one_of(st.just((i + n // 2) % n), st.integers(0, n - 1)))
    x, y = pool[i], pool[j]
    assert (x.terms == y.terms) == (W.label_id(x) == W.label_id(y))


@pytest.mark.parametrize("coeffs", [(1.0,), (1.0, -2.0, 1.0)], ids=["indicator", "smooth"])
@pytest.mark.parametrize("support", [1.0, 2.5])
def test_bumps_of_equal_shape_cancel(coeffs, support):
    # two bump vectors built separately from equal shapes subtract to the zero vector
    x = F.make_bump_vector(RadialPolynomial(coeffs, support))
    y = F.make_bump_vector(RadialPolynomial(coeffs, support))
    diff = F.subtract(x, y)
    assert diff.is_zero and diff.charge == 0.0
    assert W.weyl_mul(W.weyl(x), W.star(W.weyl(y))).label.is_zero
