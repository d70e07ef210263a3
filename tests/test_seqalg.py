"""Sequence-quotient machinery on Weyl generators: tail surrogate, polar factors, stability probes."""

import cmath
import math
import random

import numpy as np
import pytest

from conebraid import field as F
from conebraid import seqalg as SA
from conebraid.errors import DomainError, UsageError
from conebraid.weyl import WeylElement, weyl

# Two labels whose generators do not commute: sigma(X, Y) is about -0.69.
X = F.make_test_vector(amplitude=1.0, width=1.0, channel="h")
Y = F.translate(F.make_charge_vector(q=1.0, width=1.0), (0.0, 0.5, 0.0, 0.0))


def _seq(coeff, label=X, bound=None):
    """n -> coeff(n) W(label), certified by bound (default: the largest |coeff| over 1..10,000)."""
    if bound is None:
        bound = max(abs(coeff(n)) for n in range(1, 10_001))
    return SA.SequenceElement(lambda n: weyl(label, coeff(n)), bound)


def test_tail_samples_and_tolerance_are_fixed():
    samples = SA.SAMPLES
    assert samples == (33, 34, 35, 36, 37, 38, 39, 40, 64, 128, 256, 512, 1024, 2048, 4096, 8192)
    assert SA.NULL_TOLERANCE == 1e-6
    assert all(n > SA.TAIL_START for n in samples)
    assert list(samples) == sorted(set(samples))
    # both parities appear, and the far end grows geometrically
    assert {n % 2 for n in samples} == {0, 1}
    assert samples[-1] == SA.TAIL_START * 2 ** (len(samples) // 2)


def test_limsup_norm_examples():
    assert SA.limsup_norm(SA.constant(weyl(X, 1.5j))) == 1.5
    alt = _seq(lambda n: 1.0 if n % 2 == 0 else 2.0)
    assert SA.limsup_norm(alt) == 2.0
    inv = _seq(lambda n: 1.0 / n)
    assert SA.limsup_norm(inv) <= 1.0 / SA.TAIL_START
    # against a second sequence it is the largest weyl.distance: |c_s - c_t|
    # on equal labels, |c_s| + |c_t| on unequal ones
    assert SA.limsup_norm(alt, SA.constant(weyl(X))) == 1.0
    assert SA.limsup_norm(alt, SA.constant(weyl(Y))) == 3.0


def test_is_null_examples():
    assert SA.is_null(SA.constant(weyl(X, 0.0)))
    assert not SA.is_null(SA.constant(weyl(X)))
    assert not SA.is_null(_seq(lambda n: 1.0 / n))
    # an index shift scaled by the norm pushes the tail strictly under tolerance
    shift = math.ceil(1.0 / SA.NULL_TOLERANCE)
    assert SA.is_null(_seq(lambda n: 1.0 / (n + shift), bound=1.0))


def test_bound_certification():
    lying = SA.SequenceElement(lambda n: weyl(X, n), 1.0)
    with pytest.raises(UsageError):
        SA.limsup_norm(lying)
    with pytest.raises(UsageError):
        SA.SequenceElement(lambda n: weyl(X), float("inf"))
    with pytest.raises(UsageError):
        SA.constant(weyl(X)).at(0)
    # a nan or infinite coefficient breaks every bound
    for bad in (math.nan, complex(0.0, math.nan), complex(math.inf, 0.0)):
        with pytest.raises(UsageError):
            SA.SequenceElement(lambda n: weyl(X, bad), 1.0).at(1)


def test_subsequence_monotonicity():
    a = weyl(X, 0.5)
    c = SA.constant(a)
    assert SA.subsequence(c, lambda n: n).at(7) is a
    bad = SA.subsequence(c, lambda n: 10 - n)
    bad.at(3)
    with pytest.raises(UsageError):
        bad.at(4)
    with pytest.raises(UsageError):
        SA.subsequence(c, lambda n: 0).at(1)


def test_subsequence_violation_between_distant_evaluations():
    # 9 maps below the images of 2 and 5, and neither was evaluated just
    # before 9; the check sees it through 9's sorted neighbour 5
    a = weyl(X, 0.5)
    c = SA.constant(a)
    images = {2: 50, 20: 200, 5: 60, 12: 120, 9: 40}
    sub = SA.subsequence(c, images.__getitem__)
    for n in (2, 20, 5, 12):
        sub.at(n)
    with pytest.raises(UsageError, match="not strictly increasing"):
        sub.at(9)
    # 3 maps above the image of its right neighbour 5, evaluated earlier
    images[3] = 70
    with pytest.raises(UsageError, match="not strictly increasing"):
        sub.at(3)
    # evaluated indices keep their images, and a consistent index still evaluates
    images[9] = 100
    assert sub.at(9) is a and sub.at(5) is a


def test_subsequence_stability_of_equivalence():
    drift = _seq(lambda n: 1.0 + 0.5**n)
    limit = SA.constant(weyl(X))
    assert SA.equivalent(drift, limit)
    assert SA.stability_probe(drift, limit, random.Random(1))
    assert not SA.stability_probe(drift, SA.constant(weyl(X, 1.0 + 1e-3)), random.Random(1))
    assert not SA.stability_probe(drift, SA.constant(weyl(Y)), random.Random(1))


def test_alternating_subsequences_separate():
    alt = SA.SequenceElement(lambda n: weyl(X) if n % 2 == 0 else weyl(Y), 1.0)
    even = SA.subsequence(alt, lambda n: 2 * n)
    odd = SA.subsequence(alt, lambda n: 2 * n + 1)
    assert SA.equivalent(even, SA.constant(weyl(X)))
    assert SA.equivalent(odd, SA.constant(weyl(Y)))
    assert not SA.equivalent(even, odd)
    # the whole sequence has two limit points, so it is equivalent to neither
    assert not SA.equivalent(alt, SA.constant(weyl(X)))


def test_null_ideal_law():
    null_s = _seq(lambda n: 0.5**n, label=Y)
    alt = SA.SequenceElement(lambda n: weyl(X, 1.0 if n % 2 == 0 else 2.0), 2.0)
    assert SA.is_null(null_s)
    assert SA.is_null(SA.seq_mul(null_s, alt))
    assert SA.is_null(SA.seq_mul(alt, null_s))
    # a product's certified bound is the product of the bounds
    assert SA.seq_mul(null_s, alt).bound == null_s.bound * alt.bound


def test_polar_hand_example():
    # entries before the tail need not be almost unitary: 2 W(X) early,
    # W(X) late, and both have the polar factor W(X)
    s = SA.SequenceElement(lambda n: weyl(X, 2.0 if n < 5 else 1.0), 2.0)
    u = SA.polar_unitarize(s)
    for n in (2, 100):
        assert u.at(n).label is X and u.at(n).coeff == 1.0


def test_polar_scalar_example():
    phase = cmath.exp(0.7j)
    # phase (1 + 1/n) read from index 2,000,000 on, where it is almost unitary
    shift = 2_000_000
    s = SA.SequenceElement(lambda n: weyl(X, phase * (1.0 + 1.0 / (n + shift))), 2.0)
    u = SA.polar_unitarize(s)
    assert abs(u.at(3_000_000 - shift).coeff - phase) <= 1e-15
    assert SA.equivalent(u, s)


def test_polar_rejects_non_almost_unitary():
    with pytest.raises(DomainError):
        SA.polar_unitarize(SA.constant(weyl(X, 2.0)))
    # the precondition reads ||c|^2 - 1| at every tail sample, so one far entry refuses it
    with pytest.raises(DomainError):
        SA.polar_unitarize(SA.SequenceElement(lambda n: weyl(X, 1.1 if n == 8192 else 1.0), 1.1))


def test_polar_corpus_default_policy():
    phase = cmath.exp(-2.1j)
    s = SA.SequenceElement(lambda n: weyl(Y, phase * (1.0 + 0.5**n)), 2.0)
    u = SA.polar_unitarize(s)
    defects = [abs(abs(u.at(n).coeff) ** 2 - 1.0) for n in SA.SAMPLES]
    assert max(defects) < 1e-12
    assert SA.equivalent(u, s)
    # Lipschitz-style comparison against the unitarity defect of the input
    for n in (1, 2, 3, *SA.SAMPLES[:6]):
        num = abs(u.at(n).coeff - s.at(n).coeff)
        den = abs(abs(s.at(n).coeff) ** 2 - 1.0)
        assert num <= 2.0 * den


def test_polar_singular_fallback():
    s = SA.SequenceElement(lambda n: weyl(X, 0.0 if n == 5 else 1j), 1.0)
    u = SA.polar_unitarize(s)
    assert u.at(5).label.is_zero and u.at(5).coeff == 1.0
    assert u.at(33).label is X and u.at(33).coeff == 1j
    # under the cutoff, not only at zero
    tiny = SA.SequenceElement(lambda n: weyl(X, 0.5 * SA.POLAR_SINGULAR_CUTOFF if n == 5 else 1.0), 1.0)
    assert SA.polar_unitarize(tiny).at(5).label.is_zero


def test_adjoint_morphism():
    # W(Y)* W(X) W(Y) = e^{i sigma(X, Y)} W(X), and the phase is far from 1
    assert abs(F.symplectic(X, Y)) > 0.5
    adj = SA.adjoint_morphism(SA.constant(weyl(Y, 1j)), weyl(X, 0.5))
    value = adj.at(50)
    assert value.label.terms == X.terms
    assert abs(value.coeff - 0.5 * cmath.exp(1j * F.symplectic(X, Y))) <= 1e-15
    center = SA.SequenceElement(lambda n: weyl(F.zero_vector(), cmath.exp(1j * n)), 1.0)
    assert abs(SA.adjoint_morphism(center, weyl(X)).at(40).coeff - 1.0) <= 1e-15
    with pytest.raises(DomainError):
        SA.adjoint_morphism(SA.constant(weyl(F.zero_vector(), 2.0)), weyl(X)).at(33)


def test_adjoint_alternating_is_unstable():
    u_alt = SA.SequenceElement(lambda n: weyl(Y if n % 2 == 0 else F.scale(2.0, Y)), 1.0)
    adj = SA.adjoint_morphism(u_alt, weyl(X))
    even = SA.subsequence(adj, lambda n: 2 * n)
    odd = SA.subsequence(adj, lambda n: 2 * n + 1)
    assert not SA.equivalent(even, odd)


@pytest.mark.parametrize("seed", [0, 5, 11, 123])
def test_random_increasing_map_is_read_order_free(seed, monkeypatch):
    # the steps come a byte block at a time, never from Random.choices, so a
    # map's values depend on the rng it was made from, not on the read order
    def no_choices(*args, **kwargs):
        raise AssertionError("Random.choices called")

    monkeypatch.setattr(random.Random, "choices", no_choices)
    first, second = SA.random_increasing_map(random.Random(seed)), SA.random_increasing_map(random.Random(seed))
    values = {n: first(n) for n in (300, 3, 41)}
    assert {n: second(n) for n in (3, 41, 300)} == values
    # past the first block too
    assert first(2 * SA._STEP_BLOCK) == second(2 * SA._STEP_BLOCK)
    images = [first(n) for n in range(2 * SA._STEP_BLOCK + 1)]
    assert images[0] == 0 and all(type(v) is int for v in images)
    steps = [b - a for a, b in zip(images, images[1:])]
    assert set(steps) <= set(range(1, SA.MAX_INDEX_STEP + 1))


def _svd_cases():
    # coefficients over 300 orders of magnitude, and a 2 x 2 unitary per case
    rng = np.random.default_rng(7)
    cases = []
    for k in range(48):
        c = complex(*rng.normal(size=2)) * 10.0 ** float(rng.integers(-150, 151) if k % 4 == 0 else 0)
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        cases.append((c, q))
    return cases


@pytest.mark.parametrize("k", range(48))
def test_matrix_norm_polar_and_smallest_singular_value_match_svd(k):
    # a generator c W(x) is c times a unitary in every representation; as
    # the matrix c q, LAPACK's svd gives both singular values |c| and the
    # polar factor u vh = (c/|c|) q.  seqalg's norm must match at 1e-14
    # relative, and its polar factor too unless |c| is below the cutoff
    c, q = _svd_cases()[k]
    u, s, vh = np.linalg.svd(c * q)
    size = SA.limsup_norm(SA.constant(weyl(X, c)))
    assert abs(size - s[0]) <= 1e-14 * s[0] and abs(size - s[1]) <= 1e-14 * s[0]
    # c at index 1, unit-modulus tail entries for the precondition
    s_c = SA.SequenceElement(lambda n: weyl(X, c if n == 1 else c / size), max(size, 1.0))
    factor = SA.polar_unitarize(s_c).at(1)
    if s[1] < SA.POLAR_SINGULAR_CUTOFF:
        assert factor.label.is_zero and factor.coeff == 1.0
    else:
        assert factor.label is X
        assert np.max(np.abs(factor.coeff * q - u @ vh)) <= 1e-14


def test_zero_generator_has_the_unit_as_polar_and_no_norm():
    zero = SA.constant(weyl(X, 0.0))
    assert SA.limsup_norm(zero) == 0.0
    unit = SA.polar_unitarize(SA.SequenceElement(lambda n: weyl(X, 0.0 if n == 1 else 1.0), 1.0)).at(1)
    assert unit.label.is_zero and unit.coeff == 1.0
    assert isinstance(unit, WeylElement)
