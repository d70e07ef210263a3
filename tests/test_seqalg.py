"""Sequence-quotient machinery on Weyl generators: tail surrogate, polar factors, stability probes."""

import cmath
import math
import random

import numpy as np
import pytest

from conebraid import field as F
from conebraid import seqalg as SA
from conebraid.errors import RunError
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
    with pytest.raises(RunError, match="breaks its certified bound"):
        SA.limsup_norm(lying)
    with pytest.raises(RunError, match="bound must be a finite nonnegative real"):
        SA.SequenceElement(lambda n: weyl(X), float("inf"))
    with pytest.raises(RunError, match="indices start at 1"):
        SA.constant(weyl(X)).at(0)
    # a nan or infinite coefficient breaks every bound
    for bad in (math.nan, complex(0.0, math.nan), complex(math.inf, 0.0)):
        with pytest.raises(RunError, match="breaks its certified bound"):
            SA.SequenceElement(lambda n: weyl(X, bad), 1.0).at(1)


def test_subsequence_monotonicity():
    # checked once, at construction: images must be ints >= 1, strictly increasing in index order
    c = SA.constant(weyl(X, 0.5))
    assert SA.subsequence(c, {7: 7}).at(7) is c.at(7)
    # images are checked in index order, whatever order the dict lists them in
    assert SA.subsequence(c, {9: 40, 2: 10, 5: 20}).at(5) is c.at(20)
    for images in ({3: 7, 4: 6}, {3: 7, 4: 7}, {1: 5, 9: 2}, {1: 0}, {1: -3}, {1: 2.0}, {1: True}, {1: "2"}):
        with pytest.raises(RunError, match="strictly increasing"):
            SA.subsequence(c, images)


def test_subsequence_keeps_its_own_images():
    a, b = weyl(X, 0.5), weyl(Y, 0.5)
    s = SA.SequenceElement(lambda n: a if n < 100 else b, 0.5)
    images = {2: 50, 5: 60}
    sub = SA.subsequence(s, images)
    images[2] = 200
    images[9] = 300
    del images[5]
    assert sub.at(2) is a and sub.at(5) is a
    with pytest.raises(RunError, match="not defined at n=9"):
        sub.at(9)


def test_subsequence_is_undefined_off_its_window():
    sub = SA.subsequence(SA.constant(weyl(X)), {n: 2 * n for n in SA.SAMPLES})
    assert SA.equivalent(sub, SA.constant(weyl(X)))
    for n in (1, SA.TAIL_START, 41, 8193):
        with pytest.raises(RunError, match=f"not defined at n={n}"):
            sub.at(n)


def test_subsequence_stability_of_equivalence():
    drift = _seq(lambda n: 1.0 + 0.5**n)
    limit = SA.constant(weyl(X))
    assert SA.equivalent(drift, limit)
    assert SA.stability_probe(drift, limit, random.Random(1))
    assert not SA.stability_probe(drift, SA.constant(weyl(X, 1.0 + 1e-3)), random.Random(1))
    assert not SA.stability_probe(drift, SA.constant(weyl(Y)), random.Random(1))


def test_alternating_subsequences_separate():
    alt = SA.SequenceElement(lambda n: weyl(X) if n % 2 == 0 else weyl(Y), 1.0)
    even = SA.subsequence(alt, {n: 2 * n for n in SA.SAMPLES})
    odd = SA.subsequence(alt, {n: 2 * n + 1 for n in SA.SAMPLES})
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
    with pytest.raises(RunError, match="almost-unitary"):
        SA.polar_unitarize(SA.constant(weyl(X, 2.0)))
    # the precondition reads ||c|^2 - 1| at every tail sample, so one far entry refuses it
    with pytest.raises(RunError, match="almost-unitary"):
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
    with pytest.raises(RunError, match="needs unitary entries"):
        SA.adjoint_morphism(SA.constant(weyl(F.zero_vector(), 2.0)), weyl(X)).at(33)


def test_adjoint_alternating_is_unstable():
    u_alt = SA.SequenceElement(lambda n: weyl(Y if n % 2 == 0 else F.scale(2.0, Y)), 1.0)
    adj = SA.adjoint_morphism(u_alt, weyl(X))
    even = SA.subsequence(adj, {n: 2 * n for n in SA.SAMPLES})
    odd = SA.subsequence(adj, {n: 2 * n + 1 for n in SA.SAMPLES})
    assert not SA.equivalent(even, odd)


def _probe_maps(seed):
    """The images of the PROBE_MAPS subsequences a probe from Random(seed) builds."""
    maps = []
    subsequence = SA.subsequence

    def recording(s, images):
        maps.append(dict(images))
        return subsequence(s, images)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SA, "subsequence", recording)
        assert SA.stability_probe(SA.constant(weyl(X)), SA.constant(weyl(X)), random.Random(seed))
    return maps


@pytest.mark.parametrize("seed", [0, 5, 11, 123])
def test_stability_probe_maps_are_seeded_and_step_in_range(seed):
    maps = _probe_maps(seed)
    assert len(maps) == SA.PROBE_MAPS and maps == _probe_maps(seed)
    # each map is defined on SAMPLES alone, and from one sample index to the
    # next its image grows by between 1 and MAX_INDEX_STEP per index
    for images in maps:
        assert tuple(images) == SA.SAMPLES and all(type(m) is int for m in images.values())
        for (n0, m0), (n1, m1) in zip([(0, 0), *images.items()], images.items()):
            assert n1 - n0 <= m1 - m0 <= SA.MAX_INDEX_STEP * (n1 - n0)
    # every step of the first gap, the 33 indices up to SAMPLES[0], is a byte mapped into [1, MAX_INDEX_STEP]
    steps = random.Random(seed).randbytes(SA.SAMPLES[0]).translate(SA._STEPS)
    assert set(steps) <= set(range(1, SA.MAX_INDEX_STEP + 1)) and maps[0][SA.SAMPLES[0]] == sum(steps)
    # a uniform byte gives a uniform step
    assert sorted(SA._STEPS) == sorted(list(range(1, SA.MAX_INDEX_STEP + 1)) * (256 // SA.MAX_INDEX_STEP))


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
