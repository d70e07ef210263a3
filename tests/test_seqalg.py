"""Sequence-quotient machinery: tail surrogate, polar factors, stability probes."""

import math
import random

import numpy as np
import pytest

from conebraid import seqalg as SA
from conebraid.errors import DomainError, UsageError


M = SA.matrix  # a numpy 2 x 2 array as a seqalg matrix


@pytest.fixture(scope="module")
def mats():
    # numpy arrays, for the tests' own arithmetic; M() makes them matrices
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    p = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    p /= SA.norm(M(p))
    a = np.array([[1.0, 0.5], [0.0, 1.0]], dtype=complex)
    return a, q, p


def test_tail_samples_and_tolerance_are_fixed():
    samples = SA.SAMPLES
    assert samples == (33, 34, 35, 36, 37, 38, 39, 40, 64, 128, 256, 512, 1024, 2048, 4096, 8192)
    assert SA.NULL_TOLERANCE == 1e-6
    assert all(n > SA.TAIL_START for n in samples)
    assert list(samples) == sorted(set(samples))
    # both parities appear, and the far end grows geometrically
    assert {n % 2 for n in samples} == {0, 1}
    assert samples[-1] == SA.TAIL_START * 2 ** (len(samples) // 2)


def test_limsup_norm_examples(mats):
    a, _, _ = mats
    assert SA.limsup_norm(SA.constant(M(a))) == SA.norm(M(a))
    alt = SA.SequenceElement(lambda n: M(a if n % 2 == 0 else 2 * a), 2 * SA.norm(M(a)))
    assert abs(SA.limsup_norm(alt) - 2 * SA.norm(M(a))) < 1e-14
    inv = SA.SequenceElement(lambda n: M(a / n), SA.norm(M(a)))
    assert SA.limsup_norm(inv) <= SA.norm(M(a)) / SA.TAIL_START


def test_is_null_examples(mats):
    a, _, _ = mats
    assert SA.is_null(SA.constant(M(np.zeros_like(a))))
    assert not SA.is_null(SA.constant(M(a)))
    inv = SA.SequenceElement(lambda n: M(a / n), SA.norm(M(a)))
    assert not SA.is_null(inv)
    # an index shift scaled by the norm pushes the tail strictly under tolerance
    shift = math.ceil(SA.norm(M(a)) / SA.NULL_TOLERANCE)
    assert SA.is_null(SA.SequenceElement(lambda n: M(a / (n + shift)), SA.norm(M(a))))


def test_bound_certification(mats):
    a, _, _ = mats
    lying = SA.SequenceElement(lambda n: M(a * n), SA.norm(M(a)))
    with pytest.raises(UsageError):
        SA.limsup_norm(lying)
    with pytest.raises(UsageError):
        SA.SequenceElement(lambda n: M(a), float("inf"))
    with pytest.raises(UsageError):
        SA.constant(M(a)).at(0)
    # a nan entry breaks every bound, even beside zeros
    for bad in (a * math.nan, np.array([[0.0, math.nan], [0.0, 0.0]])):
        with pytest.raises(UsageError):
            SA.SequenceElement(lambda n: M(bad), 1.0).at(1)


def test_subsequence_monotonicity(mats):
    a, _, _ = mats
    c = SA.constant(M(a))
    assert np.allclose(SA.subsequence(c, lambda n: n).at(7), a)
    bad = SA.subsequence(c, lambda n: 10 - n)
    bad.at(3)
    with pytest.raises(UsageError):
        bad.at(4)
    with pytest.raises(UsageError):
        SA.subsequence(c, lambda n: 0).at(1)


def test_subsequence_violation_between_distant_evaluations(mats):
    # 9 maps below the images of 2 and 5, and neither was evaluated just
    # before 9; the check sees it through 9's sorted neighbour 5
    a, _, _ = mats
    c = SA.constant(M(a))
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
    assert np.allclose(sub.at(9), a) and np.allclose(sub.at(5), a)


def test_subsequence_stability_of_equivalence(mats):
    a, _, p = mats
    drift = SA.SequenceElement(lambda n: M(a + 0.5**n * p), SA.norm(M(a)) + 1.0)
    limit = SA.constant(M(a))
    assert SA.equivalent(drift, limit)
    assert SA.stability_probe(drift, limit, random.Random(1))
    assert not SA.stability_probe(drift, SA.constant(M(a + p)), random.Random(1))


def test_alternating_subsequences_separate(mats):
    a, _, _ = mats
    b = a + np.array([[0.0, 0.0], [0.0, 1.0]])
    alt = SA.SequenceElement(lambda n: M(a if n % 2 == 0 else b), 4.0)
    even = SA.subsequence(alt, lambda n: 2 * n)
    odd = SA.subsequence(alt, lambda n: 2 * n + 1)
    assert SA.equivalent(even, SA.constant(M(a)))
    assert SA.equivalent(odd, SA.constant(M(b)))
    assert not SA.equivalent(even, odd)


def test_null_ideal_law(mats):
    a, _, p = mats
    null_s = SA.SequenceElement(lambda n: M(0.5**n * p), 1.0)
    alt = SA.SequenceElement(lambda n: M(a if n % 2 == 0 else 2 * a), 2 * SA.norm(M(a)))
    assert SA.is_null(null_s)
    assert SA.is_null(SA.seq_mul(null_s, alt))
    assert SA.is_null(SA.seq_mul(alt, null_s))
    assert SA.is_null(SA.seq_star(null_s))


def test_polar_hand_example():
    early = np.array([[0.0, 2.0], [1.0, 0.0]], dtype=complex)
    late = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    s = SA.SequenceElement(lambda n: M(early if n < 5 else late), 2.0)
    u = SA.polar_unitarize(s)
    # B |B|^{-1} = [[0,1],[1,0]] for both branches (|B| = diag(1, 2) early)
    assert np.allclose(u.at(2), late)
    assert np.allclose(u.at(100), late)
    assert SA.unitarity_defect(u.at(2)) < 1e-12


def test_polar_scalar_example():
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    # q (1 + 1/n) read from index 2,000,000 on, where it is almost unitary
    shift = 2_000_000
    s = SA.SequenceElement(lambda n: M(q * (1.0 + 1.0 / (n + shift))), 2.0)
    u = SA.polar_unitarize(s)
    assert np.allclose(u.at(3_000_000 - shift), q)
    assert SA.is_null(SA.seq_sub(u, s))


def test_polar_rejects_non_almost_unitary():
    with pytest.raises(DomainError):
        SA.polar_unitarize(SA.constant(M(2.0 * np.eye(2))))


def test_polar_corpus_default_policy(mats):
    _, q, p = mats
    s = SA.SequenceElement(lambda n: M(q + 0.5**n * p), 2.0)
    u = SA.polar_unitarize(s)
    defects = [SA.unitarity_defect(u.at(n)) for n in SA.SAMPLES]
    assert max(defects) < 1e-12
    assert SA.is_null(SA.seq_sub(u, s))
    # Lipschitz-style comparison against the unitarity defect of the input
    for n in SA.SAMPLES[:6]:
        num = SA.norm(SA.sub(u.at(n), s.at(n)))
        den = SA.unitarity_defect(s.at(n))
        assert num <= 2.0 * den


def test_polar_singular_fallback(mats):
    _, q, _ = mats
    s = SA.SequenceElement(
        lambda n: M(np.zeros((2, 2)) if n == 5 else q), 1.0
    )
    u = SA.polar_unitarize(s)
    assert np.allclose(u.at(5), np.eye(2))
    assert np.allclose(u.at(33), q)


def test_adjoint_morphism(mats):
    a, q, _ = mats
    adj = SA.adjoint_morphism(SA.constant(M(q)), M(a))
    assert np.allclose(adj.at(50), q.conj().T @ a @ q)
    center = SA.SequenceElement(lambda n: M(np.exp(1j * n) * np.eye(2)), 1.0)
    assert np.allclose(SA.adjoint_morphism(center, M(a)).at(40), a)
    with pytest.raises(DomainError):
        SA.adjoint_morphism(SA.constant(M(2.0 * np.eye(2))), M(a)).at(33)


def test_adjoint_alternating_is_unstable(mats):
    a, q, _ = mats
    rot = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)
    u_alt = SA.SequenceElement(lambda n: M(q if n % 2 == 0 else rot @ q), 1.0)
    adj = SA.adjoint_morphism(u_alt, M(a))
    even = SA.subsequence(adj, lambda n: 2 * n)
    odd = SA.subsequence(adj, lambda n: 2 * n + 1)
    assert not SA.equivalent(even, odd)


def test_matrix_algebra_guards():
    # seqalg matrices are 2 x 2 only: other shapes are refused where they enter
    for rows in (np.eye(3), np.eye(1), [[1.0, 0.0], [0.0]], [[1.0, 0.0]]):
        with pytest.raises(UsageError):
            SA.matrix(rows)
    assert SA.matrix(np.eye(2)) == SA.UNIT


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
    rng = np.random.default_rng(7)
    cases = []
    for k in range(40):
        cases.append(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    cases.append(3.0 * q)  # equal singular values
    cases.append(q * (1.0 + np.array([[1e-9, 0.0], [0.0, 0.0]])))  # nearly equal
    u, v = rng.normal(size=2) + 1j * rng.normal(size=2), rng.normal(size=2) + 1j * rng.normal(size=2)
    cases.append(np.outer(u, v.conj()))  # rank 1
    cases.append(np.array([[0.0, 2.0], [0.0, 0.0]]))  # rank 1, nilpotent
    cases.extend([1e-150 * cases[0], 1e150 * cases[1], 1e-150 * cases[-2], 1e150 * cases[40]])
    return cases


@pytest.mark.parametrize("k", range(48))
def test_matrix_norm_polar_and_smallest_singular_value_match_svd(k):
    # the closed forms against LAPACK's svd at 1e-14 relative: s_max, s_min
    # (relative to s_max), and the polar factor u vh unless s_min / s_max is
    # below the polar cutoff's 1e-8
    x = _svd_cases()[k]
    m = M(x)
    u, s, vh = np.linalg.svd(x)
    assert abs(SA.norm(m) - s[0]) <= 1e-14 * s[0]
    polar, smallest = SA.polar(m)
    assert abs(smallest - s[1]) <= 1e-14 * s[0]
    if s[1] > 1e-8 * s[0]:
        assert np.max(np.abs(np.array(polar) - u @ vh)) <= 1e-14
        assert SA.unitarity_defect(polar) <= 1e-14
    # products and adjoints are numpy's, entry by entry
    y = _svd_cases()[(k + 1) % 48]
    assert np.allclose(SA.mul(m, M(y)), x @ y, rtol=1e-15, atol=0.0)
    assert np.array_equal(np.array(SA.star(m)), x.conj().T)


def test_zero_matrix_has_the_unit_as_polar_and_no_norm():
    zero = M(np.zeros((2, 2)))
    assert SA.norm(zero) == 0.0
    assert SA.polar(zero) == (SA.UNIT, 0.0)
