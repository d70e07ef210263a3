"""The package's construction on a second model, whose braiding is not a symmetry.

category and weyl read a vector only through its methods, so the light-ray
current of tests/light_ray.py runs through braiding_asymptotic,
tensor_mor, compose, star_mor and identity with no patching.  On the right
asymptopia the first charge moves by +R and the second by -R; on the left
one, the reverse.  For the co-centred pair below the exchange tends to
e^{+i q_a q_b / 2} on the right and e^{-i q_a q_b / 2} on the left, so the
double exchange is e^{i q_a q_b}, not 1, and the two asymptopias give
inverse braidings.  At R = 10 every erf has saturated to rounding.  The
seqalg suite's asymptopia reads the same: the exchange sequence at R_n on
either side is equivalent to that side's limit, and not to the other's.
Of the decay suite's residuals, only the implementation on the second
charge stays away from 0 here: it reads the monodromy.  On LongRange, the
light ray with a term that does not decay, two more stay away from 0 and
the exchange has no limit.
"""

import cmath
import itertools
import math

import mpmath
import pytest

from conebraid import category as C
from conebraid import seqalg as sa
from conebraid.suites import SEQALG_RADIUS
from conebraid.weyl import distance, weyl
from light_ray import LongRange, step

R = 10.0
A, B, Z = step(1.3, 0.0, 1.0), step(0.7, 0.0, 1.5), step(-0.4, 0.5, 1.2)
QQ = 1.3 * 0.7
SIDES = {"right": (R, -R), "left": (-R, R)}
SIGN = {"right": 1.0, "left": -1.0}


def _exchange(x, y, side: str) -> complex:
    return C.braiding_asymptotic(x, y, *SIDES[side])[0]


def _braiding(x, y, side: str) -> C.Intertwiner:
    return C.Intertwiner(x + y, y + x, _exchange(x, y, side), x.zero())


def test_symplectic_form_matches_quadrature():
    def density(f, x):
        return mpmath.fsum(k * mpmath.exp(-(((x - c) / w) ** 2)) / w for (c, w), k in f.terms) / mpmath.sqrt(mpmath.pi)

    def value(f, x):
        return mpmath.fsum(k * (1 + mpmath.erf((x - c) / w)) / 2 for (c, w), k in f.terms)

    vectors = [B, A + Z.translate(2.5), B.translate(-3.0) - B]
    for f, g in itertools.product(vectors, repeat=2):
        with mpmath.workdps(30):
            ref = mpmath.quad(lambda x: density(f, x) * value(g, x), [-mpmath.inf, 0, mpmath.inf])
        assert abs(f.symplectic(g) - float(ref)) < 1e-14
        assert abs(f.symplectic(g) + g.symplectic(f) - f.charge * g.charge) < 1e-14


@pytest.mark.parametrize("side", SIDES)
def test_exchange_reaches_its_limit(side):
    phase, closed, _ = C.braiding_asymptotic(A, B, *SIDES[side])
    assert abs(phase - cmath.exp(0.5j * SIGN[side] * QQ)) < 1e-12
    assert abs(phase - closed) < 1e-12


def test_braiding_is_not_a_symmetry():
    double = _exchange(A, B, "right") * _exchange(B, A, "right")
    assert abs(double - cmath.exp(1j * QQ)) < 1e-12
    assert abs(double - 1.0) > 0.8


def test_opposite_asymptopia_gives_the_inverse():
    assert abs(_exchange(B, A, "left") * _exchange(A, B, "right") - 1.0) < 1e-12


@pytest.mark.parametrize("side", SIDES)
def test_hexagons_and_naturality(side):
    lhs1 = _braiding(A + B, Z, side)
    rhs1 = C.compose(
        C.tensor_mor(_braiding(A, Z, side), C.identity(B)),
        C.tensor_mor(C.identity(A), _braiding(B, Z, side)),
    )
    lhs2 = _braiding(A, B + Z, side)
    rhs2 = C.compose(
        C.tensor_mor(C.identity(B), _braiding(A, Z, side)),
        C.tensor_mor(_braiding(A, B, side), C.identity(Z)),
    )
    assert distance(lhs1, rhs1) < 1e-12 and distance(lhs2, rhs2) < 1e-12
    r = C.rephase(C.hom_basis(A, A.translate(0.5)), cmath.exp(0.3j))
    s = C.star_mor(C.hom_basis(B, B.translate(-0.3)))
    lhs = C.compose(_braiding(r.target, s.target, side), C.tensor_mor(r, s))
    rhs = C.compose(C.tensor_mor(s, r), _braiding(r.source, s.source, side))
    assert distance(lhs, rhs) < 1e-12


def test_bi_asymptopia_read_by_seqalg():
    def eps(side):
        """The exchange phases eps_{R_n} on one side, at the seqalg suite's R_n = SEQALG_RADIUS n^4."""

        def exchange(n):
            radius = SIGN[side] * SEQALG_RADIUS * n**4
            return weyl(A.zero(), C.braiding_asymptotic(A, B, radius, -radius)[0])

        return sa.SequenceElement(exchange, 1.0)

    right, left = eps("right"), eps("left")
    assert sa.equivalent(right, sa.constant(weyl(A.zero(), cmath.exp(0.5j * QQ))))
    assert sa.equivalent(left, sa.constant(weyl(A.zero(), cmath.exp(-0.5j * QQ))))
    assert not sa.equivalent(right, left)
    assert sa.limsup_norm(right, left) == pytest.approx(2.0 * math.sin(QQ / 2.0), abs=1e-12)


@pytest.mark.parametrize("radius", [10.0, 40.0, 1e3])
def test_decay_rows_split_into_monodromy_and_hypothesis(radius):
    # the decay suite's five residuals, with its +-2 arrow shifts and the
    # second charge at -R.  The implementation on the charged B is the
    # monodromy |e^{i q_a q_b} - 1|, which is 0 only for a symmetric
    # braiding, as in 3+1 dimensions; every other form, the construction's
    # hypothesis, vanishes once the erfs saturate
    r = C.hom_basis(A, A.translate(2.0))
    s = C.hom_basis(B, B.translate(-2.0))
    s_plus = C.hom_basis(B, B.translate(2.0))
    assert C.implementation_residual(A, radius, B) == pytest.approx(abs(cmath.exp(1j * QQ) - 1.0), abs=1e-12)
    r_far, s_far = C.transported_arrow(r, radius), C.transported_arrow(s, -radius)
    hypothesis = [
        C.implementation_residual(A, radius, s.label),
        C.abelianness_residual(r_far.label, s_far.label),
        C.tensor_abelianness_residual(r_far, s_far),
        C.extension_residual(A, s_plus, radius, -radius),
    ]
    assert max(hypothesis) <= (1e-9 if radius < 40.0 else 0.0)


@pytest.mark.parametrize("side", SIDES)
def test_twist_and_balancing(side):
    # the twist theta_a = eps(a, a) is e^{+-i q_a^2 / 2}, not 1 as in 3+1
    # dimensions, and it balances the double exchange
    def theta(x):
        return _exchange(x, x, side)

    assert abs(theta(A) - cmath.exp(0.5j * SIGN[side] * 1.3**2)) < 1e-12
    balanced = theta(A) * theta(B) * _exchange(A, B, side) * _exchange(B, A, side)
    assert abs(theta(A + B) - balanced) < 1e-15
    assert abs(theta(-A) - theta(A)) < 1e-15


def test_long_range_model_breaks_two_decay_forms_and_the_limit():
    # lambda (q_f m_g - m_f q_g) does not decay with distance.  With the decay
    # suite's +-2 arrow shifts, the transported implementation and the tensor
    # ordering stick at 2 sin(lambda q_a q_b) and 2 sin(2 lambda q_a q_b) at
    # every R, and eps_R turns by e^{-2i lambda q_a q_b R}, so it has no
    # limit; abelianness and extension, on chargeless labels alone, vanish
    a, b = LongRange(A.terms), LongRange(B.terms)
    lam = LongRange.LAMBDA
    r = C.hom_basis(a, a.translate(2.0))
    s = C.hom_basis(b, b.translate(-2.0))
    s_plus = C.hom_basis(b, b.translate(2.0))
    eps = []
    for radius in (10.0, 40.0, 160.0, 640.0):
        r_far, s_far = C.transported_arrow(r, radius), C.transported_arrow(s, -radius)
        assert C.implementation_residual(a, radius, s.label) == pytest.approx(2.0 * math.sin(lam * QQ), abs=1e-12)
        assert C.tensor_abelianness_residual(r_far, s_far) == pytest.approx(2.0 * math.sin(2.0 * lam * QQ), abs=1e-12)
        abelianness = C.abelianness_residual(r_far.label, s_far.label)
        assert max(abelianness, C.extension_residual(a, s_plus, radius, -radius)) <= (1e-9 if radius < 40.0 else 0.0)
        eps.append(C.braiding_asymptotic(a, b, radius, -radius)[0])
        assert abs(eps[-1] - cmath.exp(0.5j * QQ - 2j * lam * QQ * radius)) < 1e-12
    assert min(abs(p - q) for p, q in zip(eps, eps[1:])) > 0.3


def _second_charge_follows(braiding_asymptotic):
    def mutant(a, b, ta, tb, rng=None):
        return braiding_asymptotic(a, b, ta, ta, rng)

    return mutant


def _tensor_without_source_action(tensor_mor):
    def mutant(r, s):
        coeff = r.coeff * s.coeff * cmath.exp(0.5j * r.label.symplectic(s.label))
        return C.Intertwiner(r.source + s.source, r.target + s.target, coeff, r.label + s.label)

    return mutant


@pytest.mark.parametrize(
    "attribute, mutant",
    [("braiding_asymptotic", _second_charge_follows), ("tensor_mor", _tensor_without_source_action)],
)
def test_broken_construction_misses_the_limit(monkeypatch, attribute, mutant):
    monkeypatch.setattr(C, attribute, mutant(getattr(C, attribute)))
    assert abs(_exchange(A, B, "right") - cmath.exp(0.5j * QQ)) > 0.1
