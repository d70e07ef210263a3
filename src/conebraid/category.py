"""Objects, intertwiners, braiding, and cone asymptotics.

An object is a charge automorphism gamma_f(W(x)) = e^{i sigma(f, x)} W(x),
which its field data f fixes, so an object is its FieldVector: the tensor
product of two objects is their composition, whose data is field.add of
theirs, and moving an object is field.translate.  Objects are equal when
their data are (weyl.label_id); the charge separates inequivalent objects,
and hom-sets between equal charges are one dimensional, spanned by the
Weyl generator of the data difference.  An Intertwiner is therefore a
weyl.WeylElement, coefficient times label, with a source and a target
vector.  Composition is the generator product and the adjoint is the
generator star, both taken from weyl; the tensor product of arrows is R
times the source automorphism applied to S,

    compose:  coeff_S coeff_R e^{+i sigma(y_S, y_R)/2}
    tensor:   coeff_R coeff_S e^{i sigma(gamma_R, y_S)} e^{+i sigma(y_R, y_S)/2}

with y the arrow labels and gamma_R the source data of the left factor.
Everything is scalar: the object monoid is abelian, so braiding arrows are
pure phases on a zero label.

The asymptotic braiding transports the first charge along a spacelike
cone to one radius, the second to the antipode, and evaluates the
transported exchange through the categorical operations.
``braiding_asymptotic`` is the one braiding routine, one radius per call:
the braiding suite calls it at each configured radius on the configured
cone, and the homotopy suite at the largest radius on each cone of its
chain.  Next to the categorical phase it returns the closed-form phase

    exp(i [sigma(gamma, delta_b - delta) - sigma(delta_b, gamma_a - gamma)])

and the braiding suite reports their distance as a row (both sides use the
same symplectic evaluator, so the row guards the category algebra, not the
quadrature).  A call with an rng also returns the exchange of the same
transport arrows with their free phases redrawn.  Residual
helpers quantify the finite-radius deviations: implementation defect of a
translated charge on a fixed observable, commutator decay of transported
intertwiner labels, ordering defect of transported tensor products, and
cone independence of the extension; all but the ordering defect, which
judges tensor_mor, are commutator norms.
"""

from __future__ import annotations

import cmath
import math
from typing import TYPE_CHECKING

from .errors import ConfigError, InternalError, UsageError
from .field import FieldVector, Frozen, add, intertwiner_label, subtract, symplectic, translate, zero_vector
from .weyl import WeylElement, _product, commutator_norm, label_id, star, weyl, weyl_mul

if TYPE_CHECKING:
    import random


class ConeSpec(Frozen):
    """Open spacelike cone of spatial directions with a translation profile.

    Translations at a given radius move by radius times the axis, with an
    optional time component kappa * radius**beta; beta < 1 keeps the path
    asymptotically spacelike, and ``translation`` refuses a timelike radius.
    The one cone check: a config is validated by building its cone, so the
    messages speak in the config's keys and units.  Cones compare by identity.
    """

    def __init__(self, axis, half_angle: float, time_slope: float = 0.0, time_exponent: float = 0.0):
        ax = tuple(map(float, axis))
        norm = math.hypot(*ax)
        if len(ax) != 3 or not math.isfinite(norm) or norm == 0.0:
            raise ConfigError("cone axis must be a nonzero finite vector")
        if not (0.0 < half_angle < math.pi / 2.0):
            raise ConfigError("cone half angle must lie strictly between 0 and 90 degrees")
        if time_slope < 0.0 or not (0.0 <= time_exponent < 1.0):
            raise ConfigError("cone time_slope must be nonnegative and time_exponent in [0, 1)")
        self.__dict__.update(
            axis=tuple(c / norm for c in ax),
            half_angle=half_angle,
            time_slope=time_slope,
            time_exponent=time_exponent,
        )

    def opposite(self) -> "ConeSpec":
        ax = tuple(-c for c in self.axis)
        return ConeSpec(ax, self.half_angle, self.time_slope, self.time_exponent)

    def translation(self, radius: float) -> tuple[float, float, float, float]:
        if radius <= 0:
            raise ConfigError("cone translation radius must be positive")
        a0 = self.time_slope * radius**self.time_exponent if self.time_slope else 0.0
        if not abs(a0) < radius:
            raise ConfigError(
                f"cone transport at radius {radius:g} is not spacelike: "
                f"|time_slope * R^time_exponent| = {abs(a0):g} >= R"
            )
        return (a0, radius * self.axis[0], radius * self.axis[1], radius * self.axis[2])


class Intertwiner(WeylElement):
    """The generator coeff * W(label) as an arrow from the object source to the object target."""

    def __init__(self, source: FieldVector, target: FieldVector, coeff, label: FieldVector):
        d = self.__dict__
        d["source"], d["target"], d["coeff"], d["label"] = source, target, coeff, label


def hom_basis(source: FieldVector, target: FieldVector) -> Intertwiner:
    """Unit basis arrow of the hom-set; intertwiner_label raises DomainError when the charges differ."""
    return Intertwiner(
        source=source,
        target=target,
        coeff=1.0 + 0.0j,
        label=intertwiner_label(source, target),
    )


def identity(obj: FieldVector) -> Intertwiner:
    return hom_basis(obj, obj)


def rephase(r: Intertwiner, z: complex) -> Intertwiner:
    if abs(abs(z) - 1.0) > 1e-12:
        raise UsageError("rephase factor must have unit modulus")
    return Intertwiner(source=r.source, target=r.target, coeff=z * r.coeff, label=r.label)


def compose(s: Intertwiner, r: Intertwiner) -> Intertwiner:
    """s after r; the coefficient picks up the cocycle of the label product."""
    if label_id(r.target) != label_id(s.source):
        raise UsageError("compose needs target of the right factor = source of the left")
    # weyl_mul's own product, so the braiding and decay paths never call weyl_mul
    return Intertwiner(r.source, s.target, *_product(s, r))


def star_mor(r: Intertwiner) -> Intertwiner:
    adjoint = star(r)
    return Intertwiner(r.target, r.source, adjoint.coeff, adjoint.label)


def tensor_mor(r: Intertwiner, s: Intertwiner) -> Intertwiner:
    """r tensor s = r composed with the source automorphism of r applied to s."""
    coeff = (
        r.coeff
        * s.coeff
        * cmath.exp(1j * symplectic(r.source, s.label))
        * cmath.exp(0.5j * symplectic(r.label, s.label))
    )
    return Intertwiner(
        source=add(r.source, s.source),
        target=add(r.target, s.target),
        coeff=coeff,
        label=add(r.label, s.label),
    )


def auto_action(obj: FieldVector, a: WeylElement) -> WeylElement:
    """obj(c W(x)) = c e^{i sigma(obj, x)} W(x)."""
    return WeylElement(a.coeff * cmath.exp(1j * symplectic(obj, a.label)), a.label)


def intertwiner_relation_residual(r: Intertwiner, f: FieldVector) -> float:
    """Coefficient distance of W(y) rho(W(f)) vs rho'(W(f)) W(y); zero in exact arithmetic.

    Unequal labels on the two sides are infinitely far apart.
    """
    lhs = weyl_mul(r, auto_action(r.source, weyl(f)))
    rhs = weyl_mul(auto_action(r.target, weyl(f)), r)
    if label_id(lhs.label) != label_id(rhs.label):
        return float("inf")
    return float(abs(lhs.coeff - rhs.coeff))


def braiding_exact(a: FieldVector, b: FieldVector) -> Intertwiner:
    """The limit braiding: a pure phase e^{-i sigma(a, b)} on the zero label."""
    coeff = cmath.exp(-1j * symplectic(a, b))
    return Intertwiner(source=add(a, b), target=add(b, a), coeff=coeff, label=zero_vector())


def _exchange(u: Intertwiner, v: Intertwiner) -> complex:
    """Phase of (v x u)* (u x v), which must sit on the zero label."""
    eps = compose(star_mor(tensor_mor(v, u)), tensor_mor(u, v))
    if not eps.label.is_zero:
        raise InternalError("asymptotic braiding must have zero label")
    return complex(eps.coeff)


def braiding_asymptotic(
    a: FieldVector,
    b: FieldVector,
    cone: ConeSpec,
    radius: float,
    rng: random.Random | None = None,
) -> tuple[complex, complex, complex | None]:
    """(phase, closed, rephased): the transported exchange at one radius along the cone.

    The one braiding routine: the braiding suite calls it at each radius on
    the configured cone, and the homotopy suite at the largest radius on
    each cone of its chain.  The first charge is moved to the radius along
    the cone axis, the second to the exact antipode; the exchange is
    evaluated through star, tensor, and composition of the transport arrows
    u and v.  ``closed`` is the phase exp(i(sigma(a, v) - sigma(b_far, u)))
    the exchange should equal.  Passing an rng (anything with
    random.Random's uniform) also returns, as ``rephased``, the exchange of
    the same u and v with their free phases redrawn from
    rng.uniform(0, 2 pi), u then v; it equals the plain phase because each
    transporter meets its own star.  Without an rng, ``rephased`` is None.
    The limit phase is approached like c/R.
    """
    ta = cone.translation(radius)
    b_far = translate(b, tuple(-c for c in ta))
    u = hom_basis(a, translate(a, ta))
    v = hom_basis(b, b_far)
    closed = complex(cmath.exp(1j * (symplectic(a, v.label) - symplectic(b_far, u.label))))
    phase, rephased = _exchange(u, v), None
    if rng is not None:
        z_u = cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        z_v = cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        rephased = _exchange(rephase(u, z_u), rephase(v, z_v))
    return phase, closed, rephased


def implementation_residual(obj: FieldVector, a, f: FieldVector) -> float:
    """Norm of U_a* W(f) U_a - rho(W(f)), reduced to |e^{i sigma(rho_a, f)} - 1|."""
    return commutator_norm(translate(obj, a), f)


def abelianness_residual(x: FieldVector, y: FieldVector) -> float:
    """Commutator norm of the Weyl generators of two chargeless labels."""
    for v, side in ((x, "first"), (y, "second")):
        if v.charge != 0.0:
            raise UsageError(f"{side} label must be chargeless")
    return commutator_norm(x, y)


def transported_arrow(r: Intertwiner, cone: ConeSpec, radius: float) -> Intertwiner:
    """U' r U* with U, U' the transporters of source and target along the cone."""
    ta = cone.translation(radius)
    u = hom_basis(r.source, translate(r.source, ta))
    u_prime = hom_basis(r.target, translate(r.target, ta))
    return compose(u_prime, compose(r, star_mor(u)))


def tensor_abelianness_residual(
    r: Intertwiner,
    s: Intertwiner,
    cone_u: ConeSpec,
    cone_v: ConeSpec,
    radius: float,
) -> float:
    """Coefficient distance of the two tensor orderings after transport."""
    r_far = transported_arrow(r, cone_u, radius)
    s_far = transported_arrow(s, cone_v, radius)
    rs = tensor_mor(r_far, s_far)
    sr = tensor_mor(s_far, r_far)
    if label_id(rs.label) != label_id(sr.label):
        raise InternalError("tensor orderings produced different labels")
    return float(abs(rs.coeff - sr.coeff))


def extension_residual(
    obj: FieldVector,
    s: Intertwiner,
    cone1: ConeSpec,
    cone2: ConeSpec,
    radius: float,
) -> float:
    """Cone dependence of the extended action, |e^{-i sigma(rho_a1, y)} - e^{-i sigma(rho_a2, y)}|.

    By bilinearity that is the commutator norm of rho_a2 - rho_a1 and y.
    """
    moved1 = translate(obj, cone1.translation(radius))
    moved2 = translate(obj, cone2.translation(radius))
    return commutator_norm(subtract(moved2, moved1), s.label)


def hexagon_residuals(a: FieldVector, b: FieldVector, c: FieldVector) -> tuple[float, float]:
    """Coefficient distances of the two hexagon identities; zero by bilinearity."""
    lhs1 = braiding_exact(add(a, b), c)
    rhs1 = compose(
        tensor_mor(braiding_exact(a, c), identity(b)),
        tensor_mor(identity(a), braiding_exact(b, c)),
    )
    lhs2 = braiding_exact(a, add(b, c))
    rhs2 = compose(
        tensor_mor(identity(b), braiding_exact(a, c)),
        tensor_mor(braiding_exact(a, b), identity(c)),
    )
    return float(abs(lhs1.coeff - rhs1.coeff)), float(abs(lhs2.coeff - rhs2.coeff))


def naturality_residual(r: Intertwiner, s: Intertwiner) -> float:
    """Coefficient distance of eps(target) (r x s) vs (s x r) eps(source)."""
    lhs = compose(braiding_exact(r.target, s.target), tensor_mor(r, s))
    rhs = compose(tensor_mor(s, r), braiding_exact(r.source, s.source))
    if label_id(lhs.label) != label_id(rhs.label):
        raise InternalError("naturality sides produced different labels")
    return float(abs(lhs.coeff - rhs.coeff))
