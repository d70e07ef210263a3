"""Charge automorphisms, intertwiners, braiding, and cone asymptotics.

Objects are charge automorphisms gamma(W(f)) = e^{i sigma(gamma, f)} W(f),
carrying only their field data; the charge separates inequivalent objects,
and hom-sets between equal charges are one dimensional, spanned by the
Weyl generator of the data difference.  An Intertwiner is therefore a
weyl.WeylElement, coefficient times label, with a source and a target.
Composition is the generator product and the adjoint is the generator
star, both taken from weyl; the tensor product of arrows is R times the
source automorphism applied to S,

    compose:  coeff_S coeff_R e^{+i sigma(y_S, y_R)/2}
    tensor:   coeff_R coeff_S e^{i sigma(gamma_R, y_S)} e^{+i sigma(y_R, y_S)/2}

with y the arrow labels and gamma_R the source data of the left factor.
Everything is scalar: the object monoid is abelian, so braiding arrows are
pure phases on a zero label.

The asymptotic braiding transports each charge along a spacelike cone, the
second charge along the opposite cone, and evaluates the transported
exchange through the categorical operations.  ``braiding_asymptotic`` is
the one braiding routine: the braiding suite reads it on the configured
cone and the homotopy suite once per cone of its chain.  Next to each
categorical phase it returns the closed-form phase

    exp(i [sigma(gamma, delta_b - delta) - sigma(delta_b, gamma_a - gamma)])

and the braiding suite reports their distance as a row (both sides use the
same symplectic evaluator, so the row guards the category algebra, not the
quadrature).  A call with an rng also returns the exchange of the same
transport arrows with their free phases redrawn.  Residual
helpers quantify the finite-radius deviations: implementation defect of a
translated charge on a fixed observable, commutator decay of transported
intertwiner labels, ordering defect of transported tensor products, and
cone independence of the extension.
"""

from __future__ import annotations

import cmath
import math
from typing import TYPE_CHECKING, NamedTuple

from .errors import ConfigError, InternalError, UsageError
from .field import FieldVector, Frozen, add, intertwiner_label, symplectic, translate, zero_vector
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


class ChargeAutomorphism(Frozen):
    """A charge automorphism, carrying its field data; objects compare by identity."""

    def __init__(self, data: FieldVector):
        self.__dict__["data"] = data

    @property
    def charge(self) -> float:
        return self.data.charge


class _TensorObject(ChargeAutomorphism):
    """a (x) b, whose data a.data + b.data is summed on first use.

    Most tensor products that a law check builds are only an arrow's source
    or target, and their data is never read.
    """

    def __init__(self, a: ChargeAutomorphism, b: ChargeAutomorphism):
        self.__dict__["_factors"] = (a, b)

    def __getattr__(self, attr: str):
        if attr != "data":
            raise AttributeError(attr)
        a, b = self._factors
        data = add(a.data, b.data)
        self.__dict__["data"] = data
        return data


class Intertwiner(WeylElement):
    """The generator coeff * W(label) as an arrow from source to target."""

    def __init__(self, source: ChargeAutomorphism, target: ChargeAutomorphism, coeff, label: FieldVector):
        d = self.__dict__
        d["source"], d["target"], d["coeff"], d["label"] = source, target, coeff, label


def translate_object(obj: ChargeAutomorphism, a) -> ChargeAutomorphism:
    return ChargeAutomorphism(translate(obj.data, a))


def same_object(a: ChargeAutomorphism, b: ChargeAutomorphism) -> bool:
    """Equal field data: the exact label identity of the two data vectors."""
    return label_id(a.data) == label_id(b.data)


def hom_basis(source: ChargeAutomorphism, target: ChargeAutomorphism) -> Intertwiner:
    """Unit basis arrow of the hom-set; intertwiner_label raises DomainError when the charges differ."""
    return Intertwiner(
        source=source,
        target=target,
        coeff=1.0 + 0.0j,
        label=intertwiner_label(source.data, target.data),
    )


def identity(obj: ChargeAutomorphism) -> Intertwiner:
    return hom_basis(obj, obj)


def rephase(r: Intertwiner, z: complex) -> Intertwiner:
    if abs(abs(z) - 1.0) > 1e-12:
        raise UsageError("rephase factor must have unit modulus")
    return Intertwiner(source=r.source, target=r.target, coeff=z * r.coeff, label=r.label)


def compose(s: Intertwiner, r: Intertwiner) -> Intertwiner:
    """s after r; the coefficient picks up the cocycle of the label product."""
    if not same_object(r.target, s.source):
        raise UsageError("compose needs target of the right factor = source of the left")
    # weyl_mul's own product, so the braiding and decay paths never call weyl_mul
    return Intertwiner(r.source, s.target, *_product(s, r))


def star_mor(r: Intertwiner) -> Intertwiner:
    adjoint = star(r)
    return Intertwiner(r.target, r.source, adjoint.coeff, adjoint.label)


def tensor_obj(a: ChargeAutomorphism, b: ChargeAutomorphism) -> ChargeAutomorphism:
    return _TensorObject(a, b)


def tensor_mor(r: Intertwiner, s: Intertwiner) -> Intertwiner:
    """r tensor s = r composed with the source automorphism of r applied to s."""
    coeff = (
        r.coeff
        * s.coeff
        * cmath.exp(1j * symplectic(r.source.data, s.label))
        * cmath.exp(0.5j * symplectic(r.label, s.label))
    )
    return Intertwiner(
        source=tensor_obj(r.source, s.source),
        target=tensor_obj(r.target, s.target),
        coeff=coeff,
        label=add(r.label, s.label),
    )


def auto_action(obj: ChargeAutomorphism, a: WeylElement) -> WeylElement:
    """obj(c W(x)) = c e^{i sigma(obj, x)} W(x)."""
    return WeylElement(a.coeff * cmath.exp(1j * symplectic(obj.data, a.label)), a.label)


def intertwiner_relation_residual(r: Intertwiner, f: FieldVector) -> float:
    """Coefficient distance of W(y) rho(W(f)) vs rho'(W(f)) W(y); zero in exact arithmetic.

    Unequal labels on the two sides are infinitely far apart.
    """
    lhs = weyl_mul(r, auto_action(r.source, weyl(f)))
    rhs = weyl_mul(auto_action(r.target, weyl(f)), r)
    if label_id(lhs.label) != label_id(rhs.label):
        return float("inf")
    return float(abs(lhs.coeff - rhs.coeff))


def braiding_exact(a: ChargeAutomorphism, b: ChargeAutomorphism) -> Intertwiner:
    """The limit braiding: a pure phase e^{-i sigma(a, b)} on the zero label."""
    coeff = cmath.exp(-1j * symplectic(a.data, b.data))
    return Intertwiner(
        source=tensor_obj(a, b),
        target=tensor_obj(b, a),
        coeff=coeff,
        label=zero_vector(),
    )


class BraidingRun(NamedTuple):
    """Transported exchange phases at each radius, the closed-form phases
    exp(i(sigma(a, v) - sigma(b_far, u))) each should equal, and the
    exchange phases with the transporters rephased (empty without an rng).
    """

    radii: tuple[float, ...]
    phases: tuple[complex, ...]
    closed: tuple[complex, ...]
    rephased: tuple[complex, ...] = ()


def braiding_asymptotic(
    a: ChargeAutomorphism,
    b: ChargeAutomorphism,
    cone: ConeSpec,
    radii,
    rng: random.Random | None = None,
) -> BraidingRun:
    """Braiding via transported exchange at each radius along the cone.

    The one braiding routine: the braiding suite calls it on the configured
    cone, and the homotopy suite once per cone of its chain.  The first
    charge is moved to radius r along the cone axis, the second to the
    exact antipode; the exchange is evaluated through star, tensor, and
    composition of the transport arrows u and v.  Each phase comes with its
    closed form, which the braiding suite compares it with.  Passing an rng
    (anything with random.Random's uniform) also returns the exchange of
    the same u and v with their free phases redrawn from
    rng.uniform(0, 2 pi), u then v at each radius; it equals the plain
    phase because each transporter meets its own star.  The limit phase is
    approached like c/R.
    """
    radii = [float(r) for r in radii]
    if len(radii) < 3 or any(r2 <= r1 for r1, r2 in zip(radii, radii[1:])):
        raise UsageError("radii must be strictly increasing with at least 3 entries")
    phases, closed_phases, rephased = [], [], []
    for radius in radii:
        ta = cone.translation(radius)
        tb = tuple(-c for c in ta)
        a_far = translate_object(a, ta)
        b_far = translate_object(b, tb)
        u = hom_basis(a, a_far)
        v = hom_basis(b, b_far)
        closed = cmath.exp(1j * (symplectic(a.data, v.label) - symplectic(b_far.data, u.label)))
        closed_phases.append(complex(closed))
        transports = [(u, v)]
        if rng is not None:
            z_u = cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            z_v = cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            transports.append((rephase(u, z_u), rephase(v, z_v)))
        for (x, y), out in zip(transports, (phases, rephased)):
            eps = compose(star_mor(tensor_mor(y, x)), tensor_mor(x, y))
            if not eps.label.is_zero:
                raise InternalError("asymptotic braiding must have zero label")
            out.append(complex(eps.coeff))
    return BraidingRun(tuple(radii), tuple(phases), tuple(closed_phases), tuple(rephased))


def implementation_residual(obj: ChargeAutomorphism, a, f: FieldVector) -> float:
    """Norm of U_a* W(f) U_a - rho(W(f)), reduced to |e^{i sigma(rho_a, f)} - 1|."""
    moved = translate(obj.data, a)
    return abs(cmath.exp(1j * symplectic(moved, f)) - 1.0)


def abelianness_residual(x: FieldVector, y: FieldVector) -> float:
    """Commutator norm of the Weyl generators of two chargeless labels."""
    for v, side in ((x, "first"), (y, "second")):
        if v.charge != 0.0:
            raise UsageError(f"{side} label must be chargeless")
    return commutator_norm(x, y)


def transported_arrow(r: Intertwiner, cone: ConeSpec, radius: float) -> Intertwiner:
    """U' r U* with U, U' the transporters of source and target along the cone."""
    ta = cone.translation(radius)
    u = hom_basis(r.source, translate_object(r.source, ta))
    u_prime = hom_basis(r.target, translate_object(r.target, ta))
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
    obj: ChargeAutomorphism,
    s: Intertwiner,
    cone1: ConeSpec,
    cone2: ConeSpec,
    radius: float,
) -> float:
    """Cone dependence of the extended action, |e^{-i sigma(rho_a1, y)} - e^{-i sigma(rho_a2, y)}|."""
    moved1 = translate(obj.data, cone1.translation(radius))
    moved2 = translate(obj.data, cone2.translation(radius))
    p1 = cmath.exp(-1j * symplectic(moved1, s.label))
    p2 = cmath.exp(-1j * symplectic(moved2, s.label))
    return float(abs(p1 - p2))


def hexagon_residuals(
    a: ChargeAutomorphism, b: ChargeAutomorphism, c: ChargeAutomorphism
) -> tuple[float, float]:
    """Coefficient distances of the two hexagon identities; zero by bilinearity."""
    lhs1 = braiding_exact(tensor_obj(a, b), c)
    rhs1 = compose(
        tensor_mor(braiding_exact(a, c), identity(b)),
        tensor_mor(identity(a), braiding_exact(b, c)),
    )
    lhs2 = braiding_exact(a, tensor_obj(b, c))
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
