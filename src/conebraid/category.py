"""Objects, intertwiners, braiding, and cone asymptotics over a symplectic space.

An object is a charge automorphism gamma_f(W(x)) = e^{i sigma(f, x)} W(x),
which its vector f fixes, so an object is its vector: the tensor product
of two objects is their composition, whose vector is f + g, and moving an
object is f.translate(t).  Objects are equal when their vectors are
(weyl.label_id); the charge separates inequivalent objects, and hom-sets
between equal charges are one dimensional, spanned by the Weyl generator
of target - source (hom_basis, the one place an arrow's label is formed).
An Intertwiner is therefore a weyl.WeylElement, coefficient times label,
with a source and a target vector.  Composition is the generator product
and the adjoint is the generator star, both taken from weyl; the tensor
product of arrows is R times the source automorphism applied to S,

    compose:  coeff_S coeff_R e^{+i sigma(y_S, y_R)/2}
    tensor:   coeff_R coeff_S e^{i sigma(gamma_R, y_S)} e^{+i sigma(y_R, y_S)/2}

with y the arrow labels and gamma_R the source data of the left factor.
Everything is scalar: the object monoid is abelian, so braiding arrows are
pure phases on a zero label.

This module and weyl import no model: they read a vector only through
x + y, -x, x - y, x.symplectic(y), x.translate(t), x.vacuum_exponent()
(weyl's Gram matrix), x.zero(), terms, charge and is_zero.  The field's
FieldVector is one such type; the light-ray current of tests/light_ray.py
is another, whose braiding is not a symmetry.

Every function here that moves something takes the spacetime 4-vectors
it applies; which cone, radius and antipode they come from is decided in
suites.  ``braiding_asymptotic`` is the one braiding routine: it moves
the first charge by one translation and the second by another, and
evaluates the transported exchange through the categorical operations.
Next to the categorical phase it returns the closed-form phase

    exp(i [sigma(gamma, delta_b - delta) - sigma(delta_b, gamma_a - gamma)])

and the braiding suite reports their distance as a row (both sides use the
same symplectic evaluator, so the row guards the category algebra, not the
quadrature).  A call with an rng also returns the exchange of the same
transport arrows with their free phases redrawn.

Residual helpers are norms in the Weyl C*-algebra.  The law residuals
(hexagons, naturality, the intertwiner relation) and the ordering defect
of transported tensor products are weyl.distance of two arrows, which
counts unequal labels as far apart.  The implementation defect of a
translated charge on a fixed observable, the commutator decay of
transported intertwiner labels and the cone dependence of the extension
are commutator norms.
"""

from __future__ import annotations

import cmath
import math
from typing import TYPE_CHECKING

from .errors import RunError
from .weyl import WeylElement, _product, commutator_norm, distance, label_id, star, weyl, weyl_mul

if TYPE_CHECKING:
    import random


class Intertwiner(WeylElement):
    """The generator coeff * W(label) as an arrow from the object source to the object target."""

    def __init__(self, source, target, coeff, label):
        d = self.__dict__
        d["source"], d["target"], d["coeff"], d["label"] = source, target, coeff, label


def hom_basis(source, target) -> Intertwiner:
    """Unit basis arrow of the hom-set, labelled target - source; the charges must be exactly equal."""
    if target.charge != source.charge:
        raise RunError(f"intertwiner label needs equal charges, got {source.charge} and {target.charge}")
    return Intertwiner(source=source, target=target, coeff=1.0 + 0.0j, label=target - source)


def identity(obj) -> Intertwiner:
    return hom_basis(obj, obj)


def rephase(r: Intertwiner, z: complex) -> Intertwiner:
    if abs(abs(z) - 1.0) > 1e-12:
        raise RunError("rephase factor must have unit modulus")
    return Intertwiner(source=r.source, target=r.target, coeff=z * r.coeff, label=r.label)


def compose(s: Intertwiner, r: Intertwiner) -> Intertwiner:
    """s after r; the coefficient picks up the cocycle of the label product."""
    if label_id(r.target) != label_id(s.source):
        raise RunError("compose needs target of the right factor = source of the left")
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
        * cmath.exp(1j * r.source.symplectic(s.label))
        * cmath.exp(0.5j * r.label.symplectic(s.label))
    )
    return Intertwiner(
        source=r.source + s.source,
        target=r.target + s.target,
        coeff=coeff,
        label=r.label + s.label,
    )


def auto_action(obj, a: WeylElement) -> WeylElement:
    """obj(c W(x)) = c e^{i sigma(obj, x)} W(x)."""
    return WeylElement(a.coeff * cmath.exp(1j * obj.symplectic(a.label)), a.label)


def intertwiner_relation_residual(r: Intertwiner, f) -> float:
    """Distance of W(y) rho(W(f)) from rho'(W(f)) W(y); zero in exact arithmetic."""
    lhs = weyl_mul(r, auto_action(r.source, weyl(f)))
    return distance(lhs, weyl_mul(auto_action(r.target, weyl(f)), r))


def braiding_exact(a, b) -> Intertwiner:
    """The limit braiding: a pure phase e^{-i sigma(a, b)} on the zero label."""
    coeff = cmath.exp(-1j * a.symplectic(b))
    return Intertwiner(source=a + b, target=b + a, coeff=coeff, label=a.zero())


def _exchange(u: Intertwiner, v: Intertwiner) -> complex:
    """Phase of (v x u)* (u x v), which must sit on the zero label."""
    eps = compose(star_mor(tensor_mor(v, u)), tensor_mor(u, v))
    if not eps.label.is_zero:
        raise RunError("asymptotic braiding must have zero label")
    return complex(eps.coeff)


def braiding_asymptotic(a, b, ta, tb, rng: random.Random | None = None) -> tuple[complex, complex, complex | None]:
    """(phase, closed, rephased): the exchange of a moved by ta and b moved by tb.

    The caller passes both transports; the suites pass a cone translation
    and its antipode.  The exchange is evaluated through star, tensor, and
    composition of the transport arrows u and v.  ``closed`` is the phase
    exp(i(sigma(a, v) - sigma(b_far, u))) the exchange should equal.
    Passing an rng (anything with random.Random's uniform) also returns,
    as ``rephased``, the exchange of the same u and v with their free
    phases redrawn from rng.uniform(0, 2 pi), u then v; it equals the plain
    phase because each transporter meets its own star.  Without an rng,
    ``rephased`` is None.  Along a cone the limit phase is approached like c/R.
    """
    b_far = b.translate(tb)
    u = hom_basis(a, a.translate(ta))
    v = hom_basis(b, b_far)
    closed = complex(cmath.exp(1j * (a.symplectic(v.label) - b_far.symplectic(u.label))))
    phase, rephased = _exchange(u, v), None
    if rng is not None:
        z_u = cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        z_v = cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        rephased = _exchange(rephase(u, z_u), rephase(v, z_v))
    return phase, closed, rephased


def implementation_residual(obj, a, f) -> float:
    """Norm of U_a* W(f) U_a - rho(W(f)), reduced to |e^{i sigma(rho_a, f)} - 1|."""
    return commutator_norm(obj.translate(a), f)


def abelianness_residual(x, y) -> float:
    """Commutator norm of the Weyl generators of two chargeless labels."""
    for v, side in ((x, "first"), (y, "second")):
        if v.charge != 0.0:
            raise RunError(f"{side} label must be chargeless")
    return commutator_norm(x, y)


def transported_arrow(r: Intertwiner, t) -> Intertwiner:
    """U' r U* with U, U' the transporters of source and target by the translation t."""
    u = hom_basis(r.source, r.source.translate(t))
    u_prime = hom_basis(r.target, r.target.translate(t))
    return compose(u_prime, compose(r, star_mor(u)))


def tensor_abelianness_residual(r_far: Intertwiner, s_far: Intertwiner) -> float:
    """Distance of the two tensor orderings of two transported arrows."""
    return distance(tensor_mor(r_far, s_far), tensor_mor(s_far, r_far))


def extension_residual(obj, s: Intertwiner, t1, t2) -> float:
    """Cone dependence of the extended action, |e^{-i sigma(rho_a1, y)} - e^{-i sigma(rho_a2, y)}|.

    By bilinearity that is the commutator norm of rho_a2 - rho_a1 and y.
    """
    return commutator_norm(obj.translate(t2) - obj.translate(t1), s.label)


def hexagon_residuals(a, b, c) -> tuple[float, float]:
    """Distances of the two hexagon identities; zero by bilinearity."""
    lhs1 = braiding_exact(a + b, c)
    rhs1 = compose(
        tensor_mor(braiding_exact(a, c), identity(b)),
        tensor_mor(identity(a), braiding_exact(b, c)),
    )
    lhs2 = braiding_exact(a, b + c)
    rhs2 = compose(
        tensor_mor(identity(b), braiding_exact(a, c)),
        tensor_mor(braiding_exact(a, b), identity(c)),
    )
    return distance(lhs1, rhs1), distance(lhs2, rhs2)


def naturality_residual(r: Intertwiner, s: Intertwiner) -> float:
    """Distance of eps(target) (r x s) from (s x r) eps(source)."""
    lhs = compose(braiding_exact(r.target, s.target), tensor_mor(r, s))
    return distance(lhs, compose(tensor_mor(s, r), braiding_exact(r.source, s.source)))
