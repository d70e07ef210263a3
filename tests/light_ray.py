"""The light-ray U(1) current as a second model for the construction, standard library only.

A vector is a finite sum f(x) = sum_i k_i S(x; c_i, w_i) of smoothed steps
S(x; c, w) = (1 + erf((x - c) / w)) / 2 on the real line, its charge is
q_f = f(+inf) - f(-inf) = sum_i k_i, and

    sigma(f, g) = integral f'(x) g(x) dx
                = sum_ij k_i l_j (1 + erf((c_i - d_j) / sqrt(w_i^2 + w_j^2))) / 2,

since S' is the normal density of variance w^2 / 2, so each term is the
chance that one normal variable exceeds another.  Integrating (f g)' gives
sigma(f, g) + sigma(g, f) = q_f q_g: the form is antisymmetric on every
pair with a chargeless side, the only pairs the exchange, tensor product,
composition and star form.  These are the charged sectors of the chiral
U(1) current (Buchholz, Mack & Todorov, Nucl. Phys. B Proc. Suppl. 5B,
1988; Fredenhagen, Rehren & Schroer, CMP 125, 1989).  The model has no
vacuum functional, so weyl.gram_matrix does not run on it.

LongRange adds lambda (q_f m_g - m_f q_g), with m_f = sum_i k_i c_i the
first moment.  The term is antisymmetric and translation invariant, but it
does not decay with distance: the model has no asymptotic Abelianness.
"""

import math


class LightRay:
    """sum_i k_i S(x; c_i, w_i); terms are ((c_i, w_i), k_i) pairs, sorted, each step once, k_i nonzero."""

    def __init__(self, items=()):
        merged = {}
        for key, k in items:
            merged[key] = merged.get(key, 0.0) + k
        self.terms = tuple(sorted((key, k) for key, k in merged.items() if k != 0.0))
        self.charge = math.fsum(k for _, k in self.terms)
        self.is_zero = not self.terms

    def __add__(self, other):
        return type(self)(self.terms + other.terms)

    def __neg__(self):
        return type(self)((key, -k) for key, k in self.terms)

    def __sub__(self, other):
        return self + -other

    def symplectic(self, other):
        return math.fsum(
            k * l * (1.0 + math.erf((c - d) / math.hypot(w, v))) / 2.0
            for (c, w), k in self.terms
            for (d, v), l in other.terms
        )

    def translate(self, t):
        return type(self)(((c + t, w), k) for (c, w), k in self.terms)

    def zero(self):
        return type(self)()


class LongRange(LightRay):
    """The light ray with sigma + LAMBDA (q_f m_g - m_f q_g), m_f = sum_i k_i c_i."""

    LAMBDA = 0.05

    def moment(self):
        return math.fsum(k * c for (c, _), k in self.terms)

    def symplectic(self, other):
        drift = self.charge * other.moment() - self.moment() * other.charge
        return super().symplectic(other) + self.LAMBDA * drift


def step(q, centre=0.0, width=1.0):
    """q S(x; centre, width), a charge-q object."""
    return LightRay([((float(centre), float(width)), float(q))])
