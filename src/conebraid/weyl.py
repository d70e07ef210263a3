"""Weyl generators c W(x) over the field symplectic space.

Generators multiply with the phase cocycle

    W(x) W(y) = e^{+i sigma(x, y)/2} W(x + y),

so W(x)* = W(-x), each generator is unitary, and the exchange relation
W(x) W(y) = e^{+i sigma(x, y)} W(y) W(x) holds.  A WeylElement is one
generator, a coefficient times a field label: the hom-spaces of the charge
category are one dimensional, so every arrow, every braiding and every
law this package checks is of that form.  The category's arrows extend
WeylElement, and ``category.compose`` shares the one private product
``_product`` with ``weyl_mul``.

Generator labels are identified exactly: ``label_id`` is the vector's
terms as (atom sort key, coefficient) pairs, so two vectors have equal
labels exactly when their terms are equal, the identity the field layer
merges terms on.  ``coeff_of`` reads the coefficient of an equal label and
0 for any other.

The vacuum functional is quasi-free, omega(W(x)) = e^{-(x, x)/4}; it is
only evaluated on test-class labels (the exponent diverges otherwise, and
the field layer raises).  Gram matrices of generator families under this
functional are positive semidefinite, which the tests assert directly.
"""

from __future__ import annotations

import cmath

from .errors import UsageError
from .field import FieldVector, Frozen, add, negate, subtract, symplectic, vacuum_exponent

GRAM_MAX_LABELS = 16


def label_id(vec: FieldVector) -> tuple:
    """Exact hashable identity of a field vector: (atom sort key, coefficient) per term."""
    return tuple([(atom.sort_key, coeff) for coeff, atom in vec.terms])


class WeylElement(Frozen):
    """The generator coeff * W(label); elements compare by identity."""

    def __init__(self, coeff: complex, label: FieldVector):
        d = self.__dict__
        d["coeff"], d["label"] = coeff, label

    def coeff_of(self, label: FieldVector) -> complex:
        return self.coeff if label_id(label) == label_id(self.label) else 0.0 + 0.0j


def weyl(label: FieldVector, coeff: complex = 1.0) -> WeylElement:
    return WeylElement(complex(coeff), label)


def _product(a: WeylElement, b: WeylElement) -> tuple[complex, FieldVector]:
    """Coefficient and label of the product a b, in that order of the factors."""
    coeff = a.coeff * b.coeff * cmath.exp(0.5j * symplectic(a.label, b.label))
    return coeff, add(a.label, b.label)


def weyl_mul(a: WeylElement, b: WeylElement) -> WeylElement:
    return WeylElement(*_product(a, b))


def star(a: WeylElement) -> WeylElement:
    return WeylElement(a.coeff.conjugate(), negate(a.label))


def commutator_norm(x: FieldVector, y: FieldVector) -> float:
    """Norm of [W(x), W(y)]; equals |e^{i sigma(x, y)} - 1|."""
    return abs(cmath.exp(1j * symplectic(x, y)) - 1.0)


def gram_matrix(labels):
    """Vacuum gram matrix G[k, l] = omega(W(x_k)* W(x_l)) of generator labels, an ndarray.

    Its real exponentials stay on numpy's exp, which math.exp does not match bit for bit.
    """
    import numpy as np

    labels = list(labels)
    if not labels:
        return np.zeros((0, 0), dtype=complex)
    if len(labels) > GRAM_MAX_LABELS:
        raise UsageError(f"gram matrix limited to {GRAM_MAX_LABELS} labels")
    n = len(labels)
    out = np.zeros((n, n), dtype=complex)
    for k in range(n):
        for l in range(k, n):
            diff = subtract(labels[l], labels[k])
            val = np.exp(-0.5j * symplectic(labels[k], labels[l])) * np.exp(
                -vacuum_exponent(diff)
            )
            out[k, l] = val
            out[l, k] = np.conj(val)
    return out
