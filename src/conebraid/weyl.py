"""Finite combinations of Weyl generators over the field symplectic space.

Generators multiply with the phase cocycle

    W(x) W(y) = e^{+i sigma(x, y)/2} W(x + y),

so W(x)* = W(-x), each generator is unitary, and the exchange relation
W(x) W(y) = e^{+i sigma(x, y)} W(y) W(x) holds.  Elements are finite
complex combinations of generators; products expand term by term with the
cocycle phase evaluated by the field-layer symplectic form.

Generator labels are identified exactly: ``label_id`` is the vector's
terms as (atom sort key, coefficient) pairs, so two vectors have equal
labels exactly when their terms are equal, the identity the field layer
merges terms on.  Elements merge generators on that key, and ``coeff_of``
is one dict lookup.

The vacuum functional is quasi-free, omega(W(x)) = e^{-(x, x)/4}; it is
only evaluated on test-class labels (the exponent diverges otherwise, and
the field layer raises).  Gram matrices of generator families under this
functional are positive semidefinite, which the tests assert directly.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import cached_property

from .errors import UsageError
from .field import FieldVector, add, negate, subtract, symplectic, vacuum_exponent, zero_vector

COEFF_EPS = 1e-14
GRAM_MAX_LABELS = 16


def label_id(vec: FieldVector) -> tuple:
    """Exact hashable identity of a field vector: (atom sort key, coefficient) per term."""
    return tuple([(atom.sort_key, coeff) for coeff, atom in vec.terms])


@dataclass(frozen=True, eq=False, init=False)
class WeylElement:
    terms: tuple[tuple[complex, FieldVector], ...]

    def __init__(self, terms: tuple):
        # the field goes straight into the instance dict, as in field.FieldVector
        self.__dict__["terms"] = terms

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @cached_property
    def _coeffs(self) -> dict:
        return {label_id(x): c for c, x in self.terms}

    def coeff_of(self, label: FieldVector) -> complex:
        return self._coeffs.get(label_id(label), 0.0 + 0.0j)


def _canonical(items) -> WeylElement:
    merged: dict[tuple, tuple[complex, FieldVector]] = {}
    for c, x in items:
        key = label_id(x)
        if key in merged:
            prev_c, prev_x = merged[key]
            merged[key] = (prev_c + c, prev_x)
        else:
            merged[key] = (complex(c), x)
    kept = [(c, x) for key, (c, x) in sorted(merged.items()) if abs(c) > COEFF_EPS]
    return WeylElement(tuple(kept))


def weyl(label: FieldVector, coeff: complex = 1.0) -> WeylElement:
    # _canonical of the one item, with nothing to merge or sort
    c = complex(coeff)
    return WeylElement(((c, label),) if abs(c) > COEFF_EPS else ())


def weyl_unit() -> WeylElement:
    return weyl(zero_vector())


def weyl_add(a: WeylElement, b: WeylElement) -> WeylElement:
    return _canonical(list(a.terms) + list(b.terms))


def weyl_mul(a: WeylElement, b: WeylElement) -> WeylElement:
    items = []
    for ca, x in a.terms:
        for cb, y in b.terms:
            phase = cmath.exp(0.5j * symplectic(x, y))
            items.append((ca * cb * phase, add(x, y)))
    return _canonical(items)


def star(a: WeylElement) -> WeylElement:
    return _canonical([(c.conjugate(), negate(x)) for c, x in a.terms])


def conjugate(u: WeylElement, a: WeylElement) -> WeylElement:
    """u* a u, the adjoint action of the (unitary) element u."""
    return weyl_mul(weyl_mul(star(u), a), u)


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
