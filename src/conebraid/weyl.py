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
canonical terms tuple itself, whose atoms compare and hash as the tuples of
their fields, so two vectors have equal labels exactly when their terms are
equal, the identity the field layer merges terms on and
``category.compose`` compares objects by.  ``coeff_of`` reads the
coefficient of an equal label and 0 for any other.

The vacuum functional is quasi-free, omega(W(x)) = e^{-(x, x)/4}; it is
only evaluated on labels of charge 0.0 (the exponent diverges otherwise, and
the field layer raises).  Gram matrices of generator families under this
functional are positive semidefinite, and the laws suite checks that on
``min_eigenvalue``, a bisection on whether G - mu I has a Cholesky factor.
"""

from __future__ import annotations

import cmath
import math

from .errors import UsageError
from .field import FieldVector, Frozen, add, negate, subtract, symplectic, vacuum_exponent

GRAM_MAX_LABELS = 16


def label_id(vec: FieldVector) -> tuple:
    """Exact hashable identity of a field vector: its canonical (coefficient, atom) terms."""
    return vec.terms


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


def gram_matrix(labels) -> list[list[complex]]:
    """Vacuum gram matrix G[k][l] = omega(W(x_k)* W(x_l)) of generator labels, as nested lists.

    G[k][l] = e^{-i sigma(x_k, x_l)/2} e^{-(x_l - x_k, x_l - x_k)/4}, from
    cmath.exp and math.exp; the lower triangle is the conjugate of the upper.
    """
    labels = list(labels)
    if len(labels) > GRAM_MAX_LABELS:
        raise UsageError(f"gram matrix limited to {GRAM_MAX_LABELS} labels")
    n = len(labels)
    out = [[0j] * n for _ in range(n)]
    for k in range(n):
        for l in range(k, n):
            diff = subtract(labels[l], labels[k])
            val = cmath.exp(-0.5j * symplectic(labels[k], labels[l])) * math.exp(-vacuum_exponent(diff))
            out[k][l] = val
            out[l][k] = val.conjugate()
    return out


def min_eigenvalue(matrix) -> float:
    """Smallest eigenvalue of a Hermitian matrix given as nested lists, by bisection.

    Every eigenvalue lies in the Gershgorin interval [-rho, rho], rho the
    largest absolute row sum, and mu lies below the smallest exactly when
    H - mu I is positive definite, that is, has a Cholesky factor.  53
    halvings on that test narrow the interval to 2^-52 rho, and its
    midpoint is returned: the smallest eigenvalue to about eps times the
    matrix norm (Gershgorin's theorem and the Cholesky factor: Golub & Van
    Loan, Matrix Computations, 7.2.1 and 4.2).  Only the lower triangle is
    read.
    """
    n = len(matrix)
    if n == 0:
        raise UsageError("an empty matrix has no eigenvalues")
    rho = max(math.fsum(abs(matrix[max(k, l)][min(k, l)]) for l in range(n)) for k in range(n))
    lo, hi = -rho, rho
    for _ in range(53):
        mid = 0.5 * (lo + hi)
        if _positive_definite(matrix, mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _positive_definite(matrix, mu: float) -> bool:
    """Whether H - mu I has a Cholesky factor L L*, built row by row from H's lower triangle."""
    factor = []
    for j, row in enumerate(matrix):
        lj = []
        for k in range(j):
            z = row[k]
            for a, b in zip(lj, factor[k]):
                z -= a * b.conjugate()
            lj.append(z / factor[k][k])
        pivot = row[j].real - mu - math.fsum(z.real * z.real + z.imag * z.imag for z in lj)
        if not pivot > 0.0:
            return False
        lj.append(math.sqrt(pivot))
        factor.append(lj)
    return True
