"""Weyl generators c W(x) over a symplectic space.

Generators multiply with the phase cocycle

    W(x) W(y) = e^{+i sigma(x, y)/2} W(x + y),

so W(x)* = W(-x), each generator is unitary, and the exchange relation
W(x) W(y) = e^{+i sigma(x, y)} W(y) W(x) holds.  A label is any vector
with x + y, -x, x - y, x.symplectic(y), x.vacuum_exponent() and canonical
``terms``; this module imports no model (field.FieldVector is one).  A
WeylElement is one generator, a coefficient times a label: the hom-spaces
of the charge category are one dimensional, so every arrow, every braiding
and every law this package checks is of that form.  The category's arrows
extend WeylElement, and ``category.compose`` shares the one private
product ``_product`` with ``weyl_mul``.

Generator labels are identified exactly: ``label_id`` is the vector's
canonical terms tuple itself, so two vectors have equal labels exactly
when their terms are equal, the identity a field vector merges terms on
and ``category.compose`` compares objects by.

Every law is judged in the norm of the Weyl C*-algebra: ``distance`` is
||a - b|| for two generators, |c_a - c_b| on equal labels and
|c_a| + |c_b| on unequal ones, since W(x)* (c_a W(x) - c_b W(y)) is
c_a minus c_b times a unitary W(y - x) whose spectrum is the whole unit
circle.

The vacuum functional is quasi-free, omega(W(x)) = e^{-(x, x)/4}; it is
only evaluated on labels of charge 0.0 (the exponent diverges otherwise, and
a field vector raises).  Gram matrices of generator families under this
functional are positive semidefinite, and the laws suite checks that on
``min_eigenvalue``, a bisection on whether G - mu I has a Cholesky factor.
"""

from __future__ import annotations

import cmath
import math

from .errors import Frozen, RunError

GRAM_MAX_LABELS = 16


def label_id(vec) -> tuple:
    """Exact hashable identity of a vector: its canonical terms."""
    return vec.terms


class WeylElement(Frozen):
    """The generator coeff * W(label); elements compare by identity."""

    def __init__(self, coeff: complex, label):
        d = self.__dict__
        d["coeff"], d["label"] = coeff, label


def weyl(label, coeff: complex = 1.0) -> WeylElement:
    return WeylElement(complex(coeff), label)


def _product(a: WeylElement, b: WeylElement) -> tuple:
    """Coefficient and label of the product a b, in that order of the factors."""
    coeff = a.coeff * b.coeff * cmath.exp(0.5j * a.label.symplectic(b.label))
    return coeff, a.label + b.label


def weyl_mul(a: WeylElement, b: WeylElement) -> WeylElement:
    return WeylElement(*_product(a, b))


def star(a: WeylElement) -> WeylElement:
    return WeylElement(a.coeff.conjugate(), -a.label)


def distance(a: WeylElement, b: WeylElement) -> float:
    """Norm of a - b: |c_a - c_b| on equal labels, |c_a| + |c_b| on unequal ones."""
    if label_id(a.label) == label_id(b.label):
        return abs(a.coeff - b.coeff)
    return abs(a.coeff) + abs(b.coeff)


def commutator_norm(x, y) -> float:
    """Norm of [W(x), W(y)]; equals |e^{i sigma(x, y)} - 1|."""
    return abs(cmath.exp(1j * x.symplectic(y)) - 1.0)


def gram_matrix(labels) -> list[list[complex]]:
    """Vacuum gram matrix G[k][l] = omega(W(x_k)* W(x_l)) of generator labels, as nested lists.

    G[k][l] = e^{-i sigma(x_k, x_l)/2} e^{-(x_l - x_k, x_l - x_k)/4}, from
    cmath.exp and math.exp; the lower triangle is the conjugate of the upper.
    """
    labels = list(labels)
    if len(labels) > GRAM_MAX_LABELS:
        raise RunError(f"gram matrix limited to {GRAM_MAX_LABELS} labels")
    n = len(labels)
    out = [[0j] * n for _ in range(n)]
    for k in range(n):
        for l in range(k, n):
            diff = labels[l] - labels[k]
            val = cmath.exp(-0.5j * labels[k].symplectic(labels[l])) * math.exp(-diff.vacuum_exponent())
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
        raise RunError("an empty matrix has no eigenvalues")
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
