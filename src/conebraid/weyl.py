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
functional are positive semidefinite; ``min_eigenvalue`` gives the smallest
eigenvalue the laws suite checks that on.
"""

from __future__ import annotations

import cmath
import math

from .errors import InternalError, UsageError
from .field import FieldVector, Frozen, add, negate, subtract, symplectic, vacuum_exponent

GRAM_MAX_LABELS = 16
# min_eigenvalue's cyclic Jacobi stops once the off-diagonal Frobenius norm
# is below _JACOBI_EPS (half an ulp of 1) times the matrix's; sweeps converge
# quadratically, so the cap is never reached on a finite Hermitian matrix.
_JACOBI_EPS = 2.0**-53
_JACOBI_MAX_SWEEPS = 30


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
    """Smallest eigenvalue of a Hermitian matrix given as nested lists, by cyclic Jacobi.

    The matrix H = A + iB is embedded as the real symmetric [[A, -B], [B, A]],
    whose spectrum is that of H with every eigenvalue doubled.  Cyclic
    Jacobi sweeps rotate each off-diagonal pair to zero (Golub & Van Loan,
    Matrix Computations, 8.5.3) until the off-diagonal part is below
    rounding against the whole; the smallest diagonal entry is then the
    smallest eigenvalue to about eps times the matrix norm.
    """
    n = len(matrix)
    if n == 0:
        raise UsageError("an empty matrix has no eigenvalues")
    m = 2 * n
    a = [[0.0] * m for _ in range(m)]
    for k, row in enumerate(matrix):
        for l, z in enumerate(row):
            re, im = z.real, z.imag
            a[k][l] = a[k + n][l + n] = re
            a[k][l + n], a[k + n][l] = -im, im
    # the Frobenius norm, which the rotations keep
    bound = (_JACOBI_EPS * math.sqrt(math.fsum(x * x for row in a for x in row))) ** 2
    for _ in range(_JACOBI_MAX_SWEEPS):
        if math.fsum(a[p][q] * a[p][q] for p in range(m) for q in range(p + 1, m)) <= bound:
            return min(a[p][p] for p in range(m))
        for p in range(m - 1):
            for q in range(p + 1, m):
                apq = a[p][q]
                if apq == 0.0:
                    continue
                # the rotation that zeroes a[p][q] (Golub & Van Loan, Algorithm 8.5.1)
                tau = (a[q][q] - a[p][p]) / (2.0 * apq)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                row_p, row_q = a[p], a[q]
                for k in range(m):
                    x, y = row_p[k], row_q[k]
                    row_p[k], row_q[k] = c * x - s * y, s * x + c * y
                for row in a:
                    x, y = row[p], row[q]
                    row[p], row[q] = c * x - s * y, s * x + c * y
                row_p[q] = row_q[p] = 0.0
    raise InternalError(f"cyclic Jacobi did not converge in {_JACOBI_MAX_SWEEPS} sweeps")
