"""Bounded sequences of 2 x 2 complex matrices modulo null sequences.

A sequence element is a pure generator n -> matrix together with a
caller-certified norm bound; pointwise subtract, multiply, and star descend
to the quotient by null sequences.  The asymptotic norm is replaced by a
finite surrogate fixed in code: limsup_norm takes the maximum norm over
the indices in SAMPLES, all beyond TAIL_START, and is_null means that
maximum falls below NULL_TOLERANCE.  Like the rest of the check policy,
no config moves them and reports do not record them.

The algebra is the complex 2 x 2 matrices under the spectral norm, and its
operations are the module functions matrix, add, sub, scale, mul, star,
norm, polar and unitarity_defect, with UNIT the identity.  A matrix is a
pair of rows of complex numbers, and its norm, smallest singular value and
polar factor are closed forms in the entries of A*A, so no decomposition
is needed.  Polar unitarization maps an almost-unitary matrix sequence to
its entrywise polar factor, substituting the identity where the entry is
numerically singular; the output is entrywise unitary and null-close to
the input whenever the precondition holds.  Random draws come from a
stdlib random.Random.
"""

from __future__ import annotations

import bisect
from itertools import accumulate
import math
from typing import TYPE_CHECKING

from .errors import DomainError, UsageError

if TYPE_CHECKING:
    import random

POLAR_SINGULAR_CUTOFF = 1e-8
ADJOINT_UNITARY_TOL = 1e-10  # largest unitarity defect adjoint_morphism accepts
MAX_INDEX_STEP = 4  # random_increasing_map's steps lie in [1, MAX_INDEX_STEP]
# random_increasing_map draws its steps a block at a time, one byte per step
# mapped through _STEPS.  MAX_INDEX_STEP divides 256, so each step value
# takes exactly 256 / MAX_INDEX_STEP of the bytes and a uniform byte gives a
# uniform step.
_STEP_BLOCK = 4096
_STEPS = bytes(1 + b % MAX_INDEX_STEP for b in range(256))
PROBE_MAPS = 8  # random subsequences a stability_probe re-tests
# limsup_norm's 16 sample indices, all beyond TAIL_START: half consecutive
# (so alternating patterns are seen by both parities), half geometrically
# spaced (so slow tails are probed far out).
TAIL_START = 32
SAMPLES = tuple(range(TAIL_START + 1, TAIL_START + 9)) + tuple(TAIL_START * 2**j for j in range(1, 9))
NULL_TOLERANCE = 1e-6

Matrix = tuple[tuple[complex, complex], tuple[complex, complex]]


def _normalized(m: Matrix) -> tuple[float, float, float, complex, float, Matrix]:
    """(scale, p, q, r, |det n|, n) for n = m / scale, scale a power of two, n* n = [[p, r], [conj(r), q]].

    The scale brings the largest entry modulus into [0.5, 1), so the
    products below neither overflow nor underflow.  A zero matrix has scale
    0; a matrix with a nan or infinite entry keeps scale 1, so its norm is
    not finite.
    """
    (a, b), (c, d) = m
    moduli = (abs(a), abs(b), abs(c), abs(d))
    if not any(moduli):
        return 0.0, 0.0, 0.0, 0j, 0.0, m
    scale = math.ldexp(1.0, math.frexp(max(moduli))[1])
    a, b, c, d = a / scale, b / scale, c / scale, d / scale
    p = a.real * a.real + a.imag * a.imag + c.real * c.real + c.imag * c.imag
    q = b.real * b.real + b.imag * b.imag + d.real * d.real + d.imag * d.imag
    r = a.conjugate() * b + c.conjugate() * d
    return scale, p, q, r, abs(a * d - b * c), ((a, b), (c, d))


def _largest_singular_value(p: float, q: float, r: complex) -> float:
    """s_max of a matrix n with n* n = [[p, r], [conj(r), q]]."""
    return math.sqrt(0.5 * (p + q) + math.hypot(0.5 * (p - q), abs(r)))


# Complex 2 x 2 matrices ((a, b), (c, d)) with the spectral norm.  With
# m* m = [[p, r], [conj(r), q]], the largest singular value is s_max with
# s_max^2 = (p + q)/2 + hypot((p - q)/2, |r|), a sum of nonnegative terms,
# so it keeps its relative accuracy when the two singular values are nearly
# equal; the smallest is |det m| / s_max.

UNIT: Matrix = ((1.0 + 0j, 0j), (0j, 1.0 + 0j))


def matrix(rows) -> Matrix:
    """The matrix with the given two rows of two numbers each."""
    rows = tuple(tuple(complex(z) for z in row) for row in rows)
    if len(rows) != 2 or any(len(row) != 2 for row in rows):
        raise UsageError("a matrix has two rows of two entries")
    return rows


def add(x: Matrix, y: Matrix) -> Matrix:
    (a, b), (c, d) = x
    (e, f), (g, h) = y
    return ((a + e, b + f), (c + g, d + h))


def sub(x: Matrix, y: Matrix) -> Matrix:
    (a, b), (c, d) = x
    (e, f), (g, h) = y
    return ((a - e, b - f), (c - g, d - h))


def scale(z: complex, x: Matrix) -> Matrix:
    (a, b), (c, d) = x
    return ((z * a, z * b), (z * c, z * d))


def mul(x: Matrix, y: Matrix) -> Matrix:
    (a, b), (c, d) = x
    (e, f), (g, h) = y
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def star(x: Matrix) -> Matrix:
    (a, b), (c, d) = x
    return ((a.conjugate(), c.conjugate()), (b.conjugate(), d.conjugate()))


def norm(x: Matrix) -> float:
    factor, p, q, r, _, _ = _normalized(x)
    return factor * _largest_singular_value(p, q, r)


def polar(x: Matrix) -> tuple[Matrix, float]:
    """Polar factor x (x* x)^{-1/2} and the smallest singular value of x.

    For M = x* x, sqrt(M) = (M + delta I) / t with delta = sqrt(det M) =
    |det x| and t = sqrt(tr M + 2 delta), so (x* x)^{-1/2} is the
    adjugate [[q + delta, -r], [-conj(r), p + delta]] over t delta.  A
    singular x has no polar factor: its polar is the unit, with smallest
    singular value 0.
    """
    factor, p, q, r, delta, m = _normalized(x)
    if delta == 0.0:
        return UNIT, 0.0
    t = math.sqrt(p + q + 2.0 * delta)
    inv_sqrt = ((q + delta, -r), (-r.conjugate(), p + delta))
    smallest = factor * (delta / _largest_singular_value(p, q, r))
    return scale(1.0 / (t * delta), mul(m, inv_sqrt)), smallest


def unitarity_defect(x: Matrix) -> float:
    return norm(sub(mul(star(x), x), UNIT))


class SequenceElement:
    """Pure generator with a certified norm bound; evaluations and their
    norms are memoized, and each evaluation is checked against the bound.
    """

    def __init__(self, generator, bound: float):
        if not (bound >= 0.0 and math.isfinite(bound)):
            raise UsageError("bound must be a finite nonnegative real")
        self.generator = generator
        self.bound = float(bound)
        self._memo: dict[int, Matrix] = {}
        self._norms: dict[int, float] = {}

    def at(self, n: int) -> Matrix:
        if n < 1:
            raise UsageError("sequence indices start at 1")
        if n not in self._memo:
            value = self.generator(n)
            size = norm(value)
            # "not <=" also refuses a nan norm
            if not size <= self.bound * (1.0 + 1e-9) + 1e-12:
                raise UsageError(f"generator breaks its certified bound at n={n}: {size} > {self.bound}")
            self._memo[n], self._norms[n] = value, size
        return self._memo[n]

    def norm_at(self, n: int) -> float:
        """norm(at(n)), computed once."""
        self.at(n)
        return self._norms[n]


def constant(value: Matrix) -> SequenceElement:
    """n -> value, certified by the value's own norm."""
    return SequenceElement(lambda n: value, norm(value))


def seq_sub(s: SequenceElement, t: SequenceElement) -> SequenceElement:
    return SequenceElement(lambda n: sub(s.at(n), t.at(n)), s.bound + t.bound)


def seq_mul(s: SequenceElement, t: SequenceElement) -> SequenceElement:
    return SequenceElement(lambda n: mul(s.at(n), t.at(n)), s.bound * t.bound)


def seq_star(s: SequenceElement) -> SequenceElement:
    return SequenceElement(lambda n: star(s.at(n)), s.bound)


def limsup_norm(s: SequenceElement) -> float:
    return max(s.norm_at(n) for n in SAMPLES)


def is_null(s: SequenceElement) -> bool:
    return limsup_norm(s) < NULL_TOLERANCE


def equivalent(s: SequenceElement, t: SequenceElement) -> bool:
    return is_null(seq_sub(s, t))


def subsequence(s: SequenceElement, index_map) -> SequenceElement:
    """Reindex by a strictly increasing map; monotonicity is checked lazily
    across every pair of indices the new element actually evaluates.

    The evaluated indices are kept sorted with their images increasing, so
    a new index only needs checking against its two neighbours.
    """
    evaluated: list[int] = []
    image: dict[int, int] = {}

    def gen(n: int) -> Matrix:
        m = int(index_map(n))
        if m < 1:
            raise UsageError("index map must produce indices >= 1")
        k = bisect.bisect_left(evaluated, n)
        if k < len(evaluated) and evaluated[k] == n:
            if image[n] != m:
                raise UsageError("index map is not strictly increasing")
        else:
            if (k > 0 and image[evaluated[k - 1]] >= m) or (
                k < len(evaluated) and image[evaluated[k]] <= m
            ):
                raise UsageError("index map is not strictly increasing")
            evaluated.insert(k, n)
            image[n] = m
        return s.at(m)

    return SequenceElement(gen, s.bound)


def random_increasing_map(rng: random.Random):
    """Random strictly increasing map with memoized prefix, steps in [1, MAX_INDEX_STEP].

    The prefix grows by blocks of _STEP_BLOCK steps, each one
    rng.randbytes(_STEP_BLOCK) translated through _STEPS, as the map is
    first read beyond it.  So the values depend only on the rng's state when
    the map was made, not on the order its indices are read.
    """
    prefix = [0]

    def index_map(n: int) -> int:
        while len(prefix) <= n:
            # accumulate repeats its initial value, the last known image
            last = prefix.pop()
            prefix.extend(accumulate(rng.randbytes(_STEP_BLOCK).translate(_STEPS), initial=last))
        return prefix[n]

    return index_map


def stability_probe(s: SequenceElement, limit: SequenceElement, rng: random.Random) -> bool:
    """Whether PROBE_MAPS random subsequences of s all stay equivalent to limit.

    A finite probe of the subsequence-closure property, never a proof.
    """
    return all(equivalent(subsequence(s, random_increasing_map(rng)), limit) for _ in range(PROBE_MAPS))


def polar_unitarize(s: SequenceElement) -> SequenceElement:
    """Entrywise polar factor of an almost-unitary sequence.

    Entries with smallest singular value below the cutoff are replaced by
    the identity.  Requires is_null(s* s - 1) and is_null(s s* - 1); the
    output is entrywise unitary and null-close to s.
    """
    one = constant(UNIT)
    for defect in (seq_sub(seq_mul(seq_star(s), s), one), seq_sub(seq_mul(s, seq_star(s)), one)):
        if not is_null(defect):
            raise DomainError("polar unitarization needs an almost-unitary input sequence")

    def gen(n: int) -> Matrix:
        u, smallest = polar(s.at(n))
        if smallest < POLAR_SINGULAR_CUTOFF:
            return UNIT
        return u

    return SequenceElement(gen, 1.0)


def adjoint_morphism(u: SequenceElement, value: Matrix) -> SequenceElement:
    """n -> u(n)* value u(n); entries of u must be unitary within ADJOINT_UNITARY_TOL."""

    def gen(n: int) -> Matrix:
        un = u.at(n)
        if unitarity_defect(un) > ADJOINT_UNITARY_TOL:
            raise DomainError(f"adjoint morphism needs unitary entries, defect at n={n}")
        return mul(mul(star(un), value), un)

    return SequenceElement(gen, norm(value))
