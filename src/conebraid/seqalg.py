"""Bounded-sequence quotient machinery over small normed *-algebras.

A sequence element is a pure generator n -> algebra element together with
a caller-certified norm bound; pointwise add, multiply, and star descend
to the quotient by null sequences.  The asymptotic norm is replaced by a
declared finite surrogate: a TailPolicy fixes a window start N0, a sample
count K, and a tolerance tau, and limsup_norm takes the maximum sampled
norm over K indices strictly beyond N0: half consecutive (so alternating
patterns are seen by both parities), half geometrically spaced (so slow
tails are probed far out).  is_null means that surrogate falls below tau;
every report carries the policy so the finite nature of the check stays
visible.

Two algebra instantiations are provided: dense complex matrices up to
dimension 8 under the spectral norm, and single Weyl phase generators,
weyl.WeylElement values whose product and star are weyl's own.  Polar
unitarization maps an almost-unitary matrix sequence to its entrywise
polar factor, substituting the identity where the entry is numerically
singular; the output is entrywise unitary and null-close to the input
whenever the precondition holds.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from .errors import DomainError, UsageError
from .field import FieldVector, zero_vector
from .weyl import WeylElement, label_id, star as weyl_star, weyl, weyl_mul

MATRIX_DIM_MAX = 8
POLAR_SINGULAR_CUTOFF = 1e-8
# Relative margin of the Frobenius pre-tests (the bound check and
# adjoint_morphism's unitarity check).  The computed norm_bound and the
# computed norm each lie within about 1e-14 of their exact values (dim <=
# MATRIX_DIM_MAX), and the exact norm is at most the exact bound, so a
# norm_bound below limit / (1 + margin) proves that the norm passes too.
BOUND_CHECK_MARGIN = 1e-12


class MatrixAlgebra:
    """Dense complex (dim x dim) matrices with the spectral norm."""

    def __init__(self, dim: int):
        if not (1 <= dim <= MATRIX_DIM_MAX):
            raise UsageError(f"matrix dimension must lie in [1, {MATRIX_DIM_MAX}]")
        self.dim = dim

    def unit(self):
        return np.eye(self.dim, dtype=complex)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a @ b

    def star(self, a):
        return a.conj().T

    def norm(self, a) -> float:
        # the largest singular value, as np.linalg.norm(a, 2) computes it
        # without that function's axis handling
        return float(np.linalg.svd(a, compute_uv=False)[0])

    def norm_bound(self, a) -> float:
        """The Frobenius norm, an upper bound on norm(a) at about a sixth of an svd's cost (2 x 2)."""
        return math.sqrt(np.vdot(a, a).real)

    def polar(self, a):
        """Polar factor by SVD and the smallest singular value of the input."""
        u, s, vh = np.linalg.svd(a)
        return u @ vh, float(s.min())

    def unitarity_defect(self, a) -> float:
        return self.norm(self.star(a) @ a - self.unit())

    def unitarity_defect_bound(self, a) -> float:
        """norm_bound of the defect matrix, an upper bound on unitarity_defect(a)."""
        return self.norm_bound(self.star(a) @ a - self.unit())


class WeylPhaseAlgebra:
    """Single Weyl phase generators, weyl.WeylElement values.

    Product and star are weyl's; addition is defined only between equal
    labels, since a sum of two generators is no generator.  The norm of a
    single generator is the coefficient modulus.
    """

    def element(self, coeff: complex, label: FieldVector) -> WeylElement:
        return weyl(label, coeff)

    def unit(self) -> WeylElement:
        return weyl(zero_vector())

    def add(self, a, b):
        if label_id(a.label) != label_id(b.label):
            raise UsageError("phase-algebra addition requires equal labels")
        return WeylElement(a.coeff + b.coeff, a.label)

    def sub(self, a, b):
        if label_id(a.label) != label_id(b.label):
            raise UsageError("phase-algebra subtraction requires equal labels")
        return WeylElement(a.coeff - b.coeff, a.label)

    def mul(self, a, b):
        return weyl_mul(a, b)

    def star(self, a):
        return weyl_star(a)

    def norm(self, a) -> float:
        return float(abs(a.coeff))

    norm_bound = norm  # the norm is already a modulus

    def polar(self, a):
        mod = abs(a.coeff)
        if mod < POLAR_SINGULAR_CUTOFF:
            return self.unit(), float(mod)
        return WeylElement(a.coeff / mod, a.label), float(mod)

    def unitarity_defect(self, a) -> float:
        return abs(abs(a.coeff) - 1.0)

    unitarity_defect_bound = unitarity_defect


class TailPolicy:
    """Finite surrogate for tail behavior: K samples strictly beyond N0."""

    def __init__(self, window_start: int = 32, sample_count: int = 16, tolerance: float = 1e-6):
        if window_start < 1:
            raise UsageError("window_start must be at least 1")
        if sample_count < 8:
            raise UsageError("sample_count must be at least 8")
        if not (tolerance > 0.0):
            raise UsageError("tolerance must be positive")
        self.window_start = window_start
        self.sample_count = sample_count
        self.tolerance = tolerance

    def samples(self) -> tuple[int, ...]:
        near = self.sample_count - self.sample_count // 2
        out = [self.window_start + 1 + k for k in range(near)]
        for j in range(1, self.sample_count // 2 + 1):
            out.append(self.window_start * 2**j)
        return tuple(sorted(set(out)))


class SequenceElement:
    """Pure generator with a certified norm bound; evaluations and their
    norms are memoized.

    The bound check of an evaluation tests the algebra's cheap norm_bound
    first, with a margin that covers rounding, and computes the norm only
    when that test cannot decide; norm_at computes the norm on first read.
    """

    def __init__(self, algebra, generator, bound: float):
        if not (bound >= 0.0 and np.isfinite(bound)):
            raise UsageError("bound must be a finite nonnegative real")
        self.algebra = algebra
        self.generator = generator
        self.bound = float(bound)
        self._memo: dict[int, object] = {}
        self._norms: dict[int, float] = {}

    def at(self, n: int):
        if n < 1:
            raise UsageError("sequence indices start at 1")
        if n not in self._memo:
            value = self.generator(n)
            limit = self.bound * (1.0 + 1e-9) + 1e-12
            # "not <=" sends a nan to the exact check
            if not self.algebra.norm_bound(value) * (1.0 + BOUND_CHECK_MARGIN) <= limit:
                norm = self.algebra.norm(value)
                if norm > limit:
                    raise UsageError(
                        f"generator breaks its certified bound at n={n}: {norm} > {self.bound}"
                    )
                self._norms[n] = norm
            self._memo[n] = value
        return self._memo[n]

    def norm_at(self, n: int) -> float:
        """algebra.norm(at(n)), computed once."""
        value = self.at(n)
        if n not in self._norms:
            self._norms[n] = self.algebra.norm(value)
        return self._norms[n]


def constant(algebra, value, bound: float | None = None) -> SequenceElement:
    if bound is None:
        bound = algebra.norm(value)
    return SequenceElement(algebra, lambda n: value, bound)


def seq_add(s: SequenceElement, t: SequenceElement) -> SequenceElement:
    _same_algebra(s, t)
    return SequenceElement(s.algebra, lambda n: s.algebra.add(s.at(n), t.at(n)), s.bound + t.bound)


def seq_sub(s: SequenceElement, t: SequenceElement) -> SequenceElement:
    _same_algebra(s, t)
    return SequenceElement(s.algebra, lambda n: s.algebra.sub(s.at(n), t.at(n)), s.bound + t.bound)


def seq_mul(s: SequenceElement, t: SequenceElement) -> SequenceElement:
    _same_algebra(s, t)
    return SequenceElement(s.algebra, lambda n: s.algebra.mul(s.at(n), t.at(n)), s.bound * t.bound)


def seq_star(s: SequenceElement) -> SequenceElement:
    return SequenceElement(s.algebra, lambda n: s.algebra.star(s.at(n)), s.bound)


def limsup_norm(s: SequenceElement, policy: TailPolicy) -> float:
    return max(s.norm_at(n) for n in policy.samples())


def is_null(s: SequenceElement, policy: TailPolicy) -> bool:
    return limsup_norm(s, policy) < policy.tolerance


def equivalent(s: SequenceElement, t: SequenceElement, policy: TailPolicy) -> bool:
    return is_null(seq_sub(s, t), policy)


def subsequence(s: SequenceElement, index_map) -> SequenceElement:
    """Reindex by a strictly increasing map; monotonicity is checked lazily
    across every pair of indices the new element actually evaluates.

    The evaluated indices are kept sorted with their images increasing, so
    a new index only needs checking against its two neighbours.
    """
    evaluated: list[int] = []
    image: dict[int, int] = {}

    def gen(n: int):
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

    return SequenceElement(s.algebra, gen, s.bound)


def random_increasing_map(rng: np.random.Generator, max_step: int = 4):
    """Random strictly increasing map with memoized prefix, steps in [1, max_step]."""
    prefix = [0]

    def index_map(n: int) -> int:
        missing = n + 1 - len(prefix)
        if missing > 0:
            # one vector draw of exactly the missing steps: the rng is shared,
            # and it yields the same stream as that many scalar draws
            steps = rng.integers(1, max_step + 1, size=missing)
            prefix.extend((prefix[-1] + np.cumsum(steps)).tolist())
        return prefix[n]

    return index_map


def stability_probe(
    s: SequenceElement,
    member_fn,
    policy: TailPolicy,
    rng: np.random.Generator,
    n_maps: int = 8,
) -> tuple[bool, int]:
    """Re-test membership under n_maps random subsequences.

    Returns (all subsequences still satisfy member_fn, n_maps).  A finite
    probe of the subsequence-closure property, never a proof; the count is
    returned so reports can state the probe cardinality.
    """
    for _ in range(n_maps):
        sub = subsequence(s, random_increasing_map(rng))
        if not member_fn(sub, policy):
            return False, n_maps
    return True, n_maps


def polar_unitarize(s: SequenceElement, policy: TailPolicy) -> SequenceElement:
    """Entrywise polar factor of an almost-unitary sequence.

    Entries with smallest singular value below the cutoff are replaced by
    the identity.  Requires is_null(s* s - 1) and is_null(s s* - 1) under
    the policy; the output is entrywise unitary and null-close to s.
    """
    alg = s.algebra
    one = constant(alg, alg.unit())
    for defect in (seq_sub(seq_mul(seq_star(s), s), one), seq_sub(seq_mul(s, seq_star(s)), one)):
        if not is_null(defect, policy):
            raise DomainError("polar unitarization needs an almost-unitary input sequence")

    def gen(n: int):
        u, smallest = alg.polar(s.at(n))
        if smallest < POLAR_SINGULAR_CUTOFF:
            return alg.unit()
        return u

    return SequenceElement(alg, gen, 1.0)


def adjoint_morphism(u: SequenceElement, value, tol: float = 1e-10) -> SequenceElement:
    """n -> u(n)* value u(n); entries of u must be unitary within tol."""
    alg = u.algebra
    value_norm = alg.norm(value)

    def gen(n: int):
        un = u.at(n)
        # SequenceElement.at's pre-test: the exact defect only when the bound cannot decide
        bound = alg.unitarity_defect_bound(un)
        if not bound * (1.0 + BOUND_CHECK_MARGIN) <= tol and alg.unitarity_defect(un) > tol:
            raise DomainError(f"adjoint morphism needs unitary entries, defect at n={n}")
        return alg.mul(alg.mul(alg.star(un), value), un)

    return SequenceElement(alg, gen, value_norm)


def _same_algebra(s: SequenceElement, t: SequenceElement) -> None:
    if s.algebra is not t.algebra:
        raise UsageError("sequence elements live over different algebras")
