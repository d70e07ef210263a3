"""Bounded sequences of Weyl generators modulo null sequences.

A sequence element is a pure generator n -> weyl.WeylElement together with
a caller-certified norm bound; pointwise products descend to the quotient
by null sequences.  The asymptotic norm is replaced by a finite surrogate
fixed in code: limsup_norm takes the maximum, over the indices in SAMPLES,
all beyond TAIL_START, of ||s_n|| or of ||s_n - t_n||, and is_null and
equivalent mean that maximum falls below NULL_TOLERANCE.  Like the rest of
the check policy, no config moves them and reports do not record them.
Every check reads a sequence, subsequences included, only at SAMPLES: a
subsequence maps a finite window of indices, and probe maps are drawn there.

The algebra is the Weyl algebra of weyl, the one the category's arrows
live in: the norm of c W(x) is |c|, the norm of a difference of two
generators is weyl.distance, the product is weyl_mul and the adjoint is
weyl.star.  A generator c W(x) with c != 0 has the polar factor
(c/|c|) W(x), and its smallest singular value is |c|.  Polar
unitarization maps an almost-unitary sequence, one with ||c_n|^2 - 1|
null, to its entrywise polar factor, substituting W(0) where |c| is below
POLAR_SINGULAR_CUTOFF; the output is entrywise unitary and null-close to
the input.  Random draws come from a stdlib random.Random.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .errors import RunError
from .weyl import WeylElement, distance, star, weyl, weyl_mul

if TYPE_CHECKING:
    import random

POLAR_SINGULAR_CUTOFF = 1e-8
ADJOINT_UNITARY_TOL = 1e-10  # largest unitarity defect adjoint_morphism accepts
MAX_INDEX_STEP = 4  # stability_probe's index steps lie in [1, MAX_INDEX_STEP]
# One byte per step, mapped through _STEPS: MAX_INDEX_STEP divides 256, so
# a uniform byte gives a uniform step.
_STEPS = bytes(1 + b % MAX_INDEX_STEP for b in range(256))
PROBE_MAPS = 8  # random subsequences a stability_probe re-tests
# limsup_norm's 16 sample indices, all beyond TAIL_START: half consecutive
# (so alternating patterns are seen by both parities), half geometrically
# spaced (so slow tails are probed far out).
TAIL_START = 32
SAMPLES = tuple(range(TAIL_START + 1, TAIL_START + 9)) + tuple(TAIL_START * 2**j for j in range(1, 9))
NULL_TOLERANCE = 1e-6


class SequenceElement:
    """Pure generator with a certified norm bound; evaluations are
    memoized, and each is checked against the bound.
    """

    def __init__(self, generator, bound: float):
        if not (bound >= 0.0 and math.isfinite(bound)):
            raise RunError("bound must be a finite nonnegative real")
        self.generator = generator
        self.bound = float(bound)
        self._memo: dict[int, WeylElement] = {}

    def at(self, n: int) -> WeylElement:
        if n < 1:
            raise RunError("sequence indices start at 1")
        if n not in self._memo:
            value = self.generator(n)
            size = abs(value.coeff)
            # "not <=" also refuses a nan norm
            if not size <= self.bound * (1.0 + 1e-9) + 1e-12:
                raise RunError(f"generator breaks its certified bound at n={n}: {size} > {self.bound}")
            self._memo[n] = value
        return self._memo[n]


def constant(value: WeylElement) -> SequenceElement:
    """n -> value, certified by the value's own norm."""
    return SequenceElement(lambda n: value, abs(value.coeff))


def seq_mul(s: SequenceElement, t: SequenceElement) -> SequenceElement:
    return SequenceElement(lambda n: weyl_mul(s.at(n), t.at(n)), s.bound * t.bound)


def limsup_norm(s: SequenceElement, t: SequenceElement | None = None) -> float:
    """Largest ||s_n|| over SAMPLES, or with t the largest ||s_n - t_n||."""
    if t is None:
        return max(abs(s.at(n).coeff) for n in SAMPLES)
    return max(distance(s.at(n), t.at(n)) for n in SAMPLES)


def is_null(s: SequenceElement) -> bool:
    return limsup_norm(s) < NULL_TOLERANCE


def equivalent(s: SequenceElement, t: SequenceElement) -> bool:
    return limsup_norm(s, t) < NULL_TOLERANCE


def subsequence(s: SequenceElement, images: dict[int, int]) -> SequenceElement:
    """Reindex on a window: n -> images[n] for the indices images maps.

    images is copied and checked once, here, to be ints >= 1 strictly
    increasing in index order; evaluating an index it does not map is
    refused.
    """
    images = dict(sorted(images.items()))
    values = list(images.values())
    if not all(type(m) is int and m >= 1 for m in values) or any(a >= b for a, b in zip(values, values[1:])):
        raise RunError("subsequence images must be ints >= 1, strictly increasing in index order")

    def gen(n: int) -> WeylElement:
        if n not in images:
            raise RunError(f"subsequence is not defined at n={n}")
        return s.at(images[n])

    return SequenceElement(gen, s.bound)


def stability_probe(s: SequenceElement, limit: SequenceElement, rng: random.Random) -> bool:
    """Whether PROBE_MAPS random subsequences of s all stay equivalent to limit.

    Each map is drawn on SAMPLES only, the window equivalent reads: from
    one sample index to the next its image grows by one i.i.d. step in
    [1, MAX_INDEX_STEP] per index.  A finite probe of the
    subsequence-closure property, never a proof.
    """
    for _ in range(PROBE_MAPS):
        images, image, last = {}, 0, 0
        for n in SAMPLES:
            image += sum(rng.randbytes(n - last).translate(_STEPS))
            images[n], last = image, n
        if not equivalent(subsequence(s, images), limit):
            return False
    return True


def polar_unitarize(s: SequenceElement) -> SequenceElement:
    """Entrywise polar factor (c/|c|) W(x) of an almost-unitary sequence.

    Entries with |c| below the cutoff are replaced by W(0).  Requires
    ||c_n|^2 - 1| null (for a generator, s* s - 1 and s s* - 1 are both
    that scalar); the output is entrywise unitary and null-close to s.
    """
    if not max(abs(abs(s.at(n).coeff) ** 2 - 1.0) for n in SAMPLES) < NULL_TOLERANCE:
        raise RunError("polar unitarization needs an almost-unitary input sequence")

    def gen(n: int) -> WeylElement:
        a = s.at(n)
        size = abs(a.coeff)
        if size < POLAR_SINGULAR_CUTOFF:
            return weyl(a.label.zero())
        return WeylElement(a.coeff / size, a.label)

    return SequenceElement(gen, 1.0)


def adjoint_morphism(u: SequenceElement, value: WeylElement) -> SequenceElement:
    """n -> u(n)* value u(n); entries of u must be unitary within ADJOINT_UNITARY_TOL."""

    def gen(n: int) -> WeylElement:
        un = u.at(n)
        if abs(abs(un.coeff) ** 2 - 1.0) > ADJOINT_UNITARY_TOL:
            raise RunError(f"adjoint morphism needs unitary entries, defect at n={n}")
        return weyl_mul(weyl_mul(star(un), value), un)

    return SequenceElement(gen, abs(value.coeff))
