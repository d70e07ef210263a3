"""Radial rules and the closed-form bump transform, on the stdlib.

Rules are Gauss-Legendre on [0, 1].  ``gauss_legendre_unit`` finds the
nodes by Newton's method on the Legendre three-term recurrence, from
Tricomi's initial guesses (Hale & Townsend, SIAM J. Sci. Comput. 35,
2013).  It stores nodes and weights in ``array('d')`` and hands them out as
read-only memoryviews, so a cached rule cannot be changed by its readers.
field's panel route reads one fixed-order rule and scales it to each panel
itself; no composite rule is built here.

``radial_fourier`` transforms a compactly supported radial position
profile, an even polynomial with ``coeffs`` and ``support`` (a
field.RadialPolynomial), in closed form, and ``cached_transform`` memoizes
it per list of momenta, as field's panel route reads it a panel at a time.

This module imports nothing from field; field imports it where it is first
needed.  All constructions are pure functions of their arguments; rules
built from equal parameters are bit-identical.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
import math

from .errors import RunError

# The closed-form transform sums the power series sum_j a_j x^{2j} in x = pR
# below _SERIES_MAX_X = 4, where the factors x^{2j}/(2j+1)! stay below 3 and
# fall under 1e-40 within _SERIES_TERMS terms, and runs an upward recursion
# from there on.  That recursion scales rounding by about
# prod_{n <= 2K+1} n/x at x = 4, which stays below 1 for up to 4
# coefficients (K + 1), field.RadialPolynomial's limit.
_SERIES_MAX_X = 4.0
_SERIES_TERMS = 30
# Newton on the recurrence stops once a step is below _NEWTON_STEP; the root
# is then the iterate minus that last step, whose own error is of the order
# of the step squared times |P''/P'|, far below an ulp.
_NEWTON_STEP = 1e-12
_NEWTON_MAX_STEPS = 20


def _legendre(n: int, x: float) -> tuple[float, float]:
    """(P_{n-1}(x), P_n(x)) by the three-term recurrence, for n >= 1."""
    p0, p1 = 1.0, x
    for j in range(2, n + 1):
        p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
    return p0, p1


@lru_cache(maxsize=256)
def gauss_legendre_unit(n: int) -> tuple[memoryview, memoryview]:
    """Gauss-Legendre nodes (ascending) and weights mapped from [-1, 1] to [0, 1].

    Each root x of P_n in (0, 1) comes from Newton's method on the
    recurrence.  The node pair is (1 -/+ x) / 2, with 1 - x taken as the
    exact difference 1 - x_k of the last iterate plus the last step, and
    the weight is 1 / ((1 - x^2) P_n'(x)^2), with P_n' carried from x_k to
    the root by one Taylor step (P_n'' from Legendre's equation).  So nodes
    near 0 keep their relative accuracy, and the weights are not limited by
    the rounding of the root.
    """
    if n < 1:
        raise RunError("Gauss-Legendre rule needs at least one node")
    low, low_weights = [], []
    for k in range(1, n // 2 + 1):
        theta = math.pi * (4 * k - 1) / (4 * n + 2)
        x = (1.0 - (n - 1) / (8.0 * n**3) - (39.0 - 28.0 / math.sin(theta) ** 2) / (384.0 * n**4)) * math.cos(theta)
        for _ in range(_NEWTON_MAX_STEPS):
            pm, p = _legendre(n, x)
            one_x2 = (1.0 - x) * (1.0 + x)
            dp = n * (pm - x * p) / one_x2
            dx = p / dp
            if abs(dx) <= _NEWTON_STEP:
                break
            x -= dx
        else:
            raise RunError(f"Newton's method found no root {k} of P_{n}")
        d = (1.0 - x) + dx  # 1 - root
        dp_root = dp - dx * (2.0 * x * dp - n * (n + 1) * p) / one_x2
        low.append(0.5 * d)
        low_weights.append(1.0 / (d * (2.0 - d) * dp_root * dp_root))
    mid, mid_weight = [], []
    if n % 2:
        pm, _ = _legendre(n, 0.0)
        mid, mid_weight = [0.5], [1.0 / (n * pm) ** 2]
    nodes = array("d", low + mid + [1.0 - u for u in reversed(low)])
    weights = array("d", low_weights + mid_weight + low_weights[::-1])
    return memoryview(nodes).toreadonly(), memoryview(weights).toreadonly()


@lru_cache(maxsize=64)
def _series(coeffs: tuple[float, ...]) -> tuple[float, ...]:
    """a_j with sum_k c_k M_{2k+2}(x) = sum_j a_j x^{2j}, M_m(x) = int_0^1 u^m sinc(xu) du.

    a_j = (-1)^j / (2j+1)! * sum_k c_k / (2k+2j+3) is summed over the
    monomials as exact integers over one denominator and rounded once, so
    the cancellation between the monomials of a shape costs no digits.
    """
    ratios = [c.as_integer_ratio() for c in coeffs]
    out = []
    for j in range(_SERIES_TERMS):
        dens = [d * (2 * k + 2 * j + 3) for k, (_, d) in enumerate(ratios)]
        common = math.prod(dens)
        exact = sum(n * (common // d) for (n, _), d in zip(ratios, dens))
        out.append((-1) ** j * exact / (common * math.factorial(2 * j + 1)))
    return tuple(out)


def _moment(series: tuple[float, ...], coeffs: tuple[float, ...], x: float) -> float:
    """sum_k c_k M_{2k+2}(x), M_m(x) = int_0^1 u^m sinc(xu) du, at x >= 0.

    Below _SERIES_MAX_X: the series sum_j a_j x^{2j} by Horner in x^2.  From
    there on: M_m = S_{m-1} / x, where S_n = int_0^1 u^n sin(xu) du and
    C_n = int_0^1 u^n cos(xu) du obey S_n = -cos(x)/x + (n/x) C_{n-1} and
    C_n = sin(x)/x - (n/x) S_{n-1}, from S_0 = (1 - cos x)/x and
    C_0 = sin(x)/x.
    """
    if x < _SERIES_MAX_X:
        x2 = x * x
        total = series[-1]
        for a in series[-2::-1]:
            total = total * x2 + a
        return total
    sin, cos = math.sin(x), math.cos(x)
    minus_cos_x, sin_x = -cos / x, sin / x
    s, c = (1.0 - cos) / x, sin_x
    total = 0.0
    for k, coeff in enumerate(coeffs):
        if k:
            step = 2 * k / x
            s, c = minus_cos_x + step * c, sin_x - step * s
        step = (2 * k + 1) / x
        s, c = minus_cos_x + step * c, sin_x - step * s
        total += coeff * s
    return total / x


def radial_fourier(profile, momenta):
    """Momentum-space transform of a radial position profile, in closed form.

    Computes f~(p) = (2 pi)^{-3/2} * 4 pi * integral_0^R r^2 sinc(p r) f(r) dr
    for the convention f~(p) = (2 pi)^{-3/2} integral e^{-i p.x} f(|x|) d^3x,
    evaluated at the requested momentum magnitudes, with R the profile's
    support: 4 pi (2 pi)^{-3/2} R^3 sum_k c_k M_{2k+2}(pR).  The p -> 0
    limit is the sinc limit and is handled exactly.  A number gives a
    float, a sequence of momenta a list.
    """
    coeffs, support = profile.coeffs, profile.support
    # 4 pi (2 pi)^{-3/2} = sqrt(2 / pi), the same double
    scale = math.sqrt(2.0 / math.pi) * support**3
    series = _series(coeffs)
    if isinstance(momenta, (int, float)):
        return scale * _moment(series, coeffs, abs(momenta) * support)
    return [scale * _moment(series, coeffs, abs(p) * support) for p in momenta]


# A pair integral reads the transform one panel of momenta at a time; 4,096
# panels (about 5 MB) keep every panel of a pair for both forms up to rules
# of 262,144 nodes, separations of about 1.6e4.
@lru_cache(maxsize=4096)
def _bump_transform(shape, momenta: bytes) -> memoryview:
    """Read-only radial_fourier of a bump shape at the momenta packed as doubles."""
    return memoryview(array("d", radial_fourier(shape, array("d", momenta)))).toreadonly()


def cached_transform(shape, momenta: list[float]) -> memoryview:
    """radial_fourier of a bump shape at the momenta, read-only, memoized per list of momenta."""
    return _bump_transform(shape, array("d", momenta).tobytes())
