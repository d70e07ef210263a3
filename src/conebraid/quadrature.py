"""Deterministic quadrature over momentum space.

Momentum integrals of radial kernels run over (0, r_max] on composite
Gauss-Legendre panel rules; the origin is never a node, so integrands with
integrable |p|^-k singularities can be evaluated directly.  A compactly
supported position profile is an even polynomial (``RadialPolynomial``),
whose radial Fourier transform is closed form.

All constructions are pure functions of their arguments; rules built from
equal parameters are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError

TWO_PI_32 = (2.0 * np.pi) ** 1.5  # (2 pi)^{3/2}, the Fourier normalisation
# The closed-form transform of a RadialPolynomial sums its power series in
# x = pR below _SERIES_MAX_X, where the factors x^{2j}/(2j+1)! stay below 3
# and fall under 1e-40 within _SERIES_TERMS terms, and runs the upward
# recursion over int_0^1 u^n {sin, cos}(xu) du from there on.  That recursion
# scales rounding by about prod_{n <= 2K+1} n/x at x = 4, which stays below 1
# for up to _MAX_POLY_TERMS coefficients (K + 1).
_SERIES_MAX_X = 4.0
_SERIES_TERMS = 30
_MAX_POLY_TERMS = 4


@lru_cache(maxsize=256)
def gauss_legendre_unit(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped from [-1, 1] to [0, 1]."""
    if n < 1:
        raise ConfigError("Gauss-Legendre rule needs at least one node")
    x, w = np.polynomial.legendre.leggauss(n)
    nodes = 0.5 * (x + 1.0)
    weights = 0.5 * w
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


@lru_cache(maxsize=64)
def composite_legendre_unit(panels: int, order: int = 64) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule on [0, 1] with equal-width panels.

    A single n-node rule is a dense eigensolve costing O(n^3); stacking one
    cached fixed-order rule keeps construction linear in panels * order.
    This is the only rule family: the radial route scales it.
    """
    if panels < 1 or order < 2:
        raise ConfigError("composite rule needs at least one panel of order >= 2")
    base_nodes, base_weights = gauss_legendre_unit(order)
    width = 1.0 / panels
    starts = width * np.arange(panels)
    nodes = (starts[:, None] + width * base_nodes[None, :]).reshape(-1)
    weights = np.broadcast_to(width * base_weights, (panels, order)).reshape(-1).copy()
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


@dataclass(frozen=True)
class RadialPolynomial:
    """Radial position profile f(r) = sum_k coeffs[k] (r / support)^{2k} on [0, support].

    Callable on radii, and radial_fourier transforms it in closed
    form.  Instances with equal coefficients and support compare equal.
    """

    coeffs: tuple[float, ...]
    support: float

    def __post_init__(self) -> None:
        coeffs = tuple(float(c) for c in self.coeffs)
        if not 1 <= len(coeffs) <= _MAX_POLY_TERMS or not all(math.isfinite(c) for c in coeffs):
            raise ConfigError(f"radial polynomial needs 1 to {_MAX_POLY_TERMS} finite coefficients")
        if not math.isfinite(self.support) or self.support <= 0.0:
            raise ConfigError(f"support radius must be positive, got {self.support}")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "support", float(self.support))

    def __call__(self, r) -> np.ndarray:
        u2 = (np.asarray(r, dtype=float) / self.support) ** 2
        return np.polynomial.polynomial.polyval(u2, self.coeffs)


@lru_cache(maxsize=64)
def _series_coefficients(coeffs: tuple[float, ...]) -> np.ndarray:
    """a_j with sum_k c_k M_{2k+2}(x) = sum_j a_j x^{2j}, M_m(x) = int_0^1 u^m sinc(xu) du.

    a_j = (-1)^j / (2j+1)! * sum_k c_k / (2k+2j+3) is summed over the
    monomials in exact rationals and rounded once, so the cancellation
    between the monomials of a shape costs no digits.
    """
    # imported here: fractions loads decimal, about 0.4 MB of peak RSS that a
    # run without a bump charge would pay at start-up
    from fractions import Fraction

    out = np.empty(_SERIES_TERMS)
    for j in range(_SERIES_TERMS):
        exact = sum(Fraction(c) / (2 * k + 2 * j + 3) for k, c in enumerate(coeffs))
        out[j] = float((-1) ** j * exact / math.factorial(2 * j + 1))
    out.setflags(write=False)
    return out


def _moment_series(coeffs: tuple[float, ...], x: np.ndarray) -> np.ndarray:
    """sum_k c_k M_{2k+2}(x) by Horner in x^2; accurate for x < _SERIES_MAX_X."""
    a = _series_coefficients(coeffs)
    x2 = x * x
    total = np.full_like(x, a[-1])
    for coeff in a[-2::-1]:
        total = total * x2 + coeff
    return total


def _moment_recursion(coeffs: tuple[float, ...], x: np.ndarray) -> np.ndarray:
    """sum_k c_k M_{2k+2}(x) for x >= _SERIES_MAX_X, from M_m = S_{m-1} / x.

    S_n = int_0^1 u^n sin(xu) du and C_n = int_0^1 u^n cos(xu) du obey
    S_n = -cos(x)/x + (n/x) C_{n-1} and C_n = sin(x)/x - (n/x) S_{n-1},
    from S_0 = (1 - cos x)/x and C_0 = sin(x)/x.
    """
    sin, cos = np.sin(x), np.cos(x)
    s, c = (1.0 - cos) / x, sin / x
    total = np.zeros_like(x)
    for n in range(1, 2 * len(coeffs)):
        s, c = -cos / x + (n / x) * c, sin / x - (n / x) * s
        if n % 2:
            total += coeffs[n // 2] * s
    return total / x


def _polynomial_fourier(profile: RadialPolynomial, p: np.ndarray) -> np.ndarray:
    """4 pi (2 pi)^{-3/2} R^3 sum_k c_k M_{2k+2}(pR) of a RadialPolynomial of support R."""
    x = np.abs(p) * profile.support
    near = x < _SERIES_MAX_X
    moments = np.empty_like(x)
    moments[near] = _moment_series(profile.coeffs, x[near])
    moments[~near] = _moment_recursion(profile.coeffs, x[~near])
    return 4.0 * np.pi / TWO_PI_32 * profile.support**3 * moments


def radial_fourier(profile: RadialPolynomial, momenta) -> np.ndarray:
    """Momentum-space transform of a radial position profile, in closed form.

    Computes f~(p) = (2 pi)^{-3/2} * 4 pi * integral_0^R r^2 sinc(p r) f(r) dr
    for the convention f~(p) = (2 pi)^{-3/2} integral e^{-i p.x} f(|x|) d^3x,
    evaluated at the requested momentum magnitudes, with R the profile's
    support.  The p -> 0 limit is the sinc limit and is handled exactly.
    """
    out = _polynomial_fourier(profile, np.atleast_1d(np.asarray(momenta, dtype=float)))
    if np.ndim(momenta) == 0:
        return out[0]
    return out
