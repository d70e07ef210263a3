"""Array code of the field model: radial rules, the bump transform and the panel-route kernel.

This module and seqalg are the only ones that import numpy.  The field
layer imports this one where it builds its first array (a radial rule, or
a pair integral on the panel route), so importing the package, loading a
config and building the field vectors of a run load no numpy.

Momentum integrals of radial kernels run over (0, r_max] on composite
Gauss-Legendre panel rules; the origin is never a node, so integrands with
integrable |p|^-k singularities can be evaluated directly.  A compactly
supported position profile is an even polynomial (``field.RadialPolynomial``),
whose radial Fourier transform is closed form.

All constructions are pure functions of their arguments; rules built from
equal parameters are bit-identical.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ConfigError
from .field import RADIAL_RULE_PANEL_ORDER, SIGMA, TWO_PI_32, Profile, RadialPolynomial

# The closed-form transform sums a RadialPolynomial's series below
# _SERIES_MAX_X and runs the upward recursion from there on (see the series
# constants in field).
_SERIES_MAX_X = 4.0
# Panels per block of a pair integral's kernel, which bounds its temporaries
# to PAIR_BLOCK_PANELS * RADIAL_RULE_PANEL_ORDER nodes whatever the rule size.
PAIR_BLOCK_PANELS = 256


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


def _moment_series(series: tuple[float, ...], x: np.ndarray) -> np.ndarray:
    """sum_j a_j x^{2j} by Horner in x^2; accurate for x < _SERIES_MAX_X."""
    x2 = x * x
    total = np.full_like(x, series[-1])
    for coeff in series[-2::-1]:
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


def radial_fourier(profile: RadialPolynomial, momenta) -> np.ndarray:
    """Momentum-space transform of a radial position profile, in closed form.

    Computes f~(p) = (2 pi)^{-3/2} * 4 pi * integral_0^R r^2 sinc(p r) f(r) dr
    for the convention f~(p) = (2 pi)^{-3/2} integral e^{-i p.x} f(|x|) d^3x,
    evaluated at the requested momentum magnitudes, with R the profile's
    support: 4 pi (2 pi)^{-3/2} R^3 sum_k c_k M_{2k+2}(pR).  The p -> 0
    limit is the sinc limit and is handled exactly.
    """
    x = np.abs(np.atleast_1d(np.asarray(momenta, dtype=float))) * profile.support
    near = x < _SERIES_MAX_X
    moments = np.empty_like(x)
    moments[near] = _moment_series(profile.series, x[near])
    moments[~near] = _moment_recursion(profile.coeffs, x[~near])
    out = 4.0 * np.pi / TWO_PI_32 * profile.support**3 * moments
    if np.ndim(momenta) == 0:
        return out[0]
    return out


# A far pair reads its rule in kernel blocks of at most 16,384 momenta
# (128 KB), one entry each; 256 entries keep every block of a pair for both
# forms up to separations of about 2.6e5.
@lru_cache(maxsize=256)
def _bump_transform(shape: RadialPolynomial, momenta: bytes) -> np.ndarray:
    """Read-only radial_fourier of a bump shape at the given momenta."""
    out = radial_fourier(shape, np.frombuffer(momenta))
    out.setflags(write=False)
    return out


def _momentum_values(profile: Profile, r: np.ndarray) -> np.ndarray:
    """The radial momentum profile at the momenta r (Profile.value_at_zero gives r = 0)."""
    if profile.kind == "gauss":
        return np.exp(-0.5 * (profile.width * r) ** 2)
    if profile.kind == "gauss2":
        return r**2 * np.exp(-0.5 * (profile.width * r) ** 2)
    if profile.kind == "bump":
        return _bump_transform(profile.shape, np.asarray(r, dtype=float).tobytes())
    raise ConfigError(f"unknown profile kind {profile.kind!r}")


def _channel_factors(key: tuple, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real radial factors (G, H) of an atom key (profile, channel, t): g~ = e^{-i p.d} G, h~ = e^{-i p.d} H."""
    profile, channel, t = key
    phi = _momentum_values(profile, r)
    if t == 0.0:
        zero = np.zeros_like(phi)
        return (phi, zero) if channel == "g" else (zero, phi)
    c = np.cos(r * t)
    if channel == "g":
        # g -> cos(omega t) g,  h -> -omega^{-1} sin(omega t) g
        return c * phi, -t * np.sinc(r * t / np.pi) * phi
    # h -> cos(omega t) h,  g -> omega sin(omega t) h
    return r * np.sin(r * t) * phi, c * phi


def _kernel(form: str, kx: tuple, ky: tuple, r: np.ndarray) -> np.ndarray:
    """K(r) of the pair of atom keys; swapping kx and ky negates SIGMA and keeps RE, both bit for bit."""
    gx, hx = _channel_factors(kx, r)
    gy, hy = _channel_factors(ky, r)
    return gx * hy - gy * hx if form == SIGMA else gx * gy / r + hx * hy * r


def panel_sinc_sum(form: str, kx: tuple, ky: tuple, delta: float, r: np.ndarray, w: np.ndarray, r_max: float) -> float:
    """4 pi int_0^r_max K(r) sinc(r delta) dr of one pair of atom keys on the composite rule (r, w).

    K is field._pair_integral's kernel of the form.  At delta = 0 the value
    is dot(w, K).  Otherwise node m of panel k of the rule is r = k h + r0_m, so
    sin(delta r) = sin(k delta h) cos(delta r0_m) + cos(k delta h) sin(delta r0_m)
    takes P + 64 sines and cosines instead of one per node; the kernel runs
    over blocks of PAIR_BLOCK_PANELS panels, so its temporaries stay small.
    """
    if delta == 0.0:
        return 4.0 * np.pi * float(np.dot(w, _kernel(form, kx, ky, r)))
    order = RADIAL_RULE_PANEL_ORDER
    panels = len(r) // order
    first = delta * r[:order]
    cos0, sin0 = np.cos(first), np.sin(first)
    step = delta * r_max / panels
    total = 0.0
    for k in range(0, panels, PAIR_BLOCK_PANELS):
        block = slice(k * order, (k + PAIR_BLOCK_PANELS) * order)
        rb = r[block]
        a = (w[block] * _kernel(form, kx, ky, rb) / (delta * rb)).reshape(-1, order)
        start = step * np.arange(k, k + len(a))
        total += float(np.sin(start) @ (a @ cos0) + np.cos(start) @ (a @ sin0))
    return 4.0 * np.pi * total
