"""Radial Fourier transforms in numpy, for tests.

The package transforms only RadialPolynomial profiles, in closed form, one
momentum at a time.  ``panel_fourier`` sums the defining integral on a
composite Gauss-Legendre rule instead, so the tests can hold the closed
form against it, and against any profile that has no closed form here (the
unit-ball indicator as a bare callable).  ``composite_rule`` stacks the
package's fixed-order rule over equal panels with the float expressions of
field's panel route, so a test can sum the route's own nodes in numpy.  ``numpy_radial_fourier`` is the
same closed form vectorised in numpy, as the package computed it before it
left numpy.
"""

import numpy as np

from conebraid.field import TWO_PI_32
from conebraid.quadrature import _series, gauss_legendre_unit

# Momenta per block of the sinc kernel; bounds its temporaries to
# FOURIER_BLOCK x (panel nodes) whatever the number of momenta.
FOURIER_BLOCK = 128


def polynomial_values(shape, r) -> np.ndarray:
    """A RadialPolynomial's f(r) = sum_k c_k (r / R)^{2k}, by Horner in (r / R)^2."""
    u2 = (np.asarray(r, dtype=float) / shape.support) ** 2
    return np.polynomial.polynomial.polyval(u2, shape.coeffs)


def composite_rule(panels: int, order: int = 64) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule on [0, 1]: node m of panel k is h k + h u_m, weight h w_m, h = 1 / panels."""
    u, w = (np.asarray(v) for v in gauss_legendre_unit(order))
    h = 1.0 / panels
    nodes = (h * np.arange(panels))[:, None] + (h * u)[None, :]
    return nodes.ravel(), np.tile(h * w, panels)


def radial_panel_rule(support_radius: float, panels: int = 240, order: int = 8) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule on [0, support_radius]."""
    if support_radius <= 0.0:
        raise ValueError(f"support radius must be positive, got {support_radius}")
    if panels < 200:
        raise ValueError(f"at least 200 panels required, got {panels}")
    nodes, weights = composite_rule(panels, order)
    return support_radius * nodes, support_radius * weights


def panel_fourier(profile, support_radius: float, momenta, panels: int = 240):
    """f~(p) = (2 pi)^{-3/2} 4 pi int_0^R r^2 sinc(p r) f(r) dr on the panel rule.

    A scalar momentum gives a scalar, and p = 0 is the exact sinc limit.
    """
    p = np.atleast_1d(np.asarray(momenta, dtype=float))
    r, w = radial_panel_rule(support_radius, panels=panels)
    fr = np.asarray(profile(r), dtype=float)
    if fr.shape != r.shape:
        raise ValueError("profile must return one value per radius")
    # sinc(p r) = sin(p r)/(p r); np.sinc works in units of pi.
    base = (w * r**2 * fr)[None, :]
    sums = np.empty(p.shape)
    for i in range(0, p.size, FOURIER_BLOCK):
        kernel = np.sinc(np.outer(p[i : i + FOURIER_BLOCK], r) / np.pi)
        sums[i : i + FOURIER_BLOCK] = np.sum(kernel * base, axis=1)
    out = 4.0 * np.pi / TWO_PI_32 * sums
    return out[0] if np.ndim(momenta) == 0 else out


def numpy_radial_fourier(shape, momenta) -> np.ndarray:
    """4 pi (2 pi)^{-3/2} R^3 sum_k c_k M_{2k+2}(pR) of a RadialPolynomial, vectorised.

    M_m(x) = int_0^1 u^m sinc(xu) du: the shape's power series below x = 4,
    the upward sine/cosine recursion from there on.
    """
    x = np.abs(np.atleast_1d(np.asarray(momenta, dtype=float))) * shape.support
    near = x < 4.0
    moments = np.empty_like(x)
    x2 = x[near] * x[near]
    series = _series(shape.coeffs)
    total = np.full_like(x2, series[-1])
    for coeff in series[-2::-1]:
        total = total * x2 + coeff
    moments[near] = total
    xf = x[~near]
    sin, cos = np.sin(xf), np.cos(xf)
    s, c = (1.0 - cos) / xf, sin / xf
    total = np.zeros_like(xf)
    for n in range(1, 2 * len(shape.coeffs)):
        s, c = -cos / xf + (n / xf) * c, sin / xf - (n / xf) * s
        if n % 2:
            total += shape.coeffs[n // 2] * s
    moments[~near] = total / xf
    return 4.0 * np.pi / TWO_PI_32 * shape.support**3 * moments
