"""Independent reference values for the rows the benchmark checks.

Nothing here imports conebraid.  For a g-channel charge atom at the origin
and an h-channel neutral atom moved in space by d and in time by dt, the
symplectic coupling reduces to one radial integral (the angular average of
the translation phase is sinc(r d), the time offset contributes cos(r dt)):

    S(d, dt) = 4 pi c_g c_h  int_0^inf phi_g(r) phi_h(r) cos(r dt) sinc(r d) dr.

For two unit Gaussians with dt = 0 this is the closed form
F(d) = sqrt(pi/2) erf(d/2) / d, evaluated with scipy.special.erf.  For a
bump-position charge, phi_g is the radial Fourier transform of the position
profile, computed with scipy's Gauss-Legendre nodes, and the outer integral
runs through QUADPACK (scipy.integrate.quad).

The checked rows follow from S:

    braiding/limit_vs_exact at radius R:  exp(i (S(2R, 2 a0) - S(0, 0)))
    decay/implementation at radius R:     |exp(i S(R, a0)) - 1|

where a0 = time_slope * R**time_exponent is the transport's time component.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, special

TWO_PI_32 = (2.0 * math.pi) ** 1.5
# Beyond this momentum both Gaussian factors are below 1e-40.
_R_CUT = 14.0
_PIECES = 56
_BUMP_NODES, _BUMP_WEIGHTS = special.roots_legendre(96)


def closed_form_f(d: float) -> float:
    """F(d) = sqrt(pi/2) erf(d/2)/d with F(0) = 1/sqrt(2)."""
    if d == 0.0:
        return 1.0 / math.sqrt(2.0)
    return math.sqrt(math.pi / 2.0) * float(special.erf(d / 2.0)) / d


def _bump_transform(shape: str, support: float):
    """phi(p) = 4 pi (2 pi)^{-3/2} int_0^a r^2 sinc(p r) f(r) dr on a 96-node rule."""
    r = 0.5 * support * (_BUMP_NODES + 1.0)
    w = 0.5 * support * _BUMP_WEIGHTS
    f = np.ones_like(r) if shape == "indicator" else (1.0 - (r / support) ** 2) ** 2
    base = w * r**2 * f

    def phi(p):
        p = np.atleast_1d(np.asarray(p, dtype=float))
        return 4.0 * math.pi / TWO_PI_32 * (np.sinc(np.outer(p, r) / math.pi) @ base)

    return phi


def _atom(charge: dict):
    """(coefficient, phi) of a charge config entry, as the package defines it."""
    q, s = float(charge["q"]), float(charge["s"])
    if charge["profile"] == "gaussian-momentum":
        gauss = lambda r: np.exp(-0.5 * (s * np.asarray(r)) ** 2)  # noqa: E731
        if charge["channel"] == "g":
            if q == 0.0:
                raise ValueError("the oracle covers charged g atoms only")
            return q / TWO_PI_32, gauss
        return q, gauss
    return q, _bump_transform(charge["shape"], float(charge["support_radius"]))


def coupling(charge_g: dict, charge_h: dict, d: float, dt: float) -> float:
    """S(d, dt) for a g-channel charge and an h-channel partner."""
    if charge_g["channel"] != "g" or charge_h["channel"] != "h":
        raise ValueError("the oracle covers a g-channel charge against an h-channel partner")
    cg, phi_g = _atom(charge_g)
    ch, phi_h = _atom(charge_h)
    both_unit_gauss = all(
        c["profile"] == "gaussian-momentum" and float(c["s"]) == 1.0 for c in (charge_g, charge_h)
    )
    if both_unit_gauss and dt == 0.0:
        return cg * ch * TWO_PI_32 * closed_form_f(d)

    def integrand(r):
        val = phi_g(r) * phi_h(r) * np.cos(r * dt) * np.sinc(r * d / math.pi)
        return float(np.asarray(val).reshape(-1)[0])

    edges = np.linspace(0.0, _R_CUT, _PIECES + 1)
    total = 0.0
    for lo, hi in zip(edges, edges[1:]):
        val, _ = integrate.quad(integrand, lo, hi, epsabs=1e-14, epsrel=1e-14, limit=200)
        total += val
    return 4.0 * math.pi * cg * ch * total


def expected_values(config: dict) -> dict[tuple[str, float], complex]:
    """(check_id, radius) -> reference value for the first two charges."""
    charge_g, charge_h = config["charges"][0], config["charges"][1]
    cone = config["cone"]
    out = {}
    s00 = coupling(charge_g, charge_h, 0.0, 0.0)
    for radius in config["radii"]:
        a0 = cone["time_slope"] * radius ** cone["time_exponent"] if cone["time_slope"] else 0.0
        far = coupling(charge_g, charge_h, 2.0 * radius, 2.0 * a0)
        out[("braiding/limit_vs_exact", radius)] = complex(np.exp(1j * (far - s00)))
        near = coupling(charge_g, charge_h, radius, a0)
        out[("decay/implementation", radius)] = complex(abs(np.exp(1j * near) - 1.0))
    return out


def oracle_error(config: dict, rows: list[dict]) -> tuple[float, int]:
    """Largest |value - reference| over the checked rows, and how many rows."""
    expected = expected_values(config)
    worst, seen = 0.0, 0
    for row in rows:
        key = (row["check_id"], row["radius"])
        if key in expected:
            value = complex(row["value_re"], row["value_im"])
            worst = max(worst, abs(value - expected[key]))
            seen += 1
    return worst, seen
