"""Quadrature rules and the radial transform against closed-form integrals and mpmath.

The panel-sum transform of tests/panel_transform.py is the reference route
for the package's closed-form transform of a RadialPolynomial, and its
numpy closed form is the formula the package used before it left numpy.
"""

import ast
from fractions import Fraction
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest

from conebraid import quadrature as Q
from conebraid.errors import RunError
from conebraid.field import TWO_PI_32, RadialPolynomial
from conebraid.quadrature import gauss_legendre_unit, radial_fourier

from panel_transform import composite_rule, numpy_radial_fourier, panel_fourier, polynomial_values, radial_panel_rule


def test_gauss_legendre_unit():
    nodes, weights = gauss_legendre_unit(16)
    assert nodes.readonly and weights.readonly and nodes.format == "d"
    nodes, weights = np.asarray(nodes), np.asarray(weights)
    assert np.all((nodes > 0) & (nodes < 1)) and np.all(np.diff(nodes) > 0)
    assert abs(weights.sum() - 1.0) < 1e-14
    assert abs(np.dot(weights, nodes**3) - 0.25) < 1e-14
    assert [v.tolist() for v in gauss_legendre_unit(1)] == [[0.5], [1.0]]
    with pytest.raises(RunError, match="at least one node"):
        gauss_legendre_unit.__wrapped__(0)


def _mpmath_legendre_rule(n, guesses):
    """Nodes and weights on [0, 1] at 40 digits, by Newton from the given nodes."""
    with mpmath.workdps(40):
        nodes, weights = [], []
        for guess in guesses:
            x = mpmath.mpf(2 * guess - 1)
            for _ in range(8):
                p, pm = mpmath.legendre(n, x), mpmath.legendre(n - 1, x)
                x -= p * (x * x - 1) / (n * (x * p - pm))
            dp = n * (x * mpmath.legendre(n, x) - mpmath.legendre(n - 1, x)) / (x * x - 1)
            nodes.append((1 + x) / 2)
            weights.append(1 / ((1 - x * x) * dp * dp))
        return nodes, weights


@pytest.mark.parametrize("n", [2, 7, 64, 200])
def test_gauss_legendre_unit_against_mpmath_and_leggauss(n):
    # Newton on the recurrence against a 40-digit rule: no worse than numpy's
    # eigenvalue-based leggauss (mapped to [0, 1] as the package once did it)
    # on node error and on relative weight error
    nodes, weights = gauss_legendre_unit(n)
    exact_nodes, exact_weights = _mpmath_legendre_rule(n, nodes)
    x, w = np.polynomial.legendre.leggauss(n)

    def errors(got_nodes, got_weights):
        node_err = max(abs(mpmath.mpf(float(a)) - b) for a, b in zip(got_nodes, exact_nodes))
        weight_err = max(abs(mpmath.mpf(float(a)) - b) / b for a, b in zip(got_weights, exact_weights))
        return float(node_err), float(weight_err)

    node_err, weight_err = errors(nodes, weights)
    numpy_node_err, numpy_weight_err = errors(0.5 * (x + 1.0), 0.5 * w)
    assert node_err <= max(numpy_node_err, 2.0**-54) and node_err <= 1e-16
    assert weight_err <= max(numpy_weight_err, 2.0**-52) and weight_err <= 2e-13


def test_radial_fourier_indicator():
    # unit ball indicator: f~(p) = (2 pi)^{-3/2} 4 pi (sin p - p cos p)/p^3
    p = np.array([0.0, 0.5, 1.0, 2.0, 5.0])
    got = panel_fourier(lambda r: np.ones_like(r), 1.0, p)
    with np.errstate(invalid="ignore"):
        expected = (2.0 * np.pi) ** -1.5 * 4.0 * np.pi * (np.sin(p) - p * np.cos(p)) / p**3
    expected[0] = (2.0 * np.pi) ** -1.5 * 4.0 * np.pi / 3.0
    assert np.max(np.abs(got - expected)) < 1e-12
    # scalar momentum passes through as a scalar
    assert np.isscalar(panel_fourier(lambda r: np.ones_like(r), 1.0, 0.0))


@pytest.mark.parametrize("count", [1, 128, 129, 4000])
def test_radial_fourier_blocks_match_one_shot(count):
    # blocked evaluation keeps every per-momentum sum, so it is bit-identical
    fn = lambda r: (1.0 - r**2) ** 2
    p = np.linspace(0.0, 300.0, count)
    r, w = radial_panel_rule(1.0)
    kernel = np.sinc(np.outer(p, r) / np.pi)
    one_shot = 4.0 * np.pi / TWO_PI_32 * np.sum(kernel * (w * r**2 * fn(r))[None, :], axis=1)
    assert np.array_equal(panel_fourier(fn, 1.0, p), one_shot)


def test_radial_fourier_panel_consistency():
    fn = lambda r: (1.0 - r**2) ** 2
    p = np.linspace(0.0, 8.0, 17)
    a = panel_fourier(fn, 1.0, p, panels=200)
    b = panel_fourier(fn, 1.0, p, panels=400)
    assert np.max(np.abs(a - b)) < 1e-12


def test_radial_panel_rule_integrates_polynomial():
    nodes, weights = radial_panel_rule(2.0, panels=200)
    assert abs(np.dot(weights, nodes**4) - 2.0**5 / 5.0) < 1e-12
    with pytest.raises(ValueError):
        radial_panel_rule(2.0, panels=100)


def test_composite_rule_matches_single_rule():
    # eight panels of the cached 64-node rule, as field's panel route walks
    # them, integrate like one 512-node rule
    n1, w1 = (np.asarray(v) for v in gauss_legendre_unit(512))
    n2, w2 = composite_rule(8, 64)
    assert len(n2) == 512 and np.all(np.diff(n2) > 0)
    assert abs(math.fsum(w2) - 1.0) < 1e-14
    f = lambda r: np.exp(-9.0 * r * r) * np.cos(31.0 * r)
    assert abs(np.dot(w1, f(n1)) - np.dot(w2, f(n2))) < 1e-13


BUMP_SHAPES = {"indicator": (1.0,), "smooth": (1.0, -2.0, 1.0)}


def _mpmath_transform(coeffs, support, p):
    """4 pi (2 pi)^{-3/2} int_0^R r^2 sinc(pr) f(r) dr by mpmath.quad at 30 digits."""
    with mpmath.workdps(30):
        R, p = mpmath.mpf(support), mpmath.mpf(p)

        def integrand(r):
            f = sum(c * (r / R) ** (2 * k) for k, c in enumerate(coeffs))
            return r * r * f * (mpmath.sin(p * r) / (p * r) if r else 1)

        value = mpmath.quad(integrand, mpmath.linspace(0, R, 2 + int(p * R)))
        return float(4 * mpmath.pi / (2 * mpmath.pi) ** 1.5 * value)


@pytest.mark.parametrize("support", [1.0, 2.5])
@pytest.mark.parametrize("shape", sorted(BUMP_SHAPES))
def test_polynomial_transform_matches_mpmath_and_panel_sum(shape, support):
    # x = pR from 1e-6 to 10R, with points on both sides of the series/recursion branch
    coeffs = BUMP_SHAPES[shape]
    profile = RadialPolynomial(coeffs, support)
    branch = Q._SERIES_MAX_X
    near_branch = branch * (1.0 + np.array([-1e-3, -1e-12, 0.0, 1e-12, 1e-3]))
    x = np.concatenate([np.logspace(-6, np.log10(10.0 * support), 36), near_branch])
    p = x / support
    got = np.asarray(radial_fourier(profile, p.tolist()))
    phi0 = radial_fourier(profile, 0.0)
    # every series coefficient a_j is its exact rational rounded once, and
    # p = 0 is the j = 0 coefficient, exactly
    exact = [
        (-1) ** j * sum(Fraction(c) / (2 * k + 2 * j + 3) for k, c in enumerate(coeffs)) / math.factorial(2 * j + 1)
        for j in range(Q._SERIES_TERMS)
    ]
    assert Q._series(coeffs) == tuple(float(a) for a in exact)
    assert phi0 == 4.0 * np.pi / TWO_PI_32 * support**3 * float(exact[0])
    oracle = np.array([_mpmath_transform(coeffs, support, pk) for pk in p])
    assert np.max(np.abs(got - oracle)) <= 1e-15 * phi0
    # the panel sum of the equivalent callable is the reference route
    panel = panel_fourier(lambda r: sum(c * (r / support) ** (2 * k) for k, c in enumerate(coeffs)), support, p)
    assert np.max(np.abs(got - panel)) <= 1e-15 * phi0


@pytest.mark.parametrize("count", [192, 896, 160_000])
@pytest.mark.parametrize("shape", sorted(BUMP_SHAPES))
def test_radial_fourier_matches_the_numpy_formula(shape, count):
    # the per-momentum stdlib transform against the vectorised numpy closed
    # form, on the momenta of composite rules over (0, 10]: within an ulp
    profile = RadialPolynomial(BUMP_SHAPES[shape], 1.0)
    nodes, _ = composite_rule(count // 64, 64)
    p = 10.0 * nodes
    got = np.asarray(radial_fourier(profile, p.tolist()))
    want = numpy_radial_fourier(profile, p)
    assert np.all(np.abs(got - want) <= np.spacing(np.abs(want)))


def test_polynomial_transform_builds_no_panel_rule(monkeypatch):
    profile = RadialPolynomial((1.0, -2.0, 1.0), 1.5)
    r = np.linspace(0.0, 1.5, 7)
    # Horner in (r/R)^2, so equal to the factored form up to rounding
    assert np.max(np.abs(polynomial_values(profile, r) - (1.0 - (r / 1.5) ** 2) ** 2)) <= 1e-15
    expected = radial_fourier(profile, [0.0, 1.0, 5.0])
    monkeypatch.setattr(Q, "gauss_legendre_unit", None)
    assert radial_fourier(profile, (0.0, 1.0, 5.0)) == expected
    assert type(expected) is list and type(radial_fourier(profile, 2.0)) is float
    # equal by value, so equal shapes share atoms
    assert RadialPolynomial([1, -2, 1], 1.5) == profile
    assert hash(RadialPolynomial((1.0, -2.0, 1.0), 1.5)) == hash(profile)
    coefficients = "needs 1 to 4 finite coefficients"
    for coeffs, support, message in (
        ((), 1.0, coefficients),
        ((1.0,) * 5, 1.0, coefficients),
        ((float("nan"),), 1.0, coefficients),
        ((1.0,), 0.0, "support radius must be positive"),
    ):
        with pytest.raises(RunError, match=message):
            RadialPolynomial(coeffs, support)


def test_quadrature_imports_nothing_from_field():
    # field owns the radial model and imports quadrature lazily; an import
    # back from field, at any depth of the module, would make a cycle
    tree = ast.parse(Path(Q.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["conebraid" if node.level else "", node.module]))
            imported.add(module)
            imported.update(f"{module}.{alias.name}" for alias in node.names)
    assert "conebraid.errors" in imported
    assert "conebraid.field" not in imported
