"""Inversion-symmetric angular rules on the unit sphere.

The rules are the classical octahedrally symmetric Lebedev-Laikov designs.
Each rule is assembled from orbits of the octahedral group with inversion,
so for every node u the node -u is present with the same weight.  Weights
returned here are normalised so that they sum to 4*pi (surface measure of
the unit sphere).

The 74-point design of the classical family carries a negative weight and is
deliberately not offered: all supported rules have strictly positive weights.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError


def _orbit(code: int, a: float, b: float, v: float) -> np.ndarray:
    """Points and weight of one octahedral orbit, rows (x, y, z, w)."""
    if code == 0:
        pts = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]
        pts = [p for q in pts for p in (q, tuple(-c for c in q))]
    elif code == 1:
        a = np.sqrt(0.5)
        pts = []
        for i, j in ((1, 2), (0, 2), (0, 1)):
            for si in (1.0, -1.0):
                for sj in (1.0, -1.0):
                    p = [0.0, 0.0, 0.0]
                    p[i] = si * a
                    p[j] = sj * a
                    pts.append(tuple(p))
    elif code == 2:
        a = np.sqrt(1.0 / 3.0)
        pts = [
            (sx * a, sy * a, sz * a)
            for sx in (1.0, -1.0)
            for sy in (1.0, -1.0)
            for sz in (1.0, -1.0)
        ]
    elif code == 3:
        # (a, a, b) orbit, b fixed by normalisation.
        b = np.sqrt(max(1.0 - 2.0 * a * a, 0.0))
        pts = []
        for perm in ((0, 1, 2), (0, 2, 1), (2, 0, 1)):
            for sx in (1.0, -1.0):
                for sy in (1.0, -1.0):
                    for sz in (1.0, -1.0):
                        vec = (sx * a, sy * a, sz * b)
                        pts.append(tuple(vec[k] for k in perm))
    elif code == 4:
        # (a, b, 0) orbit, b fixed by normalisation.
        b = np.sqrt(max(1.0 - a * a, 0.0))
        pts = []
        for u, w in ((a, b), (b, a)):
            for i, j in ((0, 1), (0, 2), (1, 2)):
                for si in (1.0, -1.0):
                    for sj in (1.0, -1.0):
                        p = [0.0, 0.0, 0.0]
                        p[i] = si * u
                        p[j] = sj * w
                        pts.append(tuple(p))
    elif code == 5:
        # (a, b, c) full orbit of 48 points.
        c = np.sqrt(max(1.0 - a * a - b * b, 0.0))
        pts = []
        for perm in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
            for sx in (1.0, -1.0):
                for sy in (1.0, -1.0):
                    for sz in (1.0, -1.0):
                        vec = (sx * a, sy * b, sz * c)
                        pts.append(tuple(vec[k] for k in perm))
    else:  # pragma: no cover - table is static
        raise ConfigError(f"unknown orbit code {code}")
    out = np.empty((len(pts), 4))
    out[:, :3] = np.asarray(pts)
    out[:, 3] = v
    return out


# (code, a, b, weight) orbit parameters, weights normalised to sum to 1.
_RULES: dict[int, tuple[tuple[int, float, float, float], ...]] = {
    6: ((0, 0.0, 0.0, 0.1666666666666667),),
    14: (
        (0, 0.0, 0.0, 0.6666666666666667e-1),
        (2, 0.0, 0.0, 0.7500000000000000e-1),
    ),
    26: (
        (0, 0.0, 0.0, 0.4761904761904762e-1),
        (1, 0.0, 0.0, 0.3809523809523810e-1),
        (2, 0.0, 0.0, 0.3214285714285714e-1),
    ),
    38: (
        (0, 0.0, 0.0, 0.9523809523809524e-2),
        (2, 0.0, 0.0, 0.3214285714285714e-1),
        (4, 0.4597008433809831, 0.0, 0.2857142857142857e-1),
    ),
    50: (
        (0, 0.0, 0.0, 0.1269841269841270e-1),
        (1, 0.0, 0.0, 0.2257495590828924e-1),
        (2, 0.0, 0.0, 0.2109375000000000e-1),
        (3, 0.3015113445777636, 0.0, 0.2017333553791887e-1),
    ),
    86: (
        (0, 0.0, 0.0, 0.1154401154401154e-1),
        (2, 0.0, 0.0, 0.1194390908585628e-1),
        (3, 0.3696028464541502, 0.0, 0.1111055571060340e-1),
        (3, 0.6943540066026664, 0.0, 0.1187650129453714e-1),
        (4, 0.3742430390903412, 0.0, 0.1181230374690448e-1),
    ),
    110: (
        (0, 0.0, 0.0, 0.3828270494937162e-2),
        (2, 0.0, 0.0, 0.9793737512487512e-2),
        (3, 0.1851156353447362, 0.0, 0.8211737283191111e-2),
        (3, 0.6904210483822922, 0.0, 0.9942814891178103e-2),
        (3, 0.3956894730559419, 0.0, 0.9595471336070963e-2),
        (4, 0.4783690288121502, 0.0, 0.9694996361663028e-2),
    ),
    146: (
        (0, 0.0, 0.0, 0.5996313688621381e-3),
        (1, 0.0, 0.0, 0.7372999718620756e-2),
        (2, 0.0, 0.0, 0.7210515360144488e-2),
        (3, 0.6764410400114264, 0.0, 0.7116355493117555e-2),
        (3, 0.4174961227965453, 0.0, 0.6753829486314477e-2),
        (3, 0.1574676672039082, 0.0, 0.7574394159054034e-2),
        (5, 0.1403553811713183, 0.4493328323269557, 0.6991087353303262e-2),
    ),
    170: (
        (0, 0.0, 0.0, 0.5544842902037365e-2),
        (1, 0.0, 0.0, 0.6071332770670752e-2),
        (2, 0.0, 0.0, 0.6383674773515093e-2),
        (3, 0.2551252621114134, 0.0, 0.5183387587747790e-2),
        (3, 0.6743601460362766, 0.0, 0.6317929009813725e-2),
        (3, 0.4318910696719410, 0.0, 0.6201670006589077e-2),
        (4, 0.2613931360335988, 0.0, 0.5477143385137348e-2),
        (5, 0.4990453161796037, 0.1446630744325115, 0.5968383987681156e-2),
    ),
    194: (
        (0, 0.0, 0.0, 0.1782340447244611e-2),
        (1, 0.0, 0.0, 0.5716905949977102e-2),
        (2, 0.0, 0.0, 0.5573383178848738e-2),
        (3, 0.6712973442695226, 0.0, 0.5608704082587997e-2),
        (3, 0.2892465627575439, 0.0, 0.5158237711805383e-2),
        (3, 0.4446933178717437, 0.0, 0.5518771467273614e-2),
        (3, 0.1299335447650067, 0.0, 0.4106777028169394e-2),
        (4, 0.3457702197611283, 0.0, 0.5051846064614808e-2),
        (5, 0.1590417105383530, 0.8360360154824589, 0.5530248916233094e-2),
    ),
}

SUPPORTED_ORDERS: tuple[int, ...] = tuple(sorted(_RULES))


def angular_rule(n_points: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit vectors and weights of the inversion-symmetric rule.

    Parameters
    ----------
    n_points : int
        Size of the rule; must be one of ``SUPPORTED_ORDERS``.

    Returns
    -------
    nodes : (n_points, 3) ndarray
        Unit vectors, exactly closed under u -> -u.
    weights : (n_points,) ndarray
        Strictly positive weights summing to 4*pi.
    """
    if n_points not in _RULES:
        raise ConfigError(
            f"no inversion-symmetric angular rule with {n_points} points; "
            f"supported sizes: {SUPPORTED_ORDERS}"
        )
    table = np.vstack([_orbit(*params) for params in _RULES[n_points]])
    if table.shape[0] != n_points:  # pragma: no cover - static table
        raise ConfigError(f"angular table for {n_points} is inconsistent")
    nodes = table[:, :3].copy()
    weights = 4.0 * np.pi * table[:, 3].copy()
    return nodes, weights
