"""An independent oracle for the braiding, homotopy, decay and seqalg rows of a report.

It imports nothing from conebraid, and evaluates every number in mpmath at
30 digits from a config dict alone (the JSON of a config file, or
``RunConfig.to_dict()``).  Its scope is one pair of unit-width Gaussian
charges: a g-channel charge of q = 1, then an h-channel neutral profile of
amplitude 1.  There the symplectic coupling of the charge moved by a and
the profile moved by b is

    sigma(gamma_a, delta_b) = F(|a - b|, a_0 - b_0),
    F(d, dt) = sqrt(pi/2) [erf((d + dt)/2) + erf((d - dt)/2)] / (2 d),

with F(0, dt) = e^{-dt^2/4} / sqrt(2) and F(d) = F(d, 0) = sqrt(pi/2)
erf(d/2) / d, and equal channels do not couple.  Every transport at radius R
moves by R along a cone axis and by t = time_slope R^time_exponent in time,
the second charge's by the opposite spacetime vector -(t, R axis), and the
decay transporters move by +TRANSPORTER_OFFSET along the axis, the second
charge's by -TRANSPORTER_OFFSET, at no time.  So each row is a formula in F
at explicit distances, and no row depends on the cone's axis or angle;
``phases`` gives them:

- braiding/limit_vs_exact: e^{i(F(2R, 2t) - F(0))}, against the limit e^{-i F(0)};
- homotopy/limit_vs_exact: the same at the largest radius, on every cone;
- decay/implementation: |e^{i F(R, t)} - 1|;
- decay/implementation_transported: |e^{i(F(R + 2, t) - F(R, t))} - 1|;
- decay/abelianness: |e^{i(F(2R + 4, 2t) - 2 F(2R + 2, 2t) + F(2R, 2t))} - 1|;
- decay/tensor_ordering: |e^{i(F(2R + 4, 2t) - F(2R, 2t))} - 1|;
- decay/extension: |e^{i(F(R + 2, t) - F(R - 2, t))} - 1|;

and the categorical, rephase and mutual-spread rows compare two routes to one
number, so their value and residual are 0.  The checks' thresholds and the
chain length are restated here; a test pins them to ``suites``'.

The seqalg suite runs its own unit Gaussian pair on every config, so
``seqalg_rows`` needs no scope and reads only the cone and the seed.  It
moves the charge by the cone translation at R_n = SEQALG_RADIUS n^4, time
t_n = time_slope R_n^time_exponent, and the profile by its antipode; the
odd alternating transporters start from the charge shifted by s along the
axis, s = random.Random(seed + 2).uniform(1, 2).  Over n in SAMPLES:

- null_ideal: max |e^{i(F(2R_n, 2t_n) - F(0))} - e^{-i F(0)}|;
- adjoint_constant: max |e^{-i F(R_n, t_n)} - 1|;
- polar_null_distance: 1/R_33, the drift 1/R_n at the first sample;
- subsequence_converse: max |a_n - e^{i F(0)}| and adjoint_alternating:
  max |a_2n - a_2n+1|, where a_m = e^{i(F(0) - F(R_m, t_m))} at even m and
  e^{i(F(s) - F(R_m + s, t_m))} at odd m;

and the polar unitarity, singular fallback and adjoint center rows are 0 to
rounding.  The converse and alternating rows' residual is 0 when the
separation the suite judges holds (1 otherwise), and so is the stability
row's, whose value is PROBE_MAPS: a probe map's image at n is at least n,
and |e^{-i F(R_m, t_m)} - 1| falls with m, so every probed subsequence is
at least as close to its limit as adjoint_constant says.

At large d every coupling approaches the unit pair's Coulomb tail
``coulomb_tail`` = sqrt(pi/2) / d, whatever dt, and F less that tail falls
like erfc((d - |dt|)/2).  ``tail_removed`` is F with the tail subtracted at
every d >= TAIL_MIN_DISTANCE; ``phases`` and ``oracle_rows`` evaluate the rows
with it in place of F when it is passed as their coupling ``f``.
"""

import random

import mpmath

TRANSPORTER_OFFSET = 2.0
HOMOTOPY_STEPS = 6
SEQALG_RADIUS = 10.0
TAIL_START = 32
SAMPLES = tuple(range(TAIL_START + 1, TAIL_START + 9)) + tuple(TAIL_START * 2**j for j in range(1, 9))
NULL_TOLERANCE = 1e-6
PROBE_MAPS = 8
SEPARATION_THRESHOLD = 0.5
LAWS_THRESHOLD = 1e-12
BRAIDING_THRESHOLD = 1e-3
HOMOTOPY_THRESHOLD = 1e-3
DECAY_THRESHOLD = 1e-2
EXTENSION_THRESHOLD = 1e-2

DIGITS = 30
TAIL_MIN_DISTANCE = 5
TOLERANCE = 1e-12  # the largest |difference| of a value or residual from the report's
SUITES = ("braiding/", "homotopy/", "decay/", "seqalg/")
_CHARGE = {"profile": "gaussian-momentum", "q": 1.0, "s": 1.0}


class OutOfScope(ValueError):
    """The config is not one unit Gaussian g/h pair."""


def _check_scope(config: dict) -> None:
    charges = config["charges"]
    if [c["channel"] for c in charges] != ["g", "h"]:
        raise OutOfScope(f"need one g charge then one h charge, got channels {[c['channel'] for c in charges]}")
    for c in charges:
        other = {k: c[k] for k in _CHARGE if c[k] != _CHARGE[k]}
        if other:
            raise OutOfScope(f"charge {c['name']!r} is not a unit Gaussian: {other}")


def coupling(d, dt=0):
    """F(d, dt) at DIGITS digits, and its limit e^{-dt^2/4} / sqrt(2) at d = 0."""
    with mpmath.workdps(DIGITS):
        d, dt = mpmath.mpf(d), mpmath.mpf(dt)
        if d == 0:
            return mpmath.exp(-dt * dt / 4) / mpmath.sqrt(2)
        return mpmath.sqrt(mpmath.pi / 2) * (mpmath.erf((d + dt) / 2) + mpmath.erf((d - dt) / 2)) / (2 * d)


def coulomb_tail(d):
    """sqrt(pi/2) / d at DIGITS digits, which F(d, dt) approaches at large d whatever dt."""
    with mpmath.workdps(DIGITS):
        return mpmath.sqrt(mpmath.pi / 2) / mpmath.mpf(d)


def tail_removed(d, dt=0):
    """F(d, dt) less its Coulomb tail at d >= TAIL_MIN_DISTANCE, and F(d, dt) below."""
    with mpmath.workdps(DIGITS):
        return coupling(d, dt) - coulomb_tail(d) if d >= TAIL_MIN_DISTANCE else coupling(d, dt)


def phases(radius, time=0, f=coupling) -> dict:
    """{check_id: phase} at DIGITS digits of the exchange and the five decay rows at one radius.

    time is the transport's time component t, and f the coupling F(d, dt).
    The exchange row's value is e^{i phase}, and each decay row's residual
    is |e^{i phase} - 1|.
    """
    with mpmath.workdps(DIGITS):
        r, t, off = mpmath.mpf(radius), mpmath.mpf(time), mpmath.mpf(TRANSPORTER_OFFSET)
        return {
            "braiding/limit_vs_exact": f(2 * r, 2 * t) - f(0),
            "decay/implementation": f(r, t),
            "decay/implementation_transported": f(r + off, t) - f(r, t),
            "decay/abelianness": f(2 * r + 2 * off, 2 * t) - 2 * f(2 * r + off, 2 * t) + f(2 * r, 2 * t),
            "decay/tensor_ordering": f(2 * r + 2 * off, 2 * t) - f(2 * r, 2 * t),
            "decay/extension": f(r + off, t) - f(r - off, t),
        }


def defect(phase) -> float:
    """|e^{i phase} - 1|."""
    with mpmath.workdps(DIGITS):
        return float(abs(mpmath.expj(phase) - 1))


def _time(cone: dict, radius):
    """The cone transport's time component at the radius."""
    return cone["time_slope"] * radius ** cone["time_exponent"] if cone["time_slope"] else 0


def seqalg_rows(config: dict, f=coupling) -> dict:
    """{(check_id, "", "", None): (value, residual, threshold)} for the seqalg suite, on any config.

    f is the coupling F(d, dt) the rows are evaluated with.
    """
    cone = config["cone"]
    shift = random.Random(config["seed"] + 2).uniform(1, 2)
    with mpmath.workdps(DIGITS):

        def rung(n):
            radius = SEQALG_RADIUS * mpmath.mpf(n) ** 4
            return radius, _time(cone, radius)

        def alternating(m):
            """a_m, the alternating adjoint sequence's coefficient at m."""
            s = shift if m % 2 else 0
            radius, time = rung(m)
            return mpmath.expj(f(s) - f(radius + s, time))

        exact = mpmath.expj(-f(0))
        null = max(abs(mpmath.expj(f(2 * r, 2 * t) - f(0)) - exact) for r, t in map(rung, SAMPLES))
        adjoint = max(abs(mpmath.expj(-f(*rung(n))) - 1) for n in SAMPLES)
        limit = mpmath.expj(f(0))
        gap = max(abs(alternating(n) - limit) for n in SAMPLES)
        even_gap = max(abs(alternating(2 * n) - limit) for n in SAMPLES)
        split = max(abs(alternating(2 * n) - alternating(2 * n + 1)) for n in SAMPLES)
        drift = 1 / rung(SAMPLES[0])[0]
    zero = (0j, 0.0, LAWS_THRESHOLD)
    values = {
        "seqalg/polar_unitarity": zero,
        "seqalg/polar_null_distance": (complex(drift), float(drift), NULL_TOLERANCE),
        "seqalg/polar_singular_fallback": zero,
        "seqalg/subsequence_stability": (complex(PROBE_MAPS), float(adjoint >= NULL_TOLERANCE), SEPARATION_THRESHOLD),
        "seqalg/subsequence_converse": (
            complex(gap), float(not even_gap < NULL_TOLERANCE <= gap), SEPARATION_THRESHOLD
        ),
        "seqalg/null_ideal": (complex(null), float(null), NULL_TOLERANCE),
        "seqalg/adjoint_constant": (complex(adjoint), float(adjoint), NULL_TOLERANCE),
        "seqalg/adjoint_center": zero,
        "seqalg/adjoint_alternating": (complex(split), float(split < NULL_TOLERANCE), SEPARATION_THRESHOLD),
    }
    return {(check, "", "", None): row for check, row in values.items()}


def oracle_rows(config: dict, f=coupling) -> dict:
    """{(check_id, charge_pair, cone_id, radius): (value, residual, threshold)} for the four suites.

    f is the coupling F(d, dt) the rows are evaluated with.  Raises
    OutOfScope on a config outside the oracle's one model, whose seqalg
    rows ``seqalg_rows`` still gives.
    """
    _check_scope(config)
    pair = ":".join(c["name"] for c in config["charges"])
    cone = config["cone"]
    rows = {}
    with mpmath.workdps(DIGITS):
        limit = mpmath.expj(-f(0))

        def at(radius):
            """The exchange row's (value, residual), and the decay rows' phases, at one radius."""
            r = mpmath.mpf(radius)
            by_check = phases(r, _time(cone, r), f)
            exchange = mpmath.expj(by_check.pop("braiding/limit_vs_exact"))
            return (complex(exchange), float(abs(exchange - limit))), by_check

        for radius in config["radii"]:
            exchange, decay = at(radius)
            rows[("braiding/limit_vs_exact", pair, "", radius)] = (*exchange, BRAIDING_THRESHOLD)
            for check in ("braiding/categorical_vs_closed_form", "braiding/rephase_invariance"):
                rows[(check, pair, "", radius)] = (0j, 0.0, LAWS_THRESHOLD)
            for check, phase in decay.items():
                residual = defect(phase)
                threshold = EXTENSION_THRESHOLD if check == "decay/extension" else DECAY_THRESHOLD
                rows[(check, pair, "", radius)] = (complex(residual), residual, threshold)

        radius = config["radii"][-1]
        exchange, _ = at(radius)
        for k in range(HOMOTOPY_STEPS + 1):
            rows[("homotopy/limit_vs_exact", pair, f"cone{k:02d}", radius)] = (*exchange, HOMOTOPY_THRESHOLD)
        rows[("homotopy/mutual_spread", pair, "", radius)] = (0j, 0.0, HOMOTOPY_THRESHOLD)
    return {**rows, **seqalg_rows(config, f)}


def mismatches(records, oracle: dict) -> dict:
    """{row key: how it differs} for the braiding, homotopy, decay and seqalg rows of a report.

    records are report rows as ``CheckRow.record()`` dicts (the JSON report's
    rows).  A row differs when it is missing on either side, when its
    value or residual is more than TOLERANCE away, or when its threshold or
    verdict is not the oracle's.
    """
    report = {
        (r["check_id"], r["charge_pair"], r["cone_id"], r["radius"]): r for r in records if r["check_id"].startswith(SUITES)
    }
    out = {key: "only in the report" for key in report.keys() - oracle.keys()}
    out.update({key: "only in the oracle" for key in oracle.keys() - report.keys()})
    for key in report.keys() & oracle.keys():
        row, (value, residual, threshold) = report[key], oracle[key]
        drift = (row["value_re"] - value.real, row["value_im"] - value.imag, row["residual"] - residual)
        if not all(abs(d) <= TOLERANCE for d in drift):
            out[key] = f"value_re, value_im and residual differ by {drift}"
        elif row["threshold"] != threshold or row["pass"] != (residual <= threshold):
            out[key] = f"threshold {row['threshold']!r} pass {row['pass']}, against {threshold!r}"
    return out
