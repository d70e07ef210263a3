"""An independent oracle for the braiding, homotopy and decay rows of a report.

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

At large d every coupling approaches the unit pair's Coulomb tail
``coulomb_tail`` = sqrt(pi/2) / d, whatever dt, and F less that tail falls
like erfc((d - |dt|)/2).  ``tail_removed`` is F with the tail subtracted at
every d >= TAIL_MIN_DISTANCE; ``phases`` and ``oracle_rows`` evaluate the rows
with it in place of F when it is passed as their coupling ``f``.
"""

import mpmath

TRANSPORTER_OFFSET = 2.0
HOMOTOPY_STEPS = 6
LAWS_THRESHOLD = 1e-12
BRAIDING_THRESHOLD = 1e-3
HOMOTOPY_THRESHOLD = 1e-3
DECAY_THRESHOLD = 1e-2
EXTENSION_THRESHOLD = 1e-2

DIGITS = 30
TAIL_MIN_DISTANCE = 5
TOLERANCE = 1e-12  # the largest |difference| of a value or residual from the report's
SUITES = ("braiding/", "homotopy/", "decay/")
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


def oracle_rows(config: dict, f=coupling) -> dict:
    """{(check_id, charge_pair, cone_id, radius): (value, residual, threshold)} for the three suites.

    f is the coupling F(d, dt) the rows are evaluated with.  Raises
    OutOfScope on a config outside the oracle's one model.
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
            time = cone["time_slope"] * r ** cone["time_exponent"] if cone["time_slope"] else 0
            by_check = phases(r, time, f)
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
    return rows


def mismatches(records, oracle: dict) -> dict:
    """{row key: how it differs} for the braiding, homotopy and decay rows of a report.

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
