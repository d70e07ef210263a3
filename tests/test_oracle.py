"""Every braiding, homotopy, decay and seqalg row of a report against the independent oracle.

tests/oracle_report.py recomputes those rows in mpmath from the config
alone; here each config runs in process and its report must match the
oracle row for row, value and residual to 1e-12 and verdict for verdict.
The braiding, homotopy and decay rows are in scope on the Gaussian
configs, and the seqalg rows, which run their own unit Gaussian pair, on
every committed config.  The radius ladders are the ones README
"Numerical findings", F(d) and its Coulomb tail, cites.
"""

import json
from pathlib import Path

import pytest

from conebraid import seqalg, suites
from conebraid.config import config_from_dict, load_config
from conebraid.suites import run_suite
import oracle_report
from oracle_report import OutOfScope, mismatches, oracle_rows, seqalg_rows, tail_removed

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
FILES = ["default", "seed11", "decay_extended", "far_radius", "tilted_cone"]
# the default pair at far radii, where every pair takes the erf closed form,
# and across the exchange residual's 1e-3 crossing
LADDERS = {
    "radii_2.5e5-1e6": (2.5e5, 5e5, 1e6),
    "radii_1e8-4e8": (1e8, 2e8, 4e8),
    "radii_600-627": (600.0, 626.0, 627.0),
}
# the default pair on bump_sloped's time-sloped cone, whose transports
# also move by sqrt(R) in time; at radii 2 to 4 the second charge's time
# component decides the decay rows (at R = 2 abelianness reads 0.0064 at
# -t, the antipode, and 0.0508 at +t), so that case pins the geometry
SLOPED = {"bump_sloped_cone": None, "sloped_cone_radii_2-4": (2.0, 3.0, 4.0)}


def _config(case: str):
    default = load_config(CONFIG_DIR / "default.json")
    if case in LADDERS:
        return config_from_dict({**default.to_dict(), "radii": LADDERS[case]})
    if case in SLOPED:
        sloped = load_config(CONFIG_DIR / "bump_sloped.json").to_dict()
        radii = SLOPED[case] or sloped["radii"]
        return config_from_dict({**default.to_dict(), "cone": sloped["cone"], "radii": radii})
    return load_config(CONFIG_DIR / f"{case}.json")


@pytest.mark.parametrize("case", FILES + list(LADDERS) + list(SLOPED))
def test_report_matches_the_oracle(case):
    config = _config(case)
    records = [row.record() for row in run_suite(config, "all").rows]
    assert mismatches(records, oracle_rows(config.to_dict())) == {}


@pytest.mark.parametrize("name", sorted(path.stem for path in CONFIG_DIR.glob("*.json")))
def test_seqalg_rows_match_the_oracle(name):
    # the bump configs too: the suite moves its own pair along the configured cone
    config = load_config(CONFIG_DIR / f"{name}.json")
    records = [row.record() for row in run_suite(config, "seqalg").rows]
    assert mismatches(records, seqalg_rows(config.to_dict())) == {}


# The worst tail-removed residual of each limit check of the unit pair at
# time_slope 0: the exchange rows sit at rounding, and the decay rows peak at
# R = 10, where the remainder erfc((d - |dt|)/2) is largest
TAIL_REMOVED_WORST = {
    "braiding/limit_vs_exact": 2.2e-16,
    "homotopy/limit_vs_exact": 2.2e-16,
    "decay/implementation": 1.9e-13,
    "decay/implementation_transported": 1.9e-13,
    "decay/abelianness": 1.9e-13,
    "decay/tensor_ordering": 1.9e-13,
    "decay/extension": 2.4e-9,
}
TAIL_REMOVED_BOUNDED = ("default", "seed11", "tilted_cone", "decay_extended")


@pytest.mark.parametrize("case", FILES + list(LADDERS) + ["bump_sloped_cone"])
def test_tail_removed_limit_rows_pass(case):
    # with the Coulomb tail sqrt(pi/2) / d subtracted from every coupling at
    # d >= 5, every limit row passes its own threshold: the tail is what keeps
    # the finite-R rows from passing.  On the sloped cone the remainder is
    # largest (implementation 8.3e-8, extension 4.9e-5).  Radii 2 to 4 keep
    # their couplings below d = 5, tail and all, so they are not a case here
    rows = oracle_rows(_config(case).to_dict(), tail_removed)
    bounded = case in TAIL_REMOVED_BOUNDED
    for (check, *_), (_, residual, threshold) in rows.items():
        if check in TAIL_REMOVED_WORST:
            bound = min(threshold, 10.0 * TAIL_REMOVED_WORST[check]) if bounded else threshold
            assert residual <= bound, (check, residual)


def test_the_oracle_places_the_threshold_crossings():
    # README "Numerical findings", Crossings: the exchange residual |e^{i F(2R)} - 1|
    # crosses 1e-3 between R = 626 and 627, and the implementation residual
    # |e^{i F(R)} - 1| crosses 1e-2 near R = 125, between decay_extended's
    # radii 80 and 160
    def verdicts(check, radii):
        rows = oracle_rows({**_config("default").to_dict(), "radii": radii})
        return [residual <= threshold for _, residual, threshold in (rows[(check, "gamma:delta", "", r)] for r in radii)]

    assert verdicts("braiding/limit_vs_exact", (600.0, 626.0, 627.0)) == [False, False, True]
    assert verdicts("decay/implementation", (124.0, 125.0, 126.0)) == [False, False, True]


def test_exactly_the_bump_configs_are_out_of_scope():
    # so every other committed config is one of FILES
    out = set()
    for path in CONFIG_DIR.glob("*.json"):
        try:
            oracle_rows(json.loads(path.read_text()))
        except OutOfScope:
            out.add(path.stem)
    assert out == {"bump_sloped", "two_bump"}
    assert {path.stem for path in CONFIG_DIR.glob("*.json")} - out == set(FILES)


def test_the_oracle_restates_the_suites_constants():
    names = (
        "TRANSPORTER_OFFSET",
        "HOMOTOPY_STEPS",
        "LAWS_THRESHOLD",
        "BRAIDING_THRESHOLD",
        "HOMOTOPY_THRESHOLD",
        "DECAY_THRESHOLD",
        "EXTENSION_THRESHOLD",
        "SEPARATION_THRESHOLD",
        "SEQALG_RADIUS",
    )
    assert [getattr(oracle_report, n) for n in names] == [getattr(suites, n) for n in names]
    names = ("TAIL_START", "SAMPLES", "NULL_TOLERANCE", "PROBE_MAPS")
    assert [getattr(oracle_report, n) for n in names] == [getattr(seqalg, n) for n in names]
