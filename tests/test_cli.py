"""Config parsing, report emission, suite planning, and the CLI driver."""

import ast
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from conebraid.cli import main
from conebraid import field as F
from conebraid import seqalg
from conebraid import suites
from conebraid.config import ChargeCfg, ConeSpec, RunConfig, config_from_dict, load_config
from conebraid.errors import ConfigError
from conebraid.report import CheckRow, Report, emit_report
from conebraid.suites import plan_counts, run_suite, vector_from_charge_cfg
from conebraid.weyl import WeylElement
from expected_reports import expected_csv, expected_rows, expected_run
from oracle_report import coupling, defect

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
CONFIG_PATH = CONFIG_DIR / "default.json"


def default_dict() -> dict:
    return json.loads(CONFIG_PATH.read_text())


def test_config_roundtrip_idempotent():
    cfg = load_config(CONFIG_PATH)
    again = config_from_dict(json.loads(cfg.to_canonical_json()))
    assert again == cfg
    assert len(cfg.digest()) == 16 and int(cfg.digest(), 16) >= 0


def test_config_defaults_match_reference():
    cfg = RunConfig().validate()
    assert cfg.radii == (10.0, 20.0, 30.0, 40.0)
    assert cfg.cone == ConeSpec(axis=(0.0, 0.0, 1.0), time_slope=0.0, time_exponent=0.0)
    assert cfg.seed == 0
    # a config carries only what a workload varies; the check policy is not config
    # and the momentum cutoff is the model's constant, not config
    # and the output directory is the CLI's --out, so it never moves the config digest
    assert set(cfg.to_dict()) == {"charges", "cone", "radii", "seed"}


def test_check_policy_is_fixed_in_suites():
    # the values the removed config keys shipped with; moving one changes
    # the meaning of every report row that uses it
    assert (
        suites.LAWS_THRESHOLD,
        suites.GRAM_THRESHOLD,
        suites.BRAIDING_THRESHOLD,
        suites.HOMOTOPY_THRESHOLD,
        suites.DECAY_THRESHOLD,
        suites.EXTENSION_THRESHOLD,
    ) == (1e-12, 1e-10, 1e-3, 1e-3, 1e-2, 1e-2)
    assert (suites.LAW_SAMPLES, suites.HOMOTOPY_STEPS, suites.HOMOTOPY_STEP_DEG) == (100, 6, 30.0)
    assert (suites.TRANSPORTER_OFFSET, suites.SEPARATION_THRESHOLD) == (2.0, 0.5)
    assert (seqalg.TAIL_START, len(seqalg.SAMPLES), seqalg.NULL_TOLERANCE) == (32, 16, 1e-6)


def _tree_paths(node, path=()):
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _tree_paths(child, path + (key,))


def _json_kind(value) -> str:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return "number"
    return type(value).__name__


json_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-5, 100),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
    st.lists(st.floats(-50.0, 50.0), max_size=4),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(st.sampled_from(list(_tree_paths(default_dict()))), json_values)
def test_mutated_config_parses_or_raises_config_error(path, value):
    # parsing only: any mutation of the default tree either gives a valid
    # config or a one-line ConfigError, and never a config holding a value of
    # another JSON kind or a non-finite number
    data = default_dict()
    node = data
    for key in path[:-1]:
        node = node[key]
    old, node[path[-1]] = node[path[-1]], value
    try:
        config_from_dict(data)
    except ConfigError as exc:
        assert "\n" not in str(exc)
        return
    assert _json_kind(value) == _json_kind(old)
    assert not isinstance(value, float) or math.isfinite(value)


def _report(rows) -> Report:
    return Report(suite="demo", config_digest="00", seed=0, rows=rows)


def test_report_csv_shape():
    rows = [
        CheckRow("b/x", "g:d", "", 10.0, 1 + 2j, 0.5, 1.0, True),
        CheckRow("a/y", "", "cone00", None, 0j, 2.0, 1.0, False),
    ]
    text = _report(rows).to_csv().splitlines()
    assert text[0] == "check_id,charge_pair,cone_id,radius,value_re,value_im,residual,threshold,pass"
    # sorted by check id; empty radius cell for checks without a schedule
    assert text[1] == "a/y,,cone00,,0.0,0.0,2.0,1.0,false"
    assert text[2] == "b/x,g:d,,10.0,1.0,2.0,0.5,1.0,true"
    assert _report([]).to_csv() == text[0] + "\n"


def test_report_rows_are_sorted_whatever_the_input_order():
    rows = [
        CheckRow("b/x", "g:d", "", 20.0, 0j, 0.0, 1.0, True),
        CheckRow("a/y", "", "cone01", None, 0j, 0.0, 1.0, True),
        CheckRow("b/x", "g:d", "", 10.0, 0j, 2.0, 1.0, False),
        CheckRow("a/y", "", "cone00", None, 0j, 0.0, 1.0, True),
    ]
    want = sorted(rows, key=CheckRow.sort_key)
    for order in (rows, rows[::-1], rows[1:] + rows[:1]):
        rep = _report(order)
        assert rep.rows == want and rep.failures() == [want[2]]
        # both formats write one record per row, in that order
        assert json.loads(rep.to_json())["rows"] == [row.record() for row in want]
        assert [line.split(",")[3] for line in rep.to_csv().splitlines()[1:]] == ["", "", "10.0", "20.0"]


def test_report_json_omits_wall_time():
    rep = _report([CheckRow("a", "", "", 10.0, 1j, 0.1, 1.0, True)])
    rep.wall_time_s = 1.234
    payload = json.loads(rep.to_json())
    assert "wall" not in rep.to_json()
    # the metadata names the run and nothing else
    assert payload["metadata"] == {"suite": "demo", "config_digest": "00", "seed": 0}
    assert payload["rows"][0]["value_im"] == 1.0 and payload["rows"][0]["pass"] is True


def test_emit_report_formats_and_errors(tmp_path):
    rep = _report([])
    for fmt in ("csv", "json"):
        paths = emit_report(rep, tmp_path / "out", fmt)
        assert paths == [tmp_path / "out" / f"demo_report.{fmt}"] and paths[0].is_file()
    blocker = tmp_path / "file.txt"
    blocker.write_text("x")
    with pytest.raises(ConfigError):
        emit_report(rep, blocker / "sub", "csv")
    for fmt in ("yaml", "both"):
        with pytest.raises(ConfigError):
            emit_report(rep, tmp_path, fmt)


def test_plan_counts_default():
    cfg = load_config(CONFIG_PATH)
    for suite in suites.SUITE_NAMES:
        assert sum(n for _, n in plan_counts(cfg, suite)) == expected_run("default", suite)[0], suite
    with pytest.raises(ConfigError):
        plan_counts(cfg, "bogus")


def test_braiding_rows_follow_radius_schedule():
    data = default_dict()
    data["radii"] = [10.0, 15.0, 20.0, 25.0, 30.0]
    cfg = config_from_dict(data)
    report = run_suite(cfg, "braiding")
    per_pair = [r for r in report.rows if r.check_id == "braiding/limit_vs_exact"]
    assert len(per_pair) == 5
    assert [r.radius for r in sorted(per_pair, key=lambda r: r.radius)] == data["radii"]


def test_homotopy_chain_starts_at_the_configured_cone():
    ctx = suites.RunContext(load_config(CONFIG_PATH))
    chain = ctx.homotopy_chain()
    assert chain[0] is ctx.config.cone and len(chain) == suites.HOMOTOPY_STEPS + 1


def test_cone00_homotopy_row_is_the_largest_radius_braiding_row():
    rows = expected_rows("default")
    (cone00,) = [r for r in rows if r.check_id == "homotopy/limit_vs_exact" and r.cone_id == "cone00"]
    (at_40,) = [r for r in rows if r.check_id == "braiding/limit_vs_exact" and r.radius == 40.0]
    assert cone00.value == at_40.value and cone00.residual == at_40.residual


def test_each_homotopy_row_transports_along_its_own_cone(monkeypatch):
    # moving every cone but the configured one to 1.5 R changes the homotopy
    # rows of those cones, and no braiding row, which reads the configured cone
    import random

    ctx = suites.RunContext(load_config(CONFIG_PATH))

    def rows():
        braiding = suites.run_braiding(ctx, random.Random(1))
        homotopy = [r for r in suites.run_homotopy(ctx) if r.cone_id]
        return braiding, homotopy

    braiding, homotopy = rows()
    translation = ConeSpec.translation

    def farther(cone, radius):
        return translation(cone, radius if cone is ctx.config.cone else 1.5 * radius)

    monkeypatch.setattr(ConeSpec, "translation", farther)
    braiding_moved, homotopy_moved = rows()
    assert braiding_moved == braiding
    assert homotopy_moved[0] == homotopy[0] and homotopy_moved[0].cone_id == "cone00"
    assert [r.cone_id for r in homotopy_moved[1:]] == [f"cone{k:02d}" for k in range(1, suites.HOMOTOPY_STEPS + 1)]
    assert all(moved.value != row.value for moved, row in zip(homotopy_moved[1:], homotopy[1:]))


def test_seqalg_suite_deterministic_and_seed_sensitive():
    # each suite reports the same bytes in a fresh process as in this one
    # (tests/test_configs.py); the config alone sets the seed
    reseeded = run_suite(config_from_dict({**default_dict(), "seed": 7}), "seqalg")
    assert reseeded.seed == 7 and reseeded.all_passed()
    assert reseeded.to_csv() != expected_csv("default", "seqalg")


def test_vector_materialization_variants():
    cfg = load_config(CONFIG_PATH)
    gamma = vector_from_charge_cfg(cfg.charges[0])
    delta = vector_from_charge_cfg(cfg.charges[1])
    assert math.isclose(gamma.charge, 1.0)
    assert delta.charge == 0.0

    ball = config_from_dict(
        {
            "charges": [
                {"name": "ball", "profile": "bump-position", "q": 1.0, "support_radius": 1.0},
                {"name": "soft", "profile": "bump-position", "q": 2.0, "shape": "smooth"},
            ]
        }
    )
    b = vector_from_charge_cfg(ball.charges[0])
    assert math.isclose(b.charge, 4.0 * math.pi / 3.0, rel_tol=1e-8)
    s = vector_from_charge_cfg(ball.charges[1])
    assert math.isclose(s.charge, 2.0 * 32.0 * math.pi / 105.0, rel_tol=1e-8)
    # charges of one bump shape share their atoms, so their difference cancels exactly
    twin = config_from_dict({"charges": [{"name": "ball2", "profile": "bump-position"}, {"name": "x"}]})
    assert vector_from_charge_cfg(twin.charges[0]).terms == b.terms

    neutral = vector_from_charge_cfg(
        config_from_dict({"charges": [{"name": "n", "q": 0.0}, {"name": "m"}]}).charges[0]
    )
    assert neutral.charge == 0.0 and not neutral.is_zero


def test_cli_exit_codes(tmp_path):
    for suite in ("laws", "braiding"):
        argv = ["verify", "--config", str(CONFIG_PATH), "--suite", suite, "--out", str(tmp_path / suite)]
        assert main(argv) == expected_run("default", suite)[1]
    # verify is the only subcommand, and the config alone sets the seed: the
    # former per-suite and report subcommands and a --seed flag are usage errors
    for argv in (["verify", "--suite", "bogus"], ["verify", "--seed", "0"], ["braiding"], ["report"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--config", str(CONFIG_PATH), "--out", str(tmp_path / "d")])
        assert exc.value.code == 2
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("suite", ["braiding", "decay"])
def test_braiding_and_decay_never_call_weyl_mul(tmp_path, monkeypatch, suite):
    # category.compose shares weyl's private product, so these suites stay off weyl_mul
    from conebraid import weyl as W

    def forbidden(a, b):
        raise AssertionError("weyl_mul called")

    original = W.weyl_mul
    patched = []
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "conebraid" and getattr(module, "weyl_mul", None) is original:
            monkeypatch.setattr(module, "weyl_mul", forbidden)
            patched.append(name)
    assert {"conebraid.weyl", "conebraid.category", "conebraid.suites"} <= set(patched)
    argv = ["verify", "--config", str(CONFIG_PATH), "--suite", suite, "--out", str(tmp_path)]
    assert main(argv) == expected_run("default", suite)[1]
    assert (tmp_path / f"{suite}_report.csv").is_file()


def _top(**keys):
    return lambda d: d.update(keys)


def _cone(**keys):
    return lambda d: d["cone"].update(keys)


def _charge(k: int, **keys):
    return lambda d: d["charges"][k].update(keys)


def _bump_charge(**fields):
    return _charge(0, profile="bump-position", **fields)


def _charges(n: int) -> list[dict]:
    """n unit Gaussian charges, alternating between the g and h channels."""
    return [{"name": f"c{k}", "channel": "gh"[k % 2]} for k in range(n)]


def _channels(channels: str):
    """The default first charge once per channel letter, named c0, c1, ..."""
    return lambda d: d.update(charges=[dict(d["charges"][0], name=f"c{k}", channel=c) for k, c in enumerate(channels)])


def _sloped_g_pair(radii: list[float]):
    """Both default charges in the g channel, on the cone a0 = sqrt(R), at the given radii."""
    sloped = {"time_slope": 1.0, "time_exponent": 0.5}
    return lambda d: d.update(
        charges=[dict(c, channel="g") for c in d["charges"]], cone={**d["cone"], **sloped}, radii=radii
    )


class Refused(NamedTuple):
    """A config that verify refuses under each of the suites."""

    config: object  # an edit of default_dict(), the file's bytes, or its path under the test's tmp_path
    message: str | re.Pattern  # the stderr line after "error: ", or a pattern the whole of that matches
    suites: tuple[str, ...] = ("all",)


_SCALE = "must lie in [0.001, 1000], got"
_BOUNDS = "a run takes at most 8 charges and 16 radii, got"
_SLOPE = "cone time_slope must be nonnegative and time_exponent in [0, 1)"
_INCREASING = "radii must be strictly increasing with at least 3 entries"
_NOT_JSON = "config .+ is not valid JSON: .*"  # then a word of the decoder's own message
_BRAIDING = ("braiding",)

# Every config verify refuses, keyed by the prefix of its test ids.  Types,
# keys and values are checked as the config loads, the cone's fields and its
# transport to every radius among them, and the plan's size and charge
# couplings by plan_counts before the plan line.
REFUSED = {
    # charge names: unique, and each a CSV cell that cannot make two charge pairs one key
    "names-repeated": Refused(
        lambda d: d["charges"].append(dict(d["charges"][0])),
        "charge names must be unique, got ['gamma', 'delta', 'gamma']",
    ),
    "name-twice": Refused(_charge(1, name="gamma"), "charge names must be unique, got ['gamma', 'gamma']"),
    **{
        f"name-{what}": Refused(_charge(0, name=name), f"charge names must match [A-Za-z0-9_.-]+, got {name!r}")
        for what, name in [("empty", ""), ("comma", "ga,mma"), ("quote", 'ga"mma'), ("newline", "ga\nmma"),
                           ("colon", "ga:mma"), ("space", "ga mma")]
    },
    "one-charge": Refused(lambda d: d.update(charges=d["charges"][:1]), "at least two charges are required"),
    "charge-missing-name": Refused(
        _top(charges=[{"q": 1.0}, {"name": "b"}]), "config.charges[0]: missing keys ['name']"
    ),
    "charge-unknown-key": Refused(
        _top(charges=[{"name": "a"}, {"q": 1.0, "bogus": 1}]), "config.charges[1]: unknown keys ['bogus']"
    ),
    "channel-x": Refused(_charge(0, channel="x"), "charge 'gamma': channel must be 'g' or 'h'"),
    "s-text": Refused(_charge(1, s="1"), "config.charges[1].s: expected float, got str"),
    "q-text": Refused(_charge(0, q="1"), "config.charges[0].q: expected float, got str"),
    "q-past-the-float-range": Refused(_charge(0, q=10**400), "config.charges[0].q: must be finite, got inf"),
    # a key the charge's profile never reads could only move the config digest
    "gaussian-support-radius": Refused(
        _charge(0, support_radius=5.0), "charge 'gamma': support_radius is not read by a gaussian-momentum charge"
    ),
    "gaussian-shape": Refused(
        _charge(0, shape="smooth"), "charge 'gamma': shape is not read by a gaussian-momentum charge"
    ),
    "bump-s": Refused(_bump_charge(s=2.0), "charge 'gamma': s is not read by a bump-position charge"),
    # past the scale bounds a float power overflows, or at the small end every
    # sigma or the charge underflows to zero and the rows pass trivially
    "s-zero": Refused(_charge(1, s=0.0), f"charge 'delta': s {_SCALE} 0"),
    "s-huge": Refused(_charge(0, s=1e200), f"charge 'gamma': s {_SCALE} 1e+200", _BRAIDING),
    "s-tiny": Refused(_charge(1, s=1e-200), f"charge 'delta': s {_SCALE} 1e-200", _BRAIDING),
    "support-huge": Refused(
        _bump_charge(support_radius=1e120), f"charge 'gamma': support_radius {_SCALE} 1e+120", _BRAIDING
    ),
    "support-tiny": Refused(
        _bump_charge(support_radius=1e-200), f"charge 'gamma': support_radius {_SCALE} 1e-200", _BRAIDING
    ),
    # in range, but the Gaussian's cutoff tail e^{-s^2 R_MAX^2} is above e^{-40}
    "gauss-tail": Refused(
        _charge(1, s=0.5), "charge 'delta': s must be at least sqrt(40) / R_MAX = 0.6325, got 0.5", _BRAIDING
    ),
    # the zero vector, or a charge whose couplings all underflow, would pass every row
    "q-zero-h-channel": Refused(_charge(1, q=0.0), f"charge 'delta': |q| {_SCALE} 0"),
    "q-underflowing": Refused(_charge(0, q=1e-300), f"charge 'gamma': |q| {_SCALE} 1e-300"),
    "q-too-large": Refused(_charge(0, q=-2e3), f"charge 'gamma': |q| {_SCALE} 2000"),
    "q-zero-bump": Refused(_bump_charge(q=0.0), f"charge 'gamma': |q| {_SCALE} 0"),
    "radii-repeated": Refused(_top(radii=[10.0, 10.0, 20.0]), _INCREASING),
    "radii-two": Refused(_top(radii=[10.0, 20.0]), _INCREASING),
    "radius-zero": Refused(_top(radii=[0.0, 10.0, 20.0]), "radii must be positive"),
    "radius-inf": Refused(_top(radii=[10.0, 20.0, math.inf]), "config.radii[2]: must be finite, got inf"),
    "radii-text": Refused(_top(radii="abc"), "config.radii: expected a list, got str"),
    # at R = 1e308 a separation overflows to inf and a (g, g) sigma becomes
    # inf * erfc(inf) = nan, which a JSON report cannot hold
    "radius-near-the-float-limit": Refused(
        _sloped_g_pair([1e306, 1e307, 1e308]), "radii must be at most 1e+300, got 1e+308"
    ),
    "cone-a-list": Refused(_top(cone=[0.0, 0.0, 1.0]), "config.cone: expected an object, got list"),
    "cone-unknown-key": Refused(_cone(bogus=3), "config.cone: unknown keys ['bogus']"),
    "axis-two-entries": Refused(_cone(axis=[0.0, 1.0]), "config.cone.axis: expected 3 entries, got 2"),
    "axis-text": Refused(_cone(axis="z"), "config.cone.axis: expected a list, got str"),
    "axis-zero": Refused(_cone(axis=[0.0, 0.0, 0.0]), "cone axis must be a nonzero finite vector"),
    "axis-overflowing": Refused(_cone(axis=[1.5e308] * 3), "cone axis must be a nonzero finite vector"),
    # a subnormal norm rounds: direction would be (0.5, 0.5, 0.5), and radius 10 a move by 8.66
    "axis-subnormal": Refused(
        _cone(axis=[5e-324] * 3), "cone axis norm must be at least 2.22507e-308, got 9.88131e-324"
    ),
    "time-slope-nan": Refused(_cone(time_slope=math.nan), "config.cone.time_slope: must be finite, got nan"),
    "time-slope-negative": Refused(_cone(time_slope=-1.0), _SLOPE),
    "time-exponent-one": Refused(_cone(time_exponent=1.0), _SLOPE),
    # a cone with time_slope 0 never reads its exponent, which could only move the config digest
    "time-exponent-without-slope": Refused(
        _cone(time_exponent=0.7), "cone time_exponent is not read on a cone with time_slope 0"
    ),
    # a0 = 2 R^0.9 is 15.9 at R = 10: the transported charges would be timelike separated
    "timelike-transport": Refused(
        _cone(time_slope=2.0, time_exponent=0.9),
        "cone transport at radius 10 is not spacelike: |time_slope * R^time_exponent| = 15.8866 >= R",
        _BRAIDING,
    ),
    # spacelike at every configured radius, but a0 = 7000 at the seqalg ladder's
    # first rung R = 10, so only the plans with the seqalg suite refuse it
    "timelike-seqalg-rung": Refused(
        lambda d: d.update(cone={**d["cone"], "time_slope": 7000.0}, radii=[1e4, 2e4, 4e4]),
        "cone transport at radius 10 is not spacelike: |time_slope * R^time_exponent| = 7000 >= R",
        ("seqalg", "all"),
    ),
    # at equal times sigma pairs only g with h: two charges in one channel on a
    # cone with time_slope 0 braid trivially, so no braiding, homotopy or decay row can fail
    **{
        f"uncoupled-{channels}": Refused(
            _channels(channels),
            f"charges 'c0' and {second!r} share channel {channels[0]!r} on a cone with time_slope 0, "
            "so they braid trivially and no braiding, homotopy or decay row can fail",
            ("all", "braiding", "homotopy", "decay"),
        )
        for channels, second in [("gg", "c1"), ("hh", "c1"), ("ghg", "c2")]
    },
    "radii-17": Refused(_top(radii=[10.0 * k for k in range(1, 18)]), f"{_BOUNDS} 2 charges and 17 radii", _BRAIDING),
    "charges-9": Refused(_top(charges=_charges(9)), f"{_BOUNDS} 9 charges and 4 radii", _BRAIDING),
    # the config alone sets the seed, a nonnegative integer
    "seed-negative": Refused(_top(seed=-1), "seed must be nonnegative"),
    "seed-text": Refused(_top(seed="0"), "config.seed: expected int, got str"),
    "seed-bool": Refused(_top(seed=True), "config.seed: expected int, got bool"),
    "seed-float": Refused(_top(seed=0.0), "config.seed: expected int, got float"),
    "unknown-key": Refused(_top(unknown_key=1), "config: unknown keys ['unknown_key']"),
    # the keys a config carried before the check policy moved into suites, the
    # momentum cutoff into field and the output directory into --out, each at
    # the value it shipped with
    **{
        f"removed-{name}": Refused(_top(**{key: value}), f"config: unknown keys [{key!r}]")
        for name, key, value in [
            ("n_radial", "grid", {"r_max": 10.0, "n_radial": 64}),
            ("n_angular", "grid", {"r_max": 10.0, "n_angular": 26}),
            ("grid", "grid", {"r_max": 10.0}),
            ("thresholds", "thresholds", {"laws": 1e-12, "gram": 1e-10, "braiding": 1e-3, "homotopy": 1e-3,
                                          "decay": 1e-2, "extension": 1e-2}),
            ("tail_policy", "tail_policy", {"window_start": 32, "sample_count": 16, "tolerance": 1e-6}),
            ("law_samples", "law_samples", 100),
            ("homotopy", "homotopy", {"steps": 6, "step_deg": 30.0}),
            ("transporter_offset", "transporter_offset", 2.0),
            ("out_dir", "out_dir", "out"),
        ]
    },
    # the cone's half angle entered no transport
    "removed-half_angle_deg": Refused(_cone(half_angle_deg=30.0), "config.cone: unknown keys ['half_angle_deg']"),
    # with every limit threshold at 1.0 the default run would pass all rows
    "thresholds-at-one": Refused(
        _top(thresholds={"braiding": 1.0, "homotopy": 1.0, "decay": 1.0, "extension": 1.0}),
        "config: unknown keys ['thresholds']",
    ),
    # files the JSON decoder refuses by raising something other than JSONDecodeError
    "not-utf8": Refused(b"\xff\xfe", re.compile(_NOT_JSON + "can't decode byte 0xff.*")),
    "nested-200000-deep": Refused(b"[" * 200_000 + b"]" * 200_000, re.compile(_NOT_JSON + "recursion.*")),
    "integer-of-5001-digits": Refused(b'{"radii": [' + b"1" * 5001 + b"]}", re.compile(_NOT_JSON + "5001 digits.*")),
    # json.loads alone would keep the last value of a repeated key, at any depth
    "seed-key-twice": Refused(
        b'{"seed": 288545018, "seed": 7}', re.compile(r"config .+/cfg\.json repeats the key 'seed'")
    ),
    "axis-key-twice": Refused(
        b'{"cone": {"axis": [1.0, 0.0, 0.0], "axis": [0.0, 0.0, 1.0]}}',
        re.compile(r"config .+/cfg\.json repeats the key 'axis'"),
    ),
    "file-missing": Refused(Path("missing.json"), re.compile(r"config file not found: .+/missing\.json")),
}


def _config_file(config, tmp_path) -> Path:
    """The config file of a Refused entry: its path, or a file holding its bytes or its edit of default_dict()."""
    if isinstance(config, Path):
        return tmp_path / config
    path = tmp_path / "cfg.json"
    if isinstance(config, bytes):
        path.write_bytes(config)
    else:
        data = default_dict()
        config(data)
        path.write_text(json.dumps(data))
    return path


def _refused(cfg: Path, message: str | re.Pattern, suite: str, tmp_path, capsys) -> None:
    """verify --suite suite on cfg exits 2 with one stderr line, no stdout (no plan line) and no output directory."""
    out = tmp_path / "out"
    assert main(["verify", "--config", str(cfg), "--suite", suite, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    (line,) = captured.err.splitlines()
    assert line.startswith("error: "), line
    said = line.removeprefix("error: ")
    assert said == message if isinstance(message, str) else message.fullmatch(said), line


@pytest.mark.parametrize(
    "case, suite",
    [pytest.param(case, suite, id=f"{name}-{suite}") for name, case in REFUSED.items() for suite in case.suites],
)
def test_refused_config_exits_2_with_one_line(case, suite, tmp_path, capsys):
    _refused(_config_file(case.config, tmp_path), case.message, suite, tmp_path, capsys)


# Refusals config_from_dict makes itself, as the dict loads, checked in
# process as well.  The order keeps each case's test id.
_AT_LOAD = {REFUSED[name].config: REFUSED[name].message for name in """
    names-repeated radii-repeated radii-two time-slope-negative unknown-key channel-x s-zero one-charge
    removed-half_angle_deg cone-unknown-key radius-zero time-exponent-one s-text seed-text q-text
    axis-two-entries axis-text radii-text cone-a-list time-slope-nan seed-bool seed-float radius-inf
    q-past-the-float-range charge-missing-name name-empty name-comma name-quote name-newline name-colon
    name-space time-exponent-without-slope axis-subnormal""".split()}


@pytest.mark.parametrize("mutate", list(_AT_LOAD))
def test_config_validation_errors(mutate):
    data = default_dict()
    mutate(data)
    with pytest.raises(ConfigError) as exc:
        config_from_dict(data)
    assert str(exc.value) == _AT_LOAD[mutate]


# A valid value other than the default for each cone and charge key but the
# name; the keys only a bump-position charge reads are set on a bump copy.
_OTHER_VALUE = {
    "axis": [0.3, -0.7, 0.2], "time_slope": 1.0, "time_exponent": 0.5,
    "profile": "bump-position", "channel": "h", "q": 2.0, "s": 2.0, "support_radius": 2.0, "shape": "smooth",
}
_BUMP_KEYS = ("support_radius", "shape")


@pytest.mark.parametrize(
    "section, key", [("cone", key) for key in ConeSpec._fields] + [("charges", key) for key in ChargeCfg._fields[1:]]
)
def test_every_cone_and_charge_key_enters_a_number_or_is_refused(section, key):
    # a value no number reads could only move the config digest, so the config must refuse it
    def numbers(data):
        cfg = config_from_dict(data)
        return vector_from_charge_cfg(cfg.charges[0]).terms, [cfg.cone.translation(r) for r in cfg.radii]

    base = default_dict()
    if key in _BUMP_KEYS:
        _bump_charge()(base)
    edited = json.loads(json.dumps(base))
    (edited["cone"] if section == "cone" else edited["charges"][0])[key] = _OTHER_VALUE[key]
    try:
        moved = numbers(edited)
    except ConfigError:
        return
    assert moved != numbers(base)


@pytest.mark.parametrize("case", ["permission-denied", "proc-self-mem"])
def test_cli_unreadable_config_exits_2_with_one_line(case, tmp_path, capsys, monkeypatch):
    # a config the process may not read, or whose read fails with EIO, is a config error
    if case == "permission-denied":
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(default_dict()))

        def refuse(self, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.setattr(Path, "read_text", refuse)
    else:
        cfg = Path("/proc/self/mem")
        if not sys.platform.startswith("linux") or not cfg.is_file():
            pytest.skip("needs Linux's /proc/self/mem")
    _refused(cfg, re.compile(rf"cannot read config {re.escape(str(cfg))}: .*"), "all", tmp_path, capsys)


def test_timelike_seqalg_rung_runs_without_seqalg(tmp_path):
    # the refusal reads only the seqalg ladder: every other suite plans, and braiding runs
    cfg = _config_file(REFUSED["timelike-seqalg-rung"].config, tmp_path)
    config = load_config(cfg)
    assert all(plan_counts(config, suite) for suite in ("laws", "braiding", "homotopy", "decay"))
    assert main(["verify", "--config", str(cfg), "--suite", "braiding", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "braiding_report.csv").exists()


@pytest.mark.parametrize("channels", ["gg", "hh", "ghg"])
def test_uncoupled_charges_still_run_laws_and_seqalg(tmp_path, channels):
    # the laws suite draws time-shifted objects and the seqalg suite its own
    # unit Gaussian pair, so they run on the charges the coupling suites refuse
    cfg = _config_file(_channels(channels), tmp_path)
    for suite in ("laws", "seqalg"):
        assert main(["verify", "--config", str(cfg), "--suite", suite, "--out", str(tmp_path)]) == 0
        assert (tmp_path / f"{suite}_report.csv").exists()
    # a time-sloped cone transports the charges at unequal times, so they couple;
    # a0 = sqrt(R) < R at every radius, so that transport stays spacelike
    data = default_dict()
    _channels(channels)(data)
    data["cone"].update(time_slope=1.0, time_exponent=0.5)
    sloped = config_from_dict(data)
    assert sloped.cone.time_slope == 1.0 and sum(n for _, n in plan_counts(sloped, "all")) > 0


def test_radii_up_to_the_float_bound_give_finite_rows(tmp_path):
    # up to config.RADIUS_MAX = 1e300 every row is finite and passes
    cfg = _config_file(_sloped_g_pair([1e298, 1e299, 1e300]), tmp_path)
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path), "--format", "json"]) == 0

    def refuse(token):
        raise AssertionError(f"report holds {token}")

    rows = json.loads((tmp_path / "all_report.json").read_text(), parse_constant=refuse)["rows"]
    assert len(rows) == 54 and all(row["pass"] for row in rows)


def test_zero_q_on_a_g_channel_gaussian_is_the_chargeless_variant():
    # q = 0 on a g-channel gaussian-momentum charge is the r^2-damped test vector, which couples
    data = default_dict()
    data["charges"][0]["q"] = 0.0
    cfg = config_from_dict(data)
    vector = vector_from_charge_cfg(cfg.charges[0])
    assert vector.charge == 0.0 and not vector.is_zero
    report = run_suite(cfg, "braiding")
    assert len(report.rows) == 12
    assert all(row.value != 1.0 for row in report.rows if row.check_id == "braiding/limit_vs_exact")


def test_config_scale_bounds_are_inclusive():
    # each bound on the profile that reads it: s on a Gaussian, support_radius on a bump
    data = default_dict()
    data["charges"][0].update({"profile": "bump-position", "support_radius": 1e-3})
    data["charges"][1]["s"] = 1e3
    assert config_from_dict(data).charges[1].s == 1e3
    data["charges"][0]["support_radius"] = 1e3
    assert config_from_dict(data).charges[0].support_radius == 1e3
    # s = sqrt(40) / R_MAX exactly is the tail condition's edge, read from field
    data = default_dict()
    data["charges"][0]["s"] = math.sqrt(40.0) / F.R_MAX
    assert config_from_dict(data).charges[0].s == math.sqrt(40.0) / 10.0
    data["charges"][0]["s"] = math.nextafter(math.sqrt(40.0) / F.R_MAX, 0.0)
    with pytest.raises(ConfigError, match="s must be at least"):
        config_from_dict(data)
    # the plan's bounds: 8 charges at 16 radii plan 28 pairs of 8 + 8 * 16 rows
    # (on a time-sloped cone, where two charges of one channel couple)
    data["charges"] = _charges(suites.MAX_CHARGES)
    data["radii"] = [10.0 * k for k in range(1, suites.MAX_RADII + 1)]
    data["cone"].update(time_slope=1.0, time_exponent=0.5)
    assert sum(n for _, n in plan_counts(config_from_dict(data), "all")) == 13 + 9 + 28 * (8 + 8 * 16)


def test_non_finite_row_exits_1_with_one_line_and_no_report(tmp_path, capsys, monkeypatch):
    # a JSON report cannot hold NaN, so a row that would carry one ends the
    # run like an internal error instead of failing as a row; so does a broken
    # internal operand check (a RunError), which is a package bug and not a
    # config error: a seqalg product that doubles its coefficients breaks an
    # output's certified bound, and no validated config gives a Gaussian of
    # width 0
    make_test_vector = F.make_test_vector

    def flat(**kw):
        return make_test_vector(**{**kw, "width": 0.0})

    def doubled(a, b):
        return WeylElement(2.0 * a.coeff * b.coeff, a.label + b.label)

    cases = [
        (suites.cat, "extension_residual", lambda *args: math.nan, "decay", ("decay/extension", "non-finite")),
        (seqalg, "weyl_mul", doubled, "seqalg", ("generator breaks its certified bound",)),
        (suites.fld, "make_test_vector", flat, "laws", ("error: width must be positive",)),
    ]
    for module, name, value, suite, words in cases:
        argv = ["verify", "--config", str(CONFIG_PATH), "--suite", suite, "--format", "json", "--out", str(tmp_path)]
        with monkeypatch.context() as patch:
            patch.setattr(module, name, value)
            assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out.startswith(f"plan: suite {suite!r}") and len(captured.out.splitlines()) == 1
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ") and all(word in line for word in words), line
        assert not list(tmp_path.glob("*_report.*"))


def _raises(node: ast.AST, function: str = ""):
    """(enclosing function, raised name) for each raise under node of a name, module.name or a call to one."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Raise):
            exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
            if isinstance(exc, (ast.Name, ast.Attribute)):
                yield function, exc.id if isinstance(exc, ast.Name) else exc.attr
        yield from _raises(child, child.name if isinstance(child, ast.FunctionDef) else function)


def test_numerics_hold_no_config_error():
    # only reading, validating and planning a config or writing its report
    # refuses it: a bad operand inside the numerics is a package bug (exit 1)
    from conebraid import category, errors, quadrature, weyl

    for module in (F, quadrature, weyl, category, seqalg):
        assert [name for name, value in vars(module).items() if value is ConfigError] == [], module.__name__
    # one error class per exit code, and each raise site names the class of its exit code
    package_errors = {"ConfigError", "RunError"}
    assert {name for name, value in vars(errors).items() if isinstance(value, type)} == package_errors | {"Frozen"}
    # (module, None) is the whole module, (module, function) one function of it
    config_sites = {("config.py", None), ("report.py", None), ("suites.py", "plan_counts")}
    seen = set()
    for path in sorted(Path(F.__file__).parent.glob("*.py")):
        for function, name in _raises(ast.parse(path.read_text())):
            if name in package_errors:
                seen.add(name)
                sites = {(path.name, None), (path.name, function)}
                assert name == "RunError" or sites & config_sites, (path.name, function, name)
    assert seen == package_errors


def _passing_limit_rows(data: dict, tmp_path) -> list[dict]:
    """The braiding/limit_vs_exact rows of verify --suite braiding on data, once all 9 rows are seen to pass."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    argv = ["verify", "--config", str(cfg), "--suite", "braiding", "--out", str(tmp_path), "--format", "json"]
    assert main(argv) == 0
    rows = json.loads((tmp_path / "braiding_report.json").read_text())["rows"]
    assert len(rows) == 9 and all(row["pass"] for row in rows)
    limit_rows = [row for row in rows if row["check_id"] == "braiding/limit_vs_exact"]
    assert [row["radius"] for row in limit_rows] == data["radii"]
    return limit_rows


def test_cli_gaussian_pair_at_huge_radii_needs_no_rule(tmp_path):
    # every far Gaussian pair takes the closed form, so radii far past the
    # rule cap run, and each braiding residual is |e^{i F(2R)} - 1|
    data = default_dict()
    data["radii"] = [1e8, 2e8, 4e8]
    for row in _passing_limit_rows(data, tmp_path):
        closed = defect(coupling(2.0 * row["radius"]))
        assert math.isclose(row["residual"], closed, rel_tol=1e-6)


def test_cli_bump_charge_at_far_radii(tmp_path):
    # the smooth bump's transform is closed form, so far bump pairs cost
    # O(1) per rule node; the sloped transport (a0 = sqrt(R) << R) stays
    # spacelike, and each braiding residual falls off like 1/R
    data = json.loads((CONFIG_DIR / "bump_sloped.json").read_text())
    data["radii"] = [1.0e4, 2.0e4, 4.0e4]
    residuals = [row["residual"] for row in _passing_limit_rows(data, tmp_path)]
    for near, far in zip(residuals, residuals[1:]):
        assert math.isclose(near, 2.0 * far, rel_tol=1e-6)


def test_cli_plan_line_and_json_output(tmp_path, capsys):
    rows, code = expected_run("default", "seqalg")
    argv = ["verify", "--config", str(CONFIG_PATH), "--suite", "seqalg", "--out", str(tmp_path), "--format", "json"]
    assert main(argv) == code
    out = capsys.readouterr().out
    assert f"plan: suite 'seqalg' -> {rows} rows" in out.splitlines()[0]
    payload = json.loads((tmp_path / "seqalg_report.json").read_text())
    assert len(payload["rows"]) == rows
    assert "wall" not in json.dumps(payload)
    assert set(payload["metadata"]) == {"suite", "config_digest", "seed"}


def _fresh_stdout(code: str) -> str:
    """Last stdout line of `code` run in a fresh interpreter on this checkout's src.

    This process has loaded numpy and scipy already, so import checks need
    their own interpreter.
    """
    proc = subprocess.run([sys.executable, "-c", code], env=_fresh_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def test_cli_import_loads_no_scipy():
    # scipy.special costs 0.2-0.3 s of start-up in every verify process
    code = "import sys, conebraid.cli; print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    assert _fresh_stdout(code) == "[]"


def test_verify_loads_no_openssl(tmp_path):
    # hashlib loads _hashlib (OpenSSL), a few MB of peak RSS; the config
    # digest reads the builtin SHA-256 instead
    code = (
        "import sys\nfrom conebraid.cli import main\n"
        f"main(['verify', '--config', {str(CONFIG_PATH)!r}, '--suite', 'all', '--out', {str(tmp_path)!r}])\n"
        "print(sorted(m for m in ('_hashlib', 'hashlib') if m in sys.modules))"
    )
    assert _fresh_stdout(code) == "[]"


def _numpy_loaded_after(code: str) -> bool:
    return _fresh_stdout(f"{code}\nimport sys\nprint('numpy' in sys.modules)") == "True"


def test_cli_import_loads_no_numpy():
    assert not _numpy_loaded_after("import conebraid.cli")


@pytest.mark.parametrize(
    "name, loaded",
    [("default", "[]"), ("bump_sloped", "['conebraid.quadrature']")],
    ids=["default", "bump-sloped"],
)
def test_config_and_run_context_load_no_numpy(name, loaded):
    # numpy costs about 0.1 s of every process's start-up; a config, its
    # charges (bump charges included) and its cones need none of it, nor
    # dataclasses, which imports inspect, ast, dis and tokenize (about 11 ms).
    # Gaussian charges need no quadrature either; a bump charge reads its
    # closed-form transform at zero momentum
    cfg = CONFIG_DIR / f"{name}.json"
    code = (
        "import sys, conebraid.cli\n"
        "from conebraid.config import load_config\n"
        "from conebraid.suites import RunContext\n"
        f"ctx = RunContext(load_config({str(cfg)!r}))\n"
        "assert all(v.charge > 0.0 for v in ctx.vectors.values() if v.charge != 0.0)\n"
        "names = ('numpy', 'dataclasses', 'inspect', 'conebraid.quadrature')\n"
        "print(sorted(m for m in names if m in sys.modules))"
    )
    assert _fresh_stdout(code) == loaded


def test_malformed_config_exits_2_without_numpy(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"radii": [1.0]}')
    code = f"from conebraid.cli import main\nassert main(['verify', '--config', {str(cfg)!r}]) == 2"
    assert not _numpy_loaded_after(code)


def _fresh_env() -> dict:
    src = str(CONFIG_PATH.parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_package_imports_no_numpy():
    # no module of the package names numpy in an import statement, at any depth
    import ast

    package = CONFIG_PATH.parent.parent / "src" / "conebraid"
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.partition(".")[0] == "numpy" for n in names), (path.name, node.lineno)


# Each module's imports from the package, function-local ones included.  The
# construction (weyl, category) reads a vector only through its methods, so
# it imports no model, and seqalg's sequences are of weyl's generators.
LAYERS = {
    "__init__": set(),
    "__main__": {"cli"},
    "errors": set(),
    "quadrature": {"errors"},
    "field": {"errors", "quadrature"},
    "weyl": {"errors"},
    "category": {"errors", "weyl"},
    "seqalg": {"errors", "weyl"},
    "config": {"errors", "field"},
    "report": {"errors"},
    "suites": {"category", "config", "errors", "field", "report", "seqalg", "weyl"},
    "cli": {"config", "errors", "report", "suites"},
}


def test_module_imports_follow_the_layer_table():
    import ast

    package = CONFIG_PATH.parent.parent / "src" / "conebraid"
    found = {}
    for path in sorted(package.glob("*.py")):
        names = found.setdefault(path.stem, set())
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                dotted = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = f"conebraid.{node.module or ''}".rstrip(".") if node.level else node.module
                dotted = [f"{base}.{alias.name}" for alias in node.names] if base == "conebraid" else [base]
            else:
                continue
            names.update(d.split(".")[1] for d in dotted if d.startswith("conebraid."))
    assert found == LAYERS

def test_closed_stdout_pipe_keeps_the_verdict(tmp_path):
    # `verify | head -1`: the reader leaves after the plan line; the run still
    # writes its report, prints no traceback and exits with its verdict
    argv = [sys.executable, "-m", "conebraid", "verify", "--config", str(CONFIG_PATH), "--out", str(tmp_path)]
    proc = subprocess.Popen(argv, env=_fresh_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=tmp_path)
    first = proc.stdout.readline()
    proc.stdout.close()
    stderr = proc.stderr.read()
    rows, code = expected_run("default")
    assert proc.wait(timeout=120) == code
    assert first.startswith(f"plan: suite 'all' -> {rows} rows".encode()) and stderr == b""
    assert (tmp_path / "all_report.csv").is_file()


def test_rule_over_the_cap_exits_1_fast_with_one_line(tmp_path):
    # a bump pair at radius 4e6 needs a rule of about 1.3e8 nodes, over the
    # cap, and the braiding suite meets it before walking any large rule:
    # exit 1 within seconds, one stderr line, the plan line only, no report
    data = default_dict()
    data["charges"][0].update({"profile": "bump-position", "shape": "smooth", "support_radius": 1.0})
    data["radii"] = [4.0e6, 5.0e6, 6.0e6]
    cfg = tmp_path / "far_bump.json"
    cfg.write_text(json.dumps(data))
    argv = [sys.executable, "-m", "conebraid", "verify", "--config", str(cfg), "--suite", "braiding", "--out", str(tmp_path)]
    started = time.perf_counter()
    proc = subprocess.run(argv, env=_fresh_env(), capture_output=True, text=True, timeout=120)
    assert time.perf_counter() - started < 10.0
    assert proc.returncode == 1
    assert re.fullmatch(r"error: radial rule of \d+ nodes exceeds the cap of 33554432 nodes\n", proc.stderr)
    assert proc.stdout.startswith("plan: suite 'braiding' -> 9 rows") and len(proc.stdout.splitlines()) == 1
    assert not list(tmp_path.glob("*_report.*"))
