"""Config parsing, report emission, suite planning, and the CLI driver."""

import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conebraid.cli import main
from conebraid import field as F
from conebraid import seqalg
from conebraid import suites
from conebraid.config import RunConfig, config_from_dict, load_config
from conebraid.errors import ConfigError
from conebraid.report import CheckRow, Report, emit_report
from conebraid.suites import plan_counts, run_suite, vector_from_charge_cfg
from expected_reports import expected_csv, expected_run
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
    cone = cfg.cone_spec()
    assert cone.axis == (0.0, 0.0, 1.0) and cone.half_angle == math.radians(30.0)
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
    assert suites.TRANSPORTER_OFFSET == 2.0
    assert (seqalg.TAIL_START, len(seqalg.SAMPLES), seqalg.NULL_TOLERANCE) == (32, 16, 1e-6)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d["charges"].append(dict(d["charges"][0])),  # duplicate name
        lambda d: d.__setitem__("radii", [10.0, 10.0, 20.0]),
        lambda d: d.__setitem__("radii", [10.0, 20.0]),
        lambda d: d["cone"].__setitem__("time_slope", -1.0),
        lambda d: d.__setitem__("unknown_key", 1),
        lambda d: d["charges"][0].__setitem__("channel", "x"),
        lambda d: d["charges"][1].__setitem__("s", 0.0),
        lambda d: d.__setitem__("charges", d["charges"][:1]),
        lambda d: d["cone"].__setitem__("half_angle_deg", 95.0),
        lambda d: d["cone"].__setitem__("bogus", 3),
        lambda d: d.__setitem__("radii", [0.0, 10.0, 20.0]),
        lambda d: d["cone"].__setitem__("time_exponent", 1.0),
        # values of the wrong type, non-finite numbers, booleans as numbers
        lambda d: d["charges"][1].__setitem__("s", "1"),
        lambda d: d.__setitem__("seed", "0"),
        lambda d: d["charges"][0].__setitem__("q", "1"),
        lambda d: d["cone"].__setitem__("axis", [0.0, 1.0]),
        lambda d: d["cone"].__setitem__("axis", "z"),
        lambda d: d.__setitem__("radii", "abc"),
        lambda d: d.__setitem__("cone", [0.0, 0.0, 1.0]),
        lambda d: d["cone"].__setitem__("half_angle_deg", float("nan")),
        lambda d: d.__setitem__("seed", True),
        lambda d: d.__setitem__("seed", 0.0),
        lambda d: d.__setitem__("radii", [10.0, 20.0, float("inf")]),
        lambda d: d["charges"][0].__setitem__("q", 10**400),
        # a charge without its one required key
        lambda d: d.__setitem__("charges", [{"q": 1.0}, {"name": "b"}]),
        # names that would break a CSV row, or make two charge pairs one key
        *(
            lambda d, name=name: d["charges"][0].__setitem__("name", name)
            for name in ("", "ga,mma", 'ga"mma', "ga\nmma", "ga:mma", "ga mma")
        ),
    ],
)
def test_config_validation_errors(mutate):
    data = default_dict()
    mutate(data)
    with pytest.raises(ConfigError) as exc:
        config_from_dict(data)
    assert "\n" not in str(exc.value)  # verify prints it as one line


def test_missing_keys_are_named_like_unknown_ones():
    with pytest.raises(ConfigError) as exc:
        config_from_dict({"charges": [{"q": 1.0}, {"name": "b"}]})
    assert str(exc.value) == "config.charges[0]: missing keys ['name']"
    with pytest.raises(ConfigError) as exc:
        config_from_dict({"charges": [{"name": "a"}, {"q": 1.0, "bogus": 1}]})
    assert str(exc.value) == "config.charges[1]: unknown keys ['bogus']"


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
    assert chain[0] is ctx.cone and len(chain) == suites.HOMOTOPY_STEPS + 1


def test_cone00_homotopy_row_is_the_largest_radius_braiding_row():
    report = run_suite(load_config(CONFIG_PATH), "all")
    (cone00,) = [r for r in report.rows if r.check_id == "homotopy/limit_vs_exact" and r.cone_id == "cone00"]
    (at_40,) = [r for r in report.rows if r.check_id == "braiding/limit_vs_exact" and r.radius == 40.0]
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
    translation = suites.cat.ConeSpec.translation

    def farther(cone, radius):
        return translation(cone, radius if cone is ctx.cone else 1.5 * radius)

    monkeypatch.setattr(suites.cat.ConeSpec, "translation", farther)
    braiding_moved, homotopy_moved = rows()
    assert braiding_moved == braiding
    assert homotopy_moved[0] == homotopy[0] and homotopy_moved[0].cone_id == "cone00"
    assert [r.cone_id for r in homotopy_moved[1:]] == [f"cone{k:02d}" for k in range(1, suites.HOMOTOPY_STEPS + 1)]
    assert all(moved.value != row.value for moved, row in zip(homotopy_moved[1:], homotopy[1:]))


@pytest.mark.parametrize("channels", ["gg", "hh", "ghg"])
def test_cli_rejects_uncoupled_charge_pairs_before_any_suite(tmp_path, capsys, monkeypatch, channels):
    # at equal times sigma pairs only g with h: two charges in one channel on a
    # cone with time_slope 0 braid trivially, so no braiding, homotopy or decay row can fail
    data = default_dict()
    charge = data["charges"][0]
    data["charges"] = [dict(charge, name=f"c{k}", channel=c) for k, c in enumerate(channels)]
    path = tmp_path / "uncoupled.json"
    path.write_text(json.dumps(data))
    pair = "'c0' and 'c1'" if channels != "ghg" else "'c0' and 'c2'"

    def no_laws(*args):
        raise AssertionError("run_laws ran for a rejected plan")

    with monkeypatch.context() as patch:
        patch.setattr(suites, "run_laws", no_laws)
        for suite in ("all", "braiding", "homotopy", "decay"):
            argv = ["verify", "--config", str(path), "--suite", suite, "--out", str(tmp_path / suite)]
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert "plan:" not in captured.out
            assert len(captured.err.splitlines()) == 1 and pair in captured.err, captured.err
            assert f"share channel {channels[0]!r}" in captured.err
            assert not (tmp_path / suite).exists()
    # the laws and seqalg suites draw time-shifted objects, so they still run
    for suite in ("laws", "seqalg"):
        assert main(["verify", "--config", str(path), "--suite", suite, "--out", str(tmp_path)]) == 0
        assert (tmp_path / f"{suite}_report.csv").exists()
    # a time-sloped cone transports the two charges at unequal times, so they couple
    data["cone"].update(time_slope=1.0, time_exponent=0.5)
    assert sum(n for _, n in plan_counts(config_from_dict(data), "all")) > 0


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
    bad = tmp_path / "dup.json"
    data = default_dict()
    data["charges"][1]["name"] = data["charges"][0]["name"]
    bad.write_text(json.dumps(data))
    assert main(["verify", "--config", str(bad), "--out", str(tmp_path / "c")]) == 2
    assert main(["verify", "--config", str(tmp_path / "missing.json")]) == 2
    # verify is the only subcommand: the former per-suite and report ones are usage errors
    for argv in (["verify", "--suite", "bogus"], ["braiding"], ["report"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--config", str(CONFIG_PATH), "--out", str(tmp_path / "d")])
        assert exc.value.code == 2
    assert not (tmp_path / "d").exists()


def _unconjugated_star_rows(tmp_path, monkeypatch, check_id):
    # the categorical braiding is judged by its rows, not by an internal error:
    # a star_mor that leaves the coefficient unconjugated still writes a report
    # and exits 1 (tests/test_mutations.py checks in process that no other id flips)
    from conebraid import category as C

    def unconjugated(r):
        return C.Intertwiner(r.target, r.source, r.coeff, F.negate(r.label))

    monkeypatch.setattr(C, "star_mor", unconjugated)
    argv = ["verify", "--config", str(CONFIG_PATH), "--suite", "braiding", "--format", "json"]
    assert main([*argv, "--out", str(tmp_path)]) == 1
    rows = json.loads((tmp_path / "braiding_report.json").read_text())["rows"]
    return [row for row in rows if row["check_id"] == check_id]


def test_unconjugated_star_fails_the_categorical_rows(tmp_path, monkeypatch):
    categorical = _unconjugated_star_rows(tmp_path, monkeypatch, "braiding/categorical_vs_closed_form")
    assert len(categorical) == 4 and not any(row["pass"] for row in categorical)


def test_unconjugated_star_fails_every_rephase_row(tmp_path, monkeypatch):
    # with the coefficient unconjugated, a rephased exchange keeps (z_u z_v)^2
    # instead of |z_u z_v|^2 = 1, so every rephase row fails unless the stream
    # is degenerate (every angle 0 or pi)
    rephase = _unconjugated_star_rows(tmp_path, monkeypatch, "braiding/rephase_invariance")
    assert len(rephase) == 4 and not any(row["pass"] for row in rephase)


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


def _exits_2_with_one_line(data: dict, tmp_path, capsys, *argv: str) -> str:
    """Run verify with argv on the config tree; assert exit 2, no stdout and no report, and return the stderr line."""
    return _raw_exits_2_with_one_line(json.dumps(data).encode(), tmp_path, capsys, *argv)


def _raw_exits_2_with_one_line(raw: bytes, tmp_path, capsys, *argv: str) -> str:
    """_exits_2_with_one_line on a config file holding exactly raw."""
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(raw)
    return _path_exits_2_with_one_line(cfg, tmp_path, capsys, *argv)


def _path_exits_2_with_one_line(cfg: Path, tmp_path, capsys, *argv: str) -> str:
    """_exits_2_with_one_line on the config file at cfg."""
    out = tmp_path / "out"
    assert main(["verify", "--config", str(cfg), "--out", str(out), *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    (line,) = captured.err.splitlines()
    return line


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
    line = _path_exits_2_with_one_line(cfg, tmp_path, capsys)
    assert line.startswith(f"error: cannot read config {cfg}: ")


def test_cli_negative_config_seed_exits_2_with_one_line(tmp_path, capsys):
    # the config alone sets the seed, and rejects a negative one
    data = default_dict()
    data["seed"] = -1
    assert _exits_2_with_one_line(data, tmp_path, capsys) == "error: seed must be nonnegative"
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--config", str(CONFIG_PATH), "--seed", "0"])
    assert exc.value.code == 2


def test_cli_zero_cone_axis_exits_2_before_the_plan(tmp_path, capsys):
    # ConeSpec checks the cone while the config loads, so no plan line is printed
    data = default_dict()
    data["cone"]["axis"] = [0.0, 0.0, 0.0]
    assert _exits_2_with_one_line(data, tmp_path, capsys) == "error: cone axis must be a nonzero finite vector"


def test_cli_radius_near_the_float_limit_exits_2_with_one_line(tmp_path, capsys):
    # at R = 1e308 a separation overflows to inf and a (g, g) sigma becomes
    # inf * erfc(inf) = nan, which a JSON report cannot hold
    data = default_dict()
    for charge in data["charges"]:
        charge["channel"] = "g"
    data["cone"].update(time_slope=1.0, time_exponent=0.5)
    data["radii"] = [1e306, 1e307, 1e308]
    assert _exits_2_with_one_line(data, tmp_path, capsys) == "error: radii must be at most 1e+300, got 1e+308"
    # up to the bound every row is finite and passes
    data["radii"] = [1e298, 1e299, 1e300]
    cfg = tmp_path / "largest.json"
    cfg.write_text(json.dumps(data))
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path), "--format", "json"]) == 0

    def refuse(token):
        raise AssertionError(f"report holds {token}")

    rows = json.loads((tmp_path / "all_report.json").read_text(), parse_constant=refuse)["rows"]
    assert len(rows) == 54 and all(row["pass"] for row in rows)


@pytest.mark.parametrize(
    "name, change",
    [
        ("delta", {"q": 0.0}),
        ("gamma", {"q": 1e-300}),
        ("gamma", {"q": -2e3}),
        ("gamma", {"profile": "bump-position", "q": 0.0}),
    ],
    ids=["h-channel-zero", "underflowing", "too-large", "bump-zero"],
)
def test_cli_rejects_charges_that_cannot_couple(tmp_path, capsys, name, change):
    # the zero vector, or a charge whose couplings all underflow, would pass every row
    data = default_dict()
    (charge,) = [c for c in data["charges"] if c["name"] == name]
    charge.update(change)
    line = _exits_2_with_one_line(data, tmp_path, capsys)
    assert line.startswith(f"error: charge {name!r}: |q| must lie in [0.001, 1000]")


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


def test_cli_rejects_broken_homotopy_chain_before_any_suite(tmp_path, capsys, monkeypatch):
    # 10 degree cones 30 degrees apart do not overlap, so the homotopy chain
    # is no path; the run must stop before any suite spends time on it
    data = default_dict()
    data["cone"]["half_angle_deg"] = 10.0
    narrow = tmp_path / "narrow.json"
    narrow.write_text(json.dumps(data))

    def no_laws(*args):
        raise AssertionError("run_laws ran for a plan that cannot finish")

    monkeypatch.setattr(suites, "run_laws", no_laws)
    for argv in (["verify", "--suite", "all"], ["verify", "--suite", "homotopy"]):
        assert main([*argv, "--config", str(narrow), "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert "plan:" not in captured.out
        assert len(captured.err.splitlines()) == 1 and "half_angle_deg above 15" in captured.err
    assert not list(tmp_path.glob("*_report.*"))
    # the braiding suite has no chain, so the same config still runs it
    assert main(["verify", "--suite", "braiding", "--config", str(narrow), "--out", str(tmp_path)]) == 1
    assert (tmp_path / "braiding_report.csv").exists()


def test_cli_rejects_timelike_transport(tmp_path, capsys):
    # a0 = 2 R^0.9 is 15.9 at R = 10: the transported charges would be timelike separated
    data = default_dict()
    data["cone"].update(time_slope=2.0, time_exponent=0.9)
    bad = tmp_path / "timelike.json"
    bad.write_text(json.dumps(data))
    assert main(["verify", "--config", str(bad), "--suite", "braiding", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "not spacelike" in err
    assert not (tmp_path / "braiding_report.csv").exists()
    data["cone"].update(time_slope=1.0, time_exponent=0.5)  # a0 = sqrt(R) < R stays valid
    assert config_from_dict(data).cone.time_slope == 1.0


def test_cli_malformed_config_exits_2_with_one_line(tmp_path, capsys):
    data = default_dict()
    data["cone"] = [0.0, 0.0, 1.0]
    assert "config.cone: expected an object" in _exits_2_with_one_line(data, tmp_path, capsys)


# config files the JSON decoder refuses by raising something other than
# JSONDecodeError, and a word of the message each raises
_MALFORMED_BYTES = {
    "not-utf8": (b"\xff\xfe", "can't decode byte 0xff"),
    "nested-200000-deep": (b"[" * 200_000 + b"]" * 200_000, "recursion"),
    "integer-of-5001-digits": (b'{"radii": [' + b"1" * 5001 + b"]}", "5001 digits"),
}


@pytest.mark.parametrize("case", list(_MALFORMED_BYTES))
def test_cli_malformed_config_raw_exits_2_with_one_line(tmp_path, capsys, case):
    raw, word = _MALFORMED_BYTES[case]
    line = _raw_exits_2_with_one_line(raw, tmp_path, capsys)
    assert line.startswith("error: config ") and word in line, line


# The keys a config carried before the check policy moved into suites, the
# momentum cutoff into field and the output directory into --out, each at the
# value it shipped with, and the top-level key the rejection names.
_REMOVED_KEYS = {
    "n_radial": (lambda d: d.__setitem__("grid", {"r_max": 10.0, "n_radial": 64}), "grid"),
    "n_angular": (lambda d: d.__setitem__("grid", {"r_max": 10.0, "n_angular": 26}), "grid"),
    "grid": (lambda d: d.__setitem__("grid", {"r_max": 10.0}), "grid"),
    "thresholds": (
        lambda d: d.__setitem__(
            "thresholds",
            {"laws": 1e-12, "gram": 1e-10, "braiding": 1e-3, "homotopy": 1e-3, "decay": 1e-2, "extension": 1e-2},
        ),
        "thresholds",
    ),
    "tail_policy": (
        lambda d: d.__setitem__("tail_policy", {"window_start": 32, "sample_count": 16, "tolerance": 1e-6}),
        "tail_policy",
    ),
    "law_samples": (lambda d: d.__setitem__("law_samples", 100), "law_samples"),
    "homotopy": (lambda d: d.__setitem__("homotopy", {"steps": 6, "step_deg": 30.0}), "homotopy"),
    "transporter_offset": (lambda d: d.__setitem__("transporter_offset", 2.0), "transporter_offset"),
    "out_dir": (lambda d: d.__setitem__("out_dir", "out"), "out_dir"),
}


@pytest.mark.parametrize("key", list(_REMOVED_KEYS))
def test_cli_removed_key_exits_2_with_one_line(tmp_path, capsys, key):
    data = default_dict()
    mutate, named = _REMOVED_KEYS[key]
    mutate(data)
    line = _exits_2_with_one_line(data, tmp_path, capsys)
    assert "unknown keys" in line and repr(named) in line, line


def test_cli_config_cannot_raise_thresholds(tmp_path, capsys):
    # with every limit threshold at 1.0 the default run would pass all rows;
    # a config can no longer ask for that
    data = default_dict()
    data["thresholds"] = {"braiding": 1.0, "homotopy": 1.0, "decay": 1.0, "extension": 1.0}
    assert "thresholds" in _exits_2_with_one_line(data, tmp_path, capsys)


def _charges(n: int) -> list[dict]:
    """n unit Gaussian charges, alternating between the g and h channels."""
    return [{"name": f"c{k}", "channel": "gh"[k % 2]} for k in range(n)]


def _bump_charge(**fields):
    return lambda d: d["charges"][0].update({"profile": "bump-position", **fields})


@pytest.mark.parametrize(
    "mutate, message",
    [
        # past the bounds a float power overflows, or at the small end every
        # sigma or the charge underflows to zero and the rows pass trivially
        (lambda d: d["charges"][0].__setitem__("s", 1e200), "s must lie in [0.001, 1000]"),
        (_bump_charge(support_radius=1e120), "support_radius must lie in [0.001, 1000]"),
        (lambda d: d["charges"][1].__setitem__("s", 1e-200), "s must lie in [0.001, 1000]"),
        (_bump_charge(support_radius=1e-200), "support_radius must lie in [0.001, 1000]"),
        # in range, but the Gaussian's cutoff tail e^{-s^2 R_MAX^2} is above e^{-40}
        (lambda d: d["charges"][1].__setitem__("s", 0.5), "s must be at least sqrt(40) / R_MAX = 0.6325"),
        # the plan's size is bounded too
        (lambda d: d.__setitem__("radii", [10.0 * k for k in range(1, 18)]), "got 2 charges and 17 radii"),
        (lambda d: d.__setitem__("charges", _charges(9)), "at most 8 charges and 16 radii, got 9 charges"),
    ],
    ids=["s_huge", "support_huge", "s_tiny", "support_tiny", "gauss_tail", "radii_17", "charges_9"],
)
def test_cli_out_of_scale_config_exits_2_with_one_line(tmp_path, capsys, mutate, message):
    data = default_dict()
    mutate(data)
    assert message in _exits_2_with_one_line(data, tmp_path, capsys, "--suite", "braiding")


@pytest.mark.parametrize(
    "mutate, message",
    [
        (
            lambda d: d["charges"][0].__setitem__("support_radius", 5.0),
            "charge 'gamma': support_radius is not read by a gaussian-momentum charge",
        ),
        (
            lambda d: d["charges"][0].__setitem__("shape", "smooth"),
            "charge 'gamma': shape is not read by a gaussian-momentum charge",
        ),
        (_bump_charge(s=2.0), "charge 'gamma': s is not read by a bump-position charge"),
    ],
    ids=["gaussian_support_radius", "gaussian_shape", "bump_s"],
)
def test_cli_unread_charge_key_exits_2_with_one_line(tmp_path, capsys, mutate, message):
    # a key the charge's profile never reads could only move the config digest
    data = default_dict()
    mutate(data)
    assert message in _exits_2_with_one_line(data, tmp_path, capsys)


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


def test_cli_radial_rule_cap_exits_1_with_one_line(tmp_path, capsys):
    # a bump pair keeps the panel rule, and separations of 2e8 would need
    # rules of about 1.3e10 nodes
    data = default_dict()
    data["charges"][0].update({"profile": "bump-position", "shape": "smooth", "support_radius": 1.0})
    data["radii"] = [1e8, 2e8, 4e8]
    bad = tmp_path / "huge_radii.json"
    bad.write_text(json.dumps(data))
    assert main(["verify", "--config", str(bad), "--suite", "braiding", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert re.fullmatch(r"error: radial rule of \d+ nodes exceeds the cap of 33554432 nodes\n", err)
    assert not list(tmp_path.glob("*_report.*"))


def test_non_finite_row_exits_1_with_one_line_and_no_report(tmp_path, capsys, monkeypatch):
    # a JSON report cannot hold NaN, so a row that would carry one ends the
    # run like an internal error instead of failing as a row
    monkeypatch.setattr(suites.cat, "extension_residual", lambda *args: math.nan)
    args = ["verify", "--config", str(CONFIG_PATH), "--suite", "decay", "--format", "json", "--out", str(tmp_path)]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "decay/extension" in err and "non-finite" in err, err
    assert not list(tmp_path.glob("*_report.*"))


def test_cli_gaussian_pair_at_huge_radii_needs_no_rule(tmp_path):
    # every far Gaussian pair takes the closed form, so radii far past the
    # rule cap run, and each braiding residual is |e^{i F(2R)} - 1|
    data = default_dict()
    data["radii"] = [1e8, 2e8, 4e8]
    cfg = tmp_path / "huge_radii.json"
    cfg.write_text(json.dumps(data))
    code = main(["verify", "--config", str(cfg), "--suite", "braiding", "--out", str(tmp_path), "--format", "json"])
    assert code == 0
    rows = json.loads((tmp_path / "braiding_report.json").read_text())["rows"]
    assert len(rows) == 9 and all(row["pass"] for row in rows)
    limit_rows = [row for row in rows if row["check_id"] == "braiding/limit_vs_exact"]
    assert [row["radius"] for row in limit_rows] == data["radii"]
    for row in limit_rows:
        closed = defect(coupling(2.0 * row["radius"]))
        assert math.isclose(row["residual"], closed, rel_tol=1e-6)


def test_cli_bump_charge_at_far_radii(tmp_path):
    # the smooth bump's transform is closed form, so far bump pairs cost
    # O(1) per rule node; the sloped transport (a0 = sqrt(R) << R) stays
    # spacelike, and each braiding residual falls off like 1/R
    data = json.loads((CONFIG_DIR / "bump_sloped.json").read_text())
    data["radii"] = [1.0e4, 2.0e4, 4.0e4]
    cfg = tmp_path / "far_bump.json"
    cfg.write_text(json.dumps(data))
    code = main(["verify", "--config", str(cfg), "--suite", "braiding", "--out", str(tmp_path), "--format", "json"])
    assert code == 0
    rows = json.loads((tmp_path / "braiding_report.json").read_text())["rows"]
    assert len(rows) == 9 and all(row["pass"] for row in rows)
    limit_rows = [row for row in rows if row["check_id"] == "braiding/limit_vs_exact"]
    assert [row["radius"] for row in limit_rows] == data["radii"]
    residuals = [row["residual"] for row in limit_rows]
    for near, far in zip(residuals, residuals[1:]):
        assert math.isclose(near, 2.0 * far, rel_tol=1e-6)


def test_cli_plan_line_and_json_output(tmp_path, capsys):
    code = main(
        [
            "verify",
            "--config",
            str(CONFIG_PATH),
            "--suite",
            "seqalg",
            "--out",
            str(tmp_path),
            "--format",
            "json",
        ]
    )
    rows, expected_code = expected_run("default", "seqalg")
    assert code == expected_code
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


def test_seqalg_import_loads_no_field_or_weyl():
    # seqalg's one algebra is the 2 x 2 matrices; it needs no field vector or Weyl generator
    code = (
        "import sys, conebraid.seqalg\n"
        "print(sorted(m for m in ('conebraid.field', 'conebraid.weyl') if m in sys.modules))"
    )
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
