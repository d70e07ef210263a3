"""Smoke runs of the sweep scripts with small arguments, each in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conebraid.cli import main

ROOT = Path(__file__).resolve().parent.parent


def _run(script: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def _braiding_rows(r_min: str, r_max: str) -> list[list[str]]:
    proc = _run("braiding_convergence.py", "--r-min", r_min, "--r-max", r_max, "--points", "3")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[2:-1]]
    for _, residual, closed_form, _ in rows:
        # the residual column must match the erf closed form to the printed digits
        assert residual == closed_form
    return rows


def test_braiding_convergence_script():
    rows = _braiding_rows("10", "40")
    assert [float(row[0]) for row in rows] == [10.0, 20.0, 40.0]


def test_braiding_convergence_script_far_radii():
    # far Gaussian pairs take the closed form, so no rule grows with the separation
    rows = _braiding_rows("1e4", "4e4")
    assert [float(row[0]) for row in rows] == [1.0e4, 2.0e4, 4.0e4]


def test_braiding_convergence_script_very_far_radii():
    # separations up to 2e6 would need panel rules of about 32M nodes
    rows = _braiding_rows("2.5e5", "1e6")
    assert [float(row[0]) for row in rows] == [2.5e5, 5.0e5, 1.0e6]


def test_decay_curves_script(tmp_path):
    out = tmp_path / "decay.csv"
    proc = _run("decay_curves.py", "--r-max", "40", "--points", "3", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert len(out.read_text().splitlines()) == 4


@pytest.mark.parametrize("script", ["braiding_convergence.py", "decay_curves.py"])
@pytest.mark.parametrize(
    "ladder",
    [("--points", "2"), ("--r-min", "0"), ("--r-min", "40", "--r-max", "10"), ("--r-max", "inf")],
    ids=["two_points", "zero_r_min", "reversed", "infinite_r_max"],
)
def test_sweep_script_rejects_a_bad_ladder(script, ladder):
    # a usage error: exit 2 before any suite runs, with no traceback
    proc = _run(script, *ladder)
    assert proc.returncode == 2 and not proc.stdout, proc.stdout
    assert "Traceback" not in proc.stderr and "the ladder needs --points >= 3" in proc.stderr, proc.stderr


def test_report_drift_script(tmp_path):
    config = str(ROOT / "configs" / "default.json")
    assert main(["verify", "--config", config, "--suite", "laws", "--format", "json", "--out", str(tmp_path)]) == 0
    report = tmp_path / "laws_report.json"

    def drift(name, mutate):
        data = json.loads(report.read_text())
        mutate(data["rows"])
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return _run("report_drift.py", str(report), str(path))

    same = _run("report_drift.py", str(report), str(report))
    assert same.returncode == 0, same.stdout
    assert "0 unmatched, 0 thresholds moved, 0 flipped, drift within 1e-12" in same.stdout
    assert "metadata keys changed: none" in same.stdout
    flipped = drift("flipped.json", lambda rows: rows[0].update({"pass": not rows[0]["pass"]}))
    assert flipped.returncode == 1 and "verdict flip" in flipped.stdout
    # the budget is 1e-12 on any value or residual
    small = drift("small.json", lambda rows: rows[1].update({"residual": rows[1]["residual"] + 1e-13}))
    assert small.returncode == 0, small.stdout
    large = drift("large.json", lambda rows: rows[1].update({"value_re": rows[1]["value_re"] + 1e-11}))
    assert large.returncode == 1 and "max |delta value_re| = 1.000e-11" in large.stdout
    missing = drift("missing.json", lambda rows: rows.pop())
    assert missing.returncode == 1 and "row only in old" in missing.stdout
    # a moved threshold fails even when no verdict flips and no value moves
    moved = drift("moved.json", lambda rows: rows[2].update({"threshold": rows[2]["threshold"] * 10.0}))
    assert moved.returncode == 1 and "threshold moved" in moved.stdout and "1 thresholds moved" in moved.stdout
    assert "0 flipped" in moved.stdout

    # changed metadata is reported but does not fail the comparison
    data = json.loads(report.read_text())
    data["metadata"]["config_digest"] = "0" * 16
    renamed = tmp_path / "digest.json"
    renamed.write_text(json.dumps(data))
    digest = _run("report_drift.py", str(report), str(renamed))
    assert digest.returncode == 0 and "metadata keys changed: config_digest" in digest.stdout, digest.stdout

    # reports of another seed or suite are a wrong pairing, not row drift
    for key, value in (("seed", 11), ("suite", "braiding")):
        data = json.loads(report.read_text())
        data["metadata"][key] = value
        other = tmp_path / f"other_{key}.json"
        other.write_text(json.dumps(data))
        proc = _run("report_drift.py", str(report), str(other))
        assert proc.returncode == 2 and not proc.stdout, proc.stdout
        assert len(proc.stderr.splitlines()) == 1 and key in proc.stderr, proc.stderr
