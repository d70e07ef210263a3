"""scripts/report_drift.py, run in a fresh interpreter on JSON and CSV reports that differ in one way each."""

import json
import os
import subprocess
import sys
from pathlib import Path

from conebraid.cli import main

ROOT = Path(__file__).resolve().parent.parent


def _run_drift(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "report_drift.py"), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_report_drift_script(tmp_path):
    config = str(ROOT / "configs" / "default.json")
    assert main(["verify", "--config", config, "--suite", "laws", "--format", "json", "--out", str(tmp_path)]) == 0
    report = tmp_path / "laws_report.json"

    def drift(name, mutate):
        data = json.loads(report.read_text())
        mutate(data["rows"])
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return _run_drift(str(report), str(path))

    same = _run_drift(str(report), str(report))
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
    digest = _run_drift(str(report), str(renamed))
    assert digest.returncode == 0 and "metadata keys changed: config_digest" in digest.stdout, digest.stdout

    # reports of another seed or suite are a wrong pairing, not row drift
    for key, value in (("seed", 11), ("suite", "braiding")):
        data = json.loads(report.read_text())
        data["metadata"][key] = value
        other = tmp_path / f"other_{key}.json"
        other.write_text(json.dumps(data))
        proc = _run_drift(str(report), str(other))
        assert proc.returncode == 2 and not proc.stdout, proc.stdout
        assert len(proc.stderr.splitlines()) == 1 and key in proc.stderr, proc.stderr


def test_report_drift_reads_csv_reports(tmp_path):
    config = str(ROOT / "configs" / "default.json")
    assert main(["verify", "--config", config, "--suite", "decay", "--out", str(tmp_path)]) == 1
    report = tmp_path / "decay_report.csv"
    same = _run_drift(str(report), str(report))
    assert same.returncode == 0, same.stdout
    assert "20 rows compared, 0 unmatched, 0 thresholds moved, 0 flipped, drift within 1e-12" in same.stdout
    # against the JSON report of the same run every row matches, and there is no metadata to compare
    assert main(["verify", "--config", config, "--suite", "decay", "--format", "json", "--out", str(tmp_path)]) == 1
    mixed = _run_drift(str(tmp_path / "decay_report.json"), str(report))
    assert mixed.returncode == 0 and "metadata keys changed: none" in mixed.stdout, mixed.stdout
    # a 1e-11 move of one residual is over the budget; the row's verdict stays
    header, first, *rest = report.read_text().splitlines()
    cells = first.split(",")
    cells[6] = repr(float(cells[6]) + 1e-11)
    moved = tmp_path / "moved.csv"
    moved.write_text("\n".join([header, ",".join(cells), *rest]) + "\n")
    proc = _run_drift(str(report), str(moved))
    assert proc.returncode == 1, proc.stdout
    assert "max |delta residual| = 1.000e-11" in proc.stdout and "0 flipped" in proc.stdout
