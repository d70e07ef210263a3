"""scripts/report_drift.py, run in a fresh interpreter on JSON and CSV reports that differ in one way each."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from conebraid.cli import main
from expected_reports import expected_csv, expected_run

ROOT = Path(__file__).resolve().parent.parent


def _run_drift(*args: str) -> subprocess.CompletedProcess:
    # the script needs only the standard library
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "report_drift.py"), *args], capture_output=True, text=True, timeout=120
    )


def _edited(report: Path, name: str, edit) -> Path:
    """A copy of a JSON report, changed in place by edit(data), written next to it as name."""
    data = json.loads(report.read_text())
    edit(data)
    path = report.with_name(name)
    path.write_text(json.dumps(data))
    return path


def _refused(proc: subprocess.CompletedProcess, bad: Path, message: str) -> None:
    assert proc.returncode == 2 and not proc.stdout, proc.stdout
    assert proc.stderr.startswith(f"error: cannot read report {bad}: ") and message in proc.stderr, proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr


def test_report_drift_script(tmp_path):
    config = str(ROOT / "configs" / "default.json")
    code = expected_run("default", "laws")[1]
    assert main(["verify", "--config", config, "--suite", "laws", "--format", "json", "--out", str(tmp_path)]) == code
    report = tmp_path / "laws_report.json"

    def drift(name, mutate, part="rows"):
        return _run_drift(str(report), str(_edited(report, name, lambda data: mutate(data[part]))))

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
    digest = drift("digest.json", lambda metadata: metadata.update({"config_digest": "0" * 16}), "metadata")
    assert digest.returncode == 0 and "metadata keys changed: config_digest" in digest.stdout, digest.stdout

    # reports of another seed or suite are a wrong pairing, not row drift
    for key, value in (("seed", 11), ("suite", "braiding")):
        proc = drift(f"other_{key}.json", lambda metadata: metadata.update({key: value}), "metadata")
        assert proc.returncode == 2 and not proc.stdout, proc.stdout
        assert len(proc.stderr.splitlines()) == 1 and key in proc.stderr, proc.stderr


def test_report_drift_reads_csv_reports(tmp_path):
    config = str(ROOT / "configs" / "default.json")
    rows, code = expected_run("default", "decay")
    report = tmp_path / "expected.csv"
    report.write_text(expected_csv("default", "decay"))
    same = _run_drift(str(report), str(report))
    assert same.returncode == 0, same.stdout
    assert f"{rows} rows compared, 0 unmatched, 0 thresholds moved, 0 flipped, drift within 1e-12" in same.stdout
    # against the JSON report of a run every row matches, and there is no metadata to compare
    assert main(["verify", "--config", config, "--suite", "decay", "--format", "json", "--out", str(tmp_path)]) == code
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


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda lines: lines + lines[-1:], "two rows have the key ("),
        (lambda lines: [lines[0] + ",extra", *lines[1:]], "the header is not check_id,"),
        (lambda lines: [line.rpartition(",")[0] for line in lines], "the header is not check_id,"),
        (lambda lines: [lines[0], lines[1] + ",extra", *lines[2:]], "line 2: 10 cells, not 9"),
        (lambda lines: [lines[0], lines[1].rpartition(",")[0], *lines[2:]], "line 2: 8 cells, not 9"),
        (lambda lines: [lines[0], lines[1].replace(",1e-12,", ",1e-I2,"), *lines[2:]], "line 2: could not convert"),
        (lambda lines: [lines[0], lines[1].replace(",true", ",yes"), *lines[2:]], "line 2: pass cell 'yes'"),
    ],
    ids=["repeated_key", "extra_column", "missing_column", "extra_cell", "missing_cell", "non_numeric", "verdict"],
)
def test_report_drift_refuses_a_report_it_cannot_read(tmp_path, edit, message):
    # a bad merge that duplicates a row of an expected file must not compare clean
    report = ROOT / "configs" / "expected" / "default.csv"
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(edit(report.read_text().splitlines())) + "\n")
    _refused(_run_drift(str(report), str(bad)), bad, message)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda report: report["rows"][0].pop("threshold"), "row 1: no threshold"),
        (lambda report: report["rows"][0].update({"residual": "abc"}), "row 1: could not convert residual 'abc'"),
        (lambda report: report["rows"][0].update({"pass": "yes"}), "row 1: pass cell 'yes'"),
        (lambda report: report.pop("metadata"), "the report needs a metadata object"),
    ],
    ids=["missing_threshold", "non_numeric", "verdict", "no_metadata"],
)
def test_report_drift_refuses_a_json_report_it_cannot_read(tmp_path, edit, message):
    # each JSON row passes the record check a CSV row does
    config = str(ROOT / "configs" / "default.json")
    code = expected_run("default", "decay")[1]
    assert main(["verify", "--config", config, "--suite", "decay", "--format", "json", "--out", str(tmp_path)]) == code
    report = tmp_path / "decay_report.json"
    bad = _edited(report, "bad.json", edit)
    _refused(_run_drift(str(report), str(bad)), bad, message)
