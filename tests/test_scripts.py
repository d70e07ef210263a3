"""The scripts in a fresh interpreter: report_drift.py on reports that differ in one way each, layer_bench.py once."""

import ast
import json
import math
import os
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


def test_report_drift_refuses_a_json_report_with_a_repeated_key(tmp_path):
    # json.load keeps a repeated key's last value, so a flipped verdict written
    # before the real one would vanish and the copy compare clean either way round
    config = str(ROOT / "configs" / "default.json")
    code = expected_run("default", "decay")[1]
    assert main(["verify", "--config", config, "--suite", "decay", "--format", "json", "--out", str(tmp_path)]) == code
    report = tmp_path / "decay_report.json"
    text = report.read_text()
    verdict = json.loads(text)["rows"][0]["pass"]
    real, flipped = (f'"pass": {json.dumps(v)}' for v in (verdict, not verdict))
    bad = tmp_path / "bad.json"
    bad.write_text(text.replace(real, f"{flipped}, {real}", 1))
    for old, new in ((report, bad), (bad, report)):
        _refused(_run_drift(str(old), str(new)), bad, "the key 'pass' is repeated")


# panel nodes of one pair at distance d: 10 per wavelength of sinc(d r) on (0, 10], at least 192, in 64-node panels
PANEL_NODES = {0.3: 192, 2.0: 192, 20.0: 320, 200.0: 3200, 2000.0: 31872}
# on the default pair's transport arrows at R = 10; sigma at d = 0 takes one 192-node panel pair
OPERATION_COUNTS = {
    "weyl_mul": (4, 3, 192),
    "compose": (4, 4, 0),
    "tensor_mor": (6, 3, 192),
    "braiding_asymptotic": (32, 7, 192),
    "seqalg_sample": (8, 4, 192),
}


def test_layer_bench_smoke():
    # one repeat: the schema and the counts, which do not depend on the box, never a time
    script = ROOT / "scripts" / "layer_bench.py"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(script), "--repeats", "1"], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0 and not proc.stderr, proc.stderr
    bench = json.loads(proc.stdout)
    assert set(bench) == {"command", "repeats", "python", "machine", "cases"} and bench["repeats"] == 1
    counts = {}
    for case in bench["cases"]:
        assert set(case) == {"name", "atom_pairs", "pair_integrals", "nodes", "median_s", "iqr_s"}, case
        assert math.isfinite(case["median_s"]) and case["median_s"] >= 0.0 and case["iqr_s"] == 0.0
        counts[case["name"]] = (case["atom_pairs"], case["pair_integrals"], case["nodes"])
    want = {}
    for kind in ("gauss_sigma", "gauss_re", "bump_sigma"):
        for d, nodes in PANEL_NODES.items():
            # only sigma of two Gaussians has the erf form, from d = 0.5 on
            want[f"pair_integral/{kind}/d={d:g}"] = (1, 1, 0 if kind == "gauss_sigma" and d >= 0.5 else nodes)
    want["rule_build/64"] = (0, 0, 0)
    for n in range(1, 17):
        want[f"symplectic/cold/{n}"] = (n * n, n * n, 0)
        want[f"symplectic/warm/{n}"] = (n * n, 0, 0)
    assert counts == {**want, **OPERATION_COUNTS}
    # the standard library and conebraid only, so it runs where the package alone is installed
    imported = set()
    for node in ast.walk(ast.parse(script.read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module.partition(".")[0])
    assert imported - set(sys.stdlib_module_names) == {"conebraid"}
