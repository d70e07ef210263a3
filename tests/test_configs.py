"""The committed configs: canonical files, each named in README, each
reporting what its expected report says with numpy loaded and without it,
and the benchmark's generated copies of two of them."""

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conebraid.cli import main
from conebraid.config import load_config
from conebraid.suites import SUITE_NAMES
from expected_reports import EXPECTED_DIR, expected_csv, expected_run

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.json"))


@pytest.mark.parametrize("path", CONFIGS, ids=[p.stem for p in CONFIGS])
def test_committed_config_is_canonical(path):
    assert path.read_text() == load_config(path).to_canonical_json()


@pytest.mark.parametrize("path", CONFIGS, ids=[p.stem for p in CONFIGS])
def test_digest_is_the_hashlib_sha256_prefix(path):
    # config.digest reads the builtin SHA-256 module; its bytes are hashlib's
    import hashlib

    config = load_config(path)
    assert config.digest() == hashlib.sha256(config.to_canonical_json().encode()).hexdigest()[:16]


def test_readme_names_every_config():
    readme = (ROOT / "README.md").read_text()
    assert [p.name for p in CONFIGS if f"configs/{p.name}" not in readme] == []


def test_readme_cites_only_tests_that_exist():
    # each test_... name README cites is a file or a function under tests/
    tests = ROOT / "tests"
    defined = " ".join(path.read_text() for path in tests.glob("*.py"))
    cited = set(re.findall(r"\btest_\w+", (ROOT / "README.md").read_text()))
    assert sorted(n for n in cited if not (tests / f"{n}.py").is_file() and f"def {n}(" not in defined) == []


def _module(path: Path):
    """A file of the repository outside the package, loaded as a module by path."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses looks a class's module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


REPORT_DRIFT = _module(ROOT / "scripts" / "report_drift.py")


def test_one_expected_file_per_config():
    assert sorted(p.name for p in EXPECTED_DIR.iterdir()) == [f"{p.stem}.csv" for p in CONFIGS]


@pytest.mark.parametrize("suite", SUITE_NAMES)
@pytest.mark.parametrize("path", CONFIGS, ids=[p.stem for p in CONFIGS])
def test_report_is_the_expected_report(path, suite, tmp_path, capsys):
    # configs/expected/<name>.csv owns what the config reports: each suite's
    # rows, thresholds and verdicts, its values to report_drift's 1e-12, and
    # so the exit code.  A fresh process in which importing numpy fails exits
    # the same and writes the same report bytes as this one, which has numpy
    # loaded (as perfbench's traced runs do)
    _, code = expected_run(path.stem, suite)
    args = ["verify", "--config", str(path), "--suite", suite]
    here, fresh = (tmp_path / out / f"{suite}_report.csv" for out in ("here", "fresh"))
    assert main([*args, "--out", str(here.parent)]) == code
    expected = tmp_path / "expected.csv"
    expected.write_text(expected_csv(path.stem, suite))
    capsys.readouterr()
    assert REPORT_DRIFT.main([str(expected), str(here)]) == 0, capsys.readouterr().out

    without_numpy = (
        "import sys\nsys.modules['numpy'] = None\nfrom conebraid.cli import main\n"
        f"raise SystemExit(main({[*args, '--out', str(fresh.parent)]!r}))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", without_numpy], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == code and not proc.stderr, proc.stderr
    assert fresh.read_bytes() == here.read_bytes()


@pytest.mark.parametrize("workload, name", [("bump-sloped", "bump_sloped"), ("far-cone", "far_radius")])
def test_perfbench_workload_is_the_committed_config(workload, name):
    # the benchmark builds its configs from overrides of default.json; each
    # must equal the committed file in everything but the seed
    workloads = _module(ROOT / "perfbench" / "workloads.py")
    generated = workloads.WORKLOADS[workload].config(workloads.load_base(ROOT), 1)
    committed = json.loads((ROOT / "configs" / f"{name}.json").read_text())
    assert {**generated, "seed": None} == {**committed, "seed": None}
