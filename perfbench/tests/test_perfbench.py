"""Checks of the benchmark itself.

    python3 -m pytest -q perfbench/tests

The repository's own test run (``testpaths = tests``) does not collect these.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, load_base  # noqa: E402


@pytest.mark.parametrize("d", [0.0, 1.0, 20.0, 80.0])
def test_oracle_quadrature_route_matches_erf_closed_form(d):
    g = {"profile": "gaussian-momentum", "channel": "g", "q": 1.0, "s": 1.0}
    h = dict(g, channel="h")
    # A vanishing time offset forces the QUADPACK route; dt = 0 takes erf.
    assert abs(oracle.coupling(g, h, d, 1e-300) - oracle.coupling(g, h, d, 0.0)) < 1e-14


def test_tracer_rebinds_dict_bindings_and_refuses_closure_cells():
    def target():
        return 1

    holder = types.ModuleType("holder")
    holder.target = target
    trace = tracer.Tracer()
    wrapper = trace.wrap("holder.target", target)
    tracer._rebind(target, wrapper, {}, "holder.target")
    assert holder.target is wrapper
    assert holder.target() == 1 and trace.stats["holder.target"][0] == 1

    def hidden():
        return 2

    def caller():
        return hidden()  # holds ``hidden`` in a closure cell

    with pytest.raises(tracer.BindingError):
        tracer._rebind(hidden, trace.wrap("holder.hidden", hidden), {}, "holder.hidden")
    assert caller() == 2


def _traced_sample(tmp_path: Path, name: str):
    workload = WORKLOADS["default"]
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(workload.config(load_base(run.ROOT), seed=7)))
    sample = run.run_sample(workload, cfg_path, tmp_path / name, True, run.child_env(), run.Deadline(120.0))
    assert not sample.failed, [p.problems for p in sample.processes]
    return sample


def test_traced_counters_repeat_for_one_seed(tmp_path):
    first = _traced_sample(tmp_path, "a")
    second = _traced_sample(tmp_path, "b")
    a, b = run.merge_counters(first), run.merge_counters(second)
    assert run.counts_only(a) == run.counts_only(b)
    assert first.report_bytes() == second.report_bytes()
    assert run.check_patterns(WORKLOADS["default"], a) == []
    counts = run.counts_only(a)
    for key in ("field.symplectic", "seqalg.SequenceElement.at", "quadrature.gauss_legendre_unit"):
        assert counts["calls"][key] > 0
    assert counts["calls"]["quadrature.radial_fourier"] == 0
    assert counts["extra"]["quadrature.rule_misses"]["quadrature.gauss_legendre_unit"] > 0


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, "perfbench/run.py", "--workload", "default", "--seed", "1",
            "--seconds", "1", "--trace", "0"]
    out = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert "correct" not in out.stdout


def test_benchmark_json_names_what_run_py_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
