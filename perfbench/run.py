"""conebraid benchmark: seeded workloads through `conebraid verify`, one fresh process at a time.

    python3 perfbench/run.py --workload default --seed 1 --seconds 20 --trace 0

Run from a checkout's root; the package is imported from the checkout's
``src`` tree and nothing outside the checkout is written (scratch space and
run records go under ``.perfbench/``).

Every timed sample is a fresh process per suite: the rule caches and the
bump registry live inside a process, so repeating inside one process would
hide the rule builds every CLI call pays.  A sample fails on a traceback,
an unexpected exit code, a row count other than the plan, a verdict flip
against the workload's table, an oracle error above 1e-12, or report bytes
that differ from the first sample of the same seed.

``--trace 0`` times samples for ``--seconds`` (at least two) and reports
the end-to-end metrics.  ``--trace 1`` alternates untimed-by-trace and
traced samples (see tracer.py) and reports the per-layer metrics; traced
counters must repeat exactly and follow the workload's zero/non-zero
pattern.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

ORACLE_TOL = 1e-12
SETUP_PROBES = 10
SETUP_MIN = 5
MIN_TIMED_SAMPLES = 2
HARD_LIMIT_S = 170.0
# Phases are O(1), so no error below half an ulp of 1 is resolvable.
ERROR_FLOOR = 2.0**-53
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("oracle_digits", "digits"),
)
# Per-layer metrics published in the result line.  Layer times that are
# zero by design on some workload are printed and recorded only.
PER_LAYER = (
    ("quadrature.rule_builds", "count"),
    ("quadrature.rule_build_s", "s"),
    ("quadrature.rule_hit_ratio", "ratio"),
    ("quadrature.rule_nodes_max", "count"),
    ("quadrature.radial_fourier.calls", "count"),
    ("quadrature.radial_fourier.momenta", "count"),
    ("quadrature.self_s", "s"),
    ("field.symplectic.calls", "count"),
    ("field.symplectic.self_s", "s"),
    ("field.symplectic.term_pairs", "count"),
    ("field.symplectic.nodes", "count"),
    ("field.scalar_product.calls", "count"),
    ("field.label_ops.calls", "count"),
    ("field.label_ops.self_s", "s"),
    ("field.pair_reuse", "ratio"),
    ("field.self_s", "s"),
    ("weyl.weyl_mul.calls", "count"),
    ("weyl.label_id.calls", "count"),
    ("weyl.label_id.self_s", "s"),
    ("weyl.self_s", "s"),
    ("category.compose.calls", "count"),
    ("category.tensor_mor.calls", "count"),
    ("category.self_s", "s"),
    ("category.braiding_asymptotic.self_s", "s"),
    ("seqalg.limsup_norm.calls", "count"),
    ("seqalg.evaluations", "count"),
    ("suites.braiding_s", "s"),
    ("suites.decay_s", "s"),
    ("config.load_config_s", "s"),
    ("angular.angular_rule_s", "s"),
    ("report.emit_s", "s"),
    ("report.bytes", "bytes"),
    ("trace.overhead_ratio", "ratio"),
)
PRINTED_ONLY = (
    ("quadrature.radial_fourier.self_s", "s"),
    ("field.scalar_product.self_s", "s"),
    ("weyl.weyl_mul.self_s", "s"),
    ("weyl.gram_matrix.self_s", "s"),
    ("seqalg.self_s", "s"),
    ("suites.laws_s", "s"),
    ("suites.homotopy_s", "s"),
    ("suites.seqalg_s", "s"),
)
LABEL_OPS = ("field.add", "field.translate", "field.scale", "field.intertwiner_label")


@dataclass
class ProcessResult:
    suite: str
    wall_s: float
    rss_mb: float
    exit_code: int
    problems: list[str]
    report: bytes = b""
    rows: list = field(default_factory=list)
    counters: dict | None = None


@dataclass
class Sample:
    traced: bool
    processes: list[ProcessResult]
    problems: list[str] = field(default_factory=list)
    oracle_err: float = math.nan

    @property
    def wall_s(self) -> float:
        return sum(p.wall_s for p in self.processes)

    @property
    def failed(self) -> bool:
        return bool(self.problems) or any(p.problems for p in self.processes)

    def report_bytes(self) -> dict:
        return {p.suite: p.report for p in self.processes}


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        return self.end - time.monotonic()


def spawn(argv: list[str], cwd: Path, env: dict, deadline: Deadline) -> tuple[float, float, int, bool]:
    """Run one process to completion: (spawn-to-exit s, ru_maxrss MB, exit code, timed out)."""
    with open(cwd / "stdout.txt", "wb") as out, open(cwd / "stderr.txt", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        killer = threading.Timer(max(deadline.left(), 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    timed_out = proc.returncode < 0
    return wall, usage.ru_maxrss / 1024.0, proc.returncode, timed_out


def child_env() -> dict:
    """Environment of every measured process: the checkout's src first, one BLAS thread.

    With the BLAS pool at its default size, the dense eigensolver behind each
    Gauss-Legendre rule build spreads over both cores and its time swings
    with whatever else the host runs (per-process variation of about 14%
    against 3% single-threaded on a 2-vCPU VM), which no affordable number of
    samples averages out.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def probe(config_path: Path, cwd: Path, env: dict, deadline: Deadline) -> tuple[float, list[str]]:
    wall, _, code, timed_out = spawn(
        [sys.executable, str(HERE / "probe.py"), str(config_path)], cwd, env, deadline
    )
    problems = []
    if timed_out or code != 0:
        problems.append(f"set-up probe exited {code}: {(cwd / 'stderr.txt').read_text()[-300:]}")
    else:
        where = Path((cwd / "stdout.txt").read_text().strip()).resolve()
        if SRC.resolve() not in where.parents:
            problems.append(f"conebraid imported from {where}, not from {SRC}")
    return wall, problems


def check_process(spec, pdir: Path, code: int, timed_out: bool) -> tuple[list[str], bytes, list]:
    problems = []
    stdout = (pdir / "stdout.txt").read_text()
    stderr = (pdir / "stderr.txt").read_text()
    tag = f"{spec.suite}:"
    if timed_out:
        return [f"{tag} killed at the time limit"], b"", []
    if "Traceback" in stderr:
        problems.append(f"{tag} traceback: {stderr.strip().splitlines()[-1]}")
    if code != spec.exit_code:
        problems.append(f"{tag} exit {code}, expected {spec.exit_code}")
    first = stdout.splitlines()[0] if stdout else ""
    planned = first.split("->")[1].split()[0] if first.startswith("plan:") and "->" in first else None
    if planned != str(spec.rows):
        problems.append(f"{tag} plan line {first!r}, expected {spec.rows} rows")
    path = pdir / f"{spec.suite}_report.json"
    if not path.is_file():
        return problems + [f"{tag} no report written"], b"", []
    data = path.read_bytes()
    rows = json.loads(data)["rows"]
    if len(rows) != spec.rows:
        problems.append(f"{tag} {len(rows)} rows, expected {spec.rows}")
    flips = [f"{r['check_id']}@{r['cone_id'] or r['radius']}" for r in rows if r["pass"] != spec.expected_pass(r)]
    if flips:
        problems.append(f"{tag} verdict flips {flips}")
    return problems, data, rows


def run_sample(
    workload, cfg_path: Path, sample_dir: Path, traced: bool, env: dict, deadline: Deadline, between=None
) -> Sample:
    """One sample: each of the workload's processes in turn; ``between`` runs before each."""
    results = []
    for spec in workload.processes:
        if between is not None:
            between()
        pdir = sample_dir / spec.suite
        pdir.mkdir(parents=True)
        counters_path = pdir / "counters.json"
        head = [str(HERE / "tracer.py"), str(counters_path)] if traced else ["-m", "conebraid"]
        argv = [sys.executable, *head, "verify", "--config", str(cfg_path), "--suite", spec.suite,
                "--out", str(pdir), "--format", "json"]
        wall, rss, code, timed_out = spawn(argv, pdir, env, deadline)
        problems, data, rows = check_process(spec, pdir, code, timed_out)
        counters = None
        if traced and not timed_out:
            if counters_path.is_file():
                counters = json.loads(counters_path.read_text())
            else:
                problems.append(f"{spec.suite}: tracer wrote no counters")
        results.append(ProcessResult(spec.suite, wall, rss, code, problems, data, rows, counters))
    return Sample(traced=traced, processes=results)


def check_samples(samples: list[Sample], config: dict) -> None:
    """Rerun identity against the first sample, and the independent oracle."""
    import oracle

    expected_rows = 2 * len(config["radii"])
    memo: dict = {}
    first = samples[0].report_bytes()
    for sample in samples:
        reports = sample.report_bytes()
        if reports != first:
            sample.problems.append("report bytes differ from the first sample of this seed")
        key = tuple(sorted(reports.items()))
        if key not in memo:
            rows = [r for p in sample.processes for r in p.rows]
            memo[key] = oracle.oracle_error(config, rows)
        err, seen = memo[key]
        sample.oracle_err = err
        if seen != expected_rows:
            sample.problems.append(f"oracle matched {seen} rows, expected {expected_rows}")
        if not err <= ORACLE_TOL:
            sample.problems.append(f"oracle error {err:.3e} > {ORACLE_TOL:g}")


# ---------------------------------------------------------------- tracing


def merge_counters(sample: Sample) -> dict:
    """Sum one sample's per-process counters (max for the largest rule)."""
    functions: dict = {}
    extra: dict = {}
    for proc in sample.processes:
        if proc.counters is None:
            continue
        for key, stats in proc.counters["functions"].items():
            acc = functions.setdefault(key, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            for name, value in stats.items():
                acc[name] += value
        for key, value in proc.counters["extra"].items():
            if isinstance(value, dict):
                acc = extra.setdefault(key, {})
                for sub, v in value.items():
                    acc[sub] = acc.get(sub, 0) + v
            elif key == "quadrature.rule_nodes_max":
                extra[key] = max(extra.get(key, 0), value)
            else:
                extra[key] = extra.get(key, 0) + value
    return {"functions": functions, "extra": extra}


def counts_only(counters: dict) -> dict:
    """The parts of the counters that must repeat exactly for one seed."""
    extra = {k: v for k, v in counters["extra"].items() if not k.endswith("_s")}
    return {"calls": {k: v["calls"] for k, v in counters["functions"].items()}, "extra": extra}


def check_patterns(workload, counters: dict) -> list[str]:
    from workloads import PATTERN_KEYS

    problems = []
    functions = counters["functions"]
    for key in PATTERN_KEYS:
        if key not in functions:
            continue  # the function no longer exists
        active = functions[key]["calls"] > 0
        if active != (key in workload.active):
            problems.append(f"{key} calls {functions[key]['calls']}, expected {'> 0' if not active else '0'}")
    misses = counters["extra"].get("quadrature.rule_misses", {})
    for key in workload.builds:
        if key in functions and misses.get(key, 0) == 0:
            problems.append(f"{key} built no rule")
    return problems


def layer_metrics(counters: dict) -> dict[str, float]:
    from tracer import CACHED_RULES

    f, x = counters["functions"], counters["extra"]

    def calls(key):
        return f.get(key, {}).get("calls", 0)

    def self_s(*keys):
        return sum(f.get(k, {}).get("self_s", 0.0) for k in keys)

    def incl_s(key):
        return f.get(key, {}).get("incl_s", 0.0)

    def module_self(short):
        return self_s(*(k for k in f if k.startswith(short + ".")))

    rule_calls = sum(calls(k) for k in CACHED_RULES)
    builds = sum(x.get("quadrature.rule_misses", {}).values())
    pair_keys = x.get("field.symplectic.pair_keys", 0)
    nodes = x.get("field.nodes", {})
    return {
        "quadrature.rule_builds": builds,
        "quadrature.rule_build_s": x.get("quadrature.rule_build_s", 0.0),
        "quadrature.rule_hit_ratio": (rule_calls - builds) / rule_calls if rule_calls else 0.0,
        "quadrature.rule_nodes_max": x.get("quadrature.rule_nodes_max", 0),
        "quadrature.radial_fourier.calls": calls("quadrature.radial_fourier"),
        "quadrature.radial_fourier.momenta": x.get("quadrature.radial_fourier.momenta", 0),
        "quadrature.radial_fourier.self_s": self_s("quadrature.radial_fourier"),
        "quadrature.self_s": module_self("quadrature"),
        "field.symplectic.calls": calls("field.symplectic"),
        "field.symplectic.self_s": self_s("field.symplectic"),
        "field.symplectic.term_pairs": x.get("field.symplectic.term_pairs", 0),
        "field.symplectic.nodes": nodes.get("field.symplectic", 0),
        "field.scalar_product.calls": calls("field.scalar_product"),
        "field.scalar_product.self_s": self_s("field.scalar_product"),
        "field.label_ops.calls": sum(calls(k) for k in LABEL_OPS),
        "field.label_ops.self_s": self_s(*LABEL_OPS),
        "field.pair_reuse": x.get("field.symplectic.term_pairs", 0) / pair_keys if pair_keys else 0.0,
        "field.self_s": module_self("field"),
        "weyl.weyl_mul.calls": calls("weyl.weyl_mul"),
        "weyl.weyl_mul.self_s": self_s("weyl.weyl_mul"),
        "weyl.label_id.calls": calls("weyl.label_id"),
        "weyl.label_id.self_s": self_s("weyl.label_id"),
        "weyl.gram_matrix.self_s": self_s("weyl.gram_matrix"),
        "weyl.self_s": module_self("weyl"),
        "category.compose.calls": calls("category.compose"),
        "category.tensor_mor.calls": calls("category.tensor_mor"),
        "category.self_s": module_self("category"),
        "category.braiding_asymptotic.self_s": self_s("category.braiding_asymptotic"),
        "seqalg.limsup_norm.calls": calls("seqalg.limsup_norm"),
        "seqalg.evaluations": calls("seqalg.SequenceElement.at"),
        "seqalg.self_s": module_self("seqalg"),
        "suites.laws_s": incl_s("suites.run_laws"),
        "suites.braiding_s": incl_s("suites.run_braiding"),
        "suites.homotopy_s": incl_s("suites.run_homotopy"),
        "suites.decay_s": incl_s("suites.run_decay"),
        "suites.seqalg_s": incl_s("suites.run_seqalg"),
        "config.load_config_s": incl_s("config.load_config"),
        "angular.angular_rule_s": incl_s("_angular.angular_rule"),
        "report.emit_s": incl_s("report.emit_report"),
        "report.bytes": x.get("report.bytes", 0),
    }


# ---------------------------------------------------------------- records


def machine() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads_env_found": {k: os.environ.get(k) for k in THREAD_VARS},
        "blas_threads_env_used": {k: child_env()[k] for k in THREAD_VARS},
    }


def fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


# ---------------------------------------------------------------- main


def measure(args, workload, deadline: Deadline) -> tuple[dict, dict]:
    from workloads import load_base

    config = workload.config(load_base(ROOT), args.seed)
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    env = child_env()
    try:
        cfg_path = run_dir / "config.json"
        cfg_path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
        (run_dir / "warmup").mkdir()
        _, problems = probe(cfg_path, run_dir / "warmup", env, deadline)
        if problems:
            raise SystemExit(f"error: {problems[0]}")

        setup: list[float] = []
        probe_failures = 0
        started = time.monotonic()
        next_probe = started

        def probe_if_due(force: bool = False):
            # Set-up probes are spread evenly over the run, between
            # processes, so their median sees the machine conditions the
            # samples see.
            nonlocal probe_failures, next_probe
            if args.trace or not (force or time.monotonic() >= next_probe):
                return
            next_probe += args.seconds / SETUP_PROBES
            pdir = run_dir / f"setup{len(setup)}"
            pdir.mkdir()
            wall, problems = probe(cfg_path, pdir, env, deadline)
            setup.append(wall)
            probe_failures += bool(problems)

        samples: list[Sample] = []
        # A round is one timed sample, or an untraced and a traced sample.
        kinds = (False, True) if args.trace else (False,)
        min_rounds = 1 if args.trace else MIN_TIMED_SAMPLES
        rounds = 0
        while True:
            per_round = (time.monotonic() - started) / rounds if rounds else 0.0
            # Start another round while that ends nearer to --seconds than stopping now.
            if rounds >= min_rounds and time.monotonic() - started + per_round / 2 > args.seconds:
                break
            if rounds and 1.2 * per_round > deadline.left():
                break
            for traced in kinds:
                sdir = run_dir / f"sample{len(samples)}"
                samples.append(run_sample(workload, cfg_path, sdir, traced, env, deadline, probe_if_due))
                shutil.rmtree(sdir)
            rounds += 1
        while not args.trace and len(setup) < SETUP_MIN:
            probe_if_due(force=True)
        check_samples(samples, config)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    timed = [s for s in samples if not s.traced]
    traced = [s for s in samples if s.traced]
    walls = [s.wall_s for s in timed]
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "config_seed": config["seed"],
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "setup_s": setup,
        "samples": [
            {
                "traced": s.traced,
                "wall_s": s.wall_s,
                "processes": [
                    {"suite": p.suite, "wall_s": p.wall_s, "rss_mb": p.rss_mb, "exit": p.exit_code}
                    for p in s.processes
                ],
                "oracle_err": s.oracle_err,
                "problems": s.problems + [q for p in s.processes for q in p.problems],
            }
            for s in samples
        ],
    }
    attempted = len(samples) + len(setup)
    failed = sum(s.failed for s in samples) + probe_failures
    if rounds < min_rounds:
        record["too_short"] = f"only {rounds} of {min_rounds} rounds fit in the time limit"
        failed += 1

    if args.trace:
        merged = [merge_counters(s) for s in traced]
        for sample, counters in zip(traced, merged):
            sample_problems = check_patterns(workload, counters)
            if counts_only(counters) != counts_only(merged[0]):
                sample_problems.append("traced counters differ between runs of one seed")
            if sample_problems and not sample.failed:
                failed += 1
            sample.problems.extend(sample_problems)
            record["samples"][samples.index(sample)]["problems"].extend(sample_problems)
        per_sample = [layer_metrics(c) for c in merged]
        values = {k: statistics.median(m[k] for m in per_sample) for k in per_sample[0]}
        values["trace.overhead_ratio"] = statistics.median(s.wall_s for s in traced) / statistics.median(walls)
        record["counters"] = merged[0]
        published = PER_LAYER
        printed = PRINTED_ONLY
    else:
        worst = max(s.oracle_err for s in samples)
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": max(p.rss_mb for s in samples for p in s.processes),
            "oracle_digits": -math.log10(max(worst, ERROR_FLOOR)),
        }
        record["oracle_err"] = worst
        published = END_TO_END
        printed = ()
    record["metrics"] = values
    record["attempted"], record["failed"] = attempted, failed
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in published},
    }
    lines = [
        f"workload {workload.name} seed {args.seed} (config seed {config['seed']}), trace {args.trace}: "
        f"{len(samples)} samples, {attempted} runs attempted, {failed} failed, error_rate {failed / attempted:.3g}"
    ]
    if not args.trace:
        lines.append(
            f"  wall_s samples {', '.join(f'{w:.3f}' for w in walls)}; setup_s samples "
            f"{', '.join(f'{w:.3f}' for w in setup)}; oracle_err {record['oracle_err']:.3e}"
        )
    for name, unit in published + printed:
        lines.append(f"  {name:40s} {fmt(values[name]):>14s} {unit}")
    for entry in record["samples"]:
        for problem in entry["problems"]:
            lines.append(f"  problem: {problem}")
    return result, {"record": record, "lines": lines}


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "conebraid" / "__init__.py").is_file() or not (ROOT / "configs" / "default.json").is_file():
        print(f"error: no conebraid source tree under {ROOT}", file=sys.stderr)
        return 2
    deadline = Deadline(HARD_LIMIT_S)
    result, extra = measure(args, WORKLOADS[args.workload], deadline)
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = records / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    path.write_text(json.dumps(extra["record"], indent=2, sort_keys=True) + "\n")
    print("\n".join(extra["lines"]))
    print(f"  record: {path.relative_to(ROOT)}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
