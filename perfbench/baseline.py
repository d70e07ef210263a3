"""Run every workload on several seeds and summarise, one run at a time.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/BASELINE.json

Runs use BENCHMARK.json's run_seconds.  For each workload: one
`run.py --trace 0` per seed (end-to-end metrics),
then one `run.py --trace 1` on the first seed (per-layer metrics).  Prints
each metric's median and quartile spread (IQR / median, as
statistics.quantiles(n=4) gives the quartiles) and, with --out, writes the
summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(part) for part in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(part) for part in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarise(results: list[dict]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        entry = {"unit": results[0]["metrics"][name]["unit"], "median": median, "values": values}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else 0.0)
        out[name] = entry
    return out


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10", help="'1-10' or '3,5,8'")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    summary = {"seeds": seeds, "run_seconds": seconds, "workloads": {}}
    for workload in WORKLOADS:
        started = time.monotonic()
        timed = [run_once(workload, seed, seconds, 0) for seed in seeds]
        traced = run_once(workload, seeds[0], seconds, 1)
        entry = {
            "attempted": sum(r["attempted"] for r in timed) + traced["attempted"],
            "failed": sum(r["failed"] for r in timed) + traced["failed"],
            "end_to_end": summarise(timed),
            "per_layer": summarise([traced]),
            "elapsed_s": time.monotonic() - started,
        }
        summary["workloads"][workload] = entry
        print(f"{workload}: {entry['failed']} of {entry['attempted']} runs failed, {entry['elapsed_s']:.0f} s")
        for name, m in entry["end_to_end"].items():
            print(f"  {name:16s} median {m['median']:.6g} {m['unit']:7s} spread {m.get('spread', 0.0):.4f}")
        for name, m in entry["per_layer"].items():
            print(f"  {name:40s} {m['median']:.6g} {m['unit']}")
    records = sorted((ROOT / ".perfbench" / "records").glob("*.json"))
    if records:
        summary["machine"] = json.loads(records[-1].read_text())["machine"]
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
