#!/usr/bin/env python3
"""Run-to-run spread check of the end-to-end metrics.

    python3 perfbench/stability.py [--runs 10] [--first-seed 1] [workload ...]

Runs the benchmark once per seed for each workload (tracing off) and prints,
per metric, the median and the interquartile distance as a share of the
median, next to a third of the metric's bound from BENCHMARK.json.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parent.parent


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    steady = True
    for workload in workloads:
        values, failed = {}, 0
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload}: {args.runs} runs, {failed} failed operations")
        for name, series in values.items():
            share = stats.spread(series)
            limit = bounds[name] / 3
            ok = name == "setup_s" or share < limit
            steady &= ok
            print(f"  {name:<16} median {stats.median(series):12.4f}  spread {share:6.1%}"
                  f"  (< {limit:.1%}{'' if ok else '  TOO WIDE'})")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
