#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs the benchmark once per seed on each chosen workload and prints, per
metric, the median and the distance between the first and third quartile
as a share of the median, beside the bound BENCHMARK.json fixes for it.

    python3 perfbench/spread.py --seeds 10 [--workload pairs_bx ...] [--first-seed 1]

A spread at or under a third of its bound is marked `ok`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload: str, seed: int, seconds: int, verbose: bool) -> dict:
    began = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        print(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} checks failed",
              flush=True)
    if verbose:
        print(f"  {workload} seed {seed}: {time.monotonic() - began:.1f} s wall", flush=True)
    return {k: v["value"] for k, v in result["metrics"].items()}


def main() -> int:
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--verbose", action="store_true", help="also print every run's value")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in workloads:
        runs = [run_once(workload, s, spec["run_seconds"], args.verbose)
                for s in range(args.first_seed, args.first_seed + args.seeds)]
        print(f"{workload} ({len(runs)} seeds)")
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / med if med else float("inf")
            mark = "ok" if share <= bound / 3 else ("within bound" if share <= bound else "TOO WIDE")
            print(f"  {name:<24} median {med:>14.4f}  iqr/median {share:7.4f}  bound {bound:5.2f}  {mark}")
            if args.verbose:
                print("      " + " ".join(f"{v:.4g}" for v in values))
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
