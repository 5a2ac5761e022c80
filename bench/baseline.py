#!/usr/bin/env python3
"""Record the benchmark's numbers for the source tree it runs in.

    python3 bench/baseline.py --label "commit abc1234" --out bench/baseline.json

Runs bench/run.py sequentially, one process per run, each measuring for
BENCHMARK.json's run_seconds: for every workload one untraced run per seed
1-10, then one traced run with seed 1.  Writes the
environment, every end-to-end value with its median, quartiles and spread
(interquartile distance / median, from statistics.quantiles(n=4)), and the
per-layer metrics of the traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from workloads import WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SEEDS = range(1, 11)


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    lines = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True).stdout.splitlines()
    env = json.loads(next(line for line in lines if line.startswith("environment ")).split(" ", 1)[1])
    result = json.loads(lines[-1])
    print(f"{workload} seed={seed} trace={trace}: correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}", file=sys.stderr, flush=True)
    return env, result


def summary(values: list[float], unit: str) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"unit": unit, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="what was measured, e.g. a commit")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fp:
        seconds = json.load(fp)["run_seconds"]

    record = {"label": args.label, "run_seconds": seconds, "seeds": list(SEEDS), "workloads": {}}
    for name in WORKLOADS:
        runs = []
        for seed in SEEDS:
            env, result = bench(name, seed, seconds, 0)
            runs.append(result)
        record["environment"] = env
        _, traced = bench(name, SEEDS[0], seconds, 1)
        units = {k: v["unit"] for k, v in runs[0]["metrics"].items()}
        record["workloads"][name] = {
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {k: summary([r["metrics"][k]["value"] for r in runs], u) for k, u in units.items()},
            "per_layer": traced["metrics"],
        }
    with open(args.out, "w") as fp:
        json.dump(record, fp, indent=1)
        fp.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
