#!/usr/bin/env python3
"""Repeatability check of the contract benchmark.

Runs BENCHMARK.json's command N times per workload (default 10), each with
another --seed, and prints for every end-to-end metric the median over the
runs and the distance between first and third quartile
(statistics.quantiles(v, n=4)) as a share of the median, next to the
metric's bound. A spread is flagged above a third of the bound: that is the
steadiness the benchmark aims for; above the bound the driver refuses it.

    python3 benchmark/spread.py [runs] [first_seed] [workload ...]

Run from the repository root. Writes nothing.
"""
import json
import statistics
import subprocess
import sys

contract = json.load(open("BENCHMARK.json"))
runs = int(sys.argv[1]) if len(sys.argv) > 1 else 10
first_seed = int(sys.argv[2]) if len(sys.argv) > 2 else 1
names = sys.argv[3:] or [w["name"] for w in contract["workloads"]]
bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}

for name in names:
    values = {m: [] for m in bounds}
    for i in range(runs):
        cmd = contract["command"] + [
            "--workload", name, "--seed", str(first_seed + i),
            "--seconds", str(contract["run_seconds"]), "--trace", "0",
        ]
        out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0, result
        for m in bounds:
            values[m].append(result["metrics"][m]["value"])
    print(f"{name}  ({runs} runs, seeds {first_seed}..{first_seed + runs - 1})")
    for m, v in values.items():
        q1, _, q3 = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        spread = (q3 - q1) / med
        flag = "" if spread <= bounds[m] / 3 else "  > bound/3" if spread <= bounds[m] else "  > BOUND"
        print(f"  {m:<18} median {med:>12.4f}  spread {spread:>7.4f}  bound {bounds[m]:.2f}{flag}")
