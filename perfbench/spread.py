#!/usr/bin/env python3
"""Run one workload on several seeds and report each metric's spread.

Run from the repository root:

    python3 perfbench/spread.py WORKLOAD [RUNS [FIRST_SEED [TRACE]]]

For every metric it prints the median of the runs and the distance
between their first and third quartiles as a share of the median (the
spread the bounds in BENCHMARK.json are checked against), next to the
metric's bound.
"""

import json
import statistics
import subprocess
import sys


def main() -> int:
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    workload = sys.argv[1]
    runs = int(sys.argv[2]) if len(sys.argv) > 2 else 5
    first_seed = int(sys.argv[3]) if len(sys.argv) > 3 else 1
    trace = sys.argv[4] if len(sys.argv) > 4 else "0"
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in range(first_seed, first_seed + runs):
        out = subprocess.run(
            bench["command"] + ["--workload", workload, "--seed", str(seed),
                                "--seconds", str(bench["run_seconds"]), "--trace", trace],
            capture_output=True, text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect", file=sys.stderr)
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:40s} median={med:<14.6g} spread={spread:.4f} bound={bounds.get(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
