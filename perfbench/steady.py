"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/steady.py --workload scan_analytics --seeds 1 2 3 4 5

Spread is the distance between the first and third quartile of the
runs' values as a share of their median; the end-to-end bounds in
``BENCHMARK.json`` must stay well above it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from perfbench.stats import quartile_spread  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = os.path.dirname(HERE)
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs = []
    for seed in args.seeds:
        command = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace),
        ]
        output = subprocess.run(
            command, cwd=root, check=True, capture_output=True, text=True
        ).stdout
        result = json.loads(output.strip().splitlines()[-1])
        runs.append(result)
        values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}"
              f"/{result['attempted']} {values}", flush=True)
    if len(runs) < 2:
        return 0
    print(f"{'metric':<34} {'median':>12} {'spread':>8} {'bound':>6}")
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        bound = bounds.get(name)
        print(f"{name:<34} {statistics.median(values):>12.5g}"
              f" {quartile_spread(values):>8.3f} {bound if bound is not None else '':>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
