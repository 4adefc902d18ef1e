"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage, from the repository root::

    python3 perfbench/stability.py --workload verify-lcm3 --seeds 1-10

Runs ``run.py --trace 0`` once per seed, one run at a time, and prints
each end-to-end metric's median and its quartile spread (Q3 - Q1, from
``statistics.quantiles(values, n=4)``) as a share of the median, next
to the metric's bound from BENCHMARK.json.  Each run is as long as
BENCHMARK.json's ``run_seconds``.  A benchmark is steady when every
spread stays below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values: list) -> float:
    """Quartile spread of ``values`` as a share of their median."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def parse_seeds(text: str) -> list:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(seed) for seed in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", type=parse_seeds)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    seconds = bench["run_seconds"]
    series = {metric["name"]: [] for metric in bench["end_to_end"]}
    failed = 0
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            failed += 1
            continue
        result = json.loads(lines[-1])
        failed += not result["correct"]
        for name, metric in result["metrics"].items():
            series[name].append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{name}={metric['value']:.4g}"
            for name, metric in result["metrics"].items()), flush=True)
    for metric in bench["end_to_end"]:
        values = series[metric["name"]]
        if len(values) < 2:
            continue
        share = spread(values)
        if share >= metric["bound"]:
            flag = "  <-- above bound"
        elif share >= metric["bound"] / 3:
            flag = "  <-- above bound/3"
        else:
            flag = ""
        print(f"{metric['name']:>12}: median {statistics.median(values):.4g}"
              f" {metric['unit']}, spread {share:.3f}"
              f" (bound {metric['bound']}){flag}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
