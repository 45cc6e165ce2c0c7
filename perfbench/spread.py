"""Run the benchmark on several seeds and print each metric's median and spread.

    python3 perfbench/spread.py WORKLOAD [--seeds 1-10] [--seconds 20] [--trace 0]

Run from the repository root. The command comes from BENCHMARK.json. The
spread is the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median.
"""

import argparse
import json
import statistics
import subprocess

parser = argparse.ArgumentParser()
parser.add_argument("workload")
parser.add_argument("--seeds", default="1-10", help="first-last, inclusive")
parser.add_argument("--seconds", default="20")
parser.add_argument("--trace", default="0", choices=["0", "1"])
args = parser.parse_args()

command = json.load(open("BENCHMARK.json"))["command"]
first, last = (int(s) for s in args.seeds.split("-"))
values = {}
for seed in range(first, last + 1):
    run = subprocess.run(
        command + ["--workload", args.workload, "--seed", str(seed),
                   "--seconds", args.seconds, "--trace", args.trace],
        capture_output=True, text=True, check=True)
    result = json.loads(run.stdout.strip().splitlines()[-1])
    print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}", flush=True)
    for name, metric in result["metrics"].items():
        values.setdefault(name, []).append(metric["value"])

for name, vals in values.items():
    median = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median, 0, median)
    spread = (q3 - q1) / median if median else float("nan")
    print(f"{name:40s} median {median:<12.5g} spread {spread:.3f}  "
          f"min {min(vals):.5g}  max {max(vals):.5g}")
