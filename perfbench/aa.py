#!/usr/bin/env python3
"""A/A steadiness mode: run each workload repeatedly on the same code and
report every end-to-end metric's median, quartiles and spread.

Every workload in BENCHMARK.json runs ten times, with seeds 1 to 10. The
spread is (Q3 - Q1) / median over the runs, with the quartiles of Python's
statistics.quantiles(values, n=4). The exit code is 0 only if every run
was correct and every metric's spread, setup_s included, is below a third
of its bound. Run from the repository root:

    python3 perfbench/aa.py
"""

import json
import os
import statistics
import subprocess
import sys

RUNS = 10
SEEDS = range(1, RUNS + 1)


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    out = subprocess.run(argv, env=env, stdout=subprocess.PIPE, check=True, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    steady = True
    for workload in (w["name"] for w in bench["workloads"]):
        values = {m: [] for m in bounds}
        for seed in SEEDS:
            result = run_once(bench["command"], workload, seed, bench["run_seconds"])
            if not result["correct"]:
                print(f"{workload} seed {seed}: INCORRECT {result}", file=sys.stderr)
                steady = False
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{m}={values[m][-1]:.4g}" for m in bounds), flush=True)
        print(f"\n{workload}: {RUNS} runs")
        print(f"  {'metric':<12} {'median':>12} {'Q1':>12} {'Q3':>12} {'spread':>8} {'bound':>6}")
        for m, bound in bounds.items():
            q1, med, q3 = statistics.quantiles(values[m], n=4)
            spread = (q3 - q1) / med
            flag = "" if spread < bound / 3 else ("  over bound/3" if spread < bound else "  OVER BOUND")
            if spread >= bound / 3:
                steady = False
            print(f"  {m:<12} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>8.2%} {bound:>6.0%}{flag}")
        print(flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
