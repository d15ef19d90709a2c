"""Reference figures: the benchmark over several seeds, and a spin loop.

    python3 bench/reference.py --seeds 101-110
    python3 bench/reference.py --seeds 101-102 --trace 1
    python3 bench/reference.py --spin

For each workload in BENCHMARK.json it runs ``bench/run.py`` once per
seed for the ``run_seconds`` given there, one process after another, and
prints a markdown table of each metric's median and the distance between
its first and third quartiles as a share of the median, with the failed
share of operations.  ``--spin`` times the reference loop of
``speed.py`` for 40 s and prints its quartiles, which shows how steady
the machine is.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

from speed import reference_unit

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPIN_S = 40.0


def seed_range(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run(workload, seed, seconds, trace):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def table(workload, results):
    names = list(results[0]["metrics"])
    print(f"\n{workload}: {len(results)} runs; failed/attempted "
          f"{sorted({round(r['failed'] / r['attempted'], 6) for r in results})}; "
          f"all correct: {all(r['correct'] for r in results)}\n")
    print("| metric | unit | median | IQR/median |")
    print("|---|---|---|---|")
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        if len(values) >= 2 and median:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = f"{(q3 - q1) / median:.3f}"
        else:
            spread = "-"
        print(f"| {name} | {results[0]['metrics'][name]['unit']} | {median:.4g} | {spread} |")


def spin():
    times = []
    end = perf_counter() + SPIN_S
    while perf_counter() < end:
        times.append(1e3 * reference_unit())
    q1, q2, q3 = statistics.quantiles(times, n=4)
    print(f"spin loop, {len(times)} repetitions in {SPIN_S:g} s: "
          f"p25 {q1:.2f} ms, p50 {q2:.2f} ms, p75 {q3:.2f} ms, IQR/median {(q3 - q1) / q2:.3f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"), help="e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spin", action="store_true", help=f"only time the reference loop for {SPIN_S:g} s")
    args = parser.parse_args()
    if args.spin:
        spin()
        return
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    for workload in (w["name"] for w in spec["workloads"]):
        results = []
        for seed in args.seeds:
            result, stdout = run(workload, seed, spec["run_seconds"], args.trace)
            results.append(result)
            overhead = [line for line in stdout.splitlines() if line.startswith("trace overhead")]
            print(f"{workload} seed {seed}: attempted {result['attempted']}, failed {result['failed']}"
                  + (f", {overhead[0]}" if overhead else ""), file=sys.stderr, flush=True)
        table(workload, results)


if __name__ == "__main__":
    main()
