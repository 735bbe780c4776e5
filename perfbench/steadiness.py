#!/usr/bin/env python3
"""Measure the run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
        [--seconds S] [--workload NAME ...]

Runs BENCHMARK.json's command once per seed (seeds first-seed ..
first-seed + runs - 1) for each workload, one run at a time, and prints for
every end-to-end metric the median, the quartiles (statistics.quantiles,
n=4), the spread (q3 - q1) / median and the metric's bound, plus the share
of failed operations. The exit code is 1 when any spread other than
setup_s exceeds its bound, or the failed share differs between runs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(command, workload, seed, seconds):
    cmd = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                     "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--workload", action="append",
                   help="workload to run (repeatable; default: all)")
    a = p.parse_args()

    workloads = a.workload or [w["name"] for w in bench["workloads"]]
    bad = False
    for w in workloads:
        results = [run_once(bench["command"], w, s, a.seconds)
                   for s in range(a.first_seed, a.first_seed + a.runs)]
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{w}: {a.runs} runs of {a.seconds:g} s, failed share {sorted(shares)}")
        bad |= len(shares) != 1
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            over = spread > m["bound"] and m["name"] != "setup_s"
            bad |= over
            print(f"  {m['name']:<18} median {med:12.4f} {m['unit']:<5} q1 {q1:12.4f} "
                  f"q3 {q3:12.4f} spread {spread:7.4f} bound {m['bound']:.2f}"
                  f"{'  OVER' if over else ''}")
            print(f"    values {[round(v, 4) for v in values]}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
