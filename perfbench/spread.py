#!/usr/bin/env python3
"""Spread report: run each workload repeatedly and summarize every metric.

    python3 perfbench/spread.py [--workloads a,b] [--runs 10] [--seed 1]
                                [--seconds S] [--trace 0|1]

Run from the root of a checkout. Run i of a workload uses seed SEED+i, so
the spread includes what a change of seed moves. Per metric it prints the
median, the first and third quartiles (statistics.quantiles(n=4)), the
spread (Q3-Q1 over the median), the largest relative deviation from the
median, the bound from BENCHMARK.json and whether the spread is under a
third of it. A metric is flagged "exact" when every run read the same
value.

It also checks determinism: the first seed is run a second time and its
exact counters (the "# exact" line) must repeat, and on table1-* the
dataset digest must differ between seeds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True, cwd=ROOT)
    lines = out.stdout.strip().splitlines()
    if out.returncode or not lines:
        sys.exit(f"spread.py: {workload} seed {seed} failed "
                 f"(exit {out.returncode})")
    exact = {}
    for line in lines:
        if line.startswith("# exact "):
            exact = json.loads(line[len("# exact "):])
    return json.loads(lines[-1]), exact


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads",
                   default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = p.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    ok = True
    for w in a.workloads.split(","):
        results, exacts = [], []
        for i in range(a.runs):
            r, e = run_once(w, a.seed + i, a.seconds, a.trace)
            results.append(r)
            exacts.append(e)
            ok &= r["correct"] and r["failed"] == 0
        _, again = run_once(w, a.seed, a.seconds, a.trace)
        print(f"\n== {w}: {a.runs} runs x {a.seconds:g} s, seeds "
              f"{a.seed}..{a.seed + a.runs - 1}, attempted "
              f"{[r['attempted'] for r in results]}")
        if again != exacts[0]:
            print(f"  NOT DETERMINISTIC: seed {a.seed} exact counters "
                  f"{exacts[0]} then {again}")
            ok = False
        if w.startswith("table1") and a.runs > 1 and \
                exacts[0].get("dataset_digest") == exacts[1].get("dataset_digest"):
            print("  seeds generate identical datasets")
            ok = False
        print(f"  {'metric':34} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'maxdev':>8} {'bound':>6}  flags")
        for name in results[0]["metrics"]:
            v = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else v * 3
            spread = (q3 - q1) / med if med else 0.0
            maxdev = max(abs(x - med) for x in v) / med if med else 0.0
            bound = bounds.get(name)
            flags = []
            if len(set(v)) == 1:
                flags.append("exact")
            if bound is not None:
                flags.append("ok" if spread < bound / 3 else "WIDE")
            print(f"  {name:34} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.3f} {maxdev:8.3f} "
                  f"{'' if bound is None else bound:>6}  {' '.join(flags)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
