#!/usr/bin/env python3
"""Noise report: run each workload N times and show every metric's spread.

    python3 perfbench/noise.py --runs 10 [--workloads gen-skewed,serve-churn] [--seed 100] [--trace 0]

Each run uses its own seed (seed, seed+1, ...). For every metric the
report prints the median, the first and third quartiles (as Python's
statistics.quantiles(values, n=4) gives them) and the spread
(Q3 - Q1) / median. An end-to-end metric whose spread exceeds its bound
in BENCHMARK.json is flagged WIDE (setup_s is exempt from the spread
rule, as its bound applies to medians); one above a third of its bound is
flagged "warn". With --json FILE the raw values are saved too.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d failed (exit %d): %s" % (workload, seed, out.returncode, out.stderr.strip()[-500:]))
    res = json.loads(lines[-1])
    # The untraced run also prints its wall-clock figures (steal
    # included); report them beside the metrics, unbounded.
    for line in lines[:-1]:
        if line.startswith('{"wall_clock"'):
            for name, v in json.loads(line)["wall_clock"].items():
                res["metrics"]["wall_clock." + name] = {"value": v, "unit": ""}
    return res


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seed", type=int, default=100)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", help="also write the raw values here")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    raw = {}
    wide = 0
    for workload in args.workloads.split(","):
        values = {}
        failed = 0
        for i in range(args.runs):
            res = run_once(workload, args.seed + i, args.seconds, args.trace)
            failed += res["failed"]
            if not res["correct"]:
                print("%s seed %d: correct=false (%d of %d failed)" % (workload, args.seed + i, res["failed"], res["attempted"]))
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        raw[workload] = values
        print("\n%s: %d runs, %d failed operations" % (workload, args.runs, failed))
        print("  %-32s %12s %12s %12s %8s %6s" % ("metric", "median", "q1", "q3", "spread", "bound"))
        for name in sorted(values):
            vs = values[name]
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], vs[0], vs[0])
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                if spread > bound:
                    flag = "WIDE"
                    wide += 1
                elif spread > bound / 3:
                    flag = "warn"
            print("  %-32s %12.4f %12.4f %12.4f %8.4f %6s %s" % (
                name, med, q1, q3, spread, "-" if bound is None else bound, flag))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(raw, f, indent=1)
    return 1 if wide else 0


if __name__ == "__main__":
    sys.exit(main())
