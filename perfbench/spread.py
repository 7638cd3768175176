#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, checked against their bounds.

Usage, from the root of a checkout:

    python3 perfbench/spread.py [--workloads wire_read,...] [--seeds 1-10]
                                [--seconds S] [--trace 0|1]

Runs perfbench/run.py once per workload and seed, and for every metric
prints the median, the quartiles as statistics.quantiles(values, n=4) gives
them, and the spread (q3 - q1) / median next to the metric's bound from
BENCHMARK.json. A spread at or over a third of its bound is flagged (setup_s
is reported but not flagged). --trace 1 lists the per-layer metrics instead.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "%g" % seconds, "--trace",
         str(trace)],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    valid = any(line.startswith("validity: VALID") for line in lines)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    return proc.returncode, result, valid


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float,
                        default=float(bench["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    failures = 0
    for workload in args.workloads.split(","):
        values = {}
        invalid = 0
        for seed in parse_seeds(args.seeds):
            started = time.time()
            code, result, valid = run_once(workload, seed, args.seconds,
                                           args.trace)
            took = time.time() - started
            if code != 0 or result is None or not result["correct"]:
                print("%s seed %d: FAILED (exit %d)" % (workload, seed, code))
                failures += 1
                continue
            invalid += 0 if valid else 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print("%s seed %d: ok in %.0f s%s" % (
                workload, seed, took, "" if valid else " (INVALID run)"))
            sys.stdout.flush()
        print("== %s: %d runs, %d flagged invalid" %
              (workload, len(next(iter(values.values()), [])), invalid))
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread >= bound / 3:
                flag = "  <-- spread >= bound/3"
                failures += 1
            print("  %-38s median %14.6g  q1 %14.6g  q3 %14.6g  spread %.4f%s%s"
                  % (name, med, q1, q3, spread,
                     "  bound %.2f" % bound if bound is not None else "", flag))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
