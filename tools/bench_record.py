#!/usr/bin/env python3
"""Appends one perf-trajectory entry to BENCH_<workload>.json.

Usage, from the root of a checkout:

    python3 tools/bench_record.py --workload wire_read [--commit SHA]
        [--label TEXT] [--untraced FILE --traced FILE]

Without --untraced/--traced it runs perfbench/run.py twice at seed 1 for
20 s, untraced for the five end-to-end metrics and the host CPU steal,
traced for the per-layer metrics that perfbench tags `exact`. With them it
reads two saved reports of such runs instead. Every entry is at that seed
and length, so the entries of a file compare with each other. The commit defaults to `git rev-parse
HEAD`. Each BENCH_<workload>.json is a JSON list, oldest entry first;
entries marked "backfilled" were copied from medians recorded in
CHANGES.md, not measured by this script.
"""

import argparse
import json
import os
import re
import subprocess
import sys

END_TO_END = ("setup_s", "peak_rss_mb", "candidates_per_query",
              "query_cpu_us", "update_cpu_us")
METRIC_LINE = re.compile(r"^\s+(\S+)\s+(\S+)\s+(\S+)\s+(exact|varying|timing)")
STEAL_LINE = re.compile(r"host cpu steal during the run: ([0-9.]+)%")
SEED = 1
RUN_SECONDS = 20.0


def perfbench(workload, trace):
    """Runs one perfbench workload; returns its report text. A run whose
    answer checks fail exits non-zero but still reports, so the exit code
    is not checked here; parse() fails when the result line is missing."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", "%g" % RUN_SECONDS,
           "--trace", str(trace)]
    return subprocess.run(cmd, stdout=subprocess.PIPE, text=True).stdout


def parse(report):
    """Result line, per-kind metrics and steal fraction of one report."""
    try:
        result = json.loads(report.rstrip("\n").split("\n")[-1])
    except ValueError:
        sys.exit("bench_record: the perfbench report has no result line")
    kinds = {}
    steal = None
    for line in report.split("\n"):
        m = METRIC_LINE.match(line)
        if m:
            kinds[m.group(1)] = m.group(4)
        s = STEAL_LINE.search(line)
        if s:
            steal = float(s.group(1)) / 100.0
    return result, kinds, steal


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("wire_read", "ingest_durable",
                                 "standing_mixed"))
    parser.add_argument("--commit")
    parser.add_argument("--label", default="")
    parser.add_argument("--untraced", help="saved untraced report")
    parser.add_argument("--traced", help="saved traced report")
    args = parser.parse_args()
    if (args.untraced is None) != (args.traced is None):
        parser.error("--untraced and --traced go together")

    if args.untraced:
        with open(args.untraced) as f:
            untraced = f.read()
        with open(args.traced) as f:
            traced = f.read()
    else:
        untraced = perfbench(args.workload, 0)
        traced = perfbench(args.workload, 1)
    e2e, _, steal = parse(untraced)
    layers, kinds, _ = parse(traced)
    commit = args.commit or subprocess.run(
        ["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE, text=True,
        check=True).stdout.strip()

    entry = {
        "commit": commit,
        "label": args.label,
        "backfilled": False,
        "seed": SEED,
        "run_seconds": RUN_SECONDS,
        "host_steal_frac": steal,
        "correct": e2e["correct"] and layers["correct"],
        "failed": e2e["failed"] + layers["failed"],
        "end_to_end": {name: e2e["metrics"][name]["value"]
                       for name in END_TO_END},
        "exact": {name: value["value"]
                  for name, value in sorted(layers["metrics"].items())
                  if kinds.get(name) == "exact"},
    }
    path = "BENCH_%s.json" % args.workload
    entries = []
    if os.path.exists(path):
        with open(path) as f:
            entries = json.load(f)
    entries.append(entry)
    with open(path, "w") as f:
        json.dump(entries, f, indent=1)
        f.write("\n")
    print("%s: %d entries" % (path, len(entries)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
