#!/usr/bin/env python3
"""Builds and runs the CloakDB benchmark program (cloakbench).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload wire_read [--seed N] [--seconds S]
                             [--trace 0|1]

The program is compiled from the checkout's own sources (perfbench/ plus
src/) into $CARGO_TARGET_DIR, or .bench_build when that is unset, and run
from the checkout root; spans and data directories go to .bench_out. The
program's report goes to stdout, its last line being the JSON result. The
default seed, the held-out seed and the per-workload validity limits come
from perfbench/config.json. Exits non-zero, without a result line, when the
build fails or the program does not finish.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("wire_read", "ingest_durable", "standing_mixed")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds cloakbench; returns its path or None."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode != 0:
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    made = subprocess.run(
        ["cmake", "--build", build_dir, "--target", "cloakbench", "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr)
    if made.returncode != 0:
        return None
    return os.path.join(build_dir, "cloakbench")


def main():
    with open(os.path.join(HERE, "config.json")) as f:
        config = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=config["default_seed"])
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    exe = build(build_dir)
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    out_dir = ".bench_out"
    os.makedirs(out_dir, exist_ok=True)
    cmd = [exe, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds, "--trace=%d" % args.trace,
           "--p90-limit-us=%g" % config["p90_limit_us"][args.workload],
           "--out-dir=" + out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: cloakbench timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if result is None:
        sys.stderr.write(proc.stdout)
        print("perfbench: cloakbench printed no result (exit %d)"
              % proc.returncode, file=sys.stderr)
        return proc.returncode or 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
