#!/usr/bin/env python3
# Copyright 2026 The deepsurf Authors.
"""End-to-end benchmark of deepsurf: surfacing, long-tail serving, and
surfacing-while-serving.

Run from the repository root:

    python3 perfbench/run.py --workload surface --seed 1 --seconds 15 --trace 0

Builds the benchmark package (perfbench/CMakeLists.txt, which compiles
the library from src/) in Release mode under .bench_build/, then runs one
workload. Build output goes to stderr; stdout carries a provenance line,
one line per metric, and as its last line the JSON result
{"correct", "attempted", "failed", "metrics"}. The exit code is nonzero
when the build fails, an argument is wrong, or a correctness gate fails.

    python3 perfbench/run.py --selftest

builds and runs the benchmark's own tests instead.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("surface", "serve_longtail", "churn")


def build_dir():
    return os.path.join(os.path.dirname(HERE), ".bench_build", "perfbench")


def build(out, targets):
    jobs = str(max(1, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", jobs, "--target"] + targets,
    ]
    for cmd in steps:
        # Keep stdout for the result line: build chatter goes to stderr.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    out = build_dir()
    if args.selftest:
        if not build(out, ["perfbench_test"]):
            return 1
        return subprocess.run([os.path.join(out, "perfbench_test")]).returncode
    if not build(out, ["perfbench"]):
        return 1
    sys.stdout.flush()
    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    env = dict(os.environ)
    env["PERFBENCH_COMMAND"] = " ".join([os.path.basename(sys.executable)] +
                                        sys.argv)
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
