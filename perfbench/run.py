#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload train --seed 1 --seconds 8 --trace 0

The library and the driver are compiled into .bench_build/perfbench (a
Release build with the same flags as the top-level CMakeLists.txt), the
benchmark's own arithmetic tests run after every build, and the driver's
stdout is passed through: its last line is the JSON result. Build output
and the driver's diagnostics go to stderr. Exits non-zero without a result
when the sources are missing, the build or the tests fail, or the driver
reports an output-check failure.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("train", "serve_engine", "online_sharded")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    needed = [os.path.join(ROOT, "src", "slide", "slide.h"),
              os.path.join(ROOT, "bench", "bench_common.h")]
    missing = [p for p in needed if not os.path.isfile(p)]
    if missing:
        log("library sources not found (run from a full checkout): " +
            ", ".join(os.path.relpath(p, ROOT) for p in missing))
        return False
    jobs = str(max(1, (os.cpu_count() or 2) - 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs],
        [os.path.join(BUILD, "perfbench_selftest")],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("failed: " + " ".join(cmd))
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        return 2
    workdir = os.path.join(BUILD, "work")
    os.makedirs(workdir, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench_driver"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=170)
    except subprocess.TimeoutExpired:
        log("driver timed out")
        return 3
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
