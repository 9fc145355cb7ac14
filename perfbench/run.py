#!/usr/bin/env python3
"""End-to-end benchmark of msbistd.

Builds msbistd and the benchmark program (msbist-perfbench) from the
repository's sources (Release, into .bench_build/perfbench), then runs it.
It boots fresh daemons, drives them over loopback HTTP and prints the
result object as the last line of stdout. Build output goes to stderr.

    python3 perfbench/run.py --workload lot|campaign|screen|triage \
        --seed N --seconds S --trace 0|1

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import ctypes
import os
import subprocess
import sys

WORKLOADS = ("lot", "campaign", "screen", "triage")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build", "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (
        ["cmake", "-S", here, "-B", build, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build, "-j", jobs],
    ):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    # Write the build's dirty pages back now: otherwise the writeback
    # slows the first runs after a build.
    os.sync()

    bench = [
        os.path.join(build, "msbist-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--daemon", os.path.join(build, "msbistd"),
        "--work-dir", os.path.join(root, ".bench_build", "perfbench-work"),
    ]
    return subprocess.run(bench, preexec_fn=die_with_parent).returncode


def die_with_parent():
    """Kill msbist-perfbench (and through it the daemons) if this script dies."""
    pr_set_pdeathsig, sigkill = 1, 9
    ctypes.CDLL(None, use_errno=True).prctl(pr_set_pdeathsig, sigkill)


if __name__ == "__main__":
    sys.exit(main())
