#!/usr/bin/env python3
"""Builds the Ariel end-to-end benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload rule_heavy --seed 1 --seconds 10 --trace 0

Workloads: rule_heavy, join_heavy, server_mix. --trace 0 prints the
end-to-end metrics, --trace 1 the per-layer metrics. --smoke runs the
smoke-size variant of a workload (seconds, not minutes; used by
perfbench/smoke_test.py). The build goes to $CARGO_TARGET_DIR if set,
else .bench_build, under the current directory; span traces go to
<build dir>/traces. The last line of standard output is the run's JSON
result; everything before it is diagnostics.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("rule_heavy", "join_heavy", "server_mix")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures and builds the benchmark (both incremental after the first
    run); build output goes to stderr so standard output carries only the
    run's own lines."""
    cmake_dir = os.path.join(build_dir, "cmake")
    steps = [
        ["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", cmake_dir, "--target", "ariel_perfbench",
         "-j", str(min(4, os.cpu_count() or 1))],
    ]
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            fail(f"build step {step[:2]} failed: {err}")
        if done.returncode != 0:
            fail(f"build step {' '.join(step[:2])} exited {done.returncode}")
    return os.path.join(cmake_dir, "ariel_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    overrides = sorted(k for k in os.environ if k.startswith("ARIEL_"))
    if overrides:
        fail("refusing to run with engine overrides set: " + ", ".join(overrides))
    if args.seconds <= 0:
        fail("--seconds must be positive")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(build_dir)
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--trace-dir", trace_dir]
    if args.smoke:
        command.append("--smoke")
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, check=False, text=True)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if done.returncode != 0:
        fail(f"benchmark exited {done.returncode}")


if __name__ == "__main__":
    main()
