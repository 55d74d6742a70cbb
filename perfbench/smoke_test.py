#!/usr/bin/env python3
"""Smoke test of the benchmark: runs every workload at smoke size.

    python3 perfbench/smoke_test.py

It runs every workload run.py offers, join_heavy too, which BENCHMARK.json
does not list. For each workload it makes two untraced runs with the same seed and one
traced run. It checks that each run passes the correctness gate, that every
metric named in BENCHMARK.json is printed with its unit, and that both
untraced runs print the same state digest. It exits 1 on the first failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from run import WORKLOADS  # noqa: E402


def run(workload, seed, trace):
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace), "--smoke"]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900,
                          check=False)
    if done.returncode != 0:
        sys.exit(f"FAIL {workload} trace={trace}: exit {done.returncode}\n"
                 f"{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    digest = next((l for l in lines if l.startswith("digest: ")), None)
    return json.loads(lines[-1]), digest


def check(workload, trace, result, expected):
    where = f"{workload} trace={trace}"
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"FAIL {where}: correct={result['correct']} "
                 f"failed={result['failed']}")
    if result["attempted"] < 1:
        sys.exit(f"FAIL {where}: no command attempted")
    metrics = result["metrics"]
    for spec in expected:
        got = metrics.get(spec["name"])
        if got is None:
            sys.exit(f"FAIL {where}: metric {spec['name']} missing")
        if got["unit"] != spec["unit"]:
            sys.exit(f"FAIL {where}: {spec['name']} has unit {got['unit']}, "
                     f"expected {spec['unit']}")
    extra = set(metrics) - {spec["name"] for spec in expected}
    if extra:
        sys.exit(f"FAIL {where}: unlisted metrics {sorted(extra)}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in WORKLOADS:
        first, digest_a = run(workload, 11, 0)
        check(workload, 0, first, spec["end_to_end"])
        second, digest_b = run(workload, 11, 0)
        check(workload, 0, second, spec["end_to_end"])
        if digest_a is None or digest_a != digest_b:
            sys.exit(f"FAIL {workload}: digests differ for one seed: "
                     f"{digest_a} vs {digest_b}")
        traced, _ = run(workload, 11, 1)
        check(workload, 1, traced, spec["per_layer"])
        print(f"ok {workload}: {digest_a}, {first['attempted']} commands")
    print("smoke test passed")


if __name__ == "__main__":
    main()
