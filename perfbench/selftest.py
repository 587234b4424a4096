#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs a one-second version of every workload in BENCHMARK.json on the
default seed, untraced and traced, and asserts that each run passes its
output checks (the recorded digest included) and emits every metric
BENCHMARK.json names. Then asserts that a corrupted recorded digest
fails the run. Exits 1 on any problem.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, *extra):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)] + list(extra),
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return proc.returncode, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    problems = []
    for w in workloads:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result = run(w, trace)
            want = {m["name"] for m in spec[key]}
            if code != 0 or not result or not result["correct"]:
                problems.append("%s --trace %d failed (exit %d)"
                                % (w, trace, code))
            elif set(result["metrics"]) != want:
                problems.append("%s --trace %d is missing %s"
                                % (w, trace, sorted(want - set(result["metrics"]))))
    out = os.path.join(HERE, "_out")
    os.makedirs(out, exist_ok=True)
    corrupted = os.path.join(out, "corrupted-digests.json")
    with open(corrupted, "w") as f:
        json.dump({w: "0" * 32 for w in workloads}, f)
    for w in workloads:
        code, result = run(w, 0, "--digests", corrupted)
        if code == 0 or not result or result["correct"]:
            problems.append("%s: a corrupted digest did not fail the run" % w)
    os.remove(corrupted)
    for p in problems:
        print("selftest: " + p)
    print("selftest: " + ("FAILED" if problems else "ok"))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
