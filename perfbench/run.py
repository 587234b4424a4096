#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload fig1-steady --seed 1 --seconds 10 --trace 0

Builds perfbench/bench.exe with dune from the sources of the checkout it
sits in. Sets the workload up in fresh processes and reports the median
set-up time, because every fresh process pays first-use RSA key
generation. Measures for --seconds, checks the outputs, and prints every
metric BENCHMARK.json names, with its unit: the end_to_end list with
--trace 0, the per_layer list with --trace 1. The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics. A
failed output check prints "correct": false and exits 1. Each run also
appends a record to perfbench/_out/results.jsonl. perfbench/README.md
describes the workloads and the metrics.
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
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
OUT = os.path.join(HERE, "_out")
DEFAULT_SEED = 1
# Fresh processes that only set up; the measuring process is one more
# set-up sample.
SETUP_PROCESSES = 2
BUILD_LIMIT_S = 700
RUN_LIMIT_S = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def bench(args, deadline):
    """Runs bench.exe and returns its last stdout line, parsed."""
    left = deadline - time.monotonic()
    if left <= 0:
        die("out of time before bench.exe " + " ".join(args))
    try:
        proc = subprocess.run([EXE] + args, cwd=ROOT, capture_output=True,
                              text=True, timeout=left)
    except subprocess.TimeoutExpired:
        die("bench.exe %s timed out" % " ".join(args))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        die("bench.exe %s exited with %d" % (" ".join(args), proc.returncode))
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description="Run one benchmark workload.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--digests", default=os.path.join(HERE, "digests.json"),
                    help="the default-seed digests to check against")
    args = ap.parse_args()

    for need in ("dune-project", "lib", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, need)):
            die("%s not found next to perfbench/: run from a full checkout"
                % need)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die("unknown workload %r" % args.workload)

    try:
        build = subprocess.run(
            ["dune", "build", "--root", ROOT, "./perfbench/bench.exe"],
            cwd=ROOT, capture_output=True, text=True, timeout=BUILD_LIMIT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if build.returncode != 0:
        sys.stderr.write(build.stdout[-4000:] + build.stderr[-4000:])
        die("build failed")

    deadline = time.monotonic() + RUN_LIMIT_S
    os.makedirs(OUT, exist_ok=True)
    nproc = len(os.sched_getaffinity(0))
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = [bench(["setup"] + common, deadline)["setup_s"]
              for _ in range(SETUP_PROCESSES)]
    res = bench(["run"] + common + [
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--nproc", str(nproc), "--out", OUT], deadline)
    setups.append(res["setup_s"])
    res["metrics"]["setup_s"] = statistics.median(setups)

    failures = list(res["failures"])
    if args.seed == DEFAULT_SEED:
        with open(args.digests) as f:
            expected = json.load(f).get(args.workload)
        if res["digest"] != expected:
            failures.append("digest %s differs from the recorded %s"
                            % (res["digest"], expected))
    if res["pool"] > nproc:
        failures.append("pool of %d domains exceeds nproc %d"
                        % (res["pool"], nproc))

    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        value = res["metrics"].get(m["name"])
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            failures.append("metric %s was not measured" % m["name"])
        else:
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    print("workload %s  seed %d  trace %d  nproc %d  pool %d  samples %d  "
          "digest %s" % (args.workload, args.seed, args.trace, nproc,
                         res["pool"], res["samples"], res["digest"]))
    for name, m in metrics.items():
        print("  %-40s %.6g %s" % (name, m["value"], m["unit"]))
    for msg in failures:
        print("CHECK FAILED: " + msg)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "nproc": nproc, "pool": res["pool"],
        "pool_exceeds_nproc": res["pool"] > nproc, "samples": res["samples"],
        "setup_samples": setups, "digest": res["digest"],
        "attempted": res["attempted"], "failed": res["failed"],
        "failures": failures, "metrics": res["metrics"],
    }
    with open(os.path.join(OUT, "results.jsonl"), "a") as f:
        f.write(json.dumps(record) + "\n")
    correct = not failures
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
