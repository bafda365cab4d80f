#!/usr/bin/env python3
"""Build the benchmark with dune and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload syscalls --seed 1 --seconds 10 --trace 0

Prints the program's notes and every metric with its unit, then, as the
last line, one JSON object with the keys correct, attempted, failed and
metrics.  --trace 0 reports the end-to-end metrics of BENCHMARK.json,
--trace 1 its per-layer metrics.
"""

import argparse
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 700
RUN_BUDGET_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    try:
        build = subprocess.run(
            ["dune", "build", "--root", ROOT, "./perfbench/main.exe"],
            cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if build.returncode != 0 or not os.path.exists(EXE):
        fail("build failed (dune exit %d)" % build.returncode)

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=sys.stderr, text=True, timeout=RUN_BUDGET_S)
    except subprocess.TimeoutExpired:
        fail("run timed out")
    if run.returncode != 0:
        fail("run failed (exit %d)" % run.returncode)
    try:
        out = json.loads(run.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        fail("no result line from the benchmark program")

    measured = {m["name"]: m for m in out["metrics"]}
    print("# workload %s seed %d trace %d nproc %d ocaml %s workers %s"
          % (out["workload"], out["seed"], out["trace"], out["nproc"],
             out["ocaml"], out["workers"]))
    for note in out["notes"]:
        print("# " + note)
    metrics = {}
    for d in declared:
        m = measured.get(d["name"])
        if m is None:
            if not args.trace:
                fail("end-to-end metric %s was not measured" % d["name"])
            print("# %s: not exercised by this workload, reported as 0"
                  % d["name"])
            value = 0.0
        elif m["unit"] != d["unit"]:
            fail("metric %s is in %s, BENCHMARK.json says %s"
                 % (d["name"], m["unit"], d["unit"]))
        elif m["value"] is None or not math.isfinite(m["value"]):
            fail("metric %s is not a finite number" % d["name"])
        else:
            value = m["value"]
        metrics[d["name"]] = {"value": value, "unit": d["unit"]}
    for m in out["metrics"]:
        print("%s = %r %s" % (m["name"], m["value"], m["unit"]))
    print(json.dumps({"correct": out["failed"] == 0,
                      "attempted": out["attempted"],
                      "failed": out["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
