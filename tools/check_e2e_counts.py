#!/usr/bin/env python3
"""Gate the deterministic counts of the ext_e2e benchmark.

A seed fixes the work of an ext_e2e run (bench/e2e/README.md), so its
transmissions per packet (E[M], ``tx_per_packet``) repeat exactly, while
its times do not.  This script runs every workload once at seed 1, for
BENCHMARK.json's ``run_seconds`` like the baselines, through
bench/e2e/run_e2e.py's ``run_once``, and fails if any run

* is not ``correct`` (a payload mismatch, a redelivered confirmed TG, a
  rejected honest peer, or TG hooks out of order),
* has a failed session, or
* has ``tx_per_packet`` further than BENCHMARK.json's bound for it from
  the committed seed-1 baseline, bench/e2e/baselines/set1/<w>-1-0.json.

It only reads bench/e2e and BENCHMARK.json; runs go to a temporary
directory.

Usage:
    check_e2e_counts.py --binary build/bench/e2e/ext_e2e

Exit status 1 on any failed check, 0 otherwise.
"""

import argparse
import json
import os
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "bench", "e2e"))
sys.dont_write_bytecode = True  # no __pycache__ under bench/e2e

import run_e2e  # noqa: E402

METRIC = "tx_per_packet"
SEED = 1


def check(workload, result, baseline, bound):
    """Problems with one run against its baseline; empty when it passes."""
    problems = []
    if not result.get("correct", False):
        problems.append("%s: run is not correct" % workload)
    if result.get("failed", 1) != 0:
        problems.append("%s: %s of %s sessions failed" % (
            workload, result.get("failed"), result.get("attempted")))
    try:
        got = float(result["metrics"][METRIC]["value"])
        want = float(baseline["metrics"][METRIC]["value"])
    except (KeyError, TypeError, ValueError):
        problems.append("%s: %s missing from the run or its baseline" %
                        (workload, METRIC))
        return problems
    if want <= 0.0 or abs(got - want) > bound * want:
        problems.append("%s: %s %.6g, baseline %.6g (bound %g %%)" % (
            workload, METRIC, got, want, bound * 100.0))
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--binary", required=True, help="the ext_e2e executable")
    ap.add_argument("--benchmark", default=os.path.join(REPO, "BENCHMARK.json"))
    ap.add_argument("--baselines",
                    default=os.path.join(REPO, "bench", "e2e", "baselines",
                                         "set1"))
    args = ap.parse_args()

    with open(args.benchmark, encoding="utf-8") as f:
        spec = json.load(f)
    bound = float(run_e2e.declared(spec, False)[METRIC]["bound"])
    problems = []
    for w in (w["name"] for w in spec["workloads"]):
        path = os.path.join(args.baselines, "%s-%d-0.json" % (w, SEED))
        if not os.path.isfile(path):
            problems.append("%s: no baseline %s" % (w, path))
            continue
        with open(path, encoding="utf-8") as f:
            baseline = json.load(f)
        with tempfile.TemporaryDirectory(prefix="e2e-counts-") as workdir:
            result = run_e2e.run_once(args.binary, w, SEED,
                                      spec["run_seconds"], False,
                                      workdir=workdir)
        found = check(w, result, baseline, bound)
        print("%-9s %s %s" % (w, "FAIL" if found else "ok",
                              result.get("metrics", {}).get(METRIC, {})
                              .get("value")))
        problems += found
    for p in problems:
        print("check_e2e_counts: " + p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
