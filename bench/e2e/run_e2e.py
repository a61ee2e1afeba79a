#!/usr/bin/env python3
"""Build, run, summarise and compare the ext_e2e benchmark (README.md).

One run, as BENCHMARK.json's command (prints one JSON result line last):
  python3 bench/e2e/run_e2e.py --workload bulk --seed 1 --seconds 10 --trace 0

N runs per workload, one process each, summarised by metric:
  python3 bench/e2e/run_e2e.py --runs 5 [--seed 1] [--vary-seeds]
      [--trace 1] [--out DIR]

Parent against change, from two directories of raw results:
  python3 bench/e2e/run_e2e.py --compare PARENT_DIR CHANGE_DIR

Every workload at tiny scale, plain and traced (ctest e2e_smoke):
  python3 bench/e2e/run_e2e.py --smoke --binary PATH
"""

import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "ext_e2e"
RUN_TIMEOUT_S = 170
MIN_PAIRS_FOR_GAIN = 10


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def declared(spec, traced):
    """Metric name -> declaration for the metric set a run prints."""
    key = "per_layer" if traced else "end_to_end"
    return {m["name"]: m for m in spec[key]}


def build():
    """Configures and builds ext_e2e under .bench_build; returns the binary."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SystemExit("run_e2e: %s/src is missing; the benchmark builds "
                         "the server from the repository's sources" % ROOT)
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD / "CMakeCache.txt").is_file():
            cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", str(BUILD), "--target", "ext_e2e",
                        "-j", jobs], check=True, stdout=sys.stderr)
    return BUILD / "ext_e2e"


def run_once(binary, workload, seed, seconds, traced, scale=None,
             spans=None, workdir=None):
    """Runs ext_e2e once; returns its JSON result (the last stdout line)."""
    own_workdir = workdir is None
    if own_workdir:
        workdir = Path(tempfile.mkdtemp(prefix="work-", dir=BUILD))
    cmd = [str(binary), "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%g" % seconds, "--workdir=" + str(workdir)]
    if scale is not None:
        cmd.append("--scale=%g" % scale)
    if traced:
        cmd.append("--trace=" + str(spans))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    finally:
        if own_workdir:
            shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        log(line)
    if proc.returncode != 0 or not lines:
        raise SystemExit("run_e2e: %s exited %d" % (binary, proc.returncode))
    return json.loads(lines[-1])


def check_names(result, spec, traced):
    """Names and units printed must be exactly the declared ones."""
    want = declared(spec, traced)
    got = result["metrics"]
    problems = []
    if set(got) != set(want):
        problems.append("printed %s, declared %s" % (
            sorted(set(got) - set(want)), sorted(set(want) - set(got))))
    for name in set(got) & set(want):
        if got[name]["unit"] != want[name]["unit"]:
            problems.append("%s: unit %s, declared %s" % (
                name, got[name]["unit"], want[name]["unit"]))
    return problems


def single(args, spec):
    traced = args.trace == 1
    binary = build()
    spans = None
    if traced:
        (BUILD / "spans").mkdir(exist_ok=True)
        spans = BUILD / "spans" / ("%s-%d.json" % (args.workload, args.seed))
    result = run_once(binary, args.workload, args.seed, args.seconds, traced,
                      spans=spans)
    problems = check_names(result, spec, traced)
    if problems:
        raise SystemExit("run_e2e: metrics drift from BENCHMARK.json: " +
                         "; ".join(problems))
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def summarise(results):
    """workload -> metric -> (unit, values), plus fail ratios."""
    table = {}
    for r in results:
        w = table.setdefault(r["workload"], {})
        for name, m in r["metrics"].items():
            w.setdefault(name, (m["unit"], []))[1].append(m["value"])
        w.setdefault("fail_ratio", ("ratio", []))[1].append(
            r["failed"] / r["attempted"])
    return table


def print_summary(results, spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print("%-10s %-28s %-9s %14s %14s %14s %4s %8s %7s" % (
        "workload", "metric", "unit", "median", "q1", "q3", "n", "spread%",
        "bound%"))
    for workload, metrics in summarise(results).items():
        for name, (unit, values) in metrics.items():
            med = statistics.median(values)
            q1, q3 = quartiles(values)
            spread = (q3 - q1) / abs(med) * 100 if med else 0.0
            bound = "%.0f" % (bounds[name] * 100) if name in bounds else "-"
            print("%-10s %-28s %-9s %14.6g %14.6g %14.6g %4d %8.2f %7s" % (
                workload, name, unit, med, q1, q3, len(values), spread,
                bound))


def many(args, spec):
    traced = args.trace == 1
    binary = build()
    out = Path(args.out) if args.out else None
    if out:
        out.mkdir(parents=True, exist_ok=True)
    results = []
    for i in range(args.runs):
        seed = args.seed + i if args.vary_seeds else args.seed
        for w in [w["name"] for w in spec["workloads"]]:
            stem = "%s-%d-%d" % (w, seed, i)
            spans = (out or BUILD) / (stem + ".spans.json") if traced else None
            r = run_once(binary, w, seed, args.seconds, traced, spans=spans)
            results.append(r)
            if out:
                with open(out / (stem + ".json"), "w") as f:
                    json.dump(r, f, indent=1)
                    f.write("\n")
    print_summary(results, spec)
    bad = [r for r in results if not r["correct"] or r["failed"]]
    for r in bad:
        log("run_e2e: %s seed %d: correct=%s failed=%d/%d" % (
            r["workload"], r["seed"], r["correct"], r["failed"],
            r["attempted"]))
    return 1 if bad else 0


def load_results(directory):
    """Result JSON files of a directory, in name order (the pair order)."""
    results = []
    for path in sorted(Path(directory).glob("*.json")):
        if path.name.endswith(".spans.json"):
            continue
        with open(path) as f:
            r = json.load(f)
        if "metrics" in r and "workload" in r:
            results.append(r)
    return results


def verdict(metric, parent, change):
    """The gain/regression rule for one metric on one workload.

    parent/change: values of paired runs (pair i = parent[i], change[i]).
    """
    sign = 1.0 if metric["better"] == "lower" else -1.0
    bound = metric["bound"]
    pm, cm = statistics.median(parent), statistics.median(change)
    pq1, pq3 = quartiles(parent)
    cq1, cq3 = quartiles(change)
    scale = abs(pm) if pm else 1.0
    spread = max(pq3 - pq1, cq3 - cq1) / scale
    worse = sign * (cm - pm) / scale  # > 0: the change reads worse
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    all_better = all(sign * (c - p) < 0 for p in parent for c in change)
    if (len(pairs) >= MIN_PAIRS_FOR_GAIN and wins >= 0.9 * len(pairs)
            and -sign * (cm - pm) > pq3 - pq1):
        v = "gain"
    elif spread > bound and not all_better:
        v = "unresolved"
    elif worse > bound:
        v = "regression"
    elif worse < -bound:
        v = "better, no claimable gain"
    else:
        v = "no change"
    return {"verdict": v, "parent": pm, "change": cm, "worse": worse,
            "spread": spread, "wins": wins, "pairs": len(pairs)}


def failed_share(results):
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / attempted if attempted else 0.0


def compare(spec, parent, change):
    """Returns (rows, failed_rose): one row per (workload, metric)."""
    rows = []
    failed_rose = False
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    for w in [w["name"] for w in spec["workloads"]]:
        pa = [r for r in parent if r["workload"] == w]
        ch = [r for r in change if r["workload"] == w]
        if not pa or not ch:
            continue
        if failed_share(ch) > failed_share(pa):
            failed_rose = True
            rows.append({"workload": w, "metric": "fail_ratio",
                         "verdict": "failed share rose",
                         "parent": failed_share(pa),
                         "change": failed_share(ch)})
        for name, metric in metrics.items():
            p = [r["metrics"][name]["value"] for r in pa
                 if name in r["metrics"]]
            c = [r["metrics"][name]["value"] for r in ch
                 if name in r["metrics"]]
            if not p or not c:
                continue
            row = verdict(metric, p, c)
            if row["verdict"] == "gain" and failed_rose:
                row["verdict"] = "gain void: failed share rose"
            row.update(workload=w, metric=name)
            rows.append(row)
    return rows, failed_rose


def print_compare(rows):
    print("%-10s %-24s %14s %14s %8s %8s %6s  %s" % (
        "workload", "metric", "parent", "change", "worse%", "spread%",
        "wins", "verdict"))
    for r in rows:
        if "worse" not in r:
            print("%-10s %-24s %14.6g %14.6g %8s %8s %6s  %s" % (
                r["workload"], r["metric"], r["parent"], r["change"], "-",
                "-", "-", r["verdict"]))
            continue
        print("%-10s %-24s %14.6g %14.6g %8.2f %8.2f %3d/%-2d  %s" % (
            r["workload"], r["metric"], r["parent"], r["change"],
            r["worse"] * 100, r["spread"] * 100, r["wins"], r["pairs"],
            r["verdict"]))


def compare_dirs(args, spec):
    parent = load_results(args.compare[0])
    change = load_results(args.compare[1])
    rows, failed_rose = compare(spec, parent, change)
    print_compare(rows)
    pairs = min((r["pairs"] for r in rows if "pairs" in r), default=0)
    if pairs < MIN_PAIRS_FOR_GAIN:
        print("fewer than %d pairs: no gain can be claimed" %
              MIN_PAIRS_FOR_GAIN)
    regressed = any(r["verdict"] == "regression" for r in rows)
    return 1 if regressed or failed_rose else 0


def smoke(args, spec):
    """Every workload at --scale 0.02, plain and traced."""
    start = time.monotonic()
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        for w in [w["name"] for w in spec["workloads"]]:
            for traced in (False, True):
                r = run_once(args.binary, w, 1, spec["run_seconds"], traced,
                             scale=0.02, spans=Path(tmp) / (w + ".spans.json"),
                             workdir=Path(tmp) / "work")
                label = "%s%s" % (w, " traced" if traced else "")
                if not r["correct"] or r["failed"]:
                    problems.append("%s: correct=%s failed=%d" % (
                        label, r["correct"], r["failed"]))
                problems += ["%s: %s" % (label, p)
                             for p in check_names(r, spec, traced)]
                if traced and not (Path(tmp) / (w + ".spans.json")).is_file():
                    problems.append(label + ": no spans file")
    print("smoke: %.1f s" % (time.monotonic() - start))
    for p in problems:
        print("smoke: " + p)
    return 1 if problems else 0


def main():
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--runs", type=int)
    ap.add_argument("--vary-seeds", action="store_true")
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--binary")
    args = ap.parse_args()
    if args.compare:
        return compare_dirs(args, spec)
    if args.smoke:
        if not args.binary:
            ap.error("--smoke needs --binary")
        return smoke(args, spec)
    if args.runs:
        return many(args, spec)
    if not args.workload:
        ap.error("one of --workload, --runs, --compare or --smoke is needed")
    return single(args, spec)


if __name__ == "__main__":
    sys.exit(main())
