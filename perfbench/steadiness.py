#!/usr/bin/env python3
"""Measures how steady the benchmark's end-to-end metrics are.

Runs the benchmark command of BENCHMARK.json on each workload once per seed,
in one or more sets, and prints for every metric the median, the quartiles
(statistics.quantiles(values, n=4)), the spread (q3 - q1) / median against
the metric's bound, and, across sets, the change of the median. The
calibration time each run prints (calib_s) is reported alongside.

Run from the root of a checkout:

    python3 perfbench/steadiness.py --sets 2 --runs 10 --json runs.json
"""
import argparse
import json
import re
import statistics
import subprocess
import sys
import time


def run_once(cmd, workload, seed, seconds, trace):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    t = time.time()
    p = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    elapsed = time.time() - t
    if p.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {p.returncode}:\n{p.stderr}")
    res = json.loads(p.stdout.strip().splitlines()[-1])
    m = re.search(r"calib_s=([0-9.]+)", p.stderr)
    res["calib_s"] = float(m.group(1)) if m else None
    res["elapsed_s"] = elapsed
    res["seed"] = seed
    return res


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--json", default="")
    args = ap.parse_args()

    spec = json.load(open("BENCHMARK.json"))
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs = {}
    seed = args.first_seed
    for s in range(args.sets):
        for w in names:
            for i in range(args.runs):
                r = run_once(spec["command"], w, seed + i, spec["run_seconds"], args.trace)
                runs.setdefault(w, []).append(dict(r, set=s))
                vals = " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(r["metrics"].items()))
                print(f"set {s} {w} seed {seed + i}: correct={r['correct']} failed={r['failed']} "
                      f"calib_s={r['calib_s']} elapsed={r['elapsed_s']:.1f}s {vals}", file=sys.stderr, flush=True)
        seed += args.runs
    if args.json:
        with open(args.json, "w") as f:
            json.dump(runs, f, indent=1)

    for w in names:
        print(f"\n### {w}\n")
        print("| metric | set | median | q1 | q3 | spread | bound | median change |")
        print("|---|---|---|---|---|---|---|---|")
        metrics = sorted(runs[w][0]["metrics"]) + ["calib_s"]
        for m in metrics:
            first = None
            for s in range(args.sets):
                vals = [r["metrics"][m]["value"] if m != "calib_s" else r["calib_s"]
                        for r in runs[w] if r["set"] == s]
                med, q1, q3, spread = summary(vals)
                change = "" if first is None else f"{(med - first) / first:+.1%}"
                first = med if first is None else first
                b = bounds.get(m)
                print(f"| {m} | {s + 1} | {med:.5g} | {q1:.5g} | {q3:.5g} | {spread:.1%} | "
                      f"{'' if b is None else b} | {change} |")
        fails = sum(r["failed"] for r in runs[w])
        print(f"\n{len(runs[w])} runs, {sum(r['attempted'] for r in runs[w])} cells attempted, {fails} failed.")


if __name__ == "__main__":
    main()
