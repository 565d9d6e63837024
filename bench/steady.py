#!/usr/bin/env python3
"""Steadiness check: run each workload repeatedly and compare run sets.

    python3 bench/steady.py run [--workloads W ...] [--runs 10] \\
        [--first-seed 1] [--out set.json]
    python3 bench/steady.py compare first.json second.json

`run` starts `bench/run.py` once per seed (one after another, each with
BENCHMARK.json's run_seconds), prints the median, quartiles and spread
of every end-to-end metric, and flags a spread above the metric's bound
(setup_s is exempt) or above a third of it.  The spread is the distance
between the first and third quartile, from statistics.quantiles(n=4), as
a share of the median.  `compare` flags every metric whose median in the
second set is worse than in the first by more than its bound, and any
difference in the share of failed operations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def cmd_run(args, spec):
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = {}
    steady = True
    for workload in workloads:
        runs = []
        for i in range(args.runs):
            result = run_once(workload, args.first_seed + i, spec["run_seconds"])
            print(f"{workload} seed {args.first_seed + i}: "
                  f"correct={result['correct']} attempted={result['attempted']}"
                  f" failed={result['failed']}", file=sys.stderr, flush=True)
            steady &= result["correct"]
            runs.append(result)
        results[workload] = runs
        print(f"\n{workload} ({len(runs)} runs)")
        print(f"  {'metric':14s} {'q1':>12s} {'median':>12s} {'q3':>12s} "
              f"{'spread':>7s} {'bound':>6s}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = quartiles(values)
            spread = (q3 - q1) / median
            flag = ""
            if name != "setup_s" and spread > bound:
                flag, steady = "OVER BOUND", False
            elif spread > bound / 3:
                flag = "over bound/3"
            print(f"  {name:14s} {q1:12.5g} {median:12.5g} {q3:12.5g} "
                  f"{spread:7.3f} {bound:6.2f} {flag}")
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"  failed shares: {sorted(shares)}")
    if args.out:
        Path(args.out).write_text(json.dumps(results))
    return 0 if steady else 1


def cmd_compare(args, spec):
    first = json.loads(Path(args.first).read_text())
    second = json.loads(Path(args.second).read_text())
    ok = True
    for workload in first:
        if workload not in second:
            continue
        a, b = first[workload], second[workload]
        share_a = {r["failed"] / r["attempted"] for r in a}
        share_b = {r["failed"] / r["attempted"] for r in b}
        if share_a != share_b:
            ok = False
            print(f"{workload}: failed shares differ: {share_a} vs {share_b}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            m1 = statistics.median(r["metrics"][name]["value"] for r in a)
            m2 = statistics.median(r["metrics"][name]["value"] for r in b)
            worse = (m2 - m1) / m1 if metric["better"] == "lower" else (m1 - m2) / m1
            flag = "WORSE THAN BOUND" if worse > bound else ""
            ok &= not flag
            print(f"{workload:7s} {name:12s} {m1:12.5g} -> {m2:12.5g} "
                  f"worse by {worse:+.3f} (bound {bound}) {flag}")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run")
    p.add_argument("--workloads", nargs="*")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--out")
    p = sub.add_parser("compare")
    p.add_argument("first")
    p.add_argument("second")
    args = parser.parse_args(argv)
    spec = load_spec()
    return cmd_run(args, spec) if args.command == "run" else cmd_compare(args, spec)


if __name__ == "__main__":
    sys.exit(main())
