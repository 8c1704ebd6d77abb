#!/usr/bin/env python3
"""Steadiness check: two sets of runs of one workload, compared metric by
metric against the bounds in BENCHMARK.json.

    python3 perfbench/steady.py --workload submit-cold [--runs 10] \
        [--sets 2] [--first-seed 1]

Run from the root of the checkout.  Set k uses seeds first-seed + k*runs
onwards, one seed per run.  For each end-to-end metric it prints each
set's median and quartiles (statistics.quantiles, n=4), the spread
(Q3 - Q1) / median, and, with two sets, whether they agree: every spread
but setup_s's within the metric's bound, the second median no worse than
the first by more than the bound, and the same share of failed
operations in both sets.  Exits 1 when they do not agree.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(spec, workload, seed, seconds):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("perfbench: run with seed %d exited %d" % (seed, out.returncode))
    return json.loads(lines[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2, choices=[1, 2])
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    sets = []
    for k in range(args.sets):
        results = []
        for i in range(args.runs):
            seed = args.first_seed + k * args.runs + i
            r = run_once(spec, args.workload, seed, spec["run_seconds"])
            results.append(r)
            print("set %d seed %d: correct=%s attempted=%d failed=%d" % (
                k + 1, seed, r["correct"], r["attempted"], r["failed"]),
                flush=True)
        sets.append(results)
    agree = True
    for k, results in enumerate(sets):
        if not all(r["correct"] for r in results):
            print("set %d: a run reported incorrect outputs" % (k + 1))
            agree = False
    shares = [sorted({(r["failed"], r["attempted"]) for r in results})
              for results in sets]
    share_values = [{f / a for f, a in s} for s in shares]
    print("failed share per set: %s" % [sorted(v) for v in share_values])
    if any(len(v) != 1 for v in share_values) or (
            len(share_values) == 2 and share_values[0] != share_values[1]):
        print("failed share differs between runs")
        agree = False
    print("%-16s %-6s %5s %12s %12s %12s %8s %s" % (
        "metric", "unit", "bound", "Q1", "median", "Q3", "spread", "verdict"))
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        meds = []
        for k, results in enumerate(sets):
            values = [r["metrics"][name]["value"] for r in results]
            q1, q2, q3, spread = summary(values)
            meds.append(q2)
            ok = name == "setup_s" or spread <= bound
            agree = agree and ok
            print("%-16s %-6s %5.2f %12.4f %12.4f %12.4f %7.1f%% %s" % (
                name, m["unit"], bound, q1, q2, q3, 100 * spread,
                ("set %d " % (k + 1)) + ("ok" if ok else "SPREAD > BOUND")
                + ("" if spread <= bound / 3 else " (above a third of the bound)")))
        if len(meds) == 2:
            worse = (meds[1] - meds[0]) / meds[0]
            if m["better"] == "higher":
                worse = -worse
            ok = worse <= bound
            agree = agree and ok
            print("%-16s second median worse by %+.1f%%: %s" % (
                name, 100 * worse, "ok" if ok else "DISAGREE"))
    if len(sets) == 2:
        print("the two sets agree" if agree else "the two sets DO NOT agree")
    sys.exit(0 if agree else 1)


if __name__ == "__main__":
    main()
