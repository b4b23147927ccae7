#!/usr/bin/env python3
"""Steadiness tool for the benchmark.

Runs one workload in several sets of runs, spaced apart in time, each
run with its own seed, and prints for every metric each set's median
and quartiles, the spread (quartile distance as a share of the median)
and the difference between the set medians. The bounds in
BENCHMARK.json are chosen from this output: a bound must exceed the
spread within a set and the drift between sets.

Run from the repository root:

    python3 perfbench/steady.py --workload ml-sparse --runs 10 --sets 2 --gap 120

Every result line is also appended to --out (JSON lines) so that the
figures can be re-read later with --load.
"""
import argparse
import json
import re
import statistics
import subprocess
import sys
import time


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=900)
    elapsed = time.time() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run failed: {' '.join(cmd)} (exit {proc.returncode})")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["_seed"], res["_elapsed"] = seed, elapsed
    # The measured (unadjusted) times and the host probe, from the log.
    m = re.search(r"measured setup_s (\S+) wall_s (\S+) cpu_s (\S+); host probe median (\S+) ms", proc.stderr)
    if m:
        res["_measured"] = dict(zip(["setup_s", "wall_s", "cpu_s", "probe_ms"], map(float, m.groups())))
    return res


def spread(values):
    """Quartiles as statistics.quantiles(n=4) gives them, and the quartile
    distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("nan")


def summarize(sets):
    names = sorted({m for s in sets for r in s for m in r["metrics"]})
    print(f"{'metric':28} " + "  ".join(f"{'set' + str(i + 1) + ' median':>14} {'q1':>11} {'q3':>11} {'spread':>7}"
                                          for i in range(len(sets))) + f"  {'drift':>7}")
    for name in names:
        cols, medians = [], []
        for s in sets:
            vals = [r["metrics"][name]["value"] for r in s if name in r["metrics"]]
            if len(vals) < 2:
                cols.append(f"{'n/a':>14} {'':>11} {'':>11} {'':>7}")
                continue
            q1, q2, q3, sh = spread(vals)
            medians.append(q2)
            cols.append(f"{q2:14.6g} {q1:11.5g} {q3:11.5g} {sh:7.2%}")
        drift = ""
        if len(medians) >= 2 and medians[0]:
            drift = f"{medians[-1] / medians[0] - 1:+7.2%}"
        print(f"{name:28} " + "  ".join(cols) + f"  {drift:>7}")
    for i, s in enumerate(sets):
        att = [r["attempted"] for r in s]
        fail = [r["failed"] for r in s]
        ok = all(r["correct"] for r in s)
        share = {f / a for f, a in zip(fail, att)}
        el = [r["_elapsed"] for r in s if "_elapsed" in r]
        print(f"set {i + 1}: {len(s)} runs, all correct={ok}, attempted={sorted(set(att))}, "
              f"failed share={sorted(share)}, run seconds max={max(el) if el else float('nan'):.1f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=5, help="runs per set, each with its own seed")
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--gap", type=float, default=60, help="seconds to wait between sets")
    ap.add_argument("--seconds", type=int, default=30, help="the run length of BENCHMARK.json")
    ap.add_argument("--seed0", type=int, default=1, help="first seed; set k uses seed0+k*runs onwards")
    ap.add_argument("--same-seeds", action="store_true", help="every set uses the same seeds")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--set-base", type=int, default=0, help="number of the first set in --out (to add sets later)")
    ap.add_argument("--out", help="append every result as a JSON line to this file")
    ap.add_argument("--load", help="summarize a file written by --out instead of running")
    args = ap.parse_args()

    if args.load:
        rows = [json.loads(l) for l in open(args.load) if l.strip()]
        rows = [r for r in rows if r.get("_workload") == args.workload and r.get("_trace", 0) == args.trace]
        by_set = {}
        for r in rows:
            by_set.setdefault(r["_set"], []).append(r)
        summarize([by_set[k] for k in sorted(by_set)])
        return

    sets = []
    for k in range(args.sets):
        if k:
            time.sleep(args.gap)
        base = args.seed0 if args.same_seeds else args.seed0 + k * args.runs
        runs = []
        for i in range(args.runs):
            res = run_once(args.workload, base + i, args.seconds, args.trace)
            res.update(_workload=args.workload, _trace=args.trace, _set=args.set_base + k)
            runs.append(res)
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps(res) + "\n")
            print(f"set {k + 1} seed {base + i}: {res['_elapsed']:.1f}s correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']}", file=sys.stderr)
        sets.append(runs)
    summarize(sets)


if __name__ == "__main__":
    main()
