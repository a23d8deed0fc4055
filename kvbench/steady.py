#!/usr/bin/env python3
"""Steadiness check for the benchmark in BENCHMARK.json.

    python3 kvbench/steady.py [--runs 5] [--sets 2] [--workloads kv_hot,kv_ss]
                              [--seconds N] [--seed-base 1] [--log FILE]

Runs `--sets` sets of `--runs` untraced runs of every workload, from the
root of a checkout. Runs alternate between sets and workloads (run 1 of
set A, run 1 of set B, ...) so slow drift of the host lands on both sets
alike. Every run gets its own seed. For each workload and end-to-end
metric it prints each set's median and interquartile spread (as a share
of the median), the spread of all runs pooled, and whether the sets'
medians agree within the metric's bound (the later set may be worse than
the first by at most the bound). It also checks that the share of failed
operations is identical in every set. Exits 1 when a check fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(bench, workload, seed, seconds):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", "0"]
    t0 = time.time()
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True)
    wall = time.time() - t0
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(lines[-1]), wall


def spread(values):
    """Median and interquartile range as a share of the median."""
    q1, m, q3 = statistics.quantiles(values, n=4)
    return m, (q3 - q1) / m if m else float("inf")


def main():
    bench = load_benchmark()
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--log", help="append each run's result as a JSON line")
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    metrics = bench["end_to_end"]

    # results[workload][set] = list of result dicts
    results = {w: [[] for _ in range(args.sets)] for w in workloads}
    seed = args.seed_base
    for r in range(args.runs):
        for s in range(args.sets):
            for w in workloads:
                res, wall = run_once(bench, w, seed, args.seconds)
                results[w][s].append(res)
                print(f"run {r + 1}/{args.runs} set {s + 1} {w} seed {seed}: "
                      f"{wall:.1f}s correct={res['correct']} "
                      f"ops_per_s={res['metrics']['ops_per_s']['value']:.0f}",
                      file=sys.stderr, flush=True)
                if args.log:
                    with open(args.log, "a") as f:
                        f.write(json.dumps({"workload": w, "set": s, "seed": seed,
                                            "wall_s": wall, "result": res}) + "\n")
                seed += 1

    ok = True
    for w in workloads:
        print(f"\n{w}")
        print(f"  {'metric':26s} {'bound':>6s} " +
              " ".join(f"{'median' + str(s + 1):>12s} {'iqr' + str(s + 1):>6s}"
                       for s in range(args.sets)) + f" {'iqr_all':>7s}  agree")
        for m in metrics:
            name, bound, higher = m["name"], m["bound"], m["better"] == "higher"
            per_set = [[x["metrics"][name]["value"] for x in results[w][s]]
                       for s in range(args.sets)]
            stats = [spread(v) for v in per_set]
            _, iqr_all = spread([v for vs in per_set for v in vs])
            first = stats[0][0]
            agree = all(
                (first - med) / first <= bound if higher else (med - first) / first <= bound
                for med, _ in stats[1:])
            steady = name == "setup_s" or iqr_all <= bound
            ok &= agree and steady
            cols = " ".join(f"{med:12.4f} {iqr:6.3f}" for med, iqr in stats)
            flag = ("yes" if agree else "NO") + ("" if steady else "  (spread > bound)")
            print(f"  {name:26s} {bound:6.3f} {cols} {iqr_all:7.3f}  {flag}")
        shares = {round(x["failed"] / x["attempted"], 12)
                  for s in range(args.sets) for x in results[w][s]}
        correct = all(x["correct"] for s in range(args.sets) for x in results[w][s])
        print(f"  failed share per run: {sorted(shares)}  all correct: {correct}")
        ok &= correct and len(shares) == 1
    print("\nsteady:", "yes" if ok else "NO")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
