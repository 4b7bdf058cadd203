#!/usr/bin/env python3
"""Steadiness check: two interleaved sets of runs per workload.

    python3 perfbench/steady.py [--runs 10] [--workloads compile,serve]
                                [--seconds S] [--json out.json]

For each workload, runs perfbench/run.py --runs times for set A and as
many times for set B, alternating A and B, each run with its own seed.
For every end-to-end metric it prints each set's median and quartiles,
the spread (interquartile distance over the median, as
statistics.quantiles(values, n=4) gives the quartiles), and the
set-to-set difference of the medians. A metric is steady when each
set's spread is below a third of its bound in BENCHMARK.json (setup_s
excepted) and the two medians differ, in either direction, by no more
than the bound. Exits 1 when any metric is not steady or any run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    elapsed = time.monotonic() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} "
                           f"of {result['attempted']} ops failed")
    return {k: v["value"] for k, v in result["metrics"].items()}, elapsed


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--seed", type=int, default=1000, help="first seed")
    ap.add_argument("--json", help="write the per-run values and summaries")
    args = ap.parse_args()

    metrics = bench["end_to_end"]
    report = {}
    steady = True
    seed = args.seed
    for workload in args.workloads.split(","):
        sets = {"A": [], "B": []}
        for _ in range(args.runs):
            for name in ("A", "B"):
                values, elapsed = run_once(workload, seed, args.seconds)
                print(f"{workload} set {name} seed {seed}: {elapsed:.1f} s "
                      + " ".join(f"{k}={v:.6g}" for k, v in values.items()),
                      file=sys.stderr, flush=True)
                sets[name].append(values)
                seed += 1
        report[workload] = {"runs": sets, "metrics": {}}
        print(f"\n{workload} ({args.runs} runs per set)")
        print(f"  {'metric':18} {'set':>3} {'q1':>12} {'median':>12} "
              f"{'q3':>12} {'spread':>7} {'B vs A':>8} {'bound':>6}")
        for m in metrics:
            a = summary([r[m["name"]] for r in sets["A"]])
            b = summary([r[m["name"]] for r in sets["B"]])
            worse = (b["median"] - a["median"]) / a["median"]
            if m["better"] == "higher":
                worse = -worse
            ok = abs(worse) <= m["bound"] and (
                m["name"] == "setup_s" or
                max(a["spread"], b["spread"]) < m["bound"] / 3)
            steady = steady and ok
            report[workload]["metrics"][m["name"]] = {
                "A": a, "B": b, "b_worse_than_a": worse, "steady": ok}
            for name, q in (("A", a), ("B", b)):
                tail = (f" {worse:+8.3f} {m['bound']:6.2f}"
                        f"{'' if ok else '  NOT STEADY'}") if name == "B" else ""
                print(f"  {m['name']:18} {name:>3} {q['q1']:12.6g} "
                      f"{q['median']:12.6g} {q['q3']:12.6g} "
                      f"{q['spread']:7.3f}{tail}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=1)
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
