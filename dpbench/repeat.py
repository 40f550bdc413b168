#!/usr/bin/env python3
"""Repeats benchmark runs and summarises every metric.

Runs the chosen workloads k times each, alternating the workload order
from one round to the next (forward, then reversed), with seeds 1..k.
Prints, per workload and metric, the median, the first and third
quartiles (statistics.quantiles, n=4) and the spread (IQR / median).
The bounds in BENCHMARK.json are set from these spreads.

  python3 dpbench/repeat.py -k 10              # BENCHMARK.json's workloads
  python3 dpbench/repeat.py --workloads reconfig_under_load -k 5
  python3 dpbench/repeat.py --trace 1 -k 3      # per-layer metrics
  python3 dpbench/repeat.py --selftest          # quantile helper cases
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

def benchmark_workloads():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [w["name"] for w in json.load(f)["workloads"]]


def summarize(values):
    """Median, quartiles and IQR/median of a list of numbers."""
    med = statistics.median(values)
    if len(values) < 2:
        q1 = q3 = med
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(med) if med else 0.0
    return {"median": med, "q1": q1, "q3": q3, "spread": spread}


def selftest():
    # Hand-computed with the 'exclusive' method statistics.quantiles uses:
    # positions (n+1)p of the sorted data, interpolated.
    cases = [
        ([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], 5.5, 2.75, 8.25),
        ([4, 1, 3, 2], 2.5, 1.25, 3.75),
        ([10, 20, 30], 20, 10, 30),
        ([5, 5], 5, 5, 5),
    ]
    ok = True
    for values, med, q1, q3 in cases:
        s = summarize(values)
        if (abs(s["median"] - med) > 1e-12 or abs(s["q1"] - q1) > 1e-12
                or abs(s["q3"] - q3) > 1e-12):
            print("FAIL", values, s)
            ok = False
    s = summarize([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
    if abs(s["spread"] - (8.25 - 2.75) / 5.5) > 1e-12:
        print("FAIL spread", s)
        ok = False
    print("repeat.py selftest:", "ok" if ok else "FAIL")
    return 0 if ok else 1


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace",
           str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workloads",
                    help="comma-separated (default: BENCHMARK.json's)")
    ap.add_argument("-k", type=int, default=5)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        return selftest()

    names = (args.workloads.split(",") if args.workloads
             else benchmark_workloads())
    results = {w: [] for w in names}
    for r in range(args.k):
        order = names if r % 2 == 0 else list(reversed(names))
        for w in order:
            res = run_once(w, 1 + r, args.seconds, args.trace)
            results[w].append(res)
            print(f"round {r} {w}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}",
                  file=sys.stderr)

    for w in names:
        runs = results[w]
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"\n{w}  (k={len(runs)}, failed shares {sorted(shares)})")
        print(f"  {'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s}")
        for m in runs[0]["metrics"]:
            vals = [r["metrics"][m]["value"] for r in runs]
            s = summarize(vals)
            unit = runs[0]["metrics"][m]["unit"]
            print(f"  {m:40s} {s['median']:12.5g} {s['q1']:12.5g} "
                  f"{s['q3']:12.5g} {s['spread']:8.3f}  {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
