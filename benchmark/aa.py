#!/usr/bin/env python3
"""Steadiness checks for the benchmark, run from the root of the repo.

  python3 benchmark/aa.py spread [--runs 10] [--workloads a,b]
      every workload on `runs` different seeds; per end-to-end metric the
      interquartile range as a share of the median (the driver's acceptance
      rule: it must stay within the metric's bound; aim for a third of it).
  python3 benchmark/aa.py aa [--runs 5]
      the full set twice (second pass in reverse workload order); per metric
      x workload the relative difference of the two medians against the bound.
  python3 benchmark/aa.py smoke
      all six workloads and their traces at --seconds 0.2, checks on.

Quartiles are Python's statistics.quantiles(values, n=4), as the driver's.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time

MANIFEST = json.load(open("BENCHMARK.json"))
BOUNDS = {m["name"]: (m["bound"], m["better"]) for m in MANIFEST["end_to_end"]}
WORKLOADS = [w["name"] for w in MANIFEST["workloads"]]


def run(workload, seed, seconds, trace=0):
    cmd = MANIFEST["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(cmd, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} ops failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(name, first, second):
    """How much worse `second` is than `first`, as a share of `first`."""
    change = (second - first) / first
    return -change if BOUNDS[name][1] == "higher" else change


def cmd_spread(args):
    failed = False
    for w in args.workloads:
        runs = [run(w, args.seed + i, MANIFEST["run_seconds"]) for i in range(args.runs)]
        for name, (bound, _) in BOUNDS.items():
            values = [r[name] for r in runs]
            s = spread(values)
            verdict = "ok" if s <= bound / 3 else ("within bound" if s <= bound else "OVER BOUND")
            failed |= s > bound and name != "setup_s"
            print(f"{w:14} {name:16} median {statistics.median(values):12.3f}  "
                  f"iqr/median {s:6.3f}  bound {bound:.2f}  {verdict}", flush=True)
    sys.exit(1 if failed else 0)


def cmd_aa(args):
    passes = []
    for order in (WORKLOADS, WORKLOADS[::-1]):
        medians = {}
        for w in order:
            runs = [run(w, args.seed + i, MANIFEST["run_seconds"]) for i in range(args.runs)]
            medians[w] = {n: statistics.median(r[n] for r in runs) for n in BOUNDS}
        passes.append(medians)
    failed = False
    for w in WORKLOADS:
        for name, (bound, _) in BOUNDS.items():
            a, b = passes[0][w][name], passes[1][w][name]
            worse = worse_by(name, a, b)
            failed |= worse > bound
            print(f"{w:14} {name:16} A {a:12.3f}  A' {b:12.3f}  worse by {worse:+7.3f}  "
                  f"bound {bound:.2f}  {'ok' if worse <= bound else 'OVER BOUND'}")
    sys.exit(1 if failed else 0)


def cmd_smoke(args):
    start = time.time()
    for w in WORKLOADS:
        for trace in (0, 1):
            run(w, args.seed, 0.2, trace)
            print(f"{w} trace={trace} ok")
    print(f"smoke: all workloads and traces correct in {time.time() - start:.1f} s")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("mode", choices=["spread", "aa", "smoke"])
    parser.add_argument("--runs", type=int, default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workloads", type=lambda s: s.split(","), default=WORKLOADS)
    args = parser.parse_args()
    if args.runs is None:
        args.runs = 10 if args.mode == "spread" else 5
    {"spread": cmd_spread, "aa": cmd_aa, "smoke": cmd_smoke}[args.mode](args)
