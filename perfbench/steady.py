#!/usr/bin/env python3
"""Steadiness check: run every workload k times, alternating workloads,
each run with its own seed, and report per end-to-end metric the median,
the quartiles and the spread (Q3 - Q1) / median against the metric's
bound in BENCHMARK.json. A metric whose spread reaches a third of its
bound is flagged: the bound cannot resolve a change that small.

Usage, from the root of the repository:

    python3 perfbench/steady.py --runs 10 [--seed0 1] [--workloads warm-draw,sql-serve] [--json out.json]

Each run also records the environment the benchmark captured (CPU model,
nproc, GOMAXPROCS, Go version, pool size and workers) and the CPU steal
ticks during the run, so runs hit by noisy neighbours can be recognised.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(root, workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)
    lines = [l for l in out.stdout.splitlines() if l.strip()]
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    result = json.loads(lines[-1])
    env = json.loads(lines[-2]) if len(lines) > 1 else {}
    return result, env


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--json", default="", help="write every run's result and environment here")
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = [n for n in names if n in args.workloads.split(",")]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = {n: [] for n in names}
    for k in range(args.runs):
        order = names if k % 2 == 0 else list(reversed(names))
        for n in order:
            seed = args.seed0 + k
            t0 = time.monotonic()
            res, env = run_once(root, n, seed, bench["run_seconds"])
            wall = time.monotonic() - t0
            runs[n].append({"seed": seed, "result": res, "env": env, "wall_s": wall})
            print(f"{n} seed={seed} correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']} steal={env.get('steal_ticks')} wall={wall:.1f}s", file=sys.stderr)

    ok = True
    for n in names:
        print(f"\n{n}")
        print(f"  {'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for m in bench["end_to_end"]:
            vals = [r["result"]["metrics"][m["name"]]["value"] for r in runs[n]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if spread >= bounds[m["name"]] / 3:
                flag = "  UNRESOLVED"
                ok = False
            print(f"  {m['name']:<20} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>8.3f} {bounds[m['name']]:>6}{flag}")
        fails = [r["result"]["failed"] / r["result"]["attempted"] for r in runs[n]]
        print(f"  failed share: {sorted(set(fails))}  env: {runs[n][0]['env'].get('env')}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(runs, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
