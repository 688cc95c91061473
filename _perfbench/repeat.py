#!/usr/bin/env python3
"""Run the benchmark repeatedly and print each metric's spread.

Run from the root of the repository:

    python3 _perfbench/repeat.py --runs 10
    python3 _perfbench/repeat.py --runs 5 --workloads serve_mixed --trace

Each round runs every workload once with a fresh seed, alternating the
order of the workloads from round to round. For every end-to-end metric
and workload it prints the median, the quartiles (statistics.quantiles,
n=4), and the spread (q3 - q1) / median next to the metric's bound from
BENCHMARK.json. Metrics a run prints to standard error but leaves out of
its result (read and write throughput, the slice p50, the p99s) are
summarised too, marked "left out". With --trace every untraced run is
followed by a traced run of the same seed, and the per-layer medians and
the tracing overhead (traced against untraced read throughput) are
printed too.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    proc = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    res = json.loads(lines[-1])
    if not res["correct"]:
        raise SystemExit(f"{workload} seed {seed}: answers not correct")
    left_out = {}
    for line in proc.stderr.splitlines():
        m = re.match(r"\s+(\S+)\s+(\S+) \(not in the result\)$", line)
        if m:
            left_out[m.group(1)] = float(m.group(2))
    return res, left_out


def summary(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per workload")
    ap.add_argument("--seed", type=int, default=1, help="first seed")
    ap.add_argument("--workloads", default="", help="comma-separated subset")
    ap.add_argument("--seconds", type=int, default=0, help="override run_seconds")
    ap.add_argument("--trace", action="store_true", help="also make a traced run per seed")
    opts = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if opts.workloads:
        names = [n for n in names if n in opts.workloads.split(",")]
    seconds = opts.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    e2e = {n: {} for n in names}
    layer = {n: {} for n in names}
    shares = {n: [] for n in names}
    for r in range(opts.runs):
        order = names if r % 2 == 0 else list(reversed(names))
        for name in order:
            seed = opts.seed + r
            res, left_out = run_once(bench["command"], name, seed, seconds, False)
            shares[name].append(res["failed"] / res["attempted"])
            for k, v in res["metrics"].items():
                e2e[name].setdefault(k, []).append(v["value"])
            for k, v in left_out.items():
                e2e[name].setdefault(k, []).append(v)
            if opts.trace:
                tres, _ = run_once(bench["command"], name, seed, seconds, True)
                for k, v in tres["metrics"].items():
                    layer[name].setdefault(k, []).append(v["value"])
            print(f"run {r + 1}/{opts.runs} {name} seed {seed}: attempted {res['attempted']}"
                  f" failed {res['failed']}", file=sys.stderr, flush=True)

    for name in names:
        print(f"\n== {name}: {opts.runs} runs of {seconds} s, failed share"
              f" {sorted(set(shares[name]))}")
        print(f"{'metric':34} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for k in sorted(e2e[name]):
            med, q1, q3, spread = summary(e2e[name][k])
            if k not in bounds:
                print(f"{k:34} {med:14.4f} {q1:14.4f} {q3:14.4f} {spread:8.4f}  left out")
                continue
            bound = bounds[k]
            flag = "" if spread <= bound / 3 else ("  > bound/3" if spread <= bound else "  > BOUND")
            print(f"{k:34} {med:14.4f} {q1:14.4f} {q3:14.4f} {spread:8.4f} {bound:6.2f}{flag}")
        if opts.trace:
            print(f"-- per layer (traced runs)")
            for k in sorted(layer[name]):
                med, q1, q3, spread = summary(layer[name][k])
                print(f"{k:34} {med:14.4f} {q1:14.4f} {q3:14.4f} {spread:8.4f}")
            untraced = statistics.median(e2e[name]["read_ops_s"])
            traced = statistics.median(layer[name]["bench.traced_read_ops_s"])
            print(f"tracing overhead on read_ops_s: {100 * (1 - traced / untraced):.1f}%"
                  f" (untraced {untraced:.0f}/s, traced {traced:.0f}/s)")


if __name__ == "__main__":
    main()
