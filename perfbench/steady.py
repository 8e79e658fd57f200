#!/usr/bin/env python3
"""Steadiness report: run the benchmark repeatedly, one seed per run, and show
how far each metric spreads between runs.

    python3 perfbench/steady.py                          # 10 seeds x every workload, --trace 0
    python3 perfbench/steady.py --runs 5 --workloads glauber-wide
    python3 perfbench/steady.py --trace 1                # per-layer metrics

Run it from the root of a checkout. It runs BENCHMARK.json's command with
its ``run_seconds``, one run at a time, seeds ``--first-seed`` onwards, the
workloads interleaved. For each workload and metric it prints the median, the
first and third quartiles (``statistics.quantiles(values, n=4)``) and the
spread ``(q3 - q1) / median``. End-to-end metrics are set against their bound:
``steady`` below a third of it, ``within`` below it, ``UNRESOLVED`` above it
(``setup_s``'s spread is not gated, only its median). Per-layer metrics have
no bound; a value that repeats exactly is marked ``exact``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900


def run_benchmark(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return elapsed, None, None, f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
    report = next((json.loads(line[len("report "):]) for line in lines if line.startswith("report ")), {})
    return elapsed, result, report, None


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / median if median else float("inf")


def verdict(name, share, bound):
    if bound is None:
        return ""
    if name == "setup_s":
        return "not gated"
    if share < bound / 3:
        return "steady"
    return "within" if share <= bound else "UNRESOLVED"


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="seeds per workload (default 10)")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(names), help="comma-separated subset")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    chosen = args.workloads.split(",")
    unknown = sorted(set(chosen) - set(names))
    if unknown or args.runs < 2:
        parser.error(f"unknown workloads {unknown}" if unknown else "--runs must be at least 2")

    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    results = {w: [] for w in chosen}
    extras = {w: {"run_s_tail": [], "failed_frac": []} for w in chosen}
    all_correct = True
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for workload in chosen:
            elapsed, result, report, error = run_benchmark(
                bench["command"], workload, seed, bench["run_seconds"], args.trace
            )
            if error is not None or not result["correct"]:
                all_correct = False
                print(f"{workload} seed {seed}: FAILED after {elapsed:.0f}s: {error or report.get('problems')}", flush=True)
                continue
            values = {name: m["value"] for name, m in result["metrics"].items()}
            results[workload].append(values)
            for key in extras[workload]:
                if report.get(key, {}).get("value") is not None:
                    extras[workload][key].append((report[key]["value"], report[key].get("percentile")))
            shown = ", ".join(f"{s['name']}={values[s['name']]:.6g}" for s in specs[:4])
            print(f"{workload} seed {seed}: {elapsed:.0f}s attempted={result['attempted']} "
                  f"failed={result['failed']} {shown}", flush=True)

    for workload in chosen:
        runs = results[workload]
        print(f"\n{workload}: {len(runs)} runs of {bench['run_seconds']}s")
        print(f"  {'metric':<34} {'unit':<9} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
        if len(runs) < 2:
            continue
        for spec in specs:
            values = [run[spec["name"]] for run in runs]
            median, q1, q3, share = spread(values)
            bound = spec.get("bound")
            mark = verdict(spec["name"], share, bound) or ("exact" if len(set(values)) == 1 else "")
            print(f"  {spec['name']:<34} {spec['unit']:<9} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{share:>8.4f} {bound if bound is not None else '-':>6}  {mark}")
        if not args.trace:
            tails = extras[workload]["run_s_tail"]
            if len(tails) >= 2:
                median, q1, q3, share = spread([v for v, _ in tails])
                print(f"  {'run_s_tail (p%g, report only)' % min(p for _, p in tails):<34} {'s':<9} "
                      f"{median:>12.6g} {q1:>12.6g} {q3:>12.6g} {share:>8.4f} {'-':>6}")
            else:
                print(f"  {'run_s_tail (report only)':<34} too few samples per run for a p90 or higher")
            fracs = [v for v, _ in extras[workload]["failed_frac"]]
            print(f"  {'failed_frac (report only)':<34} {'1':<9} max {max(fracs, default=float('nan')):.6g}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
