#!/usr/bin/env python3
"""ergofilt benchmark.

Drives the real user path, ``ergofilt.cli.cli_main(argv)``, in-process with
stdout captured, as a closed loop with one client: each run starts when the
previous one has returned. Every table is checked against an independent
oracle (``oracle.py``). Run from the root of a checkout:

    python3 perfbench/run.py --workload paper --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` the per-layer
metrics of a traced run (``tracer.py``). The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. See
``perfbench/README.md`` for the workloads and how to read the metrics.
"""

import os
import sys

# One BLAS thread, so that the process CPU time of a run is the run's own work:
# idle OpenBLAS workers spin, and their spinning would count as CPU time.
# OpenBLAS reads the setting when it loads, so it is set before numpy is
# imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
sys.dont_write_bytecode = True  # leave nothing behind in the checkout

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

# setup_s: about SETUP_BLOCKS blocks of builds, spread over the timed loop; a
# block repeats each chain's build for SETUP_BLOCK_S, and at least once.
SETUP_BLOCKS = 10
SETUP_BLOCK_S = 0.15
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)
TAIL_MIN_BEYOND = 10


class ProgramMissing(Exception):
    pass


def load_program() -> dict:
    """Import ``ergofilt`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "ergofilt" / "__init__.py").is_file():
        raise ProgramMissing(f"no ergofilt sources under {src}")
    sys.path.insert(0, str(src))
    import ergofilt
    from ergofilt import chains, cli, densela, filters, harness, markov

    if Path(ergofilt.__file__).resolve().parent != src / "ergofilt":
        raise ProgramMissing(f"imported ergofilt from {ergofilt.__file__}, not from {src}")
    return {"cli": cli, "harness": harness, "chains": chains, "markov": markov,
            "densela": densela, "filters": filters}


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        getconf = subprocess.run(["getconf", "-a"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        getconf = ""
    caches = {
        name: int(value)
        for name, _, value in (line.partition(" ") for line in getconf.splitlines())
        if name.endswith("CACHE_SIZE") and value.strip().isdigit()
    }
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "cache_bytes": caches,
    }


def run_once(cli, argv: list[str]):
    """One CLI run; returns (wall seconds, CPU seconds, exit code or error
    text, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    start, cpu_start = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.cli_main(argv)
    except Exception as exc:  # a run that raises is a failed run, not a failed benchmark
        code = f"raised {exc!r}"
    cpu = time.process_time() - cpu_start
    return time.perf_counter() - start, cpu, code, out.getvalue(), err.getvalue()


class Loop:
    """Closed loop over a workload's variants, in whole rounds."""

    def __init__(self, cli, variants):
        self.cli = cli
        self.variants = variants
        self.times = [[] for _ in variants]  # wall seconds per run
        self.cpu_times = [[] for _ in variants]  # process CPU seconds per run
        self.outputs = [Counter() for _ in variants]  # distinct stdout texts of successful runs
        self.errors = []
        self.attempted = 0
        self.cells = 0
        self.wall_s = 0.0

    def rounds(self, seconds: float, between=None):
        """Run whole rounds until ``seconds`` have passed; always at least one.
        ``between()`` runs after each round, outside the timed runs."""
        deadline = time.perf_counter() + seconds
        while True:
            for index, variant in enumerate(self.variants):
                elapsed, cpu, code, text, err = run_once(self.cli, variant.argv())
                self.attempted += 1
                self.times[index].append(elapsed)
                self.cpu_times[index].append(cpu)
                self.wall_s += elapsed
                if code == 0:
                    self.outputs[index][text] += 1
                    self.cells += variant.cells
                else:
                    self.errors.append(f"{' '.join(variant.argv())}: exit {code}: {err.strip()[-300:]}")
            if between is not None:
                between()
            if time.perf_counter() >= deadline:
                return self

    def run_cpu_s_min(self) -> float:
        """Least CPU time of one run of each variant, averaged over the variants."""
        return statistics.fmean(min(times) for times in self.cpu_times)

    def run_s_min(self) -> float:
        """Fastest wall time of one run of each variant, averaged over the variants."""
        return statistics.fmean(min(times) for times in self.times)

    def run_s_p50(self) -> float:
        """Median run of each variant, averaged over the variants."""
        return statistics.fmean(statistics.median(times) for times in self.times)

    def run_s_tail(self):
        """(percentile, seconds) of the highest listed percentile with at least
        TAIL_MIN_BEYOND samples above it, or None when there are too few."""
        pooled = sorted(t for times in self.times for t in times)
        for q in TAIL_PERCENTILES:
            rank = math.ceil(q / 100.0 * len(pooled))
            if len(pooled) - rank >= TAIL_MIN_BEYOND:
                return q, pooled[rank - 1]
        return None


def check(loops: list[Loop], variants) -> tuple[int, list[str]]:
    """Check each distinct output against the oracle; returns (failed runs, problems)."""
    failed = sum(len(loop.errors) for loop in loops)
    problems = [msg for loop in loops for msg in loop.errors]
    expected = {}
    for index, variant in enumerate(variants):
        key = (variant.chain_key, variant.signal_seed, variant.k_max)
        if key not in expected:
            expected[key] = oracle.expected_table(variant)
        for loop in loops:
            for text, count in loop.outputs[index].items():
                found = oracle.check_output(text, variant, expected[key])
                if found:
                    failed += count
                    problems += [f"{' '.join(variant.argv())}: {p}" for p in found[:5]]
    return failed, problems


class SetupTimer:
    """Times the public constructor of each of the workload's chains in short
    blocks spread over the run, and keeps each chain's least CPU time."""

    def __init__(self, chains, variants, seconds: float):
        self.chains = chains
        self.fastest = {key: math.inf for key in dict.fromkeys(v.chain_key for v in variants)}
        self.interval = seconds / SETUP_BLOCKS
        self.due = 0.0

    def block(self):
        for key in self.fastest:
            deadline = time.perf_counter() + SETUP_BLOCK_S
            while True:
                t0 = time.process_time()
                workloads.build_chain(self.chains, *key)
                self.fastest[key] = min(self.fastest[key], time.process_time() - t0)
                if time.perf_counter() >= deadline:
                    break
        self.due = time.perf_counter() + self.interval

    def when_due(self):
        if time.perf_counter() >= self.due:
            self.block()

    def seconds(self) -> float:
        return sum(self.fastest.values())


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(program, variants, seconds, reference):
    setup = SetupTimer(program["chains"], variants, seconds)
    probe = speed.SpeedProbe(reference)

    def between():
        setup.when_due()
        probe.when_due()

    warm = Loop(program["cli"], variants).rounds(0.0)
    timed = Loop(program["cli"], variants).rounds(seconds, between=between)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # before the oracle runs
    loops = [warm, timed]
    failed, problems = check(loops, variants)
    attempted = sum(loop.attempted for loop in loops)
    tail = timed.run_s_tail()
    # The gated times (BENCHMARK.json) are least CPU times, which leave out
    # stolen time and most of the short slow spells, scaled by the reference
    # kernel's speed in the same run, which takes out the spells that last the
    # whole run (speed.py). The others are reported only: wall-time medians and
    # tails moved by 35% and more between runs on a shared VM, and failed_frac
    # is 0 whenever the program is right.
    scale = probe.scale()
    metrics = {
        "run_ref_s": metric(timed.run_cpu_s_min() * scale, "s"),
        "setup_s": metric(setup.seconds() * scale, "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MiB"),
    }
    report = {
        **metrics,
        "run_cpu_s_min": metric(timed.run_cpu_s_min(), "s"),
        "setup_cpu_s": metric(setup.seconds(), "s"),
        "speed": {"kernel": probe.name, "fastest_s": probe.fastest_s, "nominal_s": probe.nominal_s,
                  "samples": probe.samples, "scale": scale},
        "run_s_min": metric(timed.run_s_min(), "s"),
        "run_s_p50": metric(timed.run_s_p50(), "s"),
        "run_s_tail": {"value": tail and tail[1], "unit": "s", "percentile": tail and tail[0]},
        "cells_per_s": metric(timed.cells / timed.wall_s, "1/s"),
        "failed_frac": metric(failed / attempted, "1"),
        "samples": timed.attempted,
    }
    return metrics, report, attempted, failed, problems


def per_layer(program, variants, seconds):
    cli = program["cli"]
    modules = {name: program[name] for name in tracer.MODULES}
    warm = Loop(cli, variants).rounds(0.0)
    trace = tracer.Tracer()
    with trace.installed(modules):
        trace.counting = True
        counting = Loop(cli, variants).rounds(0.0)
        trace.counting = False
    # untraced and traced rounds alternate, so both see the same machine states
    untraced, traced = Loop(cli, variants), Loop(cli, variants)
    deadline = time.perf_counter() + seconds
    while True:
        untraced.rounds(0.0)
        with trace.installed(modules):
            traced.rounds(0.0)
        if time.perf_counter() >= deadline:
            break
    loops = [warm, counting, untraced, traced]
    failed, problems = check(loops, variants)
    attempted = sum(loop.attempted for loop in loops)
    # per run: the median over adjacent round pairs of traced minus untraced time
    overhead_s = statistics.median(
        sum(t) - sum(u) for u, t in zip(zip(*untraced.times), zip(*traced.times))
    ) / len(variants)
    values = trace.layer_metrics(overhead_s)
    metrics = {name: metric(values[name], unit) for name, (unit, _) in tracer.PER_LAYER.items()}
    report = {
        "groups": trace.groups(),
        "kinds": {name: kind for name, (_, kind) in tracer.PER_LAYER.items()},
        "spans": len(trace.spans),
        "runs": {"untraced": untraced.attempted, "counting": counting.attempted, "traced": traced.attempted},
    }
    return metrics, report, attempted, failed, problems


def _nudge_first_cell(cells):
    cells[0, 0] *= 1.0 + 1e-7


def _swap_last_chebyshev_legendre(cells):
    cells[-1, [2, 3]] = cells[-1, [3, 2]]


# Deliberate defects the smoke test must see rejected: one cell wrong in its
# 8th significant digit, and two filter columns swapped at the top degree.
PERTURBATIONS = (_nudge_first_cell, _swap_last_chebyshev_legendre)


def smoke(program) -> int:
    """One round of every workload: the oracle must accept each genuine table
    and reject each deliberately perturbed copy of it."""
    ok = True
    for name in workloads.WORKLOADS:
        variants = workloads.variants(name, 0)
        loop = Loop(program["cli"], variants).rounds(0.0)
        failed, problems = check([loop], variants)
        attempted = loop.attempted
        genuine_ok = failed == 0
        rejected = 0
        for index, variant in enumerate(variants):
            want = oracle.expected_table(variant)
            for text in loop.outputs[index]:
                for perturb in PERTURBATIONS:
                    table = oracle.parse_output(text, variant.json)
                    perturb(table.cells)
                    attempted += 1
                    if oracle.check_table(table, variant, want):
                        rejected += 1
                        failed += 1
        perturbed_ok = rejected == attempted - loop.attempted
        ok &= genuine_ok and perturbed_ok
        print(
            f"smoke {name}: attempted {attempted} failed {failed} failed_frac {failed / attempted:.3f}; "
            f"genuine tables {'accepted' if genuine_ok else 'REJECTED'}; "
            f"perturbed tables rejected {rejected}/{attempted - loop.attempted}"
        )
        for problem in problems[:5]:
            print(f"  {problem}")
    print("smoke: ok" if ok else "smoke: FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="self-test: one round of each workload")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    try:
        program = load_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"error: cannot load the program: {exc}", file=sys.stderr)
        return 2
    print("env " + json.dumps(environment()))
    if args.smoke:
        return smoke(program)

    variants = workloads.variants(args.workload, args.seed)
    if args.trace:
        metrics, report, attempted, failed, problems = per_layer(program, variants, args.seconds)
    else:
        metrics, report, attempted, failed, problems = end_to_end(
            program, variants, args.seconds, workloads.REFERENCE[args.workload]
        )
    report.update(
        workload=args.workload, seed=args.seed, argv=[v.argv() for v in variants],
        tolerance={"rtol": oracle.RTOL, "atol_times_spread": oracle.ATOL}, problems=problems[:20],
    )
    print("report " + json.dumps(report))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
