"""Benchmark workloads.

A workload is a fixed list of ``ergofilt`` command lines (variants). The
benchmark's ``--seed`` only chooses the ``--seed`` each command line passes to
the program's signal generator, so the same benchmark seed always gives the
same inputs, and the program sees nothing but its own command-line arguments.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

GLAUBER_BETA = 0.2
GLAUBER_COUPLING = 1.0


@dataclass(frozen=True)
class Variant:
    """One ``ergofilt`` command line and the facts the oracle needs about it."""

    experiment: str  # "cycle-walk" or "glauber"
    p: int
    k_max: int
    signal_seed: int
    json: bool

    @property
    def n(self) -> int:
        return self.p if self.experiment == "cycle-walk" else 1 << self.p

    @property
    def chain_key(self) -> tuple[str, int]:
        return (self.experiment, self.p)

    @property
    def cells(self) -> int:
        """Filter cells in the table one run produces: four filters per degree."""
        return 4 * self.k_max

    def argv(self) -> list[str]:
        args = [self.experiment, "--p", str(self.p), "--k-max", str(self.k_max)]
        if self.experiment == "glauber":
            args += ["--beta", repr(GLAUBER_BETA), "--coupling", repr(GLAUBER_COUPLING)]
        args += ["--seed", str(self.signal_seed)]
        if self.json:
            args.append("--json")
        return args


def build_chain(chains, experiment: str, p: int):
    """The public chain constructor the CLI runs for this chain; ``setup_s`` times it."""
    if experiment == "cycle-walk":
        return chains.build_cycle_walk(p)
    return chains.build_glauber_cycle(
        chains.GlauberParams.uniform(p, GLAUBER_BETA, GLAUBER_COUPLING)
    )


# name -> [(experiment, p, k_max, json output)]; runs cycle through the list.
# perfbench/README.md says why each workload exists.
WORKLOADS = {
    "paper": [
        ("cycle-walk", 11, 20, False),
        ("cycle-walk", 11, 20, True),
        ("glauber", 4, 20, False),
        ("glauber", 4, 20, True),
    ],
    "glauber-wide": [("glauber", 10, 6, False)],
    "cycle-deep": [("cycle-walk", 101, 100, False)],
}


# name -> the speed.py reference kernel whose bottleneck matches the workload's
REFERENCE = {"paper": "interp", "glauber-wide": "dense", "cycle-deep": "interp"}


def variants(workload: str, seed: int) -> list[Variant]:
    """The workload's command lines, with signal seeds derived from ``seed``."""
    rng = random.Random(f"ergofilt-bench/{workload}/{seed}")
    signal_seeds = {}
    out = []
    for experiment, p, k_max, as_json in WORKLOADS[workload]:
        key = (experiment, p)
        if key not in signal_seeds:
            signal_seeds[key] = rng.getrandbits(64)
        out.append(Variant(experiment, p, k_max, signal_seeds[key], as_json))
    return out
