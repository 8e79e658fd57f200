"""Experiment runner: build a chain, sweep filter degrees, emit error tables.

For degrees ``1..k_max`` the runner applies the running average (with horizon
``t = K + 1``, so its polynomial degree matches the other filters) and the
three polynomial designs, records each one's maximum absolute deviation from
the stationary mean (one sweep per filter yields every degree), and serializes the table as CSV (or JSON) with
12-significant-digit formatting. The table is a (k_max, 4) array: row ``K - 1``
holds degree K, and the columns follow ``FILTER_ORDER``. Identical
configurations produce byte-identical output.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import chains, filters, markov

FILTER_ORDER = ("ergodic", "bernstein", "chebyshev", "legendre")

# Glauber inverse temperature and edge coupling when the config leaves them unset
GLAUBER_BETA = 0.2
GLAUBER_COUPLING = 1.0

# Reference signals bundled for the two shipped experiments (11 cycle values,
# 16 ring values in bitmask state order).
CYCLE_REFERENCE_SIGNAL = np.array(
    [8.53, 6.22, 3.50, 5.13, 4.01, 0.75, 2.39, 1.23, 1.83, 2.39, 4.17]
)
GLAUBER_REFERENCE_SIGNAL = np.array(
    [9.04, 9.79, 4.38, 1.11, 2.58, 4.08, 5.94, 2.62, 6.02, 7.11, 2.21, 1.17, 2.96, 3.18, 4.24, 5.07]
)
CYCLE_REFERENCE_SIGNAL.setflags(write=False)
GLAUBER_REFERENCE_SIGNAL.setflags(write=False)

# splitmix64: the state increment and the two multipliers of its mixer
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; at least one signal source must be set
    (explicit values take precedence over the bundled reference signal,
    which takes precedence over seeded generation).

    Construction judges, in this order, every rule that reads the config
    alone: a signal source is set, the seed and ``k_max`` pass
    ``markov.check_integer`` (in [0, 2^64), and ``>= 1``), the experiment is
    known, a Glauber ring is within the enumeration cap, and the
    ``lambda_low`` override passes ``markov.check_lambda_low`` and is kept as
    the float it returns. Values that need the chain (cycle length, ring
    temperature and coupling, signal length) are judged where they are used."""

    experiment: str
    p: int
    beta: float | None = None
    coupling: float | None = None
    k_max: int = 20
    signal: np.ndarray | None = None
    use_reference_signal: bool = False
    seed: int | None = None
    lambda_low_override: float | None = None

    def __post_init__(self):
        if self.signal is None and not self.use_reference_signal and self.seed is None:
            raise ValueError("no signal source: provide explicit values, the reference signal, or a seed")
        if self.seed is not None:
            markov.check_integer(self.seed, "seed", 0, 2**64)
        markov.check_integer(self.k_max, "k_max", 1)
        if self.experiment not in ("cycle-walk", "glauber"):
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if self.experiment == "glauber":
            # before GlauberParams makes p couplings, however large p is
            chains.check_enumeration(self.p)
        if self.lambda_low_override is not None:
            override = markov.check_lambda_low(self.lambda_low_override)
            object.__setattr__(self, "lambda_low_override", override)


@dataclass(frozen=True)
class RunMetadata:
    experiment: str
    p: int
    k_max: int
    lambda_low: float
    pi_f: float


def generate_signal(seed: int, count: int) -> np.ndarray:
    """Deterministic pseudo-random signal: splitmix64 outputs mapped to
    uniform [0, 10] and rounded to 2 decimals.

    The generator is part of the external contract — a given seed must keep
    producing the same values in future versions. Each draw takes the top 53
    bits of one splitmix64 output as a uniform value in [0, 1).

    The i-th state (from 1) is ``seed + i * gamma mod 2^64``, so every state
    and both mixing rounds are computed at once in wrapping ``uint64``
    arithmetic; rounding gives what Python's correctly rounded ``round``
    gives per value (see ``_round_cents``). A seed outside [0, 2^64) is
    refused by ``markov.check_integer``, not wrapped.
    """
    markov.check_integer(seed, "seed", 0, 2**64)
    markov.check_integer(count, "signal length", 0)
    steps = np.arange(1, count + 1, dtype=np.uint64)
    z = steps * _GAMMA + np.uint64(seed)
    z = (z ^ (z >> 30)) * _MIX1
    z = (z ^ (z >> 27)) * _MIX2
    z ^= z >> 31
    return _round_cents((z >> 11) * 2.0**-53 * 10.0)


def _round_cents(x: np.ndarray) -> np.ndarray:
    """``round(v, 2)`` of every value, as an array, for ``|v| < 10**4``.

    ``round`` returns the double nearest ``k / 100``, with ``k`` the exact
    ``100 v`` rounded half to even, and ``k / 100.0`` is that double. Below
    ``10**4`` the product ``v * 100.0`` lies within 1.2e-10 of ``100 v``, so
    ``np.rint`` finds ``k`` unless ``100 v`` is within 1e-9 of a half-integer;
    those few values take ``round`` itself.
    """
    scaled = x * 100.0
    result = np.rint(scaled) / 100.0
    for i in np.flatnonzero(np.abs(scaled - np.floor(scaled) - 0.5) < 1e-9).tolist():
        result[i] = round(float(x[i]), 2)
    return result


def _build_chain(config: ExperimentConfig) -> markov.ChainModel:
    if config.experiment == "cycle-walk":
        return chains.build_cycle_walk(config.p)
    beta = GLAUBER_BETA if config.beta is None else config.beta
    coupling = GLAUBER_COUPLING if config.coupling is None else config.coupling
    return chains.build_glauber_cycle(chains.GlauberParams.uniform(config.p, beta, coupling))


def _resolve_signal(config: ExperimentConfig, n: int) -> np.ndarray:
    # an explicit signal is judged by markov.check_signal where it is read
    if config.signal is not None:
        return np.asarray(config.signal)
    if config.use_reference_signal:
        reference = (
            CYCLE_REFERENCE_SIGNAL
            if config.experiment == "cycle-walk"
            else GLAUBER_REFERENCE_SIGNAL
        )
        if reference.shape != (n,):
            raise ValueError(
                f"the bundled {config.experiment} reference signal has {reference.size} values; "
                f"this chain has {n} states — pass --signal or --seed instead"
            )
        # read-only; check_signal hands the sweeps a unit-scale copy
        return reference
    return generate_signal(config.seed, n)


def run_experiment(config: ExperimentConfig) -> tuple[np.ndarray, RunMetadata]:
    """Run one error-vs-degree sweep; deterministic for identical configs.

    Returns the (k_max, 4) error table, columns in ``FILTER_ORDER``, and the
    run's metadata."""
    chain = _build_chain(config)
    signal = _resolve_signal(config, chain.n)
    override = config.lambda_low_override
    lambda_low = chain.lambda_low if override is None else override

    table, pi_f = filters.error_table(chain, signal, config.k_max, lambda_low)
    metadata = RunMetadata(
        experiment=config.experiment,
        p=config.p,
        k_max=config.k_max,
        lambda_low=lambda_low,
        pi_f=pi_f,
    )
    return table.T, metadata


# one %-format per table row; every value, the metadata's too, is "%.12g"
_CSV_ROW = "%d" + ",%.12g" * len(FILTER_ORDER)
_JSON_ROW = '    {"degree": %d, ' + ", ".join(f'"{name}": %.12g' for name in FILTER_ORDER) + "}"


def _rows(table, metadata: RunMetadata) -> list[list[float]]:
    """The table's rows as Python floats; an empty table, one that is not
    one column per filter, or a table cell or metadata float that is not
    finite (JSON has no NaN or infinity), is an error."""
    values = np.asarray(table, dtype=float)
    if values.size == 0:
        raise ValueError("no results to serialize")
    if values.ndim != 2 or values.shape[1] != len(FILTER_ORDER):
        raise ValueError(f"table has shape {values.shape}, expected (k_max, {len(FILTER_ORDER)})")
    if not (np.isfinite(values).all() and math.isfinite(metadata.lambda_low) and math.isfinite(metadata.pi_f)):
        raise ValueError("values to serialize must be finite")
    return values.tolist()


def emit_csv(table, metadata: RunMetadata) -> str:
    """Serialize a ``run_experiment`` table as CSV: a ``# lambda_low=…,
    pi_f=…`` comment line with the run's frequency bound and mean, a header
    line, and one line per degree.

    Values carry 12 significant digits; line endings are ``\\n``; identical
    inputs produce byte-identical text.
    """
    lines = [
        "# lambda_low=%.12g, pi_f=%.12g" % (metadata.lambda_low, metadata.pi_f),
        "degree," + ",".join(FILTER_ORDER),
    ]
    lines += [_CSV_ROW % (degree, *row) for degree, row in enumerate(_rows(table, metadata), start=1)]
    return "\n".join(lines) + "\n"


def emit_json(table, metadata: RunMetadata) -> str:
    """Serialize the same table as a JSON run summary.

    Numbers are embedded with the same 12-significant-digit formatting as the
    CSV, so the two outputs always agree and stay byte-reproducible.
    """
    rows = _rows(table, metadata)
    head = (
        '{\n  "metadata": {"experiment": %s, "p": %s, "k_max": %s, '
        '"lambda_low": %.12g, "pi_f": %.12g},\n  "rows": [\n'
        % (json.dumps(metadata.experiment), metadata.p, metadata.k_max, metadata.lambda_low, metadata.pi_f)
    )
    body = ",\n".join(_JSON_ROW % (degree, *row) for degree, row in enumerate(rows, start=1))
    return head + body + "\n  ]\n}\n"
