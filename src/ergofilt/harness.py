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

_MASK64 = (1 << 64) - 1
# splitmix64: the state increment and the two multipliers of its mixer
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; exactly one signal source should be set
    (explicit values take precedence over the bundled reference signal,
    which takes precedence over seeded generation)."""

    experiment: str
    p: int
    beta: float | None = None
    coupling: float | None = None
    k_max: int = 20
    signal: np.ndarray | None = None
    use_reference_signal: bool = False
    seed: int | None = None
    lambda_low_override: float | None = None


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
    gives per value (see ``_round_cents``).
    """
    steps = np.arange(1, count + 1, dtype=np.uint64)
    z = steps * _GAMMA + np.uint64(int(seed) & _MASK64)
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
    if config.experiment == "glauber":
        # before GlauberParams makes p couplings, however large p is
        chains.check_enumeration(config.p)
        beta = GLAUBER_BETA if config.beta is None else config.beta
        coupling = GLAUBER_COUPLING if config.coupling is None else config.coupling
        return chains.build_glauber_cycle(chains.GlauberParams.uniform(config.p, beta, coupling))
    raise ValueError(f"unknown experiment {config.experiment!r}")


def _resolve_signal(config: ExperimentConfig, n: int) -> np.ndarray:
    if config.signal is not None:
        values = np.asarray(config.signal, dtype=float)
        if values.shape != (n,):
            raise ValueError(f"signal has {values.size} values, chain has {n} states")
        if not np.isfinite(values).all():
            raise ValueError("signal values must be finite")
        return values
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
        return reference.copy()
    if config.seed is not None:
        return generate_signal(config.seed, n)
    raise ValueError("no signal source: provide explicit values, the reference signal, or a seed")


def run_experiment(config: ExperimentConfig) -> tuple[np.ndarray, RunMetadata]:
    """Run one error-vs-degree sweep; deterministic for identical configs.

    Returns the (k_max, 4) error table, columns in ``FILTER_ORDER``, and the
    run's metadata."""
    if config.k_max < 1:
        raise ValueError(f"k_max must be at least 1, got {config.k_max}")
    chain = _build_chain(config)
    signal = _resolve_signal(config, chain.n)
    lambda_low = chain.lambda_low
    if config.lambda_low_override is not None:
        lambda_low = float(config.lambda_low_override)
        if not 0.0 < lambda_low < 2.0:
            raise ValueError(f"lambda_low override must lie in (0, 2), got {lambda_low}")

    # the running sum grows to (k_max + 1) max|f|, the stopband map by up to
    # (6 + lambda_low) / (2 - lambda_low) in max-norm; a signal with less than
    # twice that headroom is swept scaled by 2^-shift, its errors by 2^shift.
    # Reference and generated signals lie in [0, 10]
    shift = 0
    if config.signal is not None:
        growth = (config.k_max + 1) * (6.0 + lambda_low) / (2.0 - lambda_low)
        peak = max(float(signal.max()), -float(signal.min()))
        shift = max(0, math.frexp(peak)[1] + math.frexp(growth)[1] - 1023)
    swept = np.ldexp(signal, -shift) if shift else signal
    # an overflow in a sweep raises FloatingPointError, not a RuntimeWarning
    with np.errstate(over="raise", invalid="raise"):
        columns = np.array([
            filters.ergodic_errors(chain, swept, config.k_max),
            filters.bernstein_errors(chain, swept, config.k_max, lambda_low),
            filters.chebyshev_errors(chain, swept, config.k_max, lambda_low),
            filters.legendre_errors(chain, swept, config.k_max, lambda_low),
        ])
    if shift:
        # an error past the float64 maximum is inf, named below
        with np.errstate(over="ignore"):
            columns = np.ldexp(columns, shift)
    if not np.isfinite(columns).all():
        bad = ~np.isfinite(columns)
        first = int(np.flatnonzero(bad.any(axis=0))[0])
        names = [name for name, flag in zip(FILTER_ORDER, bad[:, first]) if flag]
        raise FloatingPointError(f"non-finite filter error at degree {first + 1}: {names}")
    metadata = RunMetadata(
        experiment=config.experiment,
        p=config.p,
        k_max=config.k_max,
        lambda_low=lambda_low,
        pi_f=markov.pi_expectation(signal, chain.pi),
    )
    return columns.T, metadata


# one %-format per table row; every value, the metadata's too, is "%.12g"
_CSV_ROW = "%d" + ",%.12g" * len(FILTER_ORDER)
_JSON_ROW = '    {"degree": %d, ' + ", ".join(f'"{name}": %.12g' for name in FILTER_ORDER) + "}"


def _rows(table) -> list[list[float]]:
    """The table's rows as Python floats; an empty table, or one that is not
    one column per filter, is an error."""
    values = np.asarray(table, dtype=float)
    if values.size == 0:
        raise ValueError("no results to serialize")
    if values.ndim != 2 or values.shape[1] != len(FILTER_ORDER):
        raise ValueError(f"table has shape {values.shape}, expected (k_max, {len(FILTER_ORDER)})")
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
    lines += [_CSV_ROW % (degree, *row) for degree, row in enumerate(_rows(table), start=1)]
    return "\n".join(lines) + "\n"


def emit_json(table, metadata: RunMetadata) -> str:
    """Serialize the same table as a JSON run summary.

    Numbers are embedded with the same 12-significant-digit formatting as the
    CSV, so the two outputs always agree and stay byte-reproducible.
    """
    rows = _rows(table)
    head = (
        '{\n  "metadata": {"experiment": "%s", "p": %s, "k_max": %s, '
        '"lambda_low": %.12g, "pi_f": %.12g},\n  "rows": [\n'
        % (metadata.experiment, metadata.p, metadata.k_max, metadata.lambda_low, metadata.pi_f)
    )
    body = ",\n".join(_JSON_ROW % (degree, *row) for degree, row in enumerate(rows, start=1))
    return head + body + "\n  ]\n}\n"
