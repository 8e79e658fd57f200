"""Independent correctness oracle for ``ergofilt`` error tables.

Nothing here calls into ``ergofilt``. The oracle rebuilds each chain
(transition matrix, stationary law, stopband edge ``lambda_low``) and the
seeded signal from their definitions, diagonalises the symmetrised Laplacian
``D^1/2 (I - P) D^-1/2`` with ``numpy.linalg.eigh``, and evaluates each
filter's frequency response on that spectrum from its definition:

* running average at horizon ``t = K + 1``: ``(1/t) sum_{k<t} (1 - z)^k``;
* Bernstein: ``sum_l g(2l/K) C(K, l) (z/2)^l (1 - z/2)^(K-l)`` with ``g`` the
  triangle that falls from 1 at 0 to 0 at ``lambda_low``;
* Chebyshev: ``T_K(m(z)) / T_K(m(0))`` with ``m`` mapping ``[lambda_low, 2]``
  onto ``[-1, 1]`` (``numpy.polynomial.chebyshev``);
* Legendre: the reproducing-kernel form of the L2-optimal design,
  ``sum_k (2k+1) P_k(m0) P_k(m(z)) / sum_k (2k+1) P_k(m0)^2``
  (``numpy.polynomial.legendre``).

It depends on no recursion in the program's ``filters`` module, so it stays
valid when those recursions are restructured.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import comb

import numpy as np
from numpy.polynomial import chebyshev, legendre

from workloads import GLAUBER_BETA, GLAUBER_COUPLING, Variant

FILTERS = ("ergodic", "bernstein", "chebyshev", "legendre")

# A cell matches when |got - want| <= RTOL * |want| + ATOL * spread, where
# spread = max|f - pi(f)|. The program prints 12 significant digits, and the
# largest disagreements seen on the three workloads are about 1e-12 * spread
# (small cells at K near 200 on cycle-deep) and 5e-12 relative (cells near 1),
# so both terms leave a margin of about 100. A cell moved in its 7th
# significant digit is still rejected.
RTOL = 1e-9
ATOL = 1e-10
METADATA_RTOL = 1e-10
# Slack on the Chebyshev certified bound, for rounding in both computations.
BOUND_SLACK = 1e-9

_MASK64 = (1 << 64) - 1


def seeded_signal(seed: int, count: int) -> np.ndarray:
    """The CLI's documented ``--seed`` signal: splitmix64 words, top 53 bits
    scaled to [0, 10) and rounded to 2 decimals."""
    state = seed & _MASK64
    values = np.empty(count)
    for i in range(count):
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        z ^= z >> 31
        values[i] = round((z >> 11) * 2.0**-53 * 10.0, 2)
    return values


def _cycle(p: int) -> tuple[np.ndarray, np.ndarray, float]:
    transition = np.zeros((p, p))
    idx = np.arange(p)
    transition[idx, (idx + 1) % p] = 0.5
    transition[idx, (idx - 1) % p] = 0.5
    return transition, np.full(p, 1.0 / p), 8.0 * p / ((p - 1) ** 2 * (p + 1))


def _glauber(p: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Heat-bath dynamics on the uniform Ising ring, states as bitmasks."""
    beta, coupling = GLAUBER_BETA, GLAUBER_COUPLING
    n = 1 << p
    states = np.arange(n)
    spins = np.where((states[:, None] >> np.arange(p)[None, :]) & 1, 1.0, -1.0)
    left, right = np.roll(spins, 1, axis=1), np.roll(spins, -1, axis=1)
    fields = coupling * (left + right)  # local field at each site
    energies = -coupling * np.sum(spins * right, axis=1)
    weights = np.exp(-beta * (energies - energies.min()))
    pi = weights / weights.sum()
    # heat bath: the site takes spin s with probability e^{beta s h} / (2 cosh(beta h))
    flip = 1.0 / (p * (1.0 + np.exp(2.0 * beta * spins * fields)))
    transition = np.zeros((n, n))
    for w in range(p):
        transition[states, states ^ (1 << w)] = flip[:, w]
    transition[states, states] = 1.0 - flip.sum(axis=1)
    # the band matrix is circulant with off-diagonals tanh(2 beta J)/2, so gamma_1 = tanh(2 beta J)
    return transition, pi, (1.0 - np.tanh(2.0 * beta * coupling)) / p


@dataclass(frozen=True)
class Expected:
    """The table a correct run must print, with what the checks need."""

    lambda_low: float
    pi_f: float
    cells: np.ndarray  # (k_max, 4) max abs errors, columns in FILTERS order
    spread: float  # max |f - pi(f)|
    chebyshev_bound: np.ndarray  # (k_max,) certified bound on each Chebyshev cell


def responses(z: np.ndarray, k_max: int, lambda_low: float) -> np.ndarray:
    """Frequency responses, shape (len(z), k_max, 4), at degrees 1..k_max."""
    z = np.clip(z, 0.0, 2.0)
    degrees = np.arange(1, k_max + 1)
    out = np.empty((z.size, k_max, 4))

    powers = (1.0 - z)[:, None] ** np.arange(k_max + 1)[None, :]
    out[:, :, 0] = np.cumsum(powers, axis=1)[:, 1:] / (degrees + 1)

    half = z / 2.0
    for j, k in enumerate(degrees):
        # the triangle weight g(2l/K) vanishes from 2l/K >= lambda_low on
        ls = np.arange(k + 1)
        weights = np.maximum(0.0, 1.0 - (2.0 * ls / k) / lambda_low)
        ls, weights = ls[weights > 0], weights[weights > 0]
        binom = np.array([float(comb(int(k), int(l))) for l in ls])
        terms = binom * half[:, None] ** ls * (1.0 - half[:, None]) ** (k - ls)
        out[:, j, 1] = terms @ weights

    mapped = (2.0 * z - 2.0 - lambda_low) / (2.0 - lambda_low)
    m0 = -(2.0 + lambda_low) / (2.0 - lambda_low)
    cheb = chebyshev.chebvander(mapped, k_max)
    cheb0 = chebyshev.chebvander(np.array([m0]), k_max)[0]
    out[:, :, 2] = cheb[:, 1:] / cheb0[1:]

    leg = legendre.legvander(mapped, k_max)
    leg0 = legendre.legvander(np.array([m0]), k_max)[0]
    scale = 2.0 * np.arange(k_max + 1) + 1.0
    numer = np.cumsum(leg * (scale * leg0)[None, :], axis=1)
    denom = np.cumsum(scale * leg0 * leg0)
    out[:, :, 3] = numer[:, 1:] / denom[1:]
    return out


def expected_table(variant: Variant) -> Expected:
    """Rebuild the whole table for one command line from first principles."""
    build = _cycle if variant.experiment == "cycle-walk" else _glauber
    transition, pi, lambda_low = build(variant.p)
    signal = seeded_signal(variant.signal_seed, variant.n)

    d = np.sqrt(pi)
    sym = d[:, None] * (np.eye(variant.n) - transition) / d[None, :]
    eigenvalues, vectors = np.linalg.eigh(0.5 * (sym + sym.T))
    # the Glauber edge is tight: its gap equals lambda_low up to rounding
    if abs(eigenvalues[0]) > 1e-10 or eigenvalues[1] < lambda_low - 1e-10:
        raise ValueError("oracle chain has no simple zero eigenvalue above the stopband edge")

    pi_f = float(pi @ signal)
    coeffs = vectors.T @ (d * signal)
    # every filter passes frequency 0 with gain exactly 1, so the deviation from
    # the mean lives entirely on the nonzero frequencies
    resp = responses(eigenvalues[1:], variant.k_max, lambda_low)
    weighted = resp.reshape(variant.n - 1, -1) * coeffs[1:, None]
    deviation = (vectors[:, 1:] @ weighted) / d[:, None]
    cells = np.abs(deviation).max(axis=0).reshape(variant.k_max, 4)

    centred = signal - pi_f
    pi_norm = float(np.sqrt(pi @ (centred * centred)))
    m0 = (2.0 + lambda_low) / (2.0 - lambda_low)
    t_at_zero = np.cosh(np.arange(1, variant.k_max + 1) * np.arccosh(m0))
    bound = pi_norm / (t_at_zero * np.sqrt(pi.min()))
    return Expected(lambda_low, pi_f, cells, float(np.abs(centred).max()), bound)


@dataclass
class Table:
    """A parsed program output."""

    lambda_low: float
    pi_f: float
    degrees: list[int]
    cells: np.ndarray  # (rows, 4)
    metadata: dict


def parse_output(text: str, as_json: bool) -> Table:
    """Parse CSV (comment line, header, rows) or JSON output; raises ValueError."""
    if as_json:
        doc = json.loads(text)
        meta = doc["metadata"]
        rows = doc["rows"]
        degrees = [row["degree"] for row in rows]
        cells = np.array([[row[name] for name in FILTERS] for row in rows], dtype=float)
        return Table(float(meta["lambda_low"]), float(meta["pi_f"]), degrees, cells, meta)
    lines = text.splitlines()
    if len(lines) < 3 or not lines[0].startswith("# "):
        raise ValueError("CSV output lacks its metadata comment, header or rows")
    meta = dict(item.strip().split("=", 1) for item in lines[0][2:].split(","))
    if lines[1] != "degree," + ",".join(FILTERS):
        raise ValueError(f"unexpected CSV header {lines[1]!r}")
    rows = [line.split(",") for line in lines[2:]]
    if any(len(row) != 5 for row in rows):
        raise ValueError("CSV row without exactly five fields")
    degrees = [int(row[0]) for row in rows]
    cells = np.array([[float(v) for v in row[1:]] for row in rows])
    return Table(float(meta["lambda_low"]), float(meta["pi_f"]), degrees, cells, meta)


def check_table(table: Table, variant: Variant, want: Expected) -> list[str]:
    """Every mismatch between a parsed table and the oracle; empty when correct."""
    problems = []
    if table.degrees != list(range(1, variant.k_max + 1)):
        return [f"degrees {table.degrees[:3]}... are not 1..{variant.k_max}"]
    if "experiment" in table.metadata:
        meta = table.metadata
        if (meta["experiment"], meta["p"], meta["k_max"]) != (variant.experiment, variant.p, variant.k_max):
            problems.append(f"JSON metadata names another run: {meta}")
    for name, got, ref in (("lambda_low", table.lambda_low, want.lambda_low), ("pi_f", table.pi_f, want.pi_f)):
        if not abs(got - ref) <= METADATA_RTOL * abs(ref):
            problems.append(f"{name} {got!r} != oracle {ref!r}")
    if not np.all(np.isfinite(table.cells)):
        problems.append("non-finite cell")
        return problems
    error = np.abs(table.cells - want.cells)
    limit = RTOL * np.abs(want.cells) + ATOL * want.spread
    for row, col in zip(*np.nonzero(~(error <= limit))):
        problems.append(
            f"degree {row + 1} {FILTERS[col]}: {table.cells[row, col]!r} != oracle {want.cells[row, col]!r}"
        )
    cheb = table.cells[:, FILTERS.index("chebyshev")]
    over = cheb > want.chebyshev_bound * (1.0 + BOUND_SLACK)
    for row in np.nonzero(over)[0]:
        problems.append(
            f"degree {row + 1} chebyshev {cheb[row]!r} exceeds certified bound {want.chebyshev_bound[row]!r}"
        )
    return problems


def check_output(text: str, variant: Variant, want: Expected) -> list[str]:
    try:
        table = parse_output(text, variant.json)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unparseable output: {exc!r}"]
    return check_table(table, variant, want)

