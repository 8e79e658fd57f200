"""Tests for the per-run work hoisted out of the degree loops and the CLI.

The Bernstein sweep computes the triangle weights of each degree as Python
floats; they must equal ``triangle``'s bitwise, and its per-degree loop with
``triangle`` weights is kept here as a reference, which every output must
match bitwise. A run's one error pass, ``filters.error_table``, judges the
signal once for all four filters, reads their sweeps as one stream and
reduces the outputs a block at a time; the per-degree reduction is kept here
as a reference, and every error of a sweep run alone by the same pass,
``filters._errors``, or of the four run together, must equal it whatever the
block size. The Chebyshev and Legendre sweeps carry
only bounded ratios as Python floats; the recursions they replaced, which
first build the geometrically growing tables ``T_k(m0)`` and
``S_k = sum L~_k(0)^2``, are kept here as references. A ratio recurrence
rounds differently, so those outputs must match to 1e-13 wherever the
reference tables are finite, and stay finite far past the degree where the
tables overflow. The CLI builds its argument parsers once per process; runs
in one process must print what fresh processes print.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ergofilt
from ergofilt import cli, filters, harness, markov
from ergofilt.cli import cli_main

K_MAX = 40


def _signal(chain):
    return harness.CYCLE_REFERENCE_SIGNAL if chain.n == 11 else harness.GLAUBER_REFERENCE_SIGNAL


def _errors(chain, f, steps):
    """Max-abs errors at degrees 1, 2, ..., one output at a time."""
    target = markov.pi_expectation(f, chain)
    return [float(np.abs(out - target).max()) for out in steps]


def _sweep(chain, f, k_max, name, *args):
    """Filter ``name``'s errors at degrees 1..k_max, its sweep run alone by
    the run's error pass."""
    return filters._errors(chain, f, k_max, ((name, getattr(filters, f"_{name}_steps"), args),))[0][0].tolist()


# ---------------------------------------------------------------------------
# references: the per-degree loops
# ---------------------------------------------------------------------------


def reference_bernstein_steps(chain, f, K, lambda_low):
    """Pascal recurrence with the triangle weights recomputed at every degree."""
    values = np.asarray(f, dtype=float)
    if K == 0:
        return
    cap = np.count_nonzero(filters.triangle(2.0 * np.arange(K + 1) / K, lambda_low)) - 1
    half_laplacian = chain.affine(0.5, 0.0)
    basis = [values]
    for k in range(1, K + 1):
        if k <= cap:
            basis.append(np.zeros(chain.n))
        for l in range(len(basis) - 1, -1, -1):
            below = basis[l - 1] if l else 0.0
            basis[l] = basis[l] - half_laplacian(basis[l] - below)
        weights = filters.triangle(2.0 * np.arange(len(basis)) / k, lambda_low)
        yield sum(weights[l] * basis[l] for l in range(np.count_nonzero(weights)))


def _m0(lambda_low):
    return -(2.0 + lambda_low) / (2.0 - lambda_low)


def _legendre_factors(n):
    a_next = np.sqrt(2.0 * (n + 1) ** 2 / (2 * n + 3))
    b = np.sqrt(2.0 * (2 * n + 1))
    a = np.sqrt(2.0 * n**2 / (2 * n - 1))
    return a_next, b, a


def reference_chebyshev_at_zero(K, lambda_low):
    """``T_k(m0)``, k = 0..K, in numpy scalars one degree at a time."""
    m0 = _m0(lambda_low)
    seq = np.empty(K + 1)
    seq[0] = 1.0
    if K >= 1:
        seq[1] = m0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, K):
            seq[k + 1] = 2.0 * m0 * seq[k] - seq[k - 1]
    return seq


def reference_legendre_at_zero(K, lambda_low):
    """``L~_k(0)`` and ``S_k``, k = 0..K, in numpy scalars one degree at a time."""
    scale = np.sqrt(2.0 / (2.0 - lambda_low))
    m0 = _m0(lambda_low)
    seq = np.empty(K + 1)
    seq[0] = scale * np.sqrt(0.5)
    if K >= 1:
        seq[1] = scale * np.sqrt(1.5) * m0
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, K):
            a_next, b, a = _legendre_factors(n)
            seq[n + 1] = (b * m0 * seq[n] - a * seq[n - 1]) / a_next
        partial = np.cumsum(seq * seq)
    return seq, partial


def reference_chebyshev_steps(chain, f, K, lambda_low):
    """Three-term recursion with its two ratios recomputed at every step."""
    values = np.asarray(f, dtype=float)
    at_zero = reference_chebyshev_at_zero(K, lambda_low)
    prev = values.copy()
    if K == 0:
        return
    mapped = chain.affine(2.0 / (2.0 - lambda_low), _m0(lambda_low))
    curr = mapped(values) / at_zero[1]
    yield curr
    for k in range(1, K):
        alpha = at_zero[k] / at_zero[k + 1]
        beta = at_zero[k - 1] / at_zero[k + 1]
        prev, curr = curr, 2.0 * alpha * mapped(curr) - beta * prev
        yield curr


def reference_legendre_steps(chain, f, K, lambda_low):
    """Coupled recursion with its factors, carry and weight recomputed at
    every step."""
    values = np.asarray(f, dtype=float)
    at_zero, partial = reference_legendre_at_zero(K, lambda_low)
    scale = np.sqrt(2.0 / (2.0 - lambda_low))
    prev = scale * np.sqrt(0.5) * values
    result = (at_zero[0] / partial[0]) * prev
    if K == 0:
        return
    mapped = chain.affine(2.0 / (2.0 - lambda_low), _m0(lambda_low))
    curr = scale * np.sqrt(1.5) * mapped(values)
    for k in range(K):
        if k >= 1:
            a_next, b, a = _legendre_factors(k)
            prev, curr = curr, (b * mapped(curr) - a * prev) / a_next
        carry = partial[k] / partial[k + 1]
        weight = at_zero[k + 1] / partial[k + 1]
        result = carry * result + weight * curr
        yield result


REFERENCES = {
    "bernstein": reference_bernstein_steps,
    "chebyshev": reference_chebyshev_steps,
    "legendre": reference_legendre_steps,
}


# ---------------------------------------------------------------------------
# bitwise equality with the references
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(REFERENCES))
def test_sweep_errors_bitwise_equal_reference(cycle_chain, glauber_chain, name):
    # at lambda_low 0.5 and 1.9 the Bernstein weight table has degrees k < c,
    # whose entries l > k lie outside the band and are masked; the Chebyshev
    # and Legendre ratio recurrences round differently from the references,
    # so they are held to 1e-13 max|f - pi(f)| instead of bitwise
    for chain in (cycle_chain, glauber_chain):
        f = _signal(chain)
        tol = 0.0 if name == "bernstein" else 1e-13 * np.abs(f - markov.pi_expectation(f, chain)).max()
        for lam in (chain.lambda_low, 0.5, 1.9):
            for k_max in range(1, K_MAX + 1):
                want = _errors(chain, f, REFERENCES[name](chain, f, k_max, lam))
                got = _sweep(chain, f, k_max, name, lam)
                assert np.abs(np.subtract(got, want)).max() <= tol, (chain.n, lam, k_max)


# lambda_low: the fixture chains' own, and 0.5 and 1.5, which have exact
# ties 2l/k = lambda_low (l = 1 and 3 at k = 4) whose weight is 0
@pytest.mark.parametrize("lam_id", ["cycle", "glauber", "0.5", "1.5", "1.9"])
def test_bernstein_control_weights_bitwise_equal_triangle(cycle_chain, glauber_chain, lam_id):
    # the degree loop's Python-float weights, and so c at degree K, are the
    # nonzero prefix of triangle(2l/k) for every degree up to 2000, and the
    # sweep's errors are the per-degree reference's
    own = {"cycle": cycle_chain.lambda_low, "glauber": glauber_chain.lambda_low}
    lam = own[lam_id] if lam_id in own else float(lam_id)
    for k in range(1, 2001):
        table = filters.triangle(2.0 * np.arange(k + 1) / k, lam)
        count = np.count_nonzero(table)
        assert not table[count:].any(), (lam, k)
        got = filters._control_weights(k, lam)
        assert got == table[:count].tolist() and got[0] == 1.0, (lam, k)
    assert filters._control_weights(4, 0.5) == [1.0]
    assert filters._control_weights(4, 1.5) == [1.0, 1.0 - 0.5 / 1.5, 1.0 - 1.0 / 1.5]
    for chain, k_max in ((cycle_chain, 200), (glauber_chain, K_MAX)):
        f = _signal(chain)
        want = _errors(chain, f, reference_bernstein_steps(chain, f, k_max, lam))
        assert _sweep(chain, f, k_max, "bernstein", lam) == want, (chain.n, lam)


def test_bernstein_one_basis_signal_computes_no_weights(monkeypatch, capsys):
    # on the 101-cycle at K = 100, c = 0: the sweep carries b_{k,0} alone,
    # and only the cap computes weights, not each of the 100 degrees
    calls = []
    control_weights = filters._control_weights

    def counted(k, lambda_low):
        calls.append(k)
        return control_weights(k, lambda_low)

    monkeypatch.setattr(filters, "_control_weights", counted)
    assert cli_main(["cycle-walk", "--p", "101", "--k-max", "100", "--seed", "1"]) == 0
    assert capsys.readouterr().out
    assert calls == [100]


FILTER_NAMES = ("ergodic", "bernstein", "chebyshev", "legendre")


def _sweeps(chain, f, k_max, lam):
    """Each filter's errors, its sweep run alone, and the per-degree reference
    errors of the same sweep generator."""
    for name in FILTER_NAMES:
        args = () if name == "ergodic" else (lam,)
        got = _sweep(chain, f, k_max, name, *args)
        want = _errors(chain, f, getattr(filters, f"_{name}_steps")(chain, f, k_max, *args))
        yield name, got, want


ERROR_BLOCKS = {
    "1": lambda n: 1,
    "n-1": lambda n: n - 1,
    "n": lambda n: n,
    "n+1": lambda n: n + 1,
    "2n+1": lambda n: 2 * n + 1,
    "10n": lambda n: 10 * n,
}


@pytest.mark.parametrize("entries", sorted(ERROR_BLOCKS))
def test_error_blocks_equal_per_degree_reduction(monkeypatch, cycle_chain, glauber_chain, entries):
    # one row per block (1 to 2n - 1 entries), blocks of 2 and 10 rows, and
    # more rows than a sweep has degrees (10n at k_max = 1); k_max = 37
    # leaves a part-filled last block. The blocks are seen through _reduce_block
    shapes = []
    reduce = filters._reduce_block

    def spy(block, *args):
        shapes.append(block.shape)
        return reduce(block, *args)

    monkeypatch.setattr(filters, "_reduce_block", spy)
    for chain in (cycle_chain, glauber_chain):
        n = chain.n
        block = ERROR_BLOCKS[entries](n)
        monkeypatch.setattr(filters, "_ERROR_BLOCK", block)
        f = _signal(chain)
        for k_max in (K_MAX, 37, 1):
            sweeps = 0
            for lam in (chain.lambda_low, 1.9):
                for name, got, want in _sweeps(chain, f, k_max, lam):
                    assert len(got) == k_max and got == want, (name, n, block, k_max, lam)
                    sweeps += 1
            rows = max(1, block // n)
            full, last = divmod(k_max, rows)
            blocks = [(rows, n)] * full + [(last, n)] * (last > 0)
            assert shapes == blocks * sweeps, (n, block, k_max)
            assert rows * n <= max(n, block)
            shapes.clear()


@pytest.mark.parametrize("rows", [3, 7, 10, 30])
def test_four_sweep_blocks_straddle_sweeps(monkeypatch, cycle_chain, glauber_chain, rows):
    # error_table reads its four sweeps as one stream: blocks of 3 or 7 rows
    # at k_max = 20 end inside a sweep and take the next sweep's first
    # outputs. Each row is still bitwise its sweep's one-sweep pass and the
    # per-degree reduction, and no block holds more outputs than one sweep
    # yields (30 rows are cut to k_max)
    sizes = []
    reduce = filters._reduce_block

    def spy(block, *args):
        sizes.append(block.shape[0])
        return reduce(block, *args)

    monkeypatch.setattr(filters, "_reduce_block", spy)
    for chain in (cycle_chain, glauber_chain):
        f = _signal(chain)
        monkeypatch.setattr(filters, "_ERROR_BLOCK", rows * chain.n)
        for k_max in (20, 7):
            for lam in (chain.lambda_low, 1.9):
                sizes.clear()
                table, _ = filters.error_table(chain, f, k_max, lam)
                full = min(k_max, rows)
                assert sizes[:-1] == [full] * (len(sizes) - 1) and 0 < sizes[-1] <= full, (chain.n, rows, k_max)
                assert sum(sizes) == len(FILTER_NAMES) * k_max
                for row, (name, got, want) in zip(table.tolist(), _sweeps(chain, f, k_max, lam)):
                    assert row == got == want, (name, chain.n, rows, k_max, lam)


LONG_SWEEP = 10**4
TABLES = {
    "chebyshev": reference_chebyshev_at_zero,
    "legendre": lambda K, lam: reference_legendre_at_zero(K, lam)[1],
}


@pytest.mark.filterwarnings("error")
def test_long_sweeps_finite_and_match_reference(cycle_chain, glauber_chain):
    # the reference tables overflow on the 11-cycle at degree 1832 (Chebyshev)
    # and 916 (Legendre), at lambda_low 1.9 at 164 and 82; the ratio sweeps
    # stay finite to degree 10^4 and match the references below the overflow
    for name in sorted(TABLES):
        steps = getattr(filters, f"_{name}_steps")
        for chain in (cycle_chain, glauber_chain):
            f = _signal(chain)
            for lam in (chain.lambda_low, 1.9):
                assert np.all(np.isfinite(_sweep(chain, f, LONG_SWEEP, name, lam))), (name, chain.n, lam)
                with np.errstate(over="ignore", invalid="ignore"):
                    overflow = np.flatnonzero(~np.isfinite(TABLES[name](LONG_SWEEP, lam)))
                assert overflow.size, (name, chain.n, lam)
                k_ref = int(overflow[0]) - 1
                pairs = zip(steps(chain, f, k_ref, lam), REFERENCES[name](chain, f, k_ref, lam))
                for k, (got, want) in enumerate(pairs, start=1):
                    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), (name, chain.n, lam, k)


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------


def _fresh_process(argv):
    src = str(Path(ergofilt.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path, "COLUMNS": "80"}
    return subprocess.run(
        [sys.executable, "-m", "ergofilt.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )


def test_sweeps_reduce_no_empty_block(monkeypatch):
    # k_max is at most the error block's _ERROR_BLOCK // n rows on the
    # paper's sizes, so in a run's one pass each filter's sweep reduces its
    # outputs once, at the end, in a block of its own, and never an empty block
    blocks = []
    reduce = filters._reduce_block

    def recorded(block, *args):
        blocks.append(block.shape[0])
        return reduce(block, *args)

    monkeypatch.setattr(filters, "_reduce_block", recorded)
    for experiment, p in (("cycle-walk", 11), ("glauber", 4)):
        del blocks[:]
        config = harness.ExperimentConfig(
            experiment=experiment, p=p, k_max=20, use_reference_signal=True
        )
        harness.run_experiment(config)
        assert blocks == [20] * len(harness.FILTER_ORDER), (experiment, blocks)


def test_run_judges_its_signal_once(monkeypatch):
    # the run's one pass judges the signal once, for all four filters and
    # for pi(f)
    calls = []
    check_signal = markov.check_signal

    def counted(f, n):
        calls.append(n)
        return check_signal(f, n)

    monkeypatch.setattr(markov, "check_signal", counted)
    for experiment, p, n in (("cycle-walk", 11, 11), ("glauber", 4, 16)):
        for source in ({"use_reference_signal": True}, {"seed": 5}, {"signal": np.arange(n)}):
            del calls[:]
            harness.run_experiment(harness.ExperimentConfig(experiment=experiment, p=p, k_max=20, **source))
            assert calls == [n], (experiment, source)


def test_runs_in_one_process_match_fresh_processes(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # usage text wraps at the terminal width
    sequence = [
        ["glauber", "--beta", "0.7", "--seed", "3", "--json"],
        ["cycle-walk", "--k-max", "many", "--seed", "3"],
        ["cycle-walk", "--seed", "3", "--k-max", "12"],
    ]
    for argv in sequence:
        code = cli_main(argv)
        captured = capsys.readouterr()
        fresh = _fresh_process(argv)
        assert (code, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert [cli_main(argv) for argv in sequence] == [0, 1, 0]


def test_parser_returns_fresh_namespace():
    glauber = cli._PARSER.parse_args(["glauber", "--beta", "0.7", "--seed", "3"])
    cycle = cli._PARSER.parse_args(["cycle-walk", "--seed", "3"])
    assert glauber is not cycle
    assert glauber.beta == 0.7
    assert not hasattr(cycle, "beta")
    assert vars(cycle) == vars(cli.build_parsers()[0].parse_args(["cycle-walk", "--seed", "3"]))
