"""Tests for the one-pass degree sweep: every filter's sweep, run alone by
``filters._errors``, equals its per-degree ``*_apply``, Bernstein matches the
dense de Casteljau recursion, a degree-100 ``error_table`` matches an
independent spectral reference, each of its rows is bitwise its sweep run
alone, and a sweep to ``k_max`` costs the stated number of applications of
the chain's operators."""

import dataclasses
from decimal import Decimal
from math import ceil, sqrt

import numpy as np
import pytest

from ergofilt import chains, cli, filters, harness, markov

import exact_references

K_SWEEP = 30
K_BERNSTEIN = 200
BERNSTEIN_DEGREES = (1, 2, 3, 5, 8, 13, 30, 64, 100, 155, 199, 200)


def _signal(chain):
    return harness.CYCLE_REFERENCE_SIGNAL if chain.n == 11 else harness.GLAUBER_REFERENCE_SIGNAL


def _lambdas(chain):
    return (chain.lambda_low, 0.5, 1.9)


def _sweep(chain, f, k_max, name, lambda_low=None):
    """The errors of filter ``name`` at degrees 1..k_max, its sweep run alone;
    the running average takes no ``lambda_low``."""
    args = () if name == "ergodic" else (lambda_low,)
    return filters._errors(chain, f, k_max, ((name, getattr(filters, f"_{name}_steps"), args),))[0][0]


def _spread(chain, f):
    return float(np.abs(f - markov.pi_expectation(f, chain)).max())


def de_casteljau_bernstein(chain, f, K, lambda_low):
    """Reference: the dense de Casteljau recursion over all K + 1 control
    signals, blending neighbors with the n-by-n ``I - L/2`` and ``L/2``."""
    values = np.asarray(f, dtype=float)
    if K == 0:
        return values.copy()
    laplacian = np.eye(chain.n) - exact_references.dense_transition(chain)
    blend_lo = np.eye(chain.n) - laplacian / 2.0
    blend_hi = laplacian / 2.0
    weights = filters.triangle(2.0 * np.arange(K + 1) / K, lambda_low)
    columns = values[:, None] * weights[None, :]
    for _ in range(K):
        columns = blend_lo @ columns[:, :-1] + blend_hi @ columns[:, 1:]
    return columns[:, 0]


@dataclasses.dataclass(frozen=True)
class CountingChain(markov.ChainModel):
    """A chain whose ``affine`` operators add one to ``tally[0]`` per
    application: every product a filter takes with P, L or a map of L."""

    tally: list = dataclasses.field(default_factory=lambda: [0])

    def affine(self, a, b):
        apply = super().affine(a, b)

        def counted(v):
            self.tally[0] += 1
            return apply(v)

        return counted


def _counting(chain):
    """The chain with counting operators, and their shared tally."""
    fields = {f.name: getattr(chain, f.name) for f in dataclasses.fields(chain)}
    counting = CountingChain(**fields)
    return counting, counting.tally


def _bernstein_products(k_max, lambda_low):
    cap = ceil(k_max * lambda_low / 2.0) - 1
    return sum(min(k, cap) + 1 for k in range(1, k_max + 1))


# ---------------------------------------------------------------------------
# the sweep equals per-degree apply
# ---------------------------------------------------------------------------


def test_ergodic_sweep_equals_apply(cycle_chain, glauber_chain):
    for chain in (cycle_chain, glauber_chain):
        f = _signal(chain)
        errors = _sweep(chain, f, K_SWEEP, "ergodic")
        assert len(errors) == K_SWEEP
        for k in range(1, K_SWEEP + 1):
            out = filters.ergodic_apply(chain, f, k + 1)
            assert errors[k - 1] == exact_references.max_abs_error(out, f, chain.pi)


@pytest.mark.parametrize("name", ["bernstein", "chebyshev", "legendre"])
def test_polynomial_sweep_equals_apply(name, cycle_chain, glauber_chain):
    apply = getattr(filters, f"{name}_apply")
    for chain in (cycle_chain, glauber_chain):
        f = _signal(chain)
        for lam in _lambdas(chain):
            errors = _sweep(chain, f, K_SWEEP, name, lam)
            assert len(errors) == K_SWEEP
            for k in range(1, K_SWEEP + 1):
                out = apply(chain, f, k, lam)
                assert errors[k - 1] == exact_references.max_abs_error(out, f, chain.pi), (lam, k)


def test_bernstein_matches_de_casteljau(cycle_chain, glauber_chain):
    for chain in (cycle_chain, glauber_chain):
        f = _signal(chain)
        tol = 1e-13 * _spread(chain, f)
        for lam in _lambdas(chain):
            errors = _sweep(chain, f, K_BERNSTEIN, "bernstein", lam)
            for K in range(1, K_BERNSTEIN + 1):
                want = exact_references.max_abs_error(de_casteljau_bernstein(chain, f, K, lam), f, chain.pi)
                assert abs(errors[K - 1] - want) <= tol, (lam, K)
            for K in BERNSTEIN_DEGREES:
                got = filters.bernstein_apply(chain, f, K, lam)
                assert np.abs(got - de_casteljau_bernstein(chain, f, K, lam)).max() <= tol, (lam, K)


def test_sweeps_reject_bad_input(cycle_chain):
    f = harness.CYCLE_REFERENCE_SIGNAL
    with pytest.raises(ValueError):
        filters.error_table(cycle_chain, f, -1, 0.5)
    with pytest.raises(ValueError):
        filters.error_table(cycle_chain, np.ones(4), 3, 0.5)
    table, _ = filters.error_table(cycle_chain, f, 0, 0.5)
    assert table.shape == (4, 0)


def test_error_table_judges_gap_bound_before_any_product(cycle_chain):
    # the gap bound is judged once, before the running average's k_max
    # products as well as the three polynomial sweeps'
    chain, tally = _counting(cycle_chain)
    with pytest.raises(ValueError, match=r"lambda_low must lie in \(0, 2\), got 5.0"):
        filters.error_table(chain, harness.CYCLE_REFERENCE_SIGNAL, 20, 5.0)
    assert tally[0] == 0


@pytest.mark.filterwarnings("error")
def test_sweep_failure_names_the_degree(cycle_chain):
    # f is swept as 2^-1024 f, whose mean is 0.05. Each failing output names
    # the filter and the first non-finite degree, with no numpy warning: -2,
    # an error past the float64 maximum once scaled back; one that overflows
    # at unit scale; and NaN; in the first block of 65536 // 11 = 5957 rows
    # or in the rows after it
    f = np.array([1e308, -1e308] * 5 + [1e308])
    zeros, low, nan = np.zeros(11), np.full(11, -2.0), np.full(11, np.nan)

    def steps(chain, values, k_max, outputs):
        assert np.array_equal(values, np.ldexp(f, -1024))
        for out in outputs:
            yield np.full(11, 1e308) * 10.0 if out is None else out

    for outputs, degree in (
        ([zeros, low, zeros], 2),
        ([zeros, zeros, None], 3),
        ([zeros, nan, low], 2),
        ([zeros] * 5957 + [nan], 5958),
        ([zeros] * 5960 + [low], 5961),
    ):
        with pytest.raises(FloatingPointError) as info:
            filters._errors(cycle_chain, f, len(outputs), [("test", steps, (outputs,))])
        assert str(info.value) == f"non-finite test filter error at degree {degree}"
    # in one pass over several sweeps the first failing sweep is named, at its
    # first failing degree, though a later sweep fails at a lower degree
    sweeps = [
        ("first", steps, ([zeros, zeros],)),
        ("second", steps, ([zeros, None],)),
        ("third", steps, ([nan, nan],)),
    ]
    with pytest.raises(FloatingPointError) as info:
        filters._errors(cycle_chain, f, 2, sweeps)
    assert str(info.value) == "non-finite second filter error at degree 2"
    for last in (low, None, nan):
        with pytest.raises(FloatingPointError) as info:
            filters._apply(cycle_chain, f, steps, "test", 3, [zeros, zeros, last])
        assert str(info.value) == "non-finite test filter output at degree 3"


def test_cycle_deep_errors_match_spectral_reference():
    # cycle-walk --p 101 --k-max 100 --seed 1, against responses and an
    # eigendecomposition computed without ``filters``
    chain = chains.build_cycle_walk(101)
    f = harness.generate_signal(1, chain.n)
    lam = chain.lambda_low
    transition = exact_references.dense_transition(chain)
    want = exact_references.spectral_error_table(transition, chain.pi, f, 100, lam)
    table, _ = filters.error_table(chain, f, 100, lam)
    limit = 1e-9 * np.abs(want) + 1e-10 * _spread(chain, f)
    for j, got in enumerate(table):
        assert np.all(np.abs(got - want[:, j]) <= limit[:, j]), harness.FILTER_ORDER[j]


# C of the round-off floor C eps max|f| for each line held to the decimal
# truth, with a margin of 2x over the worst cell measured. On the two long
# 11-cycle golden lines the worst Chebyshev cell measured 20.11 eps max|f| at
# k_max 2000 and 81.10 eps max|f| at lambda_low 1.9, so C = 40 and 160; their
# worst Legendre cells are 11.67 and 5.49. The worst running-average cell is
# 1.7e-11 and 6.6e-14 from its truth, relative: 60x and more inside 1e-9.
# On the K = 20 reference-signal runs of the 11-cycle and the 16-state ring
# every cell lies within 3e-11 of its truth, relative; the worst is 2.03 and
# 2.79 eps max|f| (Legendre), so C = 6. Bernstein's binomial sum takes k + 1
# decimal matvecs at degree k, seconds at k_max 400 and 2000, so the long
# lines leave that column out; at K = 20 its worst cell is 0.87 eps max|f|.
DECIMAL_LINES = {
    "cycle-walk --paper-defaults": 6.0,
    "glauber --paper-defaults": 6.0,
    "cycle-walk --p 11 --k-max 2000 --paper-defaults": 40.0,
    "cycle-walk --p 11 --k-max 400 --lambda-low 1.9 --paper-defaults": 160.0,
}


@pytest.mark.parametrize("line", sorted(DECIMAL_LINES))
def test_lines_match_decimal_truth(line):
    # the rows of the line's error table, each bitwise its sweep run alone,
    # against 60-digit textbook sums and recurrences on the program's own
    # float chain, signal and lambda_low: every cell within
    # max(1e-9 truth, C eps max|f|). On the long lines, past K = 40 the
    # Chebyshev and Legendre truths fall below the floor, to 1.01e-16 from
    # K = 100 on (the float pi sums to 1 - 2.8e-17, so its mean is that far
    # from the float P's stationary mean), and those cells are round-off,
    # held to the floor
    config = cli._config_from_args(cli._parse_args(line.split()))
    chain = harness._build_chain(config)
    f = harness._resolve_signal(config, chain.n)
    lam = chain.lambda_low if config.lambda_low_override is None else config.lambda_low_override
    sweeps = [
        ("ergodic", filters._ergodic_steps, ()),
        ("bernstein", filters._bernstein_steps, (lam,)),
        ("chebyshev", filters._chebyshev_steps, (lam,)),
        ("legendre", filters._legendre_steps, (lam,)),
    ]
    if config.k_max > 20:
        del sweeps[1]
    names = [name for name, _, _ in sweeps]
    table, _ = filters._errors(chain, f, config.k_max, sweeps)
    truths = exact_references.decimal_error_columns(chain, f, config.k_max, lam, names)
    floor = DECIMAL_LINES[line] * np.finfo(float).eps * np.abs(f).max()
    for name, row, truth in zip(names, table.tolist(), truths):
        for K, (cell, exact) in enumerate(zip(row, truth), start=1):
            assert float(abs(Decimal(cell) - exact)) <= max(1e-9 * float(exact), floor), (name, K)
    # the truth is the float64 spectral reference's, within the same bound
    spectral = exact_references.spectral_error_table(exact_references.dense_transition(chain), chain.pi, f, 20, lam)
    for name, truth in zip(names, truths):
        exact = np.array(truth[:20], dtype=float)
        column = spectral[:, harness.FILTER_ORDER.index(name)]
        assert np.all(np.abs(column - exact) <= np.maximum(1e-9 * exact, floor)), name


def _random_reversible_chain(rng):
    """A seeded reversible chain on a ring plus random chords (Levin, Peres
    and Wilmer, section 9.1): conductances ``e^N(0, s^2)``, ``s <= 3``,
    ``P(x, y) = (1 - a) c(x, y) / c(x)`` with laziness ``a`` in [0, 0.5],
    ``pi(x) = c(x) / sum c``. Returns its dense P and pi, and a neighbour
    table whose rows are padded with the state itself at weight 0 and where
    some neighbours are split into two entries."""
    n = int(rng.integers(3, 31))
    spread = rng.uniform(0.0, 3.0)
    conductance = np.zeros((n, n))
    ends = [(x, (x + 1) % n) for x in range(n)]
    ends += [tuple(rng.choice(n, 2, replace=False)) for _ in range(int(rng.integers(0, n)))]
    for x, y in ends:
        conductance[x, y] = conductance[y, x] = np.exp(spread * rng.standard_normal())
    lazy = rng.uniform(0.0, 0.5)
    total = conductance.sum(axis=1)
    transition = (1.0 - lazy) * conductance / total[:, None] + lazy * np.eye(n)
    rows = []
    for x in range(n):
        entries = [(int(y), transition[x, y]) for y in rng.permutation(np.flatnonzero(conductance[x]))]
        for _ in range(int(rng.integers(0, 3))):
            j = int(rng.integers(len(entries)))
            y, w = entries[j]
            part = w * rng.uniform()
            entries[j : j + 1] = [(y, part), (y, w - part)]
        entries += [(x, 0.0)] * int(rng.integers(0, 3))
        rows.append([(x, lazy)] + [entries[j] for j in rng.permutation(len(entries))])
    width = max(len(row) for row in rows)
    rows = [row + [(x, 0.0)] * (width - len(row)) for x, row in enumerate(rows)]
    table = np.array(rows)
    return transition, total / total.sum(), table[:, :, 0].astype(int), table[:, :, 1]


def _random_runs():
    """100 seeded random reversible chains, each with its dense P, a gap
    bound ``lambda_low`` between half the gap and the gap, and a signal."""
    rng = np.random.default_rng(20260)
    for _ in range(100):
        transition, pi, neighbors, weights = _random_reversible_chain(rng)
        root = np.sqrt(pi)
        laplacian = root[:, None] * (np.eye(pi.size) - transition) / root[None, :]
        gap = np.linalg.eigvalsh(0.5 * (laplacian + laplacian.T))[1]
        chain = markov.ChainModel(neighbors, weights, pi, gap * rng.uniform(0.5, 1.0))
        yield transition, chain, rng.standard_normal(chain.n) * 10.0 ** rng.uniform(-3.0, 3.0)


def test_random_reversible_chains_match_spectral_reference(monkeypatch):
    # padded rows and repeated entries: the pair-by-pair check admits every
    # chain, each column of a k_max = 20 run equals the eigendecomposition's,
    # and Chebyshev meets its minimax bound and Bernstein criterion 06's
    # 1.5 min(1, 2 / (sqrt(K) lambda_low)) at every degree
    calls = []
    pair_imbalance = markov._pair_imbalance

    def counted(*args):
        calls.append(True)
        return pair_imbalance(*args)

    monkeypatch.setattr(markov, "_pair_imbalance", counted)
    for trial, (transition, chain, f) in enumerate(_random_runs()):
        pi, lam = chain.pi, chain.lambda_low
        assert len(calls) == trial + 1
        want = exact_references.spectral_error_table(transition, pi, f, 20, lam)
        columns = filters.error_table(chain, f, 20, lam)[0].T
        centred = f - pi @ f
        assert np.abs(columns - want).max() <= 1e-10 * np.abs(centred).max(), trial
        bound = np.sqrt(pi @ (centred * centred) / pi.min())
        for K in range(1, 21):
            assert columns[K - 1, 2] <= abs(filters.chebyshev_scalar(2.0, K, lam)) * bound, (trial, K)
            assert columns[K - 1, 1] <= 1.5 * min(1.0, 2.0 / (sqrt(K) * lam)) * bound, (trial, K)


def _run_columns(config):
    """The run's table and pi(f), and each filter's sweep, run alone on the
    chain and signal the run reads, as a column, with ``markov.pi_expectation``."""
    table, metadata = harness.run_experiment(config)
    chain = harness._build_chain(config)
    f = harness._resolve_signal(config, chain.n)
    lam = metadata.lambda_low
    columns = np.array([
        _sweep(chain, f, config.k_max, name, lam)
        for name in harness.FILTER_ORDER
    ]).T
    return table, metadata.pi_f, columns, markov.pi_expectation(f, chain)


def _bitwise(a, b):
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


def test_run_table_is_the_error_columns(monkeypatch):
    # the run's one pass gives each filter's sweep run alone and pi_expectation
    # bitwise: the bundled chains at several signals, degrees and bounds, and
    # the 100 random reversible chains
    configs = [
        harness.ExperimentConfig(experiment=experiment, p=p, k_max=k_max, **source)
        for experiment, p in (("cycle-walk", 11), ("glauber", 4), ("cycle-walk", 101))
        for k_max in (1, 20, 100)
        for source in ({"seed": 7}, {"seed": 2, "lambda_low_override": 1.9})
    ]
    configs += [
        harness.ExperimentConfig(experiment=e, p=p, k_max=20, use_reference_signal=True)
        for e, p in (("cycle-walk", 11), ("glauber", 4))
    ]
    for config in configs:
        table, pi_f, columns, mean = _run_columns(config)
        assert _bitwise(table, columns) and _bitwise(pi_f, mean), config
    for trial, (_, chain, f) in enumerate(_random_runs()):
        monkeypatch.setattr(harness, "_build_chain", lambda config: chain)
        config = harness.ExperimentConfig(experiment="cycle-walk", p=chain.n, k_max=20, signal=f)
        table, pi_f, columns, mean = _run_columns(config)
        assert _bitwise(table, columns) and _bitwise(pi_f, mean), trial


def test_ergodic_row_ignores_lambda_low(cycle_chain, glauber_chain):
    # error_table is the one reader of the running average's errors, and it
    # always takes a gap bound; the running average reads none
    for chain in (cycle_chain, glauber_chain):
        f = _signal(chain)
        low, _ = filters.error_table(chain, f, K_SWEEP, 0.5)
        high, _ = filters.error_table(chain, f, K_SWEEP, 1.9)
        assert _bitwise(low[0], high[0]), chain.n
        assert not np.array_equal(low[1:], high[1:]), chain.n


# ---------------------------------------------------------------------------
# products with the chain's operators
# ---------------------------------------------------------------------------


def test_sweep_matvec_counts(cycle_chain, glauber_chain):
    for fixture in (cycle_chain, glauber_chain):
        chain, tally = _counting(fixture)
        f = _signal(chain)
        _sweep(chain, f, K_SWEEP, "ergodic")
        assert tally[0] == K_SWEEP
        for lam in _lambdas(chain):
            for name, products in (
                ("chebyshev", K_SWEEP),
                ("legendre", K_SWEEP),
                ("bernstein", _bernstein_products(K_SWEEP, lam)),
            ):
                tally[0] = 0
                _sweep(chain, f, K_SWEEP, name, lam)
                assert tally[0] == products, (name, lam)


def test_apply_matvec_counts(cycle_chain):
    chain, tally = _counting(cycle_chain)
    f = harness.CYCLE_REFERENCE_SIGNAL
    for K in (0, 1, 7, 20):
        for apply, products in (
            (lambda: filters.ergodic_apply(chain, f, K + 1), K),
            (lambda: filters.chebyshev_apply(chain, f, K, 0.5), K),
            (lambda: filters.legendre_apply(chain, f, K, 0.5), K),
            (lambda: filters.bernstein_apply(chain, f, K, 0.5), _bernstein_products(K, 0.5)),
        ):
            tally[0] = 0
            apply()
            assert tally[0] == products, K


def test_cycle_deep_run_takes_k_max_products_per_filter(monkeypatch):
    # cycle-walk --p 101 --k-max 100: the last nonzero control point is c = 0
    chain, tally = _counting(chains.build_cycle_walk(101))
    f = harness.generate_signal(1, chain.n)
    lam = chain.lambda_low
    assert _bernstein_products(100, lam) == 100
    for name in harness.FILTER_ORDER:
        tally[0] = 0
        _sweep(chain, f, 100, name, lam)
        assert tally[0] == 100, name

    monkeypatch.setattr(harness, "_build_chain", lambda config: chain)
    tally[0] = 0
    harness.run_experiment(
        harness.ExperimentConfig(experiment="cycle-walk", p=101, k_max=100, seed=1)
    )
    assert tally[0] == 4 * 100
