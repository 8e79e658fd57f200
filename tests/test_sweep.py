"""Tests for the one-pass degree sweep: every filter's ``*_errors`` equals its
per-degree ``*_apply``, Bernstein matches the dense de Casteljau recursion, a
degree-100 sweep matches an independent spectral reference, and a sweep to
``k_max`` costs the stated number of applications of the chain's operators."""

import dataclasses
from math import ceil

import numpy as np
import pytest

from ergofilt import chains, filters, harness, markov

import exact_references

K_SWEEP = 30
K_BERNSTEIN = 200
BERNSTEIN_DEGREES = (1, 2, 3, 5, 8, 13, 30, 64, 100, 155, 199, 200)


def _signal(chain):
    return harness.CYCLE_REFERENCE_SIGNAL if chain.n == 11 else harness.GLAUBER_REFERENCE_SIGNAL


def _lambdas(chain):
    return (chain.lambda_low, 0.5, 1.9)


def _spread(chain, f):
    return float(np.abs(f - markov.pi_expectation(f, chain)).max())


def de_casteljau_bernstein(chain, f, K, lambda_low):
    """Reference: the dense de Casteljau recursion over all K + 1 control
    signals, blending neighbors with the n-by-n ``I - L/2`` and ``L/2``."""
    values = np.asarray(f, dtype=float)
    if K == 0:
        return values.copy()
    laplacian = np.eye(chain.n) - chain.dense_transition()
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
        errors = filters.ergodic_errors(chain, f, K_SWEEP)
        assert len(errors) == K_SWEEP
        for k in range(1, K_SWEEP + 1):
            out = filters.ergodic_apply(chain, f, k + 1)
            assert errors[k - 1] == exact_references.max_abs_error(out, f, chain.pi)


@pytest.mark.parametrize("name", ["bernstein", "chebyshev", "legendre"])
def test_polynomial_sweep_equals_apply(name, cycle_chain, glauber_chain):
    sweep = getattr(filters, f"{name}_errors")
    apply = getattr(filters, f"{name}_apply")
    for chain in (cycle_chain, glauber_chain):
        f = _signal(chain)
        for lam in _lambdas(chain):
            errors = sweep(chain, f, K_SWEEP, lam)
            assert len(errors) == K_SWEEP
            for k in range(1, K_SWEEP + 1):
                out = apply(chain, f, k, lam)
                assert errors[k - 1] == exact_references.max_abs_error(out, f, chain.pi), (lam, k)


def test_bernstein_matches_de_casteljau(cycle_chain, glauber_chain):
    for chain in (cycle_chain, glauber_chain):
        f = _signal(chain)
        tol = 1e-13 * _spread(chain, f)
        for lam in _lambdas(chain):
            errors = filters.bernstein_errors(chain, f, K_BERNSTEIN, lam)
            for K in range(1, K_BERNSTEIN + 1):
                want = exact_references.max_abs_error(de_casteljau_bernstein(chain, f, K, lam), f, chain.pi)
                assert abs(errors[K - 1] - want) <= tol, (lam, K)
            for K in BERNSTEIN_DEGREES:
                got = filters.bernstein_apply(chain, f, K, lam)
                assert np.abs(got - de_casteljau_bernstein(chain, f, K, lam)).max() <= tol, (lam, K)


def test_sweeps_reject_bad_input(cycle_chain):
    f = harness.CYCLE_REFERENCE_SIGNAL
    with pytest.raises(ValueError):
        filters.ergodic_errors(cycle_chain, f, -1)
    for sweep in (filters.bernstein_errors, filters.chebyshev_errors, filters.legendre_errors):
        with pytest.raises(ValueError):
            sweep(cycle_chain, f, 3, 2.0)
        with pytest.raises(ValueError):
            sweep(cycle_chain, np.ones(4), 3, 0.5)
        assert sweep(cycle_chain, f, 0, 0.5) == []


@pytest.mark.filterwarnings("error")
def test_sweep_failure_names_the_degree(cycle_chain):
    # f is swept as 2^-1024 f, whose mean is 0.05. Each failing output names
    # the filter and the first non-finite degree, with no numpy warning: -2,
    # an error past the float64 maximum once scaled back; one that overflows
    # at unit scale; and NaN; in the first buffer of 65536 // 11 = 5957 rows
    # or in the rows after it
    f = np.array([1e308, -1e308] * 5 + [1e308])
    zeros, low, nan = np.zeros(11), np.full(11, -2.0), np.full(11, np.nan)

    def steps(chain, values, k_max, outputs):
        assert np.array_equal(values, np.ldexp(f, -1024))
        yield values
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
            filters._errors(cycle_chain, f, steps, "test", len(outputs), outputs)
        assert str(info.value) == f"non-finite test filter error at degree {degree}"
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
    want = exact_references.spectral_error_table(chain.dense_transition(), chain.pi, f, 100, lam)
    columns = (
        filters.ergodic_errors(chain, f, 100),
        filters.bernstein_errors(chain, f, 100, lam),
        filters.chebyshev_errors(chain, f, 100, lam),
        filters.legendre_errors(chain, f, 100, lam),
    )
    limit = 1e-9 * np.abs(want) + 1e-10 * _spread(chain, f)
    for j, got in enumerate(columns):
        assert np.all(np.abs(np.array(got) - want[:, j]) <= limit[:, j]), harness.FILTER_ORDER[j]


# ---------------------------------------------------------------------------
# products with the chain's operators
# ---------------------------------------------------------------------------


def test_sweep_matvec_counts(cycle_chain, glauber_chain):
    for fixture in (cycle_chain, glauber_chain):
        chain, tally = _counting(fixture)
        f = _signal(chain)
        filters.ergodic_errors(chain, f, K_SWEEP)
        assert tally[0] == K_SWEEP
        for lam in _lambdas(chain):
            for sweep, products in (
                (filters.chebyshev_errors, K_SWEEP),
                (filters.legendre_errors, K_SWEEP),
                (filters.bernstein_errors, _bernstein_products(K_SWEEP, lam)),
            ):
                tally[0] = 0
                sweep(chain, f, K_SWEEP, lam)
                assert tally[0] == products, (sweep.__name__, lam)


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
    for run in (
        lambda: filters.ergodic_errors(chain, f, 100),
        lambda: filters.bernstein_errors(chain, f, 100, lam),
        lambda: filters.chebyshev_errors(chain, f, 100, lam),
        lambda: filters.legendre_errors(chain, f, 100, lam),
    ):
        tally[0] = 0
        run()
        assert tally[0] == 100

    monkeypatch.setattr(harness, "_build_chain", lambda config: chain)
    tally[0] = 0
    harness.run_experiment(
        harness.ExperimentConfig(experiment="cycle-walk", p=101, k_max=100, seed=1)
    )
    assert tally[0] == 4 * 100
