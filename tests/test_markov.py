"""Tests for chain validation, the stationary geometry, signal variation,
and the eigenfunction transform."""

import numpy as np
import pytest

from ergofilt import chains, harness, markov


def test_validate_cycle_walk_pair(cycle_chain):
    p, pi = markov.validate_chain(cycle_chain.transition, cycle_chain.pi)
    assert p.shape == (11, 11)
    assert pi == pytest.approx(np.full(11, 1.0 / 11.0))


def test_validate_two_state_symmetric():
    markov.validate_chain(np.array([[0.0, 1.0], [1.0, 0.0]]), [0.5, 0.5])


def test_validate_detects_imbalance():
    p = np.array([[0.9, 0.1], [0.5, 0.5]])
    with pytest.raises(markov.DetailedBalanceViolation):
        markov.validate_chain(p, [0.5, 0.5])


def test_validate_detects_bad_rows():
    with pytest.raises(markov.StochasticityViolation):
        markov.validate_chain(np.array([[0.5, 0.4], [0.5, 0.5]]), [0.5, 0.5])
    with pytest.raises(markov.StochasticityViolation):
        markov.validate_chain(np.array([[1.5, -0.5], [0.5, 0.5]]), [0.5, 0.5])


def test_validate_detects_bad_pi():
    p = np.array([[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(markov.NonPositivePi):
        markov.validate_chain(p, [1.0, 0.0])
    with pytest.raises(markov.NonPositivePi):
        markov.validate_chain(p, [0.6, 0.6])


def test_validate_shape_checks():
    with pytest.raises(ValueError):
        markov.validate_chain(np.ones((2, 3)), [0.5, 0.5])
    with pytest.raises(ValueError):
        markov.validate_chain(np.array([[0.5, 0.5], [0.5, 0.5]]), [1.0])


def test_chain_model_is_frozen(cycle_chain):
    with pytest.raises(ValueError):
        cycle_chain.transition[0, 0] = 1.0


def test_bundled_chains_pi_is_stationary(cycle_chain, glauber_chain):
    for chain in (cycle_chain, glauber_chain):
        assert np.abs(chain.pi @ chain.transition - chain.pi).max() <= 1e-12


def test_laplacian_identity_chain():
    assert markov.laplacian(np.eye(4)) == pytest.approx(np.zeros((4, 4)))


def test_laplacian_two_state():
    expected = np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert markov.laplacian([[0.0, 1.0], [1.0, 0.0]]) == pytest.approx(expected)


def test_laplacian_rows_sum_to_zero(glauber_chain):
    assert np.abs(glauber_chain.laplacian.sum(axis=1)).max() <= 1e-12


def test_pi_inner_basics(cycle_chain):
    ones = np.ones(cycle_chain.n)
    assert markov.pi_inner(ones, ones, cycle_chain.pi) == pytest.approx(1.0, abs=1e-14)
    f = harness.CYCLE_REFERENCE_SIGNAL
    mean = markov.pi_inner(f, ones, cycle_chain.pi)
    assert mean == pytest.approx(markov.pi_expectation(f, cycle_chain.pi), abs=1e-14)
    assert mean == pytest.approx(3.65, abs=1e-12)


def test_pi_expectation_indicator(cycle_chain):
    indicator = np.zeros(cycle_chain.n)
    indicator[4] = 1.0
    value = markov.pi_expectation(indicator, cycle_chain.pi)
    assert value == pytest.approx(cycle_chain.pi[4], abs=1e-15)
    assert markov.pi_expectation(np.ones(11), cycle_chain.pi) == pytest.approx(1.0, abs=1e-14)


def test_pi_inner_dimension_mismatch(cycle_chain):
    with pytest.raises(ValueError):
        markov.pi_inner(np.ones(3), np.ones(11), cycle_chain.pi)


def test_pi_norm_matches_inner(cycle_chain):
    rng = np.random.default_rng(2)
    f = rng.standard_normal(11)
    norm = markov.pi_norm(f, cycle_chain.pi)
    assert norm * norm == pytest.approx(markov.pi_inner(f, f, cycle_chain.pi), rel=1e-12)


def test_total_variation_constant_is_zero(cycle_chain):
    assert markov.total_variation(np.ones(11), cycle_chain) == pytest.approx(0.0, abs=1e-12)


def test_total_variation_zero_signal_raises(cycle_chain):
    with pytest.raises(ValueError):
        markov.total_variation(np.zeros(11), cycle_chain)


def test_total_variation_of_eigenfunctions(cycle_chain, cycle_spec):
    # unit-norm eigenfunctions have variation sqrt(2 * eigenvalue)
    for j in range(1, cycle_chain.n):
        f = cycle_spec.eigenfunctions[:, j]
        tv = markov.total_variation(f, cycle_chain)
        assert tv == pytest.approx(np.sqrt(2.0 * cycle_spec.eigenvalues[j]), abs=1e-10)


def test_total_variation_matches_quadratic_form(cycle_chain, glauber_chain):
    # the directed double-sum and the Laplacian quadratic form are two routes
    # to the same number, for signals of any norm
    rng = np.random.default_rng(31)
    for chain in (cycle_chain, glauber_chain):
        for _ in range(100):
            f = rng.standard_normal(chain.n)
            direct = markov.total_variation(f, chain)
            quad = markov.pi_inner(f, chain.laplacian @ f, chain.pi)
            oracle = np.sqrt(2.0 * quad) / markov.pi_norm(f, chain.pi)
            assert abs(direct - oracle) <= 1e-10


def test_spectral_two_state_chain():
    chain = markov.make_chain(np.array([[0.0, 1.0], [1.0, 0.0]]), [0.5, 0.5], 2.0)
    spec = markov.spectral_decomposition(chain)
    assert spec.eigenvalues == pytest.approx([0.0, 2.0], abs=1e-12)


def test_spectral_cycle_matches_circulant_form(cycle_spec):
    expected = np.sort(1.0 - np.cos(2.0 * np.pi * np.arange(11) / 11.0))
    assert np.abs(cycle_spec.eigenvalues - expected).max() <= 1e-8


def test_spectral_zero_eigenfunction_is_ones(cycle_spec, glauber_spec):
    for spec in (cycle_spec, glauber_spec):
        assert abs(spec.eigenvalues[0]) <= 1e-8
        assert np.array_equal(spec.eigenfunctions[:, 0], np.ones(spec.eigenfunctions.shape[0]))


def test_spectral_pi_orthonormality(cycle_chain, cycle_spec, glauber_chain, glauber_spec):
    for chain, spec in ((cycle_chain, cycle_spec), (glauber_chain, glauber_spec)):
        funcs = spec.eigenfunctions
        gram = funcs.T @ (chain.pi[:, None] * funcs)
        assert np.abs(gram - np.eye(chain.n)).max() <= 1e-8


def test_spectral_band_and_gap(cycle_spec, glauber_spec):
    for spec in (cycle_spec, glauber_spec):
        assert spec.eigenvalues.min() >= -1e-8
        assert spec.eigenvalues.max() <= 2.0 + 1e-8
        assert int(np.sum(np.abs(spec.eigenvalues) <= 1e-8)) == 1


def test_lambda_low_soundness(cycle_chain, cycle_spec, glauber_chain, glauber_spec):
    assert cycle_chain.lambda_low <= cycle_spec.eigenvalues[1] + 1e-8
    assert glauber_chain.lambda_low <= glauber_spec.eigenvalues[1] + 1e-8


def test_spectral_rejects_imbalanced_chain():
    # bypass make_chain validation to hit the symmetrization check directly
    p = np.array([[0.9, 0.1], [0.5, 0.5]])
    chain = markov.ChainModel(
        n=2, transition=p, pi=np.array([0.5, 0.5]), laplacian=markov.laplacian(p), lambda_low=1.0
    )
    with pytest.raises(markov.DetailedBalanceViolation):
        markov.spectral_decomposition(chain)


def test_gft_of_eigenfunction_is_basis_vector(cycle_chain, cycle_spec):
    for j in (0, 3, 7):
        fhat = markov.gft(cycle_spec.eigenfunctions[:, j], cycle_spec, cycle_chain.pi)
        expected = np.zeros(cycle_chain.n)
        expected[j] = 1.0
        assert fhat == pytest.approx(expected, abs=1e-10)


def test_gft_of_constant(cycle_chain, cycle_spec):
    fhat = markov.gft(2.5 * np.ones(11), cycle_spec, cycle_chain.pi)
    assert fhat[0] == pytest.approx(2.5, abs=1e-12)
    assert np.abs(fhat[1:]).max() <= 1e-12


def test_gft_unitarity(cycle_chain, cycle_spec, glauber_chain, glauber_spec):
    rng = np.random.default_rng(13)
    for chain, spec in ((cycle_chain, cycle_spec), (glauber_chain, glauber_spec)):
        for _ in range(50):
            f = rng.standard_normal(chain.n)
            g = rng.standard_normal(chain.n)
            fhat = markov.gft(f, spec, chain.pi)
            ghat = markov.gft(g, spec, chain.pi)
            assert abs(markov.pi_inner(f, g, chain.pi) - fhat @ ghat) <= 1e-10


def test_igft_round_trip(glauber_chain, glauber_spec):
    rng = np.random.default_rng(17)
    f = rng.uniform(0.0, 10.0, glauber_chain.n)
    back = markov.igft(markov.gft(f, glauber_spec, glauber_chain.pi), glauber_spec)
    assert np.abs(back - f).max() <= 1e-10


def test_igft_basics(cycle_spec):
    assert markov.igft(np.zeros(11), cycle_spec) == pytest.approx(np.zeros(11))
    e0 = np.zeros(11)
    e0[0] = 1.0
    assert markov.igft(e0, cycle_spec) == pytest.approx(np.ones(11))


def test_gft_dimension_checks(cycle_spec):
    with pytest.raises(ValueError):
        markov.gft(np.ones(5), cycle_spec, np.full(5, 0.2))
    with pytest.raises(ValueError):
        markov.igft(np.ones(5), cycle_spec)
