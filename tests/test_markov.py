"""Tests for chain validation, the stationary geometry, signal variation,
and the eigenfunction transform."""

import numpy as np
import pytest

from ergofilt import chains, harness, markov


def _table(transition):
    """A dense P as a full neighbour table: each state first, then every other
    state in increasing order."""
    p = np.asarray(transition, dtype=float)
    n = p.shape[0]
    neighbors = np.array([[x] + [y for y in range(n) if y != x] for x in range(n)])
    return neighbors, p[np.arange(n)[:, None], neighbors]


def _dense_laplacian(chain):
    return np.eye(chain.n) - chain.dense_transition()


def test_validate_cycle_walk_pair(cycle_chain):
    neighbors, weights, pi = markov.validate_chain(
        cycle_chain.neighbors, cycle_chain.weights, cycle_chain.pi
    )
    assert neighbors.shape == weights.shape == (11, 3)
    assert pi == pytest.approx(np.full(11, 1.0 / 11.0))


def test_validate_two_state_symmetric():
    markov.validate_chain(*_table([[0.0, 1.0], [1.0, 0.0]]), [0.5, 0.5])


def test_validate_detects_imbalance():
    p = np.array([[0.9, 0.1], [0.5, 0.5]])
    with pytest.raises(markov.DetailedBalanceViolation):
        markov.validate_chain(*_table(p), [0.5, 0.5])


def test_validate_detects_bad_rows():
    with pytest.raises(markov.StochasticityViolation):
        markov.validate_chain(*_table([[0.5, 0.4], [0.5, 0.5]]), [0.5, 0.5])
    with pytest.raises(markov.StochasticityViolation):
        markov.validate_chain(*_table([[1.5, -0.5], [0.5, 0.5]]), [0.5, 0.5])


def test_validate_detects_bad_pi():
    table = _table([[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(markov.NonPositivePi):
        markov.validate_chain(*table, [1.0, 0.0])
    with pytest.raises(markov.NonPositivePi):
        markov.validate_chain(*table, [0.6, 0.6])


def test_validate_shape_checks():
    neighbors, weights = _table([[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(ValueError):
        markov.validate_chain(neighbors, np.ones((2, 3)), [0.5, 0.5])
    with pytest.raises(ValueError):
        markov.validate_chain(neighbors, weights, [1.0])
    with pytest.raises(ValueError):
        markov.validate_chain(neighbors.astype(float), weights, [0.5, 0.5])
    with pytest.raises(ValueError):
        markov.validate_chain(neighbors[:, ::-1], weights, [0.5, 0.5])
    with pytest.raises(ValueError):
        markov.validate_chain(np.array([[0, 2], [1, 0]]), weights, [0.5, 0.5])


# a 3-state chain with uniform pi: 0 <-> 1 <-> 2, hand-made tables that
# break exactly one rule each
_PATH_PI = np.full(3, 1.0 / 3.0)
_PATH_NEIGHBORS = np.array([[0, 1, 2], [1, 0, 2], [2, 1, 0]])
_PATH_WEIGHTS = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.5, 0.0]])


def test_validate_hand_made_path_passes():
    neighbors, weights, pi = markov.validate_chain(_PATH_NEIGHBORS, _PATH_WEIGHTS, _PATH_PI)
    assert neighbors.dtype == np.intp
    assert np.array_equal(weights, _PATH_WEIGHTS)


def test_validate_names_the_offending_entry():
    weights = _PATH_WEIGHTS.copy()
    weights[1, 1], weights[1, 2] = -0.1, 1.1  # P(1, 0) < 0
    with pytest.raises(markov.StochasticityViolation) as info:
        markov.validate_chain(_PATH_NEIGHBORS, weights, _PATH_PI)
    assert info.value.index == (1, 0)
    assert info.value.magnitude == pytest.approx(0.1)

    weights = _PATH_WEIGHTS.copy()
    weights[2, 0] = 0.4  # row 2 sums to 0.9
    with pytest.raises(markov.StochasticityViolation) as info:
        markov.validate_chain(_PATH_NEIGHBORS, weights, _PATH_PI)
    assert info.value.index == 2

    with pytest.raises(markov.NonPositivePi) as info:
        markov.validate_chain(_PATH_NEIGHBORS, _PATH_WEIGHTS, [0.5, 0.5, 0.0])
    assert info.value.index == 2

    weights = _PATH_WEIGHTS.copy()
    weights[2, 0], weights[2, 1] = 0.6, 0.4  # P(2, 1) = 0.4 but P(1, 2) = 0.5
    with pytest.raises(markov.DetailedBalanceViolation) as info:
        markov.validate_chain(_PATH_NEIGHBORS, weights, _PATH_PI)
    assert info.value.index in ((1, 2), (2, 1))
    assert info.value.magnitude == pytest.approx(0.1 / 3.0)


def test_validate_missing_reverse_edge():
    # state 0 moves to 2, but row 2 does not list 0 at all (its last column
    # is a zero-weight repeat of the state itself)
    neighbors = np.array([[0, 1, 2], [1, 0, 2], [2, 1, 2]])
    weights = np.array([[0.4, 0.5, 0.1], [0.0, 0.5, 0.5], [0.5, 0.5, 0.0]])
    with pytest.raises(markov.DetailedBalanceViolation) as info:
        markov.validate_chain(neighbors, weights, _PATH_PI)
    assert info.value.index == (0, 2)
    assert info.value.magnitude == pytest.approx(0.1 / 3.0)


def test_validate_rejects_unpaired_duplicate():
    # state 0 lists state 1 twice (0.25 + 0.25) and state 1 lists 0 once
    # (0.5): each entry balances its first reverse, the sums do not
    neighbors = np.array([[0, 1, 1], [1, 0, 2], [2, 1, 1]])
    weights = np.array([[0.5, 0.25, 0.25], [0.0, 0.5, 0.5], [0.5, 0.5, 0.0]])
    with pytest.raises(ValueError, match="more than once"):
        markov.validate_chain(neighbors, weights, _PATH_PI)


def test_chain_model_is_frozen(cycle_chain):
    with pytest.raises(ValueError):
        cycle_chain.weights[0, 0] = 1.0
    with pytest.raises(ValueError):
        cycle_chain.neighbors[0, 1] = 0


def test_bundled_chains_pi_is_stationary(cycle_chain, glauber_chain):
    for chain in (cycle_chain, glauber_chain):
        assert np.abs(chain.pi @ chain.dense_transition() - chain.pi).max() <= 1e-12


def test_affine_matches_dense(cycle_chain, glauber_chain):
    rng = np.random.default_rng(5)
    for chain in (cycle_chain, glauber_chain):
        laplacian = _dense_laplacian(chain)
        for a, b in ((-1.0, 1.0), (0.5, 0.0), (1.0, 0.0), (2.0 / 1.9, -3.9 / 1.9)):
            v = rng.standard_normal(chain.n)
            want = a * (laplacian @ v) + b * v
            assert np.abs(chain.affine(a, b)(v) - want).max() <= 1e-13 * np.abs(v).max()


def test_laplacian_identity_chain():
    chain = markov.make_chain(np.arange(4)[:, None], np.ones((4, 1)), np.full(4, 0.25), 1.0)
    v = np.random.default_rng(3).standard_normal(4)
    assert np.array_equal(chain.affine(1.0, 0.0)(v), np.zeros(4))
    assert chain.dense_transition() == pytest.approx(np.eye(4))


def test_laplacian_two_state():
    chain = markov.make_chain(*_table([[0.0, 1.0], [1.0, 0.0]]), [0.5, 0.5], 2.0)
    laplacian = chain.affine(1.0, 0.0)
    columns = np.column_stack([laplacian(e) for e in np.eye(2)])
    assert columns == pytest.approx(np.array([[1.0, -1.0], [-1.0, 1.0]]))


def test_laplacian_rows_sum_to_zero(glauber_chain):
    assert np.abs(glauber_chain.affine(1.0, 0.0)(np.ones(glauber_chain.n))).max() <= 1e-12


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
        laplacian = _dense_laplacian(chain)
        for _ in range(100):
            f = rng.standard_normal(chain.n)
            direct = markov.total_variation(f, chain)
            quad = markov.pi_inner(f, laplacian @ f, chain.pi)
            oracle = np.sqrt(2.0 * quad) / markov.pi_norm(f, chain.pi)
            assert abs(direct - oracle) <= 1e-10


def test_total_variation_matches_dense_formula(cycle_chain, glauber_chain):
    # the table sum against the n-by-n double sum it replaces
    params = chains.GlauberParams(p=6, beta=0.7, couplings=[0.3, 1.0, 0.7, 0.3, 1.0, 0.7])
    rng = np.random.default_rng(37)
    for chain in (cycle_chain, glauber_chain, chains.build_glauber_cycle(params)):
        transition = chain.dense_transition()
        for _ in range(20):
            f = rng.standard_normal(chain.n)
            diff = f[:, None] - f[None, :]
            rough = np.sum(chain.pi[:, None] * transition * diff * diff)
            dense = np.sqrt(rough) / markov.pi_norm(f, chain.pi)
            assert abs(markov.total_variation(f, chain) - dense) <= 1e-13 * dense


def test_spectral_two_state_chain():
    chain = markov.make_chain(*_table([[0.0, 1.0], [1.0, 0.0]]), [0.5, 0.5], 2.0)
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
    neighbors, weights = _table([[0.9, 0.1], [0.5, 0.5]])
    chain = markov.ChainModel(
        neighbors=neighbors, weights=weights, pi=np.array([0.5, 0.5]), lambda_low=1.0
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
