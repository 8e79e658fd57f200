"""Tests for chain validation, the stationary geometry, signal variation,
and the eigenfunction transform."""

import re

import exact_references
import numpy as np
import pytest

from ergofilt import chains, filters, harness, markov


def _table(transition):
    """A dense P as a full neighbour table: each state first, then every other
    state in increasing order."""
    p = np.asarray(transition, dtype=float)
    n = p.shape[0]
    neighbors = np.array([[x] + [y for y in range(n) if y != x] for x in range(n)])
    return neighbors, p[np.arange(n)[:, None], neighbors]


def _dense_laplacian(chain):
    return np.eye(chain.n) - exact_references.dense_transition(chain)


def _rejected(error, neighbors, weights, pi):
    """The error ``validate_chain`` raises on a table, after checking that
    ``ChainModel`` built directly raises it too: the same type, message,
    index and magnitude."""
    raised = []
    for entry in (markov.validate_chain, lambda *table: markov.ChainModel(*table, 1.0)):
        with pytest.raises(error) as info:
            entry(neighbors, weights, pi)
        raised.append(info.value)
    first = raised[0]
    for other in raised[1:]:
        assert (type(other), str(other)) == (type(first), str(first))
        if isinstance(first, markov.ChainValidationError):
            assert other.index == first.index
            assert np.array_equal(other.magnitude, first.magnitude, equal_nan=True)
    return first


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
    _rejected(markov.DetailedBalanceViolation, *_table(p), [0.5, 0.5])


def test_validate_detects_bad_rows():
    _rejected(markov.StochasticityViolation, *_table([[0.5, 0.4], [0.5, 0.5]]), [0.5, 0.5])
    _rejected(markov.StochasticityViolation, *_table([[1.5, -0.5], [0.5, 0.5]]), [0.5, 0.5])
    # row 0 sums to 1.2
    error = _rejected(
        markov.StochasticityViolation, [[0, 1], [1, 0]], [[0.9, 0.3], [0.5, 0.5]], [0.5, 0.5]
    )
    assert error.index == 0
    assert error.magnitude == pytest.approx(0.2)


def test_validate_detects_bad_pi():
    table = _table([[0.5, 0.5], [0.5, 0.5]])
    _rejected(markov.NonPositivePi, *table, [1.0, 0.0])
    _rejected(markov.NonPositivePi, *table, [0.6, 0.6])


@pytest.mark.parametrize(
    "weights, pi, index",
    [
        ([[0.5, 0.5], [0.5, 0.5]], [np.nan, np.nan], 0),
        ([[np.nan, np.nan], [0.5, 0.5]], [0.5, 0.5], (0, 0)),
        ([[0.5, 0.5], [0.5, np.nan]], [0.5, 0.5], (1, 0)),
        ([[0.5, 0.5], [0.5, 0.5]], [0.5, np.nan], 1),
    ],
    ids=["pi", "weights-row0", "weights-row1", "pi-last"],
)
def test_validate_rejects_nan(weights, pi, index):
    # every comparison with NaN is false, so the sign checks are written to
    # fail on it; the error names the first NaN entry
    error = _rejected(markov.NotANumber, [[0, 1], [1, 0]], weights, pi)
    assert error.index == index
    assert np.isnan(error.magnitude)
    assert isinstance(error, markov.ChainValidationError)


def test_validate_shape_checks():
    neighbors, weights = _table([[0.5, 0.5], [0.5, 0.5]])
    _rejected(ValueError, neighbors, np.ones((2, 3)), [0.5, 0.5])
    _rejected(ValueError, neighbors, weights, [1.0])
    _rejected(ValueError, neighbors.astype(float), weights, [0.5, 0.5])
    _rejected(ValueError, neighbors[:, ::-1], weights, [0.5, 0.5])
    _rejected(ValueError, np.array([[0, 2], [1, 0]]), weights, [0.5, 0.5])
    # a table with no states or no columns, refused before any reduction
    for shape in ((0, 1), (2, 0), (0, 0)):
        error = _rejected(ValueError, np.zeros(shape, int), np.zeros(shape), np.zeros(shape[0]))
        assert "nonempty 2-d integer array" in str(error), shape


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
    # |S(1, 2) - S(2, 1)| = |P(1, 2) - P(2, 1)| under a uniform pi
    assert info.value.magnitude == pytest.approx(0.1)


def test_validate_missing_reverse_edge():
    # state 0 moves to 2, but row 2 does not list 0 at all (its last column
    # is a zero-weight repeat of the state itself)
    neighbors = np.array([[0, 1, 2], [1, 0, 2], [2, 1, 2]])
    weights = np.array([[0.4, 0.5, 0.1], [0.0, 0.5, 0.5], [0.5, 0.5, 0.0]])
    with pytest.raises(markov.DetailedBalanceViolation) as info:
        markov.validate_chain(neighbors, weights, _PATH_PI)
    assert info.value.index == (0, 2)
    assert info.value.magnitude == pytest.approx(0.1)


def test_validate_rejects_unpaired_duplicate():
    # state 0 lists state 1 twice (0.25 + 0.25) and state 1 lists 0 once:
    # the pair is judged by its sums, which balance at P(1, 0) = 0.5 and
    # break at P(1, 0) = 0.4
    neighbors = np.array([[0, 1, 1], [1, 0, 2], [2, 1, 1]])
    weights = np.array([[0.5, 0.25, 0.25], [0.0, 0.5, 0.5], [0.5, 0.5, 0.0]])
    markov.validate_chain(neighbors, weights, _PATH_PI)
    weights[1] = [0.1, 0.4, 0.5]
    with pytest.raises(markov.DetailedBalanceViolation) as info:
        markov.validate_chain(neighbors, weights, _PATH_PI)
    assert info.value.index == (0, 1)
    assert info.value.magnitude == pytest.approx(0.1)


@pytest.mark.parametrize(
    "neighbors, weights",
    [
        ([[0, 1, 1], [1, 0, 0]], [[0.4, 0.3, 0.3], [0.4, 0.1, 0.5]]),
        ([[0, 1, 1, 1], [1, 0, 0, 1]], [[0.4, 0.3, 0.3, 0.0], [0.4, 0.1, 0.5, 0.0]]),
    ],
)
def test_validate_sums_duplicated_neighbours(neighbors, weights):
    # P(0, 1) = P(1, 0) = 0.6, though no entry balances the one it is paired
    # with: the first table pairs its columns and fails the per-entry check,
    # the second misses its paired columns; both are judged pair by pair
    markov.validate_chain(np.array(neighbors), weights, [0.5, 0.5])


def _rotate_rows(table, rows):
    """Columns 1..d-1 of the given rows moved one place right: the same chain,
    but the rows no longer list each reverse entry in the column the other
    rows pair it with."""
    rotated = np.array(table)
    rotated[rows, 1:] = np.roll(rotated[rows, 1:], 1, axis=1)
    return rotated


def _validation_outcome(neighbors, weights, pi):
    try:
        markov.validate_chain(neighbors, weights, pi)
    except markov.ChainValidationError as exc:
        return type(exc), exc.index, exc.magnitude
    except ValueError as exc:
        return ValueError, str(exc)
    return ("pass",)


def _broken_tables(chain, source, row=6):
    """(name, neighbours, weights, pi): the chain's valid table and copies
    broken in one place each, in ``row``; the balance is broken by moving
    mass from column ``source`` of that row to column 2."""
    base = chain.neighbors.copy(), chain.weights.copy(), chain.pi
    yield "valid", *base
    neighbors, weights, pi = base
    scaled = weights.copy()
    scaled[row, 2] *= 1.0 + 1e-9
    yield "one weight scaled", neighbors, scaled, pi
    shifted = weights.copy()
    shifted[row, 2] *= 1.0 + 1e-3
    shifted[row, source] -= shifted[row, 2] - weights[row, 2]
    yield "rows kept, balance broken", neighbors, shifted, pi
    duplicated = neighbors.copy()
    duplicated[row, 1] = duplicated[row, 2]
    yield "duplicated neighbour", duplicated, weights, pi


def _count_fallbacks(monkeypatch):
    """A list that gains an item at each call of ``markov._pair_imbalance``:
    each time the one-gather pass did not decide."""
    calls = []
    pair_imbalance = markov._pair_imbalance

    def counted(*args):
        calls.append(True)
        return pair_imbalance(*args)

    monkeypatch.setattr(markov, "_pair_imbalance", counted)
    return calls


def _path_tables():
    """(name, neighbours, weights, pi) for each chain the path tests check:
    Glauber tables find each reverse in its own column, cycle tables in the
    column row 0 pairs it with. The longest cycle spans three blocks of the
    one-gather pass and is broken in its last row but one, whose own entries
    and whose neighbours' lie past the first block."""
    # the cycle's column 0 holds P(x, x) = 0, so its mass moves from column 1
    yield from _broken_tables(chains.build_cycle_walk(11), 1)
    yield from _broken_tables(chains.build_cycle_walk(101), 1)
    blocks = 2 * markov._BLOCK_ROWS + 1
    yield from _broken_tables(chains.build_cycle_walk(blocks), 1, blocks - 2)
    mixed = chains.GlauberParams(p=5, beta=0.7, couplings=[0.3, 1.0, -0.7, 0.3, 1.0])
    yield from _broken_tables(chains.build_glauber_cycle(mixed), 0)
    yield from _broken_tables(chains.build_glauber_cycle(chains.GlauberParams.uniform(10, 0.7)), 0)


def test_validation_paths_agree(monkeypatch):
    # the one-gather pass and the pair-by-pair check must reach the same
    # verdict, worst pair and magnitude on the same chain, at n = 1 024 too.
    # With every odd row rotated the cycle's row 0 pairs no columns; with
    # row 4 or the last row but one alone rotated the pairing holds, and its
    # entries miss it, on the longest cycle only past the first block
    general = _count_fallbacks(monkeypatch)
    outcomes = set()
    for name, neighbors, weights, pi in _path_tables():
        del general[:]
        original = _validation_outcome(neighbors, weights, pi)
        original_general = bool(general)
        # a row-sum failure stops before either path; a broken balance fails
        # the one-gather pass, and a duplicate misses its column
        assert original_general == (
            name in ("rows kept, balance broken", "duplicated neighbour")
        ), name
        for rows in (slice(1, None, 2), [4], [-2]):
            del general[:]
            rotated = _validation_outcome(
                _rotate_rows(neighbors, rows), _rotate_rows(weights, rows), pi
            )
            assert rotated == original, (name, rows)
            assert bool(general) == (name != "one weight scaled"), (name, rows)
        outcomes.add(original[0])
    assert outcomes == {"pass", markov.StochasticityViolation, markov.DetailedBalanceViolation}


def test_pair_check_has_the_bits_of_the_entry_check():
    # on a table that lists each neighbour once, the pair-by-pair check's
    # largest entry is the one-gather pass's worst value, bit for bit, so
    # the one fallback cannot change a verdict or magnitude
    checked = 0
    for name, neighbors, weights, pi in _path_tables():
        if name not in ("valid", "rows kept, balance broken"):
            continue
        root = np.sqrt(pi)
        sym = weights / root[neighbors] * root[:, None]
        worst = markov._entry_imbalance(neighbors, sym)
        assert (worst > markov.DETAILED_BALANCE_TOL) == (name != "valid")
        assert worst.hex() == markov._pair_imbalance(neighbors, sym).max().hex()
        checked += 1
    assert checked == 10


def test_pair_check_matches_a_pair_loop():
    # tables that list neighbours two or more times, and a state itself past
    # column 0: each entry gets |S(x, y) - S(y, x)| with both sums taken in
    # column order, bit for bit
    rng = np.random.default_rng(5)
    for trial in range(300):
        n, d = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        neighbors = rng.integers(0, min(n, 2 + trial % 3), (n, d))
        neighbors[:, 0] = np.arange(n)
        sym = rng.uniform(0.0, 1.0, (n, d)) * (rng.uniform(0.0, 1.0, (n, d)) > 0.2)
        want = np.empty((n, d))
        for x in range(n):
            for j, y in enumerate(neighbors[x].tolist()):
                forward = backward = 0.0
                for value in sym[x, neighbors[x] == y].tolist():
                    forward += value
                for value in sym[y, neighbors[y] == x].tolist():
                    backward += value
                want[x, j] = abs(forward - backward)
        got = markov._pair_imbalance(neighbors.astype(np.intp), sym.copy())
        assert np.array_equal(got, want), (neighbors, sym)


def _bundled_glauber_params(p):
    for coupling in (-1.0, 0.0, 0.5, 1.0):
        yield chains.GlauberParams.uniform(p, 0.7, coupling)
    yield chains.GlauberParams(p=p, beta=0.7, couplings=np.resize([0.3, -1.0, 0.7], p))


@pytest.mark.parametrize("p", [3, 4, 5, 6, 7, 8, 9, 10, 11, 101])
def test_cycle_validates_in_one_gather(monkeypatch, p):
    # every bundled table finds each reverse entry in the column row 0 pairs
    # it with: columns 1 and 2 on the cycle walk, each flip column with itself
    # on the Ising ring, whatever its couplings
    general = _count_fallbacks(monkeypatch)
    if p % 2:
        chains.build_cycle_walk(p)
    if p <= 10:
        for params in _bundled_glauber_params(p):
            chains.build_glauber_cycle(params)
    assert not general


@pytest.mark.parametrize(
    "neighbors, outcome, falls_back",
    [
        ([[0, 1, 1], [1, 0, 0]], ("pass",), False),
        ([[0, 1, 1], [1, 1, 0]], (markov.DetailedBalanceViolation, (0, 1), 0.25), True),
    ],
)
def test_validate_unpaired_columns(monkeypatch, neighbors, outcome, falls_back):
    # row 0 lists state 1 twice, so the column pairing it gives is not an
    # involution. The first table finds every reverse in its own column; the
    # second misses there and is left to the pair-by-pair check, and its sums
    # break balance: P(0, 1) = 0.5 against P(1, 0) = 0.25
    general = _count_fallbacks(monkeypatch)
    weights = [[0.5, 0.25, 0.25], [0.5, 0.25, 0.25]]
    assert _validation_outcome(np.array(neighbors), weights, [0.5, 0.5]) == outcome
    assert bool(general) == falls_back


def test_validate_row_sums_of_a_wide_table():
    # 20 columns, past the short-row tail of a BLAS dot product; one entry of
    # row 13 is raised by more, and by less, than the row-sum tolerance
    neighbors, weights = _table(np.full((20, 20), 0.05))
    pi = np.full(20, 0.05)
    weights[13, 9] += 2e-12
    with pytest.raises(markov.StochasticityViolation) as info:
        markov.validate_chain(neighbors, weights, pi)
    assert info.value.index == 13
    assert info.value.magnitude == pytest.approx(2e-12, rel=1e-3)
    weights[13, 9] -= 1.5e-12
    markov.validate_chain(neighbors, weights, pi)


def test_chain_model_is_frozen(cycle_chain):
    with pytest.raises(ValueError):
        cycle_chain.weights[0, 0] = 1.0
    with pytest.raises(ValueError):
        cycle_chain.neighbors[0, 1] = 0


def test_bundled_chains_pi_is_stationary(cycle_chain, glauber_chain):
    for chain in (cycle_chain, glauber_chain):
        assert np.abs(chain.pi @ exact_references.dense_transition(chain) - chain.pi).max() <= 1e-12


def test_affine_matches_dense(cycle_chain, glauber_chain):
    rng = np.random.default_rng(5)
    for chain in (cycle_chain, glauber_chain):
        laplacian = _dense_laplacian(chain)
        for a, b in ((-1.0, 1.0), (0.5, 0.0), (1.0, 0.0), (2.0 / 1.9, -3.9 / 1.9)):
            v = rng.standard_normal(chain.n)
            want = a * (laplacian @ v) + b * v
            assert np.abs(chain.affine(a, b)(v) - want).max() <= 1e-13 * np.abs(v).max()


def test_transition_operator_is_the_folded_table():
    # P is affine(-1, 1): the chain's weights folded as -(-1) w with 0 added
    # to column 0, bit for bit
    chain = chains.build_glauber_cycle(chains.GlauberParams.uniform(12, 0.7, 1.0))
    transition = chain.affine(-1.0, 1.0)
    folded = -(-1.0) * chain.weights
    folded[:, 0] += -1.0 + 1.0
    rng = np.random.default_rng(12)
    for v in (rng.standard_normal(chain.n), np.arange(chain.n, dtype=float), np.ones(chain.n)):
        assert np.array_equal(transition(v), np.vecdot(folded, v[chain.neighbors]))


def test_laplacian_identity_chain():
    chain = markov.ChainModel(np.arange(4)[:, None], np.ones((4, 1)), np.full(4, 0.25), 1.0)
    v = np.random.default_rng(3).standard_normal(4)
    assert np.array_equal(chain.affine(1.0, 0.0)(v), np.zeros(4))
    assert exact_references.dense_transition(chain) == pytest.approx(np.eye(4))


def test_laplacian_two_state():
    chain = markov.ChainModel(*_table([[0.0, 1.0], [1.0, 0.0]]), [0.5, 0.5], 1.0)
    laplacian = chain.affine(1.0, 0.0)
    columns = np.column_stack([laplacian(e) for e in np.eye(2)])
    assert columns == pytest.approx(np.array([[1.0, -1.0], [-1.0, 1.0]]))


def test_laplacian_rows_sum_to_zero(glauber_chain):
    assert np.abs(glauber_chain.affine(1.0, 0.0)(np.ones(glauber_chain.n))).max() <= 1e-12


def test_pi_inner_basics(cycle_chain):
    ones = np.ones(cycle_chain.n)
    assert markov.pi_inner(ones, ones, cycle_chain) == pytest.approx(1.0, abs=1e-14)
    f = harness.CYCLE_REFERENCE_SIGNAL
    mean = markov.pi_inner(f, ones, cycle_chain)
    assert mean == pytest.approx(markov.pi_expectation(f, cycle_chain), abs=1e-14)
    assert mean == pytest.approx(3.65, abs=1e-12)


def test_pi_expectation_indicator(cycle_chain):
    indicator = np.zeros(cycle_chain.n)
    indicator[4] = 1.0
    value = markov.pi_expectation(indicator, cycle_chain)
    assert value == pytest.approx(cycle_chain.pi[4], abs=1e-15)
    assert markov.pi_expectation(np.ones(11), cycle_chain) == pytest.approx(1.0, abs=1e-14)


def test_pi_inner_dimension_mismatch(cycle_chain):
    with pytest.raises(ValueError):
        markov.pi_inner(np.ones(3), np.ones(11), cycle_chain)


# every public function that reads a signal, on the 11-cycle: (chain, spec, f)
_SIGNAL_READERS = {
    "pi_inner": lambda chain, spec, f: markov.pi_inner(f, np.ones(11), chain),
    "pi_inner_second": lambda chain, spec, f: markov.pi_inner(np.ones(11), f, chain),
    "pi_expectation": lambda chain, spec, f: markov.pi_expectation(f, chain),
    "pi_norm": lambda chain, spec, f: markov.pi_norm(f, chain),
    "pi_inner_spec": lambda chain, spec, f: markov.pi_inner(f, np.ones(11), spec),
    "pi_expectation_spec": lambda chain, spec, f: markov.pi_expectation(f, spec),
    "pi_norm_spec": lambda chain, spec, f: markov.pi_norm(f, spec),
    "total_variation": lambda chain, spec, f: markov.total_variation(f, chain),
    "gft": lambda chain, spec, f: markov.gft(f, spec),
    "igft": lambda chain, spec, f: markov.igft(f, spec),
    "lagrange_exact_apply": lambda chain, spec, f: filters.lagrange_exact_apply(spec, f),
    "ergodic_apply": lambda chain, spec, f: filters.ergodic_apply(chain, f, 3),
    "bernstein_apply": lambda chain, spec, f: filters.bernstein_apply(chain, f, 3, 0.5),
    "chebyshev_apply": lambda chain, spec, f: filters.chebyshev_apply(chain, f, 3, 0.5),
    "legendre_apply": lambda chain, spec, f: filters.legendre_apply(chain, f, 3, 0.5),
    "error_table": lambda chain, spec, f: filters.error_table(chain, f, 3, 0.5)[0],
}


def _one_sweep_reader(name):
    """Filter ``name``'s errors at degrees 1..3, its sweep run alone by the
    run's error pass."""
    args = () if name == "ergodic" else (0.5,)
    sweep = ((name, getattr(filters, f"_{name}_steps"), args),)
    return lambda chain, spec, f: filters._errors(chain, f, 3, sweep)[0]


_SIGNAL_READERS.update(
    {f"{name}_sweep": _one_sweep_reader(name) for name in ("ergodic", "bernstein", "chebyshev", "legendre")}
)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("reader", sorted(_SIGNAL_READERS))
@pytest.mark.parametrize(
    "signal, message",
    [
        (np.ones(3), r"signal has shape \(3,\), expected \(11,\)"),
        (np.full(11, np.nan), "signal values must be finite"),
        (np.full(11, np.inf), "signal values must be finite"),
        (np.r_[1 + 2j, np.ones(10)], "signal values must be real"),
        (["1"] * 11, "signal values must be real"),
        ([b"1"] * 11, "signal values must be real"),
        ([None] + [1.0] * 10, "signal values must be real"),
    ],
    ids=["length-3", "all-nan", "all-inf", "complex", "strings", "bytes", "object"],
)
def test_signal_readers_share_one_rule(cycle_chain, cycle_spec, reader, signal, message):
    # markov.check_signal judges every signal a public function reads, so a
    # wrong length or a non-finite value is refused with the CLI's message,
    # and a value of no bool, integer or float dtype is refused, not cast:
    # a complex value to its real part, a string or bytes parsed as a number
    with pytest.raises(ValueError, match=message):
        _SIGNAL_READERS[reader](cycle_chain, cycle_spec, signal)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("reader", sorted(_SIGNAL_READERS))
def test_signal_readers_keep_large_finite_signals_finite(cycle_chain, cycle_spec, reader):
    # each reader works at the unit scale check_signal hands back, so a
    # finite signal near the float64 maximum gives a finite result
    signal = np.arange(11) * 1e200
    assert np.isfinite(_SIGNAL_READERS[reader](cycle_chain, cycle_spec, signal)).all()


def test_check_signal_returns_values_and_peak():
    # the values at unit scale and the exponent of the power of two just
    # above the peak
    values, exponent = markov.check_signal([1, -3.5, 2], 3)
    assert values.dtype == float and values.tolist() == [0.25, -0.875, 0.5]
    assert exponent == 2
    values, exponent = markov.check_signal(np.zeros(4), 4)
    assert values.tolist() == [0.0] * 4 and exponent == 0


@pytest.mark.filterwarnings("error")
def test_pi_norm_of_a_large_signal(cycle_chain):
    norm = markov.pi_norm(np.full(11, 1e200), cycle_chain)
    assert abs(norm - 1e200) <= np.spacing(1e200)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k", [900, -900])
def test_total_variation_is_scale_free(cycle_chain, k):
    f = harness.CYCLE_REFERENCE_SIGNAL
    assert markov.total_variation(f * 2.0**k, cycle_chain) == markov.total_variation(f, cycle_chain)


@pytest.mark.filterwarnings("error")
def test_results_past_the_float64_range_are_errors(cycle_chain, glauber_spec):
    big = np.full(11, 1e200)
    with pytest.raises(FloatingPointError, match="non-finite pi_inner result"):
        markov.pi_inner(big, big, cycle_chain)
    # the column with the largest |phi| (about 3.65) times 1e308
    fhat = np.zeros(glauber_spec.pi.size)
    fhat[np.abs(glauber_spec.eigenfunctions).max(axis=0).argmax()] = 1e308
    with pytest.raises(FloatingPointError, match="non-finite igft result"):
        markov.igft(fhat, glauber_spec)


def test_readers_are_bitwise_the_unscaled_formulas(cycle_spec, glauber_spec):
    # scaling by a power of two is exact, so on the reference signals the
    # unit-scale readers give the bits of the plain formulas
    for spec, f in (
        (cycle_spec, harness.CYCLE_REFERENCE_SIGNAL),
        (glauber_spec, harness.GLAUBER_REFERENCE_SIGNAL),
    ):
        pi, funcs = spec.pi, spec.eigenfunctions
        assert markov.pi_expectation(f, spec) == np.dot(pi, f)
        assert markov.pi_norm(f, spec) == np.sqrt(np.sum(f * f * pi))
        g = f[::-1] - 2.0
        assert markov.pi_inner(f, g, spec) == np.sum(f * g * pi)
        fhat = markov.gft(f, spec)
        assert np.array_equal(fhat, funcs.T @ (pi * f))
        assert np.array_equal(markov.igft(fhat, spec), funcs @ fhat)


@pytest.mark.filterwarnings("error")
def test_pi_inner_takes_its_scale_from_the_product():
    # each signal spans 600 decades but every product is 1, so only a scale
    # taken from the products keeps both terms
    chain = markov.ChainModel(*_table([[0.0, 1.0], [1.0, 0.0]]), [0.5, 0.5], 1.0)
    assert markov.pi_inner([1e300, 1e-300], [1e-300, 1e300], chain) == 1.0


def test_pi_norm_matches_inner(cycle_chain):
    rng = np.random.default_rng(2)
    f = rng.standard_normal(11)
    norm = markov.pi_norm(f, cycle_chain)
    assert norm * norm == pytest.approx(markov.pi_inner(f, f, cycle_chain), rel=1e-12)


def test_total_variation_constant_is_zero(cycle_chain):
    assert markov.total_variation(np.ones(11), cycle_chain) == pytest.approx(0.0, abs=1e-12)


def test_total_variation_zero_signal_raises(cycle_chain):
    with pytest.raises(ValueError):
        markov.total_variation(np.zeros(11), cycle_chain)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_total_variation_rejects_non_finite_signal(cycle_chain, bad):
    f = np.ones(11)
    f[4] = bad
    with pytest.raises(ValueError, match="signal values must be finite"):
        markov.total_variation(f, cycle_chain)


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
            quad = markov.pi_inner(f, laplacian @ f, chain)
            oracle = np.sqrt(2.0 * quad) / markov.pi_norm(f, chain)
            assert abs(direct - oracle) <= 1e-10


def test_total_variation_matches_dense_formula(cycle_chain, glauber_chain):
    # the table sum against the n-by-n double sum it replaces
    params = chains.GlauberParams(p=6, beta=0.7, couplings=[0.3, 1.0, 0.7, 0.3, 1.0, 0.7])
    rng = np.random.default_rng(37)
    for chain in (cycle_chain, glauber_chain, chains.build_glauber_cycle(params)):
        transition = exact_references.dense_transition(chain)
        for _ in range(20):
            f = rng.standard_normal(chain.n)
            diff = f[:, None] - f[None, :]
            rough = np.sum(chain.pi[:, None] * transition * diff * diff)
            dense = np.sqrt(rough) / markov.pi_norm(f, chain)
            assert abs(markov.total_variation(f, chain) - dense) <= 1e-13 * dense


def test_spectral_two_state_chain():
    chain = markov.ChainModel(*_table([[0.0, 1.0], [1.0, 0.0]]), [0.5, 0.5], 1.0)
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


def _sign_fixed_by_loop(funcs):
    """The per-column sign fix: negate each column whose first entry above
    ``1e-12 max(1, max|column|)`` is negative."""
    funcs = funcs.copy()
    for j in range(1, funcs.shape[1]):
        col = funcs[:, j]
        cutoff = 1e-12 * max(1.0, float(np.abs(col).max()))
        nonzero = np.nonzero(np.abs(col) > cutoff)[0]
        if nonzero.size and col[nonzero[0]] < 0.0:
            funcs[:, j] = -col
    return funcs


def test_spectral_signs_match_the_column_loop(monkeypatch, cycle_chain, glauber_chain):
    # the eigenvectors eigh returns, mapped and sign-fixed one column at a
    # time, give the eigenfunctions bit for bit
    solved, flipped = [], 0
    symmetric_eigen = markov.densela.symmetric_eigen

    def recorded(m):
        solved.append(symmetric_eigen(m))
        return solved[-1]

    monkeypatch.setattr(markov.densela, "symmetric_eigen", recorded)
    for chain in (cycle_chain, glauber_chain):
        spec = markov.spectral_decomposition(chain)
        funcs = solved[-1][1] / np.sqrt(chain.pi)[:, None]
        funcs[:, 0] = 1.0
        want = _sign_fixed_by_loop(funcs)
        assert np.array_equal(spec.eigenfunctions, want)
        flipped += int((want != funcs).any(axis=0).sum())
    assert flipped > 0


def test_spectral_rejects_imbalanced_chain():
    # the constructor validates, so a chain out of balance never reaches the
    # symmetrization check: it cannot be built
    neighbors, weights = _table([[0.9, 0.1], [0.5, 0.5]])
    with pytest.raises(markov.DetailedBalanceViolation):
        markov.ChainModel(
            neighbors=neighbors, weights=weights, pi=np.array([0.5, 0.5]), lambda_low=1.0
        )


def test_spectral_decomposes_every_chain_that_builds():
    # validation and the decomposition share one rule, the asymmetry of S:
    # 0.8e-10 here, so the chain builds and decomposes, though its flux
    # imbalance, 4e-11, is below 1e-10 max|S| = 5e-11; 1.2e-10 is refused
    # as the chain is made
    delta = 0.8e-10
    neighbors, weights = _table([[0.5, 0.5], [0.5 - delta, 0.5 + delta]])
    chain = markov.ChainModel(
        neighbors=neighbors, weights=weights, pi=np.array([0.5, 0.5]), lambda_low=1.0
    )
    spec = markov.spectral_decomposition(chain)
    # the folded S has trace 1 - delta
    assert spec.eigenvalues == pytest.approx([0.0, 1.0 - delta], abs=1e-15)
    delta = 1.2e-10
    error = _rejected(
        markov.DetailedBalanceViolation,
        *_table([[0.5, 0.5], [0.5 - delta, 0.5 + delta]]),
        [0.5, 0.5],
    )
    assert error.index == (0, 1)
    assert error.magnitude == pytest.approx(1.2e-10, rel=1e-5)


def test_validate_judges_a_small_pi_state():
    # Glauber p = 12 at beta 1 with its lowest-pi state (pi = 7.9e-12) made
    # absorbing: not reversible, though every flux imbalance is below 1e-10
    chain = chains.build_glauber_cycle(chains.GlauberParams.uniform(12, 1.0))
    x = int(np.argmin(chain.pi))
    weights = chain.weights.copy()
    weights[x] = 0.0
    weights[x, 0] = 1.0
    error = _rejected(markov.DetailedBalanceViolation, chain.neighbors, weights, chain.pi)
    assert x in error.index
    assert error.magnitude == pytest.approx(1.1075e-2, rel=1e-3)


def test_validate_judges_a_long_cycle():
    # on the 100 001-cycle a relative 1e-5 change to P(7, 6), with P(7, 8)
    # taking up the row sum, moves the flux by 5e-11 but S by 5e-6
    chain = chains.build_cycle_walk(100001)
    weights = chain.weights.copy()
    weights[7, 2] *= 1.0 + 1e-5
    weights[7, 1] -= weights[7, 2] - chain.weights[7, 2]
    error = _rejected(markov.DetailedBalanceViolation, chain.neighbors, weights, chain.pi)
    assert error.index == (6, 7)
    assert error.magnitude == pytest.approx(5e-6, rel=1e-6)


@pytest.mark.parametrize("lambda_low", [0.0, 2.0])
def test_chain_lambda_low_range_is_the_filters(cycle_chain, lambda_low):
    # the range every filter accepts: a chain that builds can be filtered
    with pytest.raises(ValueError, match=r"lambda_low must lie in \(0, 2\), got"):
        markov.ChainModel(cycle_chain.neighbors, cycle_chain.weights, cycle_chain.pi, lambda_low)


@pytest.mark.parametrize("lambda_low", ["0.5", None, 1 + 0j, True, np.bool_(True), np.array([0.5])])
def test_lambda_low_must_be_a_real_number(cycle_chain, lambda_low):
    # judged by its type before its range, by the chain and by every entry
    # that takes a gap bound
    message = re.escape(f"lambda_low must be a real number, got {lambda_low!r}")
    with pytest.raises(ValueError, match=message):
        markov.ChainModel(cycle_chain.neighbors, cycle_chain.weights, cycle_chain.pi, lambda_low)
    f = np.ones(11)
    for call in (
        lambda: filters.bernstein_apply(cycle_chain, f, 3, lambda_low),
        lambda: filters.chebyshev_apply(cycle_chain, f, 3, lambda_low),
        lambda: filters.legendre_apply(cycle_chain, f, 3, lambda_low),
        lambda: filters.bernstein_scalar(0.5, 3, lambda_low),
        lambda: filters.chebyshev_scalar(0.5, 3, lambda_low),
        lambda: filters.legendre_scalar(0.5, 3, lambda_low),
        lambda: filters.error_table(cycle_chain, f, 3, lambda_low),
        lambda: filters.triangle(0.5, lambda_low),
    ):
        with pytest.raises(ValueError, match=message):
            call()


@pytest.mark.parametrize("lambda_low", [1, np.int64(1), np.float64(0.5), np.float32(0.5)])
def test_lambda_low_real_types_pass(cycle_chain, lambda_low):
    # judged to a Python float, so every filter computes in float64 whatever
    # the input's type, a single-precision value included
    chain = markov.ChainModel(cycle_chain.neighbors, cycle_chain.weights, cycle_chain.pi, lambda_low)
    assert type(chain.lambda_low) is float and chain.lambda_low == lambda_low
    f = harness.CYCLE_REFERENCE_SIGNAL
    for apply in (filters.bernstein_apply, filters.chebyshev_apply, filters.legendre_apply):
        got = apply(chain, f, 3, lambda_low)
        assert np.array_equal(got, apply(chain, f, 3, float(lambda_low))), apply.__name__


def test_gft_of_eigenfunction_is_basis_vector(cycle_chain, cycle_spec):
    for j in (0, 3, 7):
        fhat = markov.gft(cycle_spec.eigenfunctions[:, j], cycle_spec)
        expected = np.zeros(cycle_chain.n)
        expected[j] = 1.0
        assert fhat == pytest.approx(expected, abs=1e-10)


def test_gft_of_constant(cycle_chain, cycle_spec):
    fhat = markov.gft(2.5 * np.ones(11), cycle_spec)
    assert fhat[0] == pytest.approx(2.5, abs=1e-12)
    assert np.abs(fhat[1:]).max() <= 1e-12


def test_gft_unitarity(cycle_chain, cycle_spec, glauber_chain, glauber_spec):
    rng = np.random.default_rng(13)
    for chain, spec in ((cycle_chain, cycle_spec), (glauber_chain, glauber_spec)):
        for _ in range(50):
            f = rng.standard_normal(chain.n)
            g = rng.standard_normal(chain.n)
            fhat = markov.gft(f, spec)
            ghat = markov.gft(g, spec)
            assert abs(markov.pi_inner(f, g, chain) - fhat @ ghat) <= 1e-10


def test_decomposition_keeps_the_chains_pi(cycle_chain, cycle_spec):
    assert np.array_equal(cycle_spec.pi, cycle_chain.pi)
    assert not cycle_spec.pi.flags.writeable
    f = harness.CYCLE_REFERENCE_SIGNAL
    assert markov.pi_expectation(f, cycle_spec) == markov.pi_expectation(f, cycle_chain)


def test_igft_round_trip(glauber_chain, glauber_spec):
    rng = np.random.default_rng(17)
    f = rng.uniform(0.0, 10.0, glauber_chain.n)
    back = markov.igft(markov.gft(f, glauber_spec), glauber_spec)
    assert np.abs(back - f).max() <= 1e-10


def test_igft_basics(cycle_spec):
    assert markov.igft(np.zeros(11), cycle_spec) == pytest.approx(np.zeros(11))
    e0 = np.zeros(11)
    e0[0] = 1.0
    assert markov.igft(e0, cycle_spec) == pytest.approx(np.ones(11))


def test_gft_dimension_checks(cycle_spec):
    with pytest.raises(ValueError):
        markov.gft(np.ones(5), cycle_spec)
    with pytest.raises(ValueError):
        markov.igft(np.ones(5), cycle_spec)
