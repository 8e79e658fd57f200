"""Tests for the two bundled chain constructors and their gap bounds."""

import dataclasses
import math
import re
import tracemalloc

import exact_references
import numpy as np
import pytest

from ergofilt import chains, densela, markov


def test_cycle_triangle_case():
    chain = chains.build_cycle_walk(3)
    off = exact_references.dense_transition(chain)[~np.eye(3, dtype=bool)]
    assert off == pytest.approx(np.full(6, 0.5))
    assert chain.pi == pytest.approx(np.full(3, 1.0 / 3.0))


def test_cycle_p11_structure(cycle_chain):
    assert cycle_chain.pi == pytest.approx(np.full(11, 1.0 / 11.0))
    transition = exact_references.dense_transition(cycle_chain)
    assert np.abs(transition.sum(axis=1) - 1.0).max() == 0.0
    flow = cycle_chain.pi[:, None] * transition
    assert np.abs(flow - flow.T).max() == 0.0
    # re-validation of an already-built model must pass
    markov.validate_chain(cycle_chain.neighbors, cycle_chain.weights, cycle_chain.pi)


def test_cycle_rejects_bad_lengths():
    with pytest.raises(ValueError):
        chains.build_cycle_walk(10)
    with pytest.raises(ValueError):
        chains.build_cycle_walk(1)
    with pytest.raises(ValueError):
        chains.cycle_lambda_low(4)
    # an integral float is refused by its type; a numpy integer passes
    with pytest.raises(ValueError, match="cycle length must be an integer, got 11.0"):
        chains.build_cycle_walk(11.0)
    assert chains.build_cycle_walk(np.int64(11)).n == 11


def test_cycle_lambda_low_values():
    assert chains.cycle_lambda_low(11) == pytest.approx(88.0 / 1200.0, abs=1e-15)
    assert chains.cycle_lambda_low(3) == pytest.approx(1.5, abs=1e-15)


def test_cycle_lambda_low_below_true_gap():
    for p in (3, 5, 7, 11, 17):
        assert chains.cycle_lambda_low(p) <= 1.0 - np.cos(2.0 * np.pi / p) + 1e-12


def test_glauber_params_validation():
    for p in (2, 0, -1):
        with pytest.raises(ValueError, match=f"ring size must be at least 3, got {p}"):
            chains.GlauberParams.uniform(p, 0.2)
    # an int past the float64 range is refused as infinite, not by OverflowError
    for beta, shown in ((0.0, "0.0"), (-1, "-1.0"), (math.inf, "inf"), (math.nan, "nan"), (10**400, "inf")):
        message = f"inverse temperature must lie in (0, inf), got {shown}"
        with pytest.raises(ValueError, match=re.escape(message)):
            chains.GlauberParams.uniform(4, beta)
    for coupling in (math.inf, math.nan):
        message = f"coupling must lie in (-inf, inf), got {coupling}"
        with pytest.raises(ValueError, match=re.escape(message)):
            chains.GlauberParams.uniform(4, 0.2, coupling)
    # beta and J are judged by type: a string is not parsed, nor a bool read as 1
    for value in ("0.2", None, True):
        message = f"must be a real number, got {value!r}"
        with pytest.raises(ValueError, match=re.escape(f"inverse temperature {message}")):
            chains.GlauberParams.uniform(4, value)
        with pytest.raises(ValueError, match=re.escape(f"coupling {message}")):
            chains.GlauberParams.uniform(4, 0.2, value)
    with pytest.raises(ValueError):
        chains.GlauberParams(p=4, beta=0.2, couplings=np.ones(3))
    # explicit couplings are judged by dtype, a list entry by entry: a string
    # is not parsed, a bool not read as 1 (numpy reads [True, 1, 1] as ints),
    # and a complex value does not lose its imaginary part
    for couplings in (["1", "0.5", "2"], [True, 1, 1], [1.0, 0.5, True], np.ones(3, dtype=bool), np.array([1j, 1, 1])):
        with pytest.raises(ValueError, match=re.escape("couplings must be p finite reals")):
            chains.GlauberParams(p=3, beta=0.2, couplings=couplings)
    for couplings in ([1, 0.5, np.float32(2.0)], np.array([1, 0, 2], dtype=np.uint8)):
        params = chains.GlauberParams(p=3, beta=0.2, couplings=couplings)
        assert params.couplings.dtype == float and params.couplings.tolist() == [1.0, float(couplings[1]), 2.0]
    for make in (
        lambda: chains.GlauberParams.uniform(4.0, 0.2),
        lambda: chains.GlauberParams(p=4.0, beta=0.2),
    ):
        with pytest.raises(ValueError, match="ring size must be an integer, got 4.0"):
            make()
    assert chains.GlauberParams.uniform(np.int64(4), 0.2).couplings.shape == (4,)
    # a float32 beta is kept as the Python float of its value, so the gap
    # bound's closed form runs in float64, not in single precision
    params = chains.GlauberParams.uniform(4, np.float32(0.25), np.int64(-1))
    assert type(params.beta) is float and params.beta == 0.25
    same = chains.GlauberParams.uniform(4, 0.25, -1.0)
    assert chains.glauber_lambda_low(params) == chains.glauber_lambda_low(same)


def _ring_pi():
    # the energies are read through pi = exp(-0.2 H) / Z of a 4-spin ring, J = 1
    return chains.build_glauber_cycle(chains.GlauberParams.uniform(4, 0.2, 1.0)).pi


def test_energy_all_up():
    # the transfer matrix gives Z = (2 cosh 0.2)^4 + (2 sinh 0.2)^4
    z = (2.0 * math.cosh(0.2)) ** 4 + (2.0 * math.sinh(0.2)) ** 4
    assert _ring_pi()[0b1111] == pytest.approx(math.exp(-0.2 * -4.0) / z, rel=1e-14)


def test_energy_alternating():
    # pi(x) / pi(0b1111) = exp(-0.2 (H(x) + 4)), since H(0b1111) = -4
    pi = _ring_pi()
    assert pi[0b0101] / pi[0b1111] == pytest.approx(math.exp(-0.2 * (4.0 + 4.0)), rel=1e-14)


def test_energy_single_flip():
    # two aligned and two anti-aligned edges cancel
    pi = _ring_pi()
    assert pi[0b1110] / pi[0b1111] == pytest.approx(math.exp(-0.2 * (0.0 + 4.0)), rel=1e-14)


def test_gibbs_near_infinite_temperature():
    params = chains.GlauberParams.uniform(4, 1e-12, 1.0)
    pi = chains.build_glauber_cycle(params).pi
    assert pi == pytest.approx(np.full(16, 1.0 / 16.0), abs=1e-10)


def test_gibbs_normalized_with_ground_states():
    pi = _ring_pi()
    assert pi.sum() == pytest.approx(1.0, abs=1e-14)
    top_two = set(np.argsort(pi)[-2:])
    assert top_two == {0b0000, 0b1111}


def test_gibbs_flip_symmetry():
    params = chains.GlauberParams.uniform(4, 0.7, 1.3)
    pi = chains.build_glauber_cycle(params).pi
    flipped = np.array([pi[x ^ 0b1111] for x in range(16)])
    assert pi == pytest.approx(flipped, abs=1e-15)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "p, beta, error, message",
    [
        (9, 110.0, markov.NotANumber, r"stationary mass is NaN \(worst at 85,"),
        (5, 200.0, markov.NonPositivePi, "stationary mass is not strictly positive"),
    ],
    ids=["p9-beta110", "p5-beta200"],
)
def test_gibbs_of_cold_frustrated_ring_is_refused(p, beta, error, message):
    # the Gibbs weights overflow to NaN or underflow to 0; the build's
    # validation judges pi, with the errors the CLI prints for these rings
    with pytest.raises(error, match=message):
        chains.build_glauber_cycle(chains.GlauberParams.uniform(p, beta, -1.0))


def test_glauber_rows_and_balance(glauber_chain):
    transition = exact_references.dense_transition(glauber_chain)
    assert np.abs(transition.sum(axis=1) - 1.0).max() <= 1e-12
    flow = glauber_chain.pi[:, None] * transition
    assert np.abs(flow - flow.T).max() <= 1e-12
    # off-diagonal mass only on single-spin-flip pairs
    for x in range(16):
        for y in range(16):
            if x != y and bin(x ^ y).count("1") != 1:
                assert transition[x, y] == 0.0


def test_glauber_near_infinite_temperature():
    transition = exact_references.dense_transition(
        chains.build_glauber_cycle(chains.GlauberParams.uniform(4, 1e-12, 1.0))
    )
    for x in range(16):
        assert transition[x, x] == pytest.approx(0.5, abs=1e-9)
        for w in range(4):
            assert transition[x, x ^ (1 << w)] == pytest.approx(1.0 / 8.0, abs=1e-9)


def test_glauber_spin_flip_symmetry(glauber_chain):
    p = exact_references.dense_transition(glauber_chain)
    for x in range(16):
        for y in range(16):
            assert p[x, y] == pytest.approx(p[x ^ 0b1111, y ^ 0b1111], abs=1e-15)


def test_glauber_enumeration_cap():
    with pytest.raises(ValueError):
        chains.build_glauber_cycle(chains.GlauberParams.uniform(21, 0.2, 1.0))
    # the gap bound enumerates nothing, so it has no cap
    bound = chains.glauber_lambda_low(chains.GlauberParams.uniform(1000, 0.2, 1.0))
    assert bound == pytest.approx(2.0 / ((1.0 + np.exp(0.8)) * 1000), rel=1e-12)


def test_m_matrix_uniform_entries():
    m = exact_references.glauber_m_matrix(chains.GlauberParams.uniform(4, 0.2, 1.0))
    band = np.tanh(0.4) / 2.0
    assert band == pytest.approx(0.189975, abs=1e-6)
    for i in range(4):
        for j in range(4):
            expected = band if (j - i) % 4 in (1, 3) else 0.0
            assert m[i, j] == pytest.approx(expected, abs=1e-15)
    assert np.abs(m - m.T).max() == 0.0


def test_m_matrix_largest_eigenvalue():
    m = exact_references.glauber_m_matrix(chains.GlauberParams.uniform(4, 0.2, 1.0))
    w, _ = densela.symmetric_eigen(m)
    assert w[-1] == pytest.approx(np.tanh(0.4), abs=1e-12)


def test_glauber_lambda_low_value():
    lam = chains.glauber_lambda_low(chains.GlauberParams.uniform(4, 0.2, 1.0))
    assert lam == pytest.approx((1.0 - np.tanh(0.4)) / 4.0, abs=1e-12)
    assert lam == pytest.approx(0.1550127, abs=1e-7)
    # uniform couplings: the top band eigenvalue is tanh(2 beta) for every p
    for p in range(3, 21):
        for beta in (0.05, 0.2, 0.7, 1.5):
            lam = chains.glauber_lambda_low(chains.GlauberParams.uniform(p, beta, 1.0))
            assert abs(1.0 - p * lam - np.tanh(2.0 * beta)) <= 2e-15, (p, beta)


def test_glauber_lambda_low_small_beta():
    lam = chains.glauber_lambda_low(chains.GlauberParams.uniform(4, 1e-9, 1.0))
    assert lam == pytest.approx(0.25, abs=1e-8)


def test_glauber_lambda_low_is_exact_gap(glauber_chain, glauber_spec):
    assert abs(glauber_chain.lambda_low - glauber_spec.eigenvalues[1]) <= 1e-8


def test_glauber_nonuniform_couplings():
    # asymmetric band matrix: the gap bound must agree with a general
    # eigensolver on M and stay a sound bound for the built chain
    rng = np.random.default_rng(41)
    for _ in range(5):
        params = chains.GlauberParams(p=4, beta=0.3, couplings=rng.uniform(0.5, 1.5, 4))
        lam = chains.glauber_lambda_low(params)
        gamma_oracle = np.linalg.eigvals(exact_references.glauber_m_matrix(params)).real.max()
        assert lam == pytest.approx((1.0 - gamma_oracle) / 4.0, abs=1e-10)
        chain = chains.build_glauber_cycle(params)
        spec = markov.spectral_decomposition(chain)
        assert lam <= spec.eigenvalues[1] + 1e-8


def test_glauber_zero_couplings_get_a_sound_bound():
    # a zero coupling leaves both of its band entries zero, and the symmetric
    # band matrix keeps the eigenvalues of M: the bound agrees with a general
    # eigensolver on M and stays below the built chain's gap
    for couplings in ([1.0, 0.0, 1.0, 0.5], [0.0, 0.7, 0.0, 1.3, 0.4]):
        for beta in (0.3, 0.7, 1.2, 2.0):
            params = chains.GlauberParams(p=len(couplings), beta=beta, couplings=couplings)
            lam = chains.glauber_lambda_low(params)
            gamma_oracle = np.linalg.eigvals(exact_references.glauber_m_matrix(params)).real.max()
            assert abs((1.0 - params.p * lam) - gamma_oracle) <= 1e-12, (couplings, beta)
            chain = chains.build_glauber_cycle(params)
            assert chain.lambda_low == lam
            spec = markov.spectral_decomposition(chain)
            assert lam <= spec.eigenvalues[1] + 1e-8, (couplings, beta)


@pytest.mark.filterwarnings("error")
def test_glauber_strong_couplings_keep_the_band_matrix_finite():
    # cosh 2 beta J near 1e307: every cosh sum D_i is finite, but the
    # products D_i D_{i+1} under the square roots are not, unless scaled
    params = chains.GlauberParams(p=3, beta=1.0, couplings=[354.0, -355.0, 354.0])
    gamma_oracle = np.linalg.eigvals(exact_references.glauber_m_matrix(params)).real.max()
    lam = chains.glauber_lambda_low(params)
    assert lam == pytest.approx((1.0 - gamma_oracle) / 3.0, rel=1e-12)


@pytest.mark.filterwarnings("error")
def test_band_matrix_oracle_survives_an_overflowing_cosh_sum():
    # cosh 710 and cosh 710.2 are finite, their sum D_1 is not: unscaled,
    # row 1 of M would be s / inf, a silent zero row
    params = chains.GlauberParams(p=3, beta=1.0, couplings=[355.0, 355.1, 100.0])
    m = exact_references.glauber_m_matrix(params)
    assert np.all(np.isfinite(m[1])) and np.any(m[1] != 0.0)
    gamma_oracle = np.linalg.eigvals(m).real.max()
    assert abs(gamma_oracle - (1.0 - 3 * chains.glauber_lambda_low(params))) <= 1e-12


def test_glauber_symmetric_rings_keep_the_band_matrix():
    # alternating couplings on an even ring give every site the same cosh sum
    # D_i, so M is symmetric and the symmetric band matrix is M itself, bit
    # for bit
    for p in (4, 6, 8, 10):
        for a, b in ((1.0, 0.5), (0.3, -1.0), (0.0, 1.2)):
            for beta in (0.2, 0.7, 1.5):
                params = chains.GlauberParams(p=p, beta=beta, couplings=[a, b] * (p // 2))
                m = exact_references.glauber_m_matrix(params)
                assert np.array_equal(m, m.T)
                gamma1 = float(densela.symmetric_eigen(m)[0][-1])
                assert chains.glauber_lambda_low(params) == (1.0 - gamma1) / p, (p, a, b, beta)


def test_glauber_lambda_low_closed_form():
    # uniform ferromagnetic couplings: 2 / ((1 + e^(4 beta)) p), which the
    # subtraction 1 - tanh(2 beta) misses by 28% at p = 4, beta = 9; written
    # here with e^(-4 beta) so it shares no rounding with the program's form
    for p in (4, 10, 16):
        for beta in (0.2, 3.0, 6.0, 9.0):
            lam = chains.glauber_lambda_low(chains.GlauberParams.uniform(p, beta, 1.0))
            decay = math.exp(-4.0 * beta)
            want = 2.0 * decay / ((1.0 + decay) * p)
            assert abs(lam - want) <= 1e-14 * want, (p, beta)
    # an odd antiferromagnetic ring is frustrated: its gap is not the J > 0
    # form with |J| (0.038 at p = 3, beta = 0.7), but the one with
    # gamma_1 = tanh(2 beta |J|) cos(pi/p)
    params = chains.GlauberParams.uniform(3, 0.7, -1.0)
    gamma_oracle = np.linalg.eigvals(exact_references.glauber_m_matrix(params)).real.max()
    lam = chains.glauber_lambda_low(params)
    assert lam == pytest.approx((1.0 - gamma_oracle) / 3.0, rel=1e-12)
    assert lam == pytest.approx(0.18577, abs=1e-5)


UNIFORM_COUPLINGS = (-1.3, -1.0, -0.4, 0.0, 0.5, 1.0)


def _uniform_gap(p, beta, coupling):
    """The closed-form gap bound of a uniform ring written with
    ``e^(-4 beta |J|)``, so it shares no rounding with the program's form."""
    decay = math.exp(-4.0 * beta * abs(coupling))
    sigmoid = 2.0 * decay / (1.0 + decay)  # 1 - tanh(2 beta |J|)
    if coupling < 0.0 and p % 2 == 1:
        tanh = (1.0 - decay) / (1.0 + decay)
        return (sigmoid + 2.0 * tanh * math.sin(math.pi / (2 * p)) ** 2) / p
    return sigmoid / p


def test_glauber_lambda_low_uniform_matches_eigh():
    # every uniform coupling has a closed form; up to beta = 3 the dense
    # eigensolve of the band matrix is accurate enough to check it
    for p in range(3, 16):
        for beta in (0.05, 0.2, 0.7, 1.5, 3.0):
            for coupling in UNIFORM_COUPLINGS:
                params = chains.GlauberParams.uniform(p, beta, coupling)
                gamma1 = np.linalg.eigvalsh(exact_references.glauber_m_matrix(params))[-1]
                want = (1.0 - gamma1) / p
                lam = chains.glauber_lambda_low(params)
                assert abs(lam - want) <= 1e-8 * want, (p, beta, coupling)


@pytest.mark.filterwarnings("error")
def test_glauber_lambda_low_uniform_low_temperature():
    # at beta = 5 eigh's 1 - gamma_1 has cancelled (3e-5 relative at p = 6,
    # J = -1.3); the closed forms keep full precision
    for p in (3, 4, 5, 6, 10, 11, 16):
        for coupling in UNIFORM_COUPLINGS:
            lam = chains.glauber_lambda_low(chains.GlauberParams.uniform(p, 5.0, coupling))
            want = _uniform_gap(p, 5.0, coupling)
            assert abs(lam - want) <= 1e-14 * want, (p, coupling)
    # a frustrated ring passes the gamma_1 < 1 guard at any temperature the
    # band matrix holds; e^(4 beta |J|) = e^800 overflows, with no warning
    lam = chains.glauber_lambda_low(chains.GlauberParams.uniform(3, 200.0, -1.0))
    assert lam == 2.0 * math.sin(math.pi / 6) ** 2 / 3


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("beta", [80.0, 400.0])
def test_glauber_low_temperature_gap_degenerates(beta):
    params = chains.GlauberParams.uniform(10, beta, 1.0)
    for build in (chains.glauber_lambda_low, chains.build_glauber_cycle):
        with pytest.raises(ValueError, match="gap bound degenerates"):
            build(params)


# ---------------------------------------------------------------------------
# the vectorised table against the scalar double loop it replaced
# ---------------------------------------------------------------------------


def _reference_spin(x, w, p):
    return 1.0 if (x >> (w % p)) & 1 else -1.0


def _reference_energy(x, params):
    p = params.p
    total = 0.0
    for i in range(p):
        total += params.couplings[i] * _reference_spin(x, i, p) * _reference_spin(x, i + 1, p)
    return -total


def _reference_glauber(params):
    """Dense P and Gibbs law by the per-state Python loops."""
    p = params.p
    n = 1 << p
    transition = np.zeros((n, n))
    for x in range(n):
        for w in range(p):
            field_w = params.couplings[(w - 1) % p] * _reference_spin(x, w - 1, p) + (
                params.couplings[w] * _reference_spin(x, w + 1, p)
            )
            y = x ^ (1 << w)
            flip = params.beta * _reference_spin(y, w, p) * field_w
            keep = params.beta * _reference_spin(x, w, p) * field_w
            transition[x, y] += 1.0 / (p * (1.0 + np.exp(-2.0 * flip)))
            transition[x, x] += 1.0 / (p * (1.0 + np.exp(-2.0 * keep)))
    energies = np.array([_reference_energy(x, params) for x in range(n)])
    weights = np.exp(-params.beta * energies)
    return transition, weights / weights.sum()


def _glauber_cases():
    for p in range(3, 9):
        for beta in (0.05, 0.2, 0.7, 1.5):
            yield chains.GlauberParams.uniform(p, beta, 1.0)
            yield chains.GlauberParams(p=p, beta=beta, couplings=np.resize([0.3, 1.0, 0.7], p))


def test_glauber_table_matches_double_loop():
    for params in _glauber_cases():
        chain = chains.build_glauber_cycle(params)
        transition, pi = _reference_glauber(params)
        n = 1 << params.p
        assert chain.neighbors.shape == (n, params.p + 1)
        assert np.array_equal(chain.neighbors[:, 0], np.arange(n))
        assert np.abs(exact_references.dense_transition(chain) - transition).max() <= 1e-15, params
        assert np.abs(chain.pi - pi).max() <= 1e-15, params


def _reference_table_cases():
    yield from _glauber_cases()
    for p in (3, 4, 7, 8):
        for beta in (0.2, 0.7, 1.5):
            yield chains.GlauberParams.uniform(p, beta, -1.0)
            yield chains.GlauberParams(p=p, beta=beta, couplings=np.resize([1.0, -0.5, 0.7, -1.2], p))
    for p in (12, 16):
        yield chains.GlauberParams.uniform(p, 0.2, 1.0)
        yield chains.GlauberParams(p=p, beta=0.7, couplings=np.resize([0.3, -1.0, 0.7], p))


def test_glauber_table_matches_vectorised_reference():
    # the per-site lookups evaluate the whole-state expressions in the same
    # order, so the chain is bitwise the one the (2^p, p) arrays give
    for params in _reference_table_cases():
        chain = chains.build_glauber_cycle(params)
        neighbors, weights, pi, lambda_low = exact_references.reference_glauber_table(params)
        assert chain.neighbors.dtype == np.intp
        assert np.array_equal(chain.neighbors, neighbors), params
        assert np.array_equal(chain.weights, weights), params
        assert np.array_equal(chain.pi, pi), params
        assert chain.lambda_low == lambda_low, params


def _mirror_cases():
    for p in (*range(3, 13), 16):
        for coupling in (1.0, 0.0, -1.0):
            yield chains.GlauberParams.uniform(p, 0.7, coupling)
        yield chains.GlauberParams(p=p, beta=0.7, couplings=np.resize([0.3, -1.0, 0.7], p))


def test_glauber_spin_reversal_mirrors_rows():
    # reversing every spin maps state x to n - 1 - x; with no external field
    # row n - 1 - x holds row x's values bit for bit, its neighbours are the
    # reversed states, and pi is mirrored bit for bit too
    for params in _mirror_cases():
        chain = chains.build_glauber_cycle(params)
        n = 1 << params.p
        assert np.array_equal(chain.weights[::-1], chain.weights), params
        assert np.array_equal(chain.pi[::-1], chain.pi), params
        assert np.array_equal(chain.neighbors[::-1], (n - 1) ^ chain.neighbors), params


def test_glauber_window_codes_for_half_the_states(monkeypatch):
    # the build gathers window codes once, for the states with the top spin
    # down only; the rest is the mirrored copy
    sizes = []
    window_codes = chains._window_codes

    def recorded(states, p):
        sizes.append(len(states))
        return window_codes(states, p)

    monkeypatch.setattr(chains, "_window_codes", recorded)
    for p in (3, 4, 10):
        params = chains.GlauberParams.uniform(p, 0.5)
        chains.build_glauber_cycle(params)
        assert sizes == [1 << (p - 1)], (p, sizes)
        sizes.clear()


def test_glauber_build_and_validation_memory():
    # at p = 14 one (n, p + 1) table is 1.9 MiB; the build peaks at about 1.7
    # times the bytes the chain keeps (1.4 tables beside the chain), and
    # validation at about 1.4 tables: the table of S and one block's temporaries
    params = chains.GlauberParams.uniform(14, 0.2, 1.0)
    tracemalloc.start()
    try:
        chain = chains.build_glauber_cycle(params)
        build_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        markov.validate_chain(chain.neighbors, chain.weights, chain.pi)
        validate_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    kept = chain.neighbors.nbytes + chain.weights.nbytes + chain.pi.nbytes
    assert build_peak <= 2.0 * kept, build_peak / kept
    assert validate_peak <= 1.6 * chain.weights.nbytes, validate_peak / chain.weights.nbytes


def test_builders_hand_over_their_arrays(monkeypatch):
    # the chain holds the very arrays the builder validated: no copy is made
    seen = []
    validate_chain = markov.validate_chain

    def recorded(*arrays):
        seen.append(arrays)
        return validate_chain(*arrays)

    monkeypatch.setattr(markov, "validate_chain", recorded)
    built = [
        chains.build_cycle_walk(11),
        chains.build_glauber_cycle(chains.GlauberParams.uniform(4, 0.5)),
    ]
    assert len(seen) == len(built)
    for chain, (neighbors, weights, pi) in zip(built, seen):
        assert chain.neighbors is neighbors
        assert chain.weights is weights
        assert chain.pi is pi


def test_cycle_table_layout():
    chain = chains.build_cycle_walk(5)
    assert np.array_equal(chain.neighbors, [[0, 1, 4], [1, 2, 0], [2, 3, 1], [3, 4, 2], [4, 0, 3]])
    assert np.array_equal(chain.weights, np.tile([0.0, 0.5, 0.5], (5, 1)))


def test_operator_storage_is_linear():
    # a 2^14-state chain holds O(n d) numbers; a dense P would be 2 GiB
    p = 14
    chain = chains.build_glauber_cycle(chains.GlauberParams.uniform(p, 0.2, 1.0))
    n = 1 << p
    arrays = [getattr(chain, f.name) for f in dataclasses.fields(chain)]
    stored = sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))
    assert stored <= 64 * n * (p + 1)
    assert chain.weights.shape == (n, p + 1)
