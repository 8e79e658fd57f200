"""Tests for the four polynomial filters, their scalar counterparts, and the
two exact references.

Grid conventions for the sup-norm and squared-norm checks follow the shipped
contract: a uniform grid of 10^4 points (10^4 subintervals for quadrature) on
the stopband, with composite Simpson integration for squared norms.
"""

import math
from math import comb

import numpy as np
import pytest
from numpy.polynomial import chebyshev as npcheb
from numpy.polynomial import legendre as npleg
from numpy.polynomial import polynomial as nppoly
from scipy.integrate import simpson

from ergofilt import chains, filters, harness, markov

import exact_references

CYCLE_LAM = chains.cycle_lambda_low(11)
GLAUBER_LAM = chains.glauber_lambda_low(chains.GlauberParams.uniform(4, 0.2, 1.0))


# ---------------------------------------------------------------------------
# running average
# ---------------------------------------------------------------------------


def test_ergodic_t1_is_identity(cycle_chain):
    f = harness.CYCLE_REFERENCE_SIGNAL
    assert filters.ergodic_apply(cycle_chain, f, 1) == pytest.approx(f)


def test_ergodic_fixes_constants(glauber_chain):
    ones = np.ones(glauber_chain.n)
    for t in (1, 2, 7, 40):
        assert filters.ergodic_apply(glauber_chain, ones, t) == pytest.approx(ones, abs=1e-13)


def test_ergodic_approaches_stationary_mean(cycle_chain):
    f = harness.CYCLE_REFERENCE_SIGNAL
    out = filters.ergodic_apply(cycle_chain, f, 5000)
    assert np.abs(out - 3.65).max() <= 5e-3


def test_ergodic_rejects_bad_horizon(cycle_chain):
    with pytest.raises(ValueError):
        filters.ergodic_apply(cycle_chain, np.ones(11), 0)
    with pytest.raises(ValueError):
        exact_references.ergodic_laplacian_coeffs(0)


def test_ergodic_coefficient_values():
    assert exact_references.ergodic_laplacian_coeffs(1) == pytest.approx([1.0])
    assert exact_references.ergodic_laplacian_coeffs(2) == pytest.approx([1.0, -0.5])
    for t in range(1, 16):
        assert exact_references.ergodic_laplacian_coeffs(t)[0] == pytest.approx(1.0)


def test_ergodic_power_sum_equals_coefficient_form(cycle_chain, glauber_chain):
    rng = np.random.default_rng(23)
    for chain in (cycle_chain, glauber_chain):
        laplacian = np.eye(chain.n) - exact_references.dense_transition(chain)
        f = rng.uniform(0.0, 10.0, chain.n)
        for t in range(1, 16):
            direct = filters.ergodic_apply(chain, f, t)
            coeffs = exact_references.ergodic_laplacian_coeffs(t)
            acc = coeffs[0] * f
            power = f.copy()
            for a in coeffs[1:]:
                power = laplacian @ power
                acc = acc + a * power
            assert np.abs(direct - acc).max() <= 1e-9


def test_ergodic_scalar_matches_coefficient_polynomial():
    z = np.linspace(0.0, 2.0, 9)
    for t in (1, 2, 5, 12):
        coeffs = exact_references.ergodic_laplacian_coeffs(t)
        assert filters.ergodic_scalar(z, t) == pytest.approx(nppoly.polyval(z, coeffs), abs=1e-11)
    # a scalar frequency gives a float: horizon 3 at z = 0.5 is (1 + 0.5 + 0.25) / 3
    value = filters.ergodic_scalar(0.5, 3)
    assert type(value) is float and value == pytest.approx(1.75 / 3.0, abs=1e-15)


# ---------------------------------------------------------------------------
# Bernstein filter
# ---------------------------------------------------------------------------


def test_triangle_values():
    lam = 0.5
    assert filters.triangle(0.0, lam) == pytest.approx(1.0)
    assert filters.triangle(lam, lam) == pytest.approx(0.0)
    assert filters.triangle(lam / 2.0, lam) == pytest.approx(0.5)
    assert filters.triangle(1.7, lam) == 0.0


def test_triangle_rejects_out_of_band():
    with pytest.raises(ValueError):
        filters.triangle(-0.5, 0.5)
    with pytest.raises(ValueError):
        filters.triangle(2.5, 0.5)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "response",
    [
        lambda z: filters.triangle(z, 0.5),
        lambda z: filters.ergodic_scalar(z, 3),
        lambda z: filters.bernstein_scalar(z, 5, 0.5),
        lambda z: filters.chebyshev_scalar(z, 5, 0.5),
        lambda z: filters.legendre_scalar(z, 4, 0.5),
    ],
    ids=["triangle", "ergodic", "bernstein", "chebyshev", "legendre"],
)
@pytest.mark.parametrize("z", [np.nan, [0.1, np.nan]], ids=["scalar", "array"])
def test_nan_frequency_is_outside_the_band(response, z):
    # a NaN fails both comparisons of an in-band test, so it is refused
    # rather than answered with 0.0 or NaN
    with pytest.raises(ValueError, match=r"frequency outside the Laplacian band \[0, 2\]"):
        response(z)


SCALARS = {
    "ergodic": (filters.ergodic_scalar, filters.ergodic_apply),
    "bernstein": (filters.bernstein_scalar, filters.bernstein_apply),
    "chebyshev": (filters.chebyshev_scalar, filters.chebyshev_apply),
    "legendre": (filters.legendre_scalar, filters.legendre_apply),
}


@pytest.mark.parametrize("name", sorted(SCALARS))
def test_scalar_is_the_unscaled_sweep_on_the_diagonal_operator(name):
    # *_scalar is its *_apply on the all-ones signal over the diagonal
    # operator, swept at unit scale 2^-1; in the float64 range that is
    # bitwise the sweep run unscaled, -0.0 and every grid point included
    scalar = SCALARS[name][0]
    steps = getattr(filters, f"_{name}_steps")
    z = np.linspace(0.0, 2.0, 401)
    ones = np.ones_like(z)
    for lam in (CYCLE_LAM, GLAUBER_LAM):
        for K in (0, 1, 20, 100):
            sweep_args = (K,) if name == "ergodic" else (K, lam)
            args = (K + 1,) if name == "ergodic" else sweep_args
            want = filters._last(steps(filters._Spectrum(z), ones, *sweep_args), ones)
            got = scalar(z, *args)
            assert got.view(np.int64).tolist() == want.view(np.int64).tolist(), (lam, K)
            at = [scalar(float(x), *args) for x in z[::40]]
            assert all(type(value) is float for value in at)
            assert at == got[::40].tolist(), (lam, K)
    assert scalar([], *args).shape == (0,)


@pytest.mark.parametrize("name", sorted(SCALARS))
def test_scalar_refuses_what_apply_refuses(cycle_chain, name):
    # a bad degree, horizon or gap bound is judged where *_apply judges it,
    # with *_apply's text; a frequency outside the band is judged first
    scalar, apply = SCALARS[name]
    bad = [(0,), (-1,), (2.0,), (True,)] if name == "ergodic" else [
        (-1, 0.5), (2.0, 0.5), (True, 0.5), (3, 0.0), (3, 2.0), (3, "0.5"), (3, np.nan),
    ]
    for args in bad:
        with pytest.raises(ValueError) as applied:
            apply(cycle_chain, np.ones(11), *args)
        with pytest.raises(ValueError) as responded:
            scalar(0.5, *args)
        assert str(responded.value) == str(applied.value), args
        with pytest.raises(ValueError, match=r"frequency outside the Laplacian band \[0, 2\]"):
            scalar(2.5, *args)


def test_bernstein_scalar_endpoints():
    for K in (1, 2, 7, 40, 400):
        assert filters.bernstein_scalar(0.0, K, CYCLE_LAM) == pytest.approx(1.0, abs=1e-12)
        assert filters.bernstein_scalar(2.0, K, CYCLE_LAM) == pytest.approx(0.0, abs=1e-12)


def test_bernstein_scalar_matches_full_sum():
    # the Pascal recurrence must agree with the naive full binomial expansion
    lam = 0.155
    grid = np.linspace(0.0, 2.0, 101)
    K = 30
    full = np.zeros_like(grid)
    for l in range(K + 1):
        weight = filters.triangle(2.0 * l / K, lam)
        full += weight * comb(K, l) * (grid / 2.0) ** l * (1.0 - grid / 2.0) ** (K - l)
    assert filters.bernstein_scalar(grid, K, lam) == pytest.approx(full, abs=1e-12)


def test_bernstein_approximation_bound():
    for lam in (CYCLE_LAM, GLAUBER_LAM):
        grid = np.linspace(0.0, 2.0, 10**4)
        target = filters.triangle(grid, lam)
        for K in (1, 2, 3, 5, 8, 13, 25, 60, 144, 400):
            err = np.abs(filters.bernstein_scalar(grid, K, lam) - target).max()
            assert err <= 1.5 * min(1.0, 2.0 / (np.sqrt(K) * lam))


def test_bernstein_apply_degree_one(cycle_chain):
    f = harness.CYCLE_REFERENCE_SIGNAL
    laplacian = np.eye(cycle_chain.n) - exact_references.dense_transition(cycle_chain)
    expected = f - (laplacian @ f) / 2.0
    out = filters.bernstein_apply(cycle_chain, f, 1, CYCLE_LAM)
    assert out == pytest.approx(expected, abs=1e-12)


def test_bernstein_apply_degree_zero_is_identity(cycle_chain):
    f = harness.CYCLE_REFERENCE_SIGNAL
    assert filters.bernstein_apply(cycle_chain, f, 0, CYCLE_LAM) == pytest.approx(f)


# ---------------------------------------------------------------------------
# Chebyshev filter
# ---------------------------------------------------------------------------


def _at_two_inverse(K, lam):
    """``T_K(m0)``, read off the response at frequency 2, where ``m(2) = 1``."""
    return 1.0 / filters.chebyshev_scalar(2.0, K, lam)


def test_chebyshev_at_zero_values():
    m0 = -(2.0 + 0.0733) / (2.0 - 0.0733)
    assert m0 == pytest.approx(-1.07608, abs=1e-5)
    seq = [_at_two_inverse(K, 0.0733) for K in range(3)]
    assert seq[0] == pytest.approx(1.0)
    assert seq[1] == pytest.approx(m0)
    assert seq[2] == pytest.approx(2.0 * m0 * m0 - 1.0, abs=1e-12)
    assert seq[2] == pytest.approx(1.3159, abs=1e-4)
    for K in range(3):
        assert filters.chebyshev_scalar(0.0, K, 0.0733) == pytest.approx(1.0, abs=1e-12)


def test_chebyshev_at_zero_hyperbolic_form():
    for lam in (CYCLE_LAM, GLAUBER_LAM):
        seq = np.array([_at_two_inverse(K, lam) for K in range(21)])
        m0 = (2.0 + lam) / (2.0 - lam)
        expected = np.cosh(np.arange(21) * np.arccosh(m0))
        assert np.abs(seq) == pytest.approx(expected, rel=1e-10)
        assert np.all(np.diff(np.abs(seq)) > 0.0)
        for K in range(21):
            assert filters.chebyshev_scalar(0.0, K, lam) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.filterwarnings("error")
def test_chebyshev_certified_sup_past_former_overflow():
    # |T_K(m(z))| = 1 at both stopband ends, so the response there is the
    # certified sup 1 / |T_K(m0)| = 1 / cosh(K arccosh|m0|), down to the
    # subnormal range; T_K(m0) itself overflows from K = 1832 on the 11-cycle
    # and K = 164 at lambda_low 1.9, where the response keeps decaying to 0
    for lam in (CYCLE_LAM, 1.9):
        rate = math.acosh((2.0 + lam) / (2.0 - lam))
        for K in (1, 10, 100, 163, 164, 1000, 1700, 1831, 1832, 5000, 10**4):
            want = 2.0 * math.exp(-K * rate) / (1.0 + math.exp(-2.0 * K * rate))
            at_two = filters.chebyshev_scalar(2.0, K, lam)
            at_low = filters.chebyshev_scalar(lam, K, lam)
            if want >= 1e-290:
                assert at_low == pytest.approx(want, rel=1e-9), (lam, K)
                assert at_two == pytest.approx((-1) ** K * want, rel=1e-9), (lam, K)
            else:
                assert abs(at_low) <= 1e-290 and abs(at_two) <= 1e-290, (lam, K)


def test_chebyshev_scalar_degree_zero():
    grid = np.linspace(0.0, 2.0, 11)
    assert filters.chebyshev_scalar(grid, 0, 0.5) == pytest.approx(np.ones(11))


def test_chebyshev_apply_degree_zero(cycle_chain):
    f = harness.CYCLE_REFERENCE_SIGNAL
    assert filters.chebyshev_apply(cycle_chain, f, 0, CYCLE_LAM) == pytest.approx(f)


def test_chebyshev_classical_polynomial_oracle():
    # numpy's Chebyshev basis as an independent evaluation route
    lam = 0.31
    grid = np.linspace(0.0, 2.0, 501)
    mapped = (2.0 * grid - 2.0 - lam) / (2.0 - lam)
    m0 = -(2.0 + lam) / (2.0 - lam)
    for K in (1, 2, 5, 9):
        basis = npcheb.Chebyshev.basis(K)
        expected = basis(mapped) / basis(m0)
        assert filters.chebyshev_scalar(grid, K, lam) == pytest.approx(expected, abs=1e-11)


def _refined_peaks(grid, vals, floor):
    """Local maxima of |vals| above floor, with parabolic location refinement."""
    a = np.abs(vals)
    h = grid[1] - grid[0]
    locations, signs, heights = [], [], []
    for i in range(len(grid)):
        left = a[i - 1] if i > 0 else -np.inf
        right = a[i + 1] if i + 1 < len(grid) else -np.inf
        # strict rise from the left, non-strict on the right, so a two-sample
        # plateau straddling an off-grid extremum counts once
        if a[i] < floor or a[i] <= left or a[i] < right:
            continue
        curvature = a[i - 1] - 2.0 * a[i] + a[i + 1] if 0 < i < len(grid) - 1 else 0.0
        if curvature < 0.0:
            locations.append(grid[i] + 0.5 * h * (a[i - 1] - a[i + 1]) / curvature)
        else:
            locations.append(grid[i])
        signs.append(1.0 if vals[i] > 0.0 else -1.0)
        heights.append(a[i])
    return np.array(locations), np.array(signs), np.array(heights)


def test_chebyshev_equioscillation():
    # the response alternates between +/- its sup at K+1 points located at
    # midband + halfwidth * cos(j pi / K)
    for lam in (CYCLE_LAM, GLAUBER_LAM):
        grid = np.linspace(lam, 2.0, 10**4)
        for K in (3, 8, 15):
            vals = filters.chebyshev_scalar(grid, K, lam)
            target = 1.0 / np.cosh(K * np.arccosh((2.0 + lam) / (2.0 - lam)))
            locations, signs, heights = _refined_peaks(grid, vals, 0.5 * target)
            assert len(locations) == K + 1
            j = np.arange(K + 1)
            predicted = (2.0 + lam) / 2.0 + (2.0 - lam) / 2.0 * np.cos(j * np.pi / K)
            assert np.abs(np.sort(locations) - np.sort(predicted)).max() <= 1e-4
            assert np.all(np.abs(np.diff(signs)) == 2.0)
            assert heights == pytest.approx(np.full(K + 1, target), rel=1e-4)


# ---------------------------------------------------------------------------
# Legendre filter
# ---------------------------------------------------------------------------


def _legendre_l2(K, lam):
    """Squared L2 norm of the degree-K Legendre response on the stopband, by
    (K + 1)-node Gauss-Legendre quadrature: exact for its degree 2K."""
    z, w = exact_references.stopband_gauss(K + 1, lam)
    return float(w @ filters.legendre_scalar(z, K, lam) ** 2)


def test_legendre_scalars_basics():
    for lam in (CYCLE_LAM, GLAUBER_LAM):
        # the objective 1 / S_K falls strictly with K: each degree adds a
        # positive term L~_K(0)^2 to S_K
        objectives = np.array([_legendre_l2(K, lam) for K in range(21)])
        assert np.all(np.diff(objectives) < 0.0)
        assert objectives[-1] > 0.0
        for K in range(0, 21):
            assert filters.legendre_scalar(0.0, K, lam) == pytest.approx(1.0, abs=1e-10)


def test_legendre_degree_zero_is_constant():
    grid = np.linspace(0.0, 2.0, 11)
    assert filters.legendre_scalar(grid, 0, 0.5) == pytest.approx(np.ones(11), abs=1e-12)


def test_legendre_apply_degree_zero(cycle_chain):
    f = harness.CYCLE_REFERENCE_SIGNAL
    assert filters.legendre_apply(cycle_chain, f, 0, CYCLE_LAM) == pytest.approx(f, abs=1e-12)


def test_legendre_values_at_zero_match_classical():
    # the L2 objective of degree K is 1 / S_K, S_K = sum_{k<=K} L~_k(0)^2
    for lam in (CYCLE_LAM, GLAUBER_LAM):
        m0 = -(2.0 + lam) / (2.0 - lam)
        c = np.sqrt(2.0 / (2.0 - lam))
        expected = np.array(
            [c * np.sqrt((2 * k + 1) / 2.0) * npleg.Legendre.basis(k)(m0) for k in range(21)]
        )
        objectives = [_legendre_l2(K, lam) for K in range(21)]
        assert objectives == pytest.approx(1.0 / np.cumsum(expected**2), rel=1e-9)


def test_legendre_scalar_matches_classical_mix():
    lam = 0.0733
    grid = np.linspace(lam, 2.0, 801)
    mapped = (2.0 * grid - 2.0 - lam) / (2.0 - lam)
    m0 = -(2.0 + lam) / (2.0 - lam)
    c = np.sqrt(2.0 / (2.0 - lam))
    for K in (0, 1, 2, 5, 12):
        at_zero = np.array(
            [c * np.sqrt((2 * k + 1) / 2.0) * npleg.Legendre.basis(k)(m0) for k in range(K + 1)]
        )
        mix = np.zeros_like(grid)
        for k in range(K + 1):
            mix += at_zero[k] * c * np.sqrt((2 * k + 1) / 2.0) * npleg.Legendre.basis(k)(mapped)
        expected = mix / np.sum(at_zero * at_zero)
        assert filters.legendre_scalar(grid, K, lam) == pytest.approx(expected, abs=1e-9)


def test_legendre_family_orthonormal_convention():
    # the scale convention keeps the mapped family orthonormal under plain
    # Lebesgue measure on the stopband
    lam = GLAUBER_LAM
    grid = np.linspace(lam, 2.0, 20001)
    mapped = (2.0 * grid - 2.0 - lam) / (2.0 - lam)
    c = np.sqrt(2.0 / (2.0 - lam))
    rows = np.array(
        [c * np.sqrt((2 * k + 1) / 2.0) * npleg.Legendre.basis(k)(mapped) for k in range(7)]
    )
    gram = np.array([[simpson(rows[i] * rows[j], x=grid) for j in range(7)] for i in range(7)])
    assert np.abs(gram - np.eye(7)).max() <= 1e-6


def test_legendre_l2_objective_matches_oracle():
    for lam in (CYCLE_LAM, GLAUBER_LAM):
        for K in (0, 3, 8, 15, 20):
            oracle = exact_references.l2_optimal_oracle(K, lam)
            assert oracle.objective == pytest.approx(_legendre_l2(K, lam), rel=1e-9)


def test_legendre_beats_random_competitors():
    K = 20
    lam = CYCLE_LAM
    grid = np.linspace(lam, 2.0, 10**4 + 1)
    vals = filters.legendre_scalar(grid, K, lam)
    mine = simpson(vals * vals, x=grid)
    rng = np.random.default_rng(29)
    for _ in range(200):
        coeffs = rng.uniform(-1.0, 1.0, K + 1)
        while abs(coeffs[0]) < 1e-6:
            coeffs = rng.uniform(-1.0, 1.0, K + 1)
        q = nppoly.polyval(grid, coeffs / coeffs[0])
        assert simpson(q * q, x=grid) >= mine - 1e-9


# ---------------------------------------------------------------------------
# exact references
# ---------------------------------------------------------------------------


def test_l2_oracle_degree_zero():
    oracle = exact_references.l2_optimal_oracle(0, 0.5)
    assert oracle.coefficients == pytest.approx([1.0])
    assert oracle.objective == pytest.approx(1.5, abs=1e-14)


def test_l2_oracle_constraint_and_cap():
    for K in (1, 4, 9):
        oracle = exact_references.l2_optimal_oracle(K, GLAUBER_LAM)
        assert oracle.coefficients[0] == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        exact_references.l2_optimal_oracle(21, 0.5)


def test_l2_oracle_grid_agreement_with_legendre():
    lam = 0.0733
    grid = np.linspace(lam, 2.0, 10**3)
    oracle = exact_references.l2_optimal_oracle(5, lam)
    mine = filters.legendre_scalar(grid, 5, lam)
    assert np.abs(nppoly.polyval(grid, oracle.coefficients) - mine).max() <= 1e-6


def test_lagrange_coefficients_cycle(cycle_spec):
    coeffs = exact_references.lagrange_coefficients(cycle_spec.eigenvalues)
    assert len(coeffs) == 6  # five distinct nonzero frequencies on the 11-cycle
    assert coeffs[0] == pytest.approx(1.0)
    distinct = np.array([lam for lam in cycle_spec.eigenvalues if lam > 1e-8])
    assert np.abs(nppoly.polyval(distinct, coeffs)).max() <= 1e-8


def test_lagrange_collapses_duplicates():
    coeffs = exact_references.lagrange_coefficients([0.0, 0.5, 0.5 + 1e-13, 1.5])
    assert len(coeffs) == 3


def test_lagrange_apply_projects(cycle_chain, cycle_spec, glauber_chain, glauber_spec):
    rng = np.random.default_rng(37)
    for chain, spec in ((cycle_chain, cycle_spec), (glauber_chain, glauber_spec)):
        for _ in range(20):
            f = rng.uniform(0.0, 10.0, chain.n)
            out = filters.lagrange_exact_apply(spec, f)
            assert np.abs(out - markov.pi_expectation(f, chain)).max() <= 1e-8
    # a cold ring: the first nonzero frequency, 6.9e-10, is nonzero all the
    # same, and the number of up spins projects to its mean 3
    cold = chains.build_glauber_cycle(chains.GlauberParams.uniform(6, 5.0))
    spec = markov.spectral_decomposition(cold)
    assert 0.0 < spec.eigenvalues[1] < 1e-9
    up_spins = np.array([bin(x).count("1") for x in range(cold.n)], dtype=float)
    out = filters.lagrange_exact_apply(spec, up_spins)
    assert np.abs(out - 3.0).max() <= 1e-8


def test_lagrange_apply_trivials(cycle_spec):
    ones = np.ones(11)
    out = filters.lagrange_exact_apply(cycle_spec, ones)
    assert out == pytest.approx(ones, abs=1e-10)
    eigenfunction = cycle_spec.eigenfunctions[:, 3]
    out = filters.lagrange_exact_apply(cycle_spec, eigenfunction)
    assert np.abs(out).max() <= 1e-10


def test_lagrange_reference_signal_projection(cycle_spec):
    f = harness.CYCLE_REFERENCE_SIGNAL
    out = filters.lagrange_exact_apply(cycle_spec, f)
    assert out == pytest.approx(np.full(11, 3.65), abs=1e-8)


def test_lagrange_polynomial_route_matches(cycle_chain, cycle_spec):
    # evaluating the annihilating polynomial on the Laplacian reproduces the
    # frequency-zeroing projection
    coeffs = exact_references.lagrange_coefficients(cycle_spec.eigenvalues)
    rng = np.random.default_rng(19)
    f = rng.uniform(0.0, 10.0, 11)
    laplacian = np.eye(cycle_chain.n) - exact_references.dense_transition(cycle_chain)
    acc = coeffs[0] * f
    power = f.copy()
    for c in coeffs[1:]:
        power = laplacian @ power
        acc = acc + c * power
    exact = filters.lagrange_exact_apply(cycle_spec, f)
    assert np.abs(acc - exact).max() <= 1e-7


# ---------------------------------------------------------------------------
# cross-filter properties
# ---------------------------------------------------------------------------


def test_dc_gain_unity_all_filters(cycle_chain, glauber_chain):
    for chain in (cycle_chain, glauber_chain):
        ones = np.ones(chain.n)
        lam = chain.lambda_low
        for K in range(0, 21):
            assert np.abs(filters.ergodic_apply(chain, ones, K + 1) - 1.0).max() <= 1e-10
            assert np.abs(filters.bernstein_apply(chain, ones, K, lam) - 1.0).max() <= 1e-10
            assert np.abs(filters.chebyshev_apply(chain, ones, K, lam) - 1.0).max() <= 1e-10
            assert np.abs(filters.legendre_apply(chain, ones, K, lam) - 1.0).max() <= 1e-10


def test_spectral_diagonalization_all_filters(cycle_chain, cycle_spec, glauber_chain, glauber_spec):
    for chain, spec in ((cycle_chain, cycle_spec), (glauber_chain, glauber_spec)):
        f = harness.CYCLE_REFERENCE_SIGNAL if chain.n == 11 else harness.GLAUBER_REFERENCE_SIGNAL
        lam = chain.lambda_low
        fhat = markov.gft(f, spec)
        eigs = spec.eigenvalues
        for K in range(0, 21):
            pairs = (
                (filters.ergodic_apply(chain, f, K + 1), filters.ergodic_scalar(eigs, K + 1)),
                (filters.bernstein_apply(chain, f, K, lam), filters.bernstein_scalar(eigs, K, lam)),
                (filters.chebyshev_apply(chain, f, K, lam), filters.chebyshev_scalar(eigs, K, lam)),
                (filters.legendre_apply(chain, f, K, lam), filters.legendre_scalar(eigs, K, lam)),
            )
            for out, response in pairs:
                assert np.abs(markov.gft(out, spec) - response * fhat).max() <= 1e-9


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "apply, scalar, lam, former_overflow",
    [
        (filters.chebyshev_apply, filters.chebyshev_scalar, CYCLE_LAM, 1832),
        (filters.legendre_apply, filters.legendre_scalar, CYCLE_LAM, 916),
        (filters.legendre_apply, filters.legendre_scalar, 1.9, 82),
    ],
    ids=["chebyshev-cycle", "legendre-cycle", "legendre-1.9"],
)
def test_sweep_finite_past_former_overflow(apply, scalar, lam, former_overflow, cycle_chain, cycle_spec):
    # a table of T_k(m0) or S_k overflowed at these degrees, and the filter
    # raised; the ratio sweeps carry no such table, so at and past that degree
    # the output is finite, with no numpy warning, and is still the filter's
    # spectral form (in particular not the zero vector)
    f = harness.CYCLE_REFERENCE_SIGNAL
    fhat = markov.gft(f, cycle_spec)
    for K in (former_overflow - 1, former_overflow, 2 * former_overflow):
        out = apply(cycle_chain, f, K, lam)
        assert np.isfinite(out).all(), K
        response = scalar(cycle_spec.eigenvalues, K, lam)
        assert np.abs(markov.gft(out, cycle_spec) - response * fhat).max() <= 1e-9, K


def test_non_finite_signal_rejected(cycle_chain):
    for bad in (np.nan, np.inf, -np.inf):
        f = np.ones(11)
        f[3] = bad
        with pytest.raises(ValueError, match="finite"):
            filters.ergodic_apply(cycle_chain, f, 3)
        for apply in (filters.bernstein_apply, filters.chebyshev_apply, filters.legendre_apply):
            with pytest.raises(ValueError, match="finite"):
                apply(cycle_chain, f, 3, 0.5)


def test_context_validation(cycle_chain):
    with pytest.raises(ValueError):
        filters.bernstein_apply(cycle_chain, np.ones(11), -1, 0.5)
    with pytest.raises(ValueError):
        filters.chebyshev_apply(cycle_chain, np.ones(11), 3, 0.0)
    with pytest.raises(ValueError):
        filters.legendre_apply(cycle_chain, np.ones(11), 3, 2.0)
    with pytest.raises(ValueError):
        filters.chebyshev_scalar(2.5, 3, 0.5)
    with pytest.raises(ValueError):
        filters.ergodic_scalar(3.0, 2)
    with pytest.raises(ValueError):
        filters.bernstein_apply(cycle_chain, np.ones(4), 3, 0.5)
    # a degree or horizon is judged by its type too: an integral float or a
    # bool is refused, and a numpy integer passes
    for call in (
        lambda: filters.chebyshev_apply(cycle_chain, np.ones(11), 2.0, 0.5),
        lambda: filters.chebyshev_apply(cycle_chain, np.ones(11), True, 0.5),
        lambda: filters.ergodic_scalar(0.5, True),
        lambda: filters.ergodic_apply(cycle_chain, np.ones(11), 3.0),
        lambda: filters.chebyshev_scalar(0.5, 2.0, 0.5),
        lambda: filters.ergodic_scalar(0.5, 3.0),
        lambda: filters.error_table(cycle_chain, np.ones(11), 2.0, 0.5),
    ):
        with pytest.raises(ValueError, match="(filter degree|averaging horizon) must be an integer, got"):
            call()
    assert filters.chebyshev_scalar(0.5, np.int64(2), 0.5) == filters.chebyshev_scalar(0.5, 2, 0.5)
    assert filters.ergodic_scalar(0.5, np.int32(3)) == filters.ergodic_scalar(0.5, 3)
