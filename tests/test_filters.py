"""Tests for the four polynomial filters, their scalar counterparts, and the
two exact references.

Grid conventions for the sup-norm and squared-norm checks follow the shipped
contract: a uniform grid of 10^4 points (10^4 subintervals for quadrature) on
the stopband, with composite Simpson integration for squared norms.
"""

import warnings
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
        laplacian = np.eye(chain.n) - chain.dense_transition()
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
    laplacian = np.eye(cycle_chain.n) - cycle_chain.dense_transition()
    expected = f - (laplacian @ f) / 2.0
    out = filters.bernstein_apply(cycle_chain, f, 1, CYCLE_LAM)
    assert out == pytest.approx(expected, abs=1e-12)


def test_bernstein_apply_degree_zero_is_identity(cycle_chain):
    f = harness.CYCLE_REFERENCE_SIGNAL
    assert filters.bernstein_apply(cycle_chain, f, 0, CYCLE_LAM) == pytest.approx(f)


# ---------------------------------------------------------------------------
# Chebyshev filter
# ---------------------------------------------------------------------------


def test_chebyshev_at_zero_values():
    seq = filters.chebyshev_scalar_at_zero(2, 0.0733)
    m0 = -(2.0 + 0.0733) / (2.0 - 0.0733)
    assert m0 == pytest.approx(-1.07608, abs=1e-5)
    assert seq[0] == pytest.approx(1.0)
    assert seq[1] == pytest.approx(m0)
    assert seq[2] == pytest.approx(2.0 * m0 * m0 - 1.0, abs=1e-12)
    assert seq[2] == pytest.approx(1.3159, abs=1e-4)


def test_chebyshev_at_zero_hyperbolic_form():
    for lam in (CYCLE_LAM, GLAUBER_LAM):
        seq = filters.chebyshev_scalar_at_zero(20, lam)
        m0 = (2.0 + lam) / (2.0 - lam)
        expected = np.cosh(np.arange(21) * np.arccosh(m0))
        assert np.abs(seq) == pytest.approx(expected, rel=1e-10)
        assert np.all(np.diff(np.abs(seq)) > 0.0)


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
            target = 1.0 / abs(filters.chebyshev_scalar_at_zero(K, lam)[K])
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


def test_legendre_scalars_basics():
    for lam in (CYCLE_LAM, GLAUBER_LAM):
        scal = filters.legendre_scalar_at_zero(20, lam)
        assert np.all(np.diff(scal.partial_sums) > 0.0)
        assert np.all((scal.gamma > 0.0) & (scal.gamma < 1.0))
        at_zero = scal.values_at_zero
        assert at_zero @ at_zero / scal.partial_sums[-1] == pytest.approx(1.0, rel=1e-12)
        for K in range(0, 21):
            assert filters.legendre_scalar(0.0, K, lam) == pytest.approx(1.0, abs=1e-10)


def test_legendre_degree_zero_is_constant():
    grid = np.linspace(0.0, 2.0, 11)
    assert filters.legendre_scalar(grid, 0, 0.5) == pytest.approx(np.ones(11), abs=1e-12)


def test_legendre_apply_degree_zero(cycle_chain):
    f = harness.CYCLE_REFERENCE_SIGNAL
    assert filters.legendre_apply(cycle_chain, f, 0, CYCLE_LAM) == pytest.approx(f, abs=1e-12)


def test_legendre_values_at_zero_match_classical():
    for lam in (CYCLE_LAM, GLAUBER_LAM):
        scal = filters.legendre_scalar_at_zero(20, lam)
        m0 = -(2.0 + lam) / (2.0 - lam)
        c = np.sqrt(2.0 / (2.0 - lam))
        expected = np.array(
            [c * np.sqrt((2 * k + 1) / 2.0) * npleg.Legendre.basis(k)(m0) for k in range(21)]
        )
        assert scal.values_at_zero == pytest.approx(expected, rel=1e-9)


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
            scal = filters.legendre_scalar_at_zero(K, lam)
            oracle = exact_references.l2_optimal_oracle(K, lam)
            assert oracle.objective == pytest.approx(1.0 / scal.partial_sums[K], rel=1e-9)


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
            out = filters.lagrange_exact_apply(spec, f, chain.pi)
            assert np.abs(out - markov.pi_expectation(f, chain.pi)).max() <= 1e-8


def test_lagrange_apply_trivials(cycle_chain, cycle_spec):
    ones = np.ones(11)
    out = filters.lagrange_exact_apply(cycle_spec, ones, cycle_chain.pi)
    assert out == pytest.approx(ones, abs=1e-10)
    eigenfunction = cycle_spec.eigenfunctions[:, 3]
    out = filters.lagrange_exact_apply(cycle_spec, eigenfunction, cycle_chain.pi)
    assert np.abs(out).max() <= 1e-10


def test_lagrange_reference_signal_projection(cycle_chain, cycle_spec):
    f = harness.CYCLE_REFERENCE_SIGNAL
    out = filters.lagrange_exact_apply(cycle_spec, f, cycle_chain.pi)
    assert out == pytest.approx(np.full(11, 3.65), abs=1e-8)


def test_lagrange_polynomial_route_matches(cycle_chain, cycle_spec):
    # evaluating the annihilating polynomial on the Laplacian reproduces the
    # frequency-zeroing projection
    coeffs = exact_references.lagrange_coefficients(cycle_spec.eigenvalues)
    rng = np.random.default_rng(19)
    f = rng.uniform(0.0, 10.0, 11)
    laplacian = np.eye(cycle_chain.n) - cycle_chain.dense_transition()
    acc = coeffs[0] * f
    power = f.copy()
    for c in coeffs[1:]:
        power = laplacian @ power
        acc = acc + c * power
    exact = filters.lagrange_exact_apply(cycle_spec, f, cycle_chain.pi)
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
        fhat = markov.gft(f, spec, chain.pi)
        eigs = spec.eigenvalues
        for K in range(0, 21):
            pairs = (
                (filters.ergodic_apply(chain, f, K + 1), filters.ergodic_scalar(eigs, K + 1)),
                (filters.bernstein_apply(chain, f, K, lam), filters.bernstein_scalar(eigs, K, lam)),
                (filters.chebyshev_apply(chain, f, K, lam), filters.chebyshev_scalar(eigs, K, lam)),
                (filters.legendre_apply(chain, f, K, lam), filters.legendre_scalar(eigs, K, lam)),
            )
            for out, response in pairs:
                assert np.abs(markov.gft(out, spec, chain.pi) - response * fhat).max() <= 1e-9


def test_max_abs_error_trivials(cycle_chain):
    f = harness.CYCLE_REFERENCE_SIGNAL
    target = np.full(11, markov.pi_expectation(f, cycle_chain.pi))
    assert filters.max_abs_error(target, f, cycle_chain.pi) == pytest.approx(0.0, abs=1e-12)
    ones = np.ones(11)
    assert filters.max_abs_error(ones, ones, cycle_chain.pi) == pytest.approx(0.0, abs=1e-14)


def test_max_abs_error_at_t1(cycle_chain):
    f = harness.CYCLE_REFERENCE_SIGNAL
    err = filters.max_abs_error(filters.ergodic_apply(cycle_chain, f, 1), f, cycle_chain.pi)
    assert err == pytest.approx(4.88, abs=1e-12)


def test_max_abs_error_shape_check(cycle_chain):
    with pytest.raises(ValueError):
        filters.max_abs_error(np.ones(5), np.ones(11), cycle_chain.pi)


@pytest.mark.parametrize(
    "scalars, apply, lam, last_finite",
    [
        (filters.chebyshev_scalar_at_zero, filters.chebyshev_apply, CYCLE_LAM, 1831),
        (filters.legendre_scalar_at_zero, filters.legendre_apply, CYCLE_LAM, 915),
        (filters.legendre_scalar_at_zero, filters.legendre_apply, 1.9, 81),
    ],
    ids=["chebyshev-cycle", "legendre-cycle", "legendre-1.9"],
)
def test_normalizer_overflow_raises(scalars, apply, lam, last_finite, cycle_chain):
    # past the overflow the carry and weights would be 0 and the filter would
    # return the zero vector; it must raise instead, with no numpy warning
    f = harness.CYCLE_REFERENCE_SIGNAL
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scalars(last_finite, lam)
        assert np.isfinite(apply(cycle_chain, f, last_finite, lam)).all()
        with pytest.raises(FloatingPointError, match=f"at degree {last_finite + 1};"):
            scalars(last_finite + 1, lam)
        with pytest.raises(FloatingPointError, match=f"at degree {last_finite + 1};"):
            apply(cycle_chain, f, last_finite + 1, lam)


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
