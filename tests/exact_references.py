"""Exact references the tests compare against.

None of these is on a run path: one output's max-abs error, unscaled, the
running average written as a polynomial in the Laplacian, the coefficients
of the annihilating polynomial of a spectrum, an exact-rational solver for the constrained L2 design problem,
Gauss-Legendre quadrature on the stopband, and the whole error table of a run
rebuilt from the eigendecomposition of the chain with textbook forms of the
four frequency responses. The Glauber chain is rebuilt from whole-state
(2^p, p) arrays, the construction the per-site lookup build replaced, and
its gap bound from the band matrix ``M`` itself, the eigenvalue oracle for
``chains.glauber_lambda_low``.
``filters.lagrange_exact_apply`` (the frequency-zeroing projector) stays in
the package.

Polynomial coefficient vectors are in ascending monomial order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np
from numpy.polynomial import chebyshev, legendre

from ergofilt import densela

ORACLE_DEGREE_CAP = 20


def max_abs_error(out, f, pi) -> float:
    """Largest deviation of one filter output from the stationary mean of ``f``."""
    return float(np.abs(np.asarray(out) - float(np.dot(pi, f))).max())


def ergodic_laplacian_coeffs(t: int) -> np.ndarray:
    """The running average written as a polynomial in the Laplacian.

    Returns ``a[k] = (1/t) C(t, k+1) (-1)^k`` for ``k = 0..t-1``, i.e. the
    coefficients with ``sum_k a[k] L^k f`` equal to ``ergodic_apply(f, t)``.
    The alternating binomial terms lose float precision past t around 15, so
    this form is for testing the identity, not for applying the filter.
    """
    if int(t) != t or t < 1:
        raise ValueError(f"averaging horizon must be a positive integer, got {t}")
    return np.array([comb(t, k + 1) * (-1.0) ** k / t for k in range(t)])


def lagrange_coefficients(eigenvalues) -> np.ndarray:
    """Ascending monomial coefficients of the annihilating polynomial
    ``q(z) = prod (1 - z/lam)`` over the distinct nonzero eigenvalues.

    ``q`` is 1 at frequency 0 and 0 at every other eigenvalue; eigenvalues
    closer than 1e-12 collapse to a single node.
    """
    ordered = np.sort(np.asarray(eigenvalues, dtype=float))
    nodes: list[float] = []
    for lam in ordered:
        if abs(lam) <= 1e-12:
            continue
        if nodes and abs(lam - nodes[-1]) <= 1e-12:
            continue
        nodes.append(float(lam))
    coeffs = np.array([1.0])
    for lam in nodes:
        coeffs = np.convolve(coeffs, np.array([1.0, -1.0 / lam]))
    return coeffs


@dataclass(frozen=True)
class L2Oracle:
    """Solution of the constrained least-squares design problem: ascending
    monomial coefficients and the attained squared L2 objective."""

    coefficients: np.ndarray
    objective: float


def _solve_exact(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Gaussian elimination over exact rationals (first-nonzero pivoting)."""
    n = len(matrix)
    aug = [list(matrix[i]) + [rhs[i]] for i in range(n)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot_row is None:
            raise ArithmeticError("exact elimination met an all-zero column")
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        for r in range(col + 1, n):
            if aug[r][col] == 0:
                continue
            factor = aug[r][col] / aug[col][col]
            aug[r] = [aug[r][j] - factor * aug[col][j] for j in range(n + 1)]
    solution = [Fraction(0)] * n
    for row in range(n - 1, -1, -1):
        acc = aug[row][n] - sum(aug[row][j] * solution[j] for j in range(row + 1, n))
        solution[row] = acc / aug[row][row]
    return solution


def l2_optimal_oracle(K: int, lambda_low: float) -> L2Oracle:
    """Independent reference for the L2 design problem.

    Minimizes the integral of ``p(z)^2`` over ``[lambda_low, 2]`` subject to
    ``p(0) = 1`` over polynomials of degree at most ``K``, using the exact
    analytic monomial moments ``(2^(i+j+1) - lambda_low^(i+j+1)) / (i+j+1)``.
    The stationarity system is solved in exact rational arithmetic — the
    moment matrix is far too ill-conditioned for float64 beyond degree ~8
    (floats are dyadic rationals, so converting ``lambda_low`` is lossless).
    Degrees above 20 are rejected.
    """
    if int(K) != K or K < 0:
        raise ValueError(f"filter degree must be a nonnegative integer, got {K}")
    if not 0.0 < lambda_low < 2.0:
        raise ValueError(f"lambda_low must lie in (0, 2), got {lambda_low}")
    if K > ORACLE_DEGREE_CAP:
        raise ValueError(f"oracle degree capped at {ORACLE_DEGREE_CAP}, got {K}")
    lam = Fraction(lambda_low)
    two = Fraction(2)
    moments = [
        [(two ** (i + j + 1) - lam ** (i + j + 1)) / (i + j + 1) for j in range(K + 1)]
        for i in range(K + 1)
    ]
    rhs = [Fraction(1)] + [Fraction(0)] * K
    scaled = _solve_exact(moments, rhs)
    if scaled[0] <= 0:
        raise ArithmeticError("moment system produced a non-positive leading value")
    coeffs = [value / scaled[0] for value in scaled]
    return L2Oracle(
        coefficients=np.array([float(value) for value in coeffs]),
        objective=float(1 / scaled[0]),
    )


def stopband_gauss(nodes: int, lambda_low: float):
    """Gauss-Legendre nodes and weights of ``nodes`` points on the stopband
    ``[lambda_low, 2]``: exact for polynomials of degree below ``2 nodes``."""
    x, w = legendre.leggauss(nodes)
    half = (2.0 - lambda_low) / 2.0
    return half * x + (2.0 + lambda_low) / 2.0, half * w


def filter_responses(z, k_max: int, lambda_low: float) -> np.ndarray:
    """Responses at nonzero frequencies ``z`` of the four filters at degrees
    ``1..k_max``, shape (len(z), k_max, 4), columns ergodic, Bernstein,
    Chebyshev, Legendre.

    Written without ``filters``: the closed-form running average
    ``(1 - (1 - z)^t) / (t z)`` at horizon ``t = K + 1``, the binomial
    Bernstein sum of the triangle target, ``T_K(m(z)) / T_K(m(0))`` from
    ``chebvander``, and the L2-optimal mix
    ``sum_k (2k + 1) P_k(m(0)) P_k(m(z)) / sum_k (2k + 1) P_k(m(0))^2`` from
    ``legvander``, where ``m`` maps the stopband ``[lambda_low, 2]`` onto
    ``[-1, 1]``.
    """
    z = np.asarray(z, dtype=float)
    degrees = np.arange(1, k_max + 1)
    out = np.zeros((z.size, k_max, 4))
    horizons = degrees + 1
    out[:, :, 0] = (1.0 - (1.0 - z[:, None]) ** horizons) / (horizons * z[:, None])
    half = z / 2.0
    for j, k in enumerate(degrees.tolist()):
        for l in range(k + 1):
            weight = max(0.0, 1.0 - (2.0 * l / k) / lambda_low)
            out[:, j, 1] += weight * comb(k, l) * half**l * (1.0 - half) ** (k - l)
    mapped = (2.0 * z - 2.0 - lambda_low) / (2.0 - lambda_low)
    m0 = np.array([-(2.0 + lambda_low) / (2.0 - lambda_low)])
    cheb_at_zero = chebyshev.chebvander(m0, k_max)[0]
    out[:, :, 2] = chebyshev.chebvander(mapped, k_max)[:, 1:] / cheb_at_zero[1:]
    at_zero = legendre.legvander(m0, k_max)[0] * (2.0 * np.arange(k_max + 1) + 1.0)
    numerators = np.cumsum(legendre.legvander(mapped, k_max) * at_zero, axis=1)
    denominators = np.cumsum(at_zero * legendre.legvander(m0, k_max)[0])
    out[:, :, 3] = numerators[:, 1:] / denominators[1:]
    return out


def spectral_error_table(transition, pi, f, k_max: int, lambda_low: float) -> np.ndarray:
    """The (k_max, 4) table of max-abs errors ``|p(L) f - pi(f)|`` of the four
    filters, from ``eigh`` of the symmetrised Laplacian
    ``D (I - P) D^-1``, ``D = diag(sqrt(pi))``.

    Every filter passes frequency 0 with gain 1, so the error lives on the
    nonzero frequencies; the zero eigenvalue must be simple.
    """
    pi = np.asarray(pi, dtype=float)
    f = np.asarray(f, dtype=float)
    d = np.sqrt(pi)
    sym = d[:, None] * (np.eye(pi.size) - transition) / d[None, :]
    eigenvalues, vectors = np.linalg.eigh(0.5 * (sym + sym.T))
    if abs(eigenvalues[0]) > 1e-10 or eigenvalues[1] <= 1e-10:
        raise ValueError("the Laplacian has no simple zero eigenvalue")
    coefficients = vectors[:, 1:].T @ (d * f)
    responses = filter_responses(eigenvalues[1:], k_max, lambda_low)
    deviation = vectors[:, 1:] @ (responses.reshape(pi.size - 1, -1) * coefficients[:, None])
    return np.abs(deviation / d[:, None]).max(axis=0).reshape(k_max, 4)


def reference_glauber_table(params):
    """``(neighbors, weights, pi, lambda_low)`` of the heat-bath chain on the
    Ising ring, from (2^p, p) arrays of every state's spins, fields and
    sigmoids, with the gap bound read off the band matrix.

    Each float expression is the one ``chains.build_glauber_cycle`` evaluates
    per site and spin pattern, in the same order, so the two agree bitwise.
    """
    p = params.p
    states = np.arange(1 << p)
    spins = np.where((states[:, None] >> np.arange(p)) & 1, 1.0, -1.0)
    # site w couples to w-1 via couplings[w-1] and to w+1 via couplings[w]
    field = np.roll(params.couplings, 1) * np.roll(spins, 1, axis=1) + params.couplings * np.roll(
        spins, -1, axis=1
    )
    aligned = params.beta * spins * field
    keep = 1.0 / (p * (1.0 + np.exp(-2.0 * aligned)))
    flip = 1.0 / (p * (1.0 + np.exp(2.0 * aligned)))
    neighbors = np.concatenate([states[:, None], states[:, None] ^ (1 << np.arange(p))], axis=1)
    weights = np.concatenate([keep.sum(axis=1, keepdims=True), flip], axis=1)
    energies = -(params.couplings * spins * np.roll(spins, -1, axis=1)).sum(axis=1)
    gibbs = np.exp(-params.beta * energies)
    return neighbors, weights, gibbs / gibbs.sum(), _reference_glauber_gap(params)


def glauber_m_matrix(params) -> np.ndarray:
    """Cyclic two-band matrix whose top eigenvalue controls the Glauber gap.

    With ``s_i = sinh(2 beta J_i)``, ``c_i = cosh(2 beta J_i)`` and
    ``D_i = c_{i-1} + c_i`` the bands are ``M(i, i-1) = s_{i-1} / D_i`` and
    ``M(i, i+1) = s_i / D_i``, indices mod p. Once ``2 beta J_i`` overflows
    float64 the entries are inf or nan, without a warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        s = np.sinh(2.0 * params.beta * params.couplings)
        c = np.cosh(2.0 * params.beta * params.couplings)
        # c_{i-1} + c_i overflows from c near 2^1023 on, though both are
        # finite: s and c are scaled by 2^-k first, which leaves s / D as is
        k = max(0, math.frexp(float(c.max()))[1] - 1022)
        s, c = np.ldexp(s, -k), np.ldexp(c, -k)
        d = np.roll(c, 1) + c
        rows = np.arange(params.p)
        m = np.zeros((params.p, params.p))
        m[rows, rows - 1] = np.roll(s, 1) / d
        m[rows, (rows + 1) % params.p] = s / d
    return m


def _reference_glauber_gap(params) -> float:
    """``(1 - gamma_1) / p`` from the band matrix. Uniform couplings take the
    closed forms, with ``t = tanh(2 beta |J|)``: ``gamma_1 = t``, or
    ``t cos(pi/p)`` on a frustrated (odd, ``J < 0``) ring, whose bound is
    written as ``(1 - t) + 2 t sin^2(pi/2p)``. Other couplings take ``eigh``
    of the symmetric band matrix ``S(i, i+1) = S(i+1, i) = s_i / sqrt(D_i
    D_{i+1})``, with ``s_i = sinh(2 beta J_i)`` and ``D_i = c_{i-1} + c_i``
    for ``c_i = cosh(2 beta J_i)``, written entry by entry."""
    m = glauber_m_matrix(params)
    if not np.all(np.isfinite(m)):
        raise ValueError(f"gap bound degenerates: band matrix overflows at beta={params.beta}")
    p = params.p
    coupling = float(params.couplings[0])
    frustrated = coupling < 0.0 and p % 2 == 1
    uniform = bool(np.all(params.couplings == coupling))
    if uniform:
        t = float(np.tanh(2.0 * params.beta * abs(coupling)))
        gamma1 = t * math.cos(math.pi / p) if frustrated else t
    else:
        s = np.sinh(2.0 * params.beta * params.couplings)
        c = np.cosh(2.0 * params.beta * params.couplings)
        sym = np.zeros((p, p))
        for i in range(p):
            j = (i + 1) % p
            sym[i, j] = sym[j, i] = s[i] / math.sqrt((c[i - 1] + c[i]) * (c[i] + c[j]))
        gamma1 = float(densela.symmetric_eigen(sym)[0][-1])
    if gamma1 >= 1.0:
        raise ValueError(f"gap bound degenerates: top band eigenvalue {gamma1} >= 1")
    if not uniform:
        return (1.0 - gamma1) / p
    with np.errstate(over="ignore"):
        growth = float(np.exp(4.0 * params.beta * abs(coupling)))
    if frustrated:
        return (2.0 / (1.0 + growth) + 2.0 * t * math.sin(math.pi / (2 * p)) ** 2) / p
    return 2.0 / ((1.0 + growth) * p)
