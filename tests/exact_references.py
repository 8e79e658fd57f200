"""Exact references the filter tests compare against.

None of these is on a run path: the running average written as a polynomial
in the Laplacian, the coefficients of the annihilating polynomial of a
spectrum, and an exact-rational solver for the constrained L2 design problem.
``filters.lagrange_exact_apply`` (the frequency-zeroing projector) stays in
the package.

Polynomial coefficient vectors are in ascending monomial order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

ORACLE_DEGREE_CAP = 20


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
