"""Reversible-Markov-chain core.

Validates transition/stationary pairs, derives the Laplacian ``L = I - P``,
provides the stationary-weighted geometry (inner product, norm, expectation,
signal variation), and computes the Laplacian eigenfunction basis together
with the forward/inverse Fourier transform it induces on graph signals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import densela

ROW_SUM_TOL = 1e-12
DETAILED_BALANCE_TOL = 1e-10
ZERO_EIGENVALUE_TOL = 1e-8


class ChainValidationError(Exception):
    """Base class for chain validation failures; carries the worst offender."""

    def __init__(self, message: str, index, magnitude: float):
        super().__init__(f"{message} (worst at {index}, magnitude {magnitude:.3e})")
        self.index = index
        self.magnitude = magnitude


class StochasticityViolation(ChainValidationError):
    pass


class NonPositivePi(ChainValidationError):
    pass


class DetailedBalanceViolation(ChainValidationError):
    pass


@dataclass(frozen=True)
class ChainModel:
    """A validated reversible chain: P, its stationary law, L = I - P, and a
    positive lower bound on the smallest nonzero Laplacian eigenvalue."""

    n: int
    transition: np.ndarray
    pi: np.ndarray
    laplacian: np.ndarray
    lambda_low: float

    def __post_init__(self):
        if not 0.0 < self.lambda_low <= 2.0:
            raise ValueError(f"lambda_low must lie in (0, 2], got {self.lambda_low}")
        for arr in (self.transition, self.pi, self.laplacian):
            arr.setflags(write=False)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending Laplacian eigenvalues and stationary-orthonormal eigenfunction
    columns; the zero-frequency column is exactly the all-ones vector."""

    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray

    def __post_init__(self):
        self.eigenvalues.setflags(write=False)
        self.eigenfunctions.setflags(write=False)


def validate_chain(transition, pi) -> tuple[np.ndarray, np.ndarray]:
    """Check row-stochasticity, positivity of pi, and detailed balance.

    Returns the validated ``(P, pi)`` pair as float arrays; raises a
    ``ChainValidationError`` subclass naming the worst offending entry.
    """
    p = np.asarray(transition, dtype=float)
    dist = np.asarray(pi, dtype=float)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ValueError(f"transition matrix must be square, got {p.shape}")
    if dist.shape != (p.shape[0],):
        raise ValueError(f"pi has shape {dist.shape}, expected ({p.shape[0]},)")

    if p.size and p.min() < 0.0:
        idx = np.unravel_index(int(np.argmin(p)), p.shape)
        raise StochasticityViolation("negative transition probability", idx, float(-p[idx]))
    row_err = np.abs(p.sum(axis=1) - 1.0)
    if row_err.max() > ROW_SUM_TOL:
        idx = int(np.argmax(row_err))
        raise StochasticityViolation("row sum differs from 1", idx, float(row_err[idx]))

    if dist.min() <= 0.0:
        idx = int(np.argmin(dist))
        raise NonPositivePi("stationary mass is not strictly positive", idx, float(dist[idx]))
    if abs(dist.sum() - 1.0) > ROW_SUM_TOL:
        raise NonPositivePi("stationary mass does not sum to 1", -1, float(abs(dist.sum() - 1.0)))

    flow = dist[:, None] * p
    imbalance = np.abs(flow - flow.T)
    if imbalance.max() > DETAILED_BALANCE_TOL:
        idx = np.unravel_index(int(np.argmax(imbalance)), imbalance.shape)
        raise DetailedBalanceViolation("detailed balance violated", idx, float(imbalance[idx]))
    return p, dist


def make_chain(transition, pi, lambda_low: float) -> ChainModel:
    """Validate the pair and assemble the chain model with its Laplacian."""
    p, dist = validate_chain(transition, pi)
    p, dist = p.copy(), dist.copy()
    return ChainModel(
        n=p.shape[0],
        transition=p,
        pi=dist,
        laplacian=laplacian(p),
        lambda_low=float(lambda_low),
    )


def laplacian(transition) -> np.ndarray:
    """``I - P``, entrywise."""
    p = np.asarray(transition, dtype=float)
    return np.eye(p.shape[0]) - p


def _check_lengths(f: np.ndarray, g: np.ndarray):
    if f.shape != g.shape:
        raise ValueError(f"dimension mismatch: {f.shape} vs {g.shape}")


def pi_inner(f, g, pi) -> float:
    """Stationary-weighted inner product ``sum_x f(x) g(x) pi(x)``."""
    fv, gv, dist = np.asarray(f, float), np.asarray(g, float), np.asarray(pi, float)
    _check_lengths(fv, gv)
    _check_lengths(fv, dist)
    return float(np.sum(fv * gv * dist))


def pi_expectation(f, pi) -> float:
    """Stationary mean ``sum_x f(x) pi(x)``."""
    fv, dist = np.asarray(f, float), np.asarray(pi, float)
    _check_lengths(fv, dist)
    return float(np.dot(dist, fv))


def pi_norm(f, pi) -> float:
    """Stationary-weighted 2-norm of a signal."""
    return float(np.sqrt(pi_inner(f, f, pi)))


def total_variation(f, chain: ChainModel) -> float:
    """Edge-weighted roughness of a signal, normalized by its stationary norm.

    Sums ``pi(x) P(x,y) |f(x) - f(y)|^2`` over all directed transitions and
    returns the square root divided by ``||f||_pi``. Zero signals are rejected
    since the normalization is undefined for them.
    """
    fv = np.asarray(f, dtype=float)
    _check_lengths(fv, chain.pi)
    norm = pi_norm(fv, chain.pi)
    if norm == 0.0:
        raise ValueError("total variation is undefined for the zero signal")
    diff = fv[:, None] - fv[None, :]
    rough = float(np.sum(chain.pi[:, None] * chain.transition * diff * diff))
    return float(np.sqrt(rough) / norm)


def spectral_decomposition(chain: ChainModel) -> SpectralDecomposition:
    """Eigenpairs of the Laplacian in the stationary geometry.

    Works on the symmetrized matrix ``S = D^{1/2} L D^{-1/2}`` (``D = diag(pi)``),
    which is symmetric exactly when detailed balance holds, then maps the
    Euclidean-orthonormal eigenvectors ``v`` back to stationary-orthonormal
    eigenfunctions ``f = D^{-1/2} v``. The zero-eigenvalue column is replaced
    by the exact all-ones vector and every other column is sign-fixed so its
    first non-negligible entry is positive, making the output deterministic.
    """
    d = np.sqrt(chain.pi)
    s = d[:, None] * chain.laplacian / d[None, :]
    asym = float(np.abs(s - s.T).max())
    if asym > DETAILED_BALANCE_TOL * max(1.0, float(np.abs(s).max())):
        raise DetailedBalanceViolation("symmetrized Laplacian is not symmetric", (), asym)
    eigenvalues, vectors = densela.symmetric_eigen(s)
    funcs = vectors / d[:, None]
    if abs(eigenvalues[0]) > ZERO_EIGENVALUE_TOL:
        raise densela.DenseLAError(
            f"smallest Laplacian eigenvalue {eigenvalues[0]:.3e} is not zero to tolerance"
        )
    funcs[:, 0] = 1.0
    for j in range(1, funcs.shape[1]):
        col = funcs[:, j]
        cutoff = 1e-12 * max(1.0, float(np.abs(col).max()))
        nonzero = np.nonzero(np.abs(col) > cutoff)[0]
        if nonzero.size and col[nonzero[0]] < 0.0:
            funcs[:, j] = -col
    return SpectralDecomposition(eigenvalues=eigenvalues, eigenfunctions=funcs)


def gft(f, spec: SpectralDecomposition, pi) -> np.ndarray:
    """Forward transform: coefficient of each eigenfunction under ``pi_inner``."""
    fv, dist = np.asarray(f, float), np.asarray(pi, float)
    _check_lengths(fv, dist)
    if fv.shape[0] != spec.eigenfunctions.shape[0]:
        raise ValueError("signal length does not match the decomposition")
    return spec.eigenfunctions.T @ (dist * fv)


def igft(fhat, spec: SpectralDecomposition) -> np.ndarray:
    """Inverse transform: weighted sum of eigenfunction columns."""
    coeffs = np.asarray(fhat, dtype=float)
    if coeffs.shape[0] != spec.eigenfunctions.shape[1]:
        raise ValueError("coefficient length does not match the decomposition")
    return spec.eigenfunctions @ coeffs
