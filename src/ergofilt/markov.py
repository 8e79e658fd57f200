"""Reversible-Markov-chain core.

Stores a chain as a neighbour table and validates it, applies the affine
Laplacian operators ``a L + b I`` (``L = I - P``) that every filter is built
from, provides the stationary-weighted geometry (inner product, norm,
expectation, signal variation), and computes the Laplacian eigenfunction
basis together with the forward/inverse Fourier transform it induces on
graph signals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import densela

ROW_SUM_TOL = 1e-12
DETAILED_BALANCE_TOL = 1e-10
# rows per block of the one-gather pass: a 2^10-state chain is one block
_BLOCK_ROWS = 1024


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


class NotANumber(ChainValidationError):
    """A NaN transition probability or stationary mass."""


def check_real(value, name: str, low: float = -math.inf, high: float = math.inf) -> float:
    """``value`` as a Python float, unless it is not an ``int``, a ``float`` or a
    numpy integer or floating value (a ``bool`` is not), or lies outside
    ``(low, high)``: the one rule for every real scalar input (a gap bound, an
    inverse temperature, a coupling), so each reader computes in float64."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int past the float64 range, refused below
        number = math.inf if value > 0 else -math.inf
    if not low < number < high:
        raise ValueError(f"{name} must lie in ({low:g}, {high:g}), got {number}")
    return number


def check_lambda_low(lambda_low) -> float:
    """A gap bound judged by ``check_real`` on (0, 2), the range every filter accepts."""
    return check_real(lambda_low, "lambda_low", 0.0, 2.0)


def check_integer(value, name: str, least: int, below: int | None = None):
    """Refuse ``value`` unless it is an ``int`` or numpy integer in ``[least, below)``:
    the one rule for every integer input (a filter degree, an averaging horizon,
    ``k_max``, a seed, a chain size). A ``bool`` or integral float is refused by type."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if below is not None and not least <= int(value) < below:
        raise ValueError(f"{name} must lie in [{least}, {below}), got {value}")
    if int(value) < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")


def check_law(dist: np.ndarray) -> np.ndarray:
    """``dist``, judged a law: no NaN, every mass positive, sum 1 to ``ROW_SUM_TOL``."""
    if not dist.min() > 0.0:
        idx = int(np.argmin(dist))
        if np.isnan(dist[idx]):
            raise NotANumber("stationary mass is NaN", idx, float(dist[idx]))
        raise NonPositivePi("stationary mass is not strictly positive", idx, float(dist[idx]))
    if abs(dist.sum() - 1.0) > ROW_SUM_TOL:
        raise NonPositivePi("stationary mass does not sum to 1", -1, float(abs(dist.sum() - 1.0)))
    return dist


def check_signal(f, n: int) -> tuple[np.ndarray, int]:
    """``f``, ``n`` finite values of a bool, integer or float dtype, as floats at
    unit scale ``2^-e f`` in (-1, 1), and ``e``, else a ``ValueError``; ``2^e``
    is the power of two just above ``max |f(x)|`` (``e = 0`` for the zero or
    empty signal). The one float64-range rule: each signal reader works at this
    scale and scales its result back by ``2^e``, exactly while the products
    stay normal. A bilinear reader (``pi_inner``) takes its scale from the
    product instead, and calls this for the rule alone."""
    values = np.asarray(f)
    # a cast to float would drop an imaginary part and parse a string
    if values.dtype.kind not in "biuf":
        raise ValueError("signal values must be real")
    values = values.astype(float, copy=False)
    if values.shape != (n,):
        raise ValueError(f"signal has shape {values.shape}, expected ({n},)")
    peak = float(np.abs(values).max(initial=0.0))
    if not math.isfinite(peak):
        raise ValueError("signal values must be finite")
    exponent = math.frexp(peak)[1]
    return np.ldexp(values, -exponent), exponent


def scaled_back(values, exponent: int, name: str):
    """``2^exponent values``, or a ``FloatingPointError`` naming the reader if not finite."""
    with np.errstate(over="ignore"):
        out = np.ldexp(values, exponent)
    if not np.isfinite(out).all():
        raise FloatingPointError(f"non-finite {name} result")
    return out


@dataclass(frozen=True)
class ChainModel:
    """A validated reversible chain as a neighbour table, its stationary law,
    and a positive lower bound on the smallest nonzero Laplacian eigenvalue.

    Row ``x`` of ``neighbors`` lists the states ``x`` can move to, itself
    first; ``weights[x, j] = P(x, neighbors[x, j])``. Storage is O(n d) for
    ``d`` table columns, and P is never formed on the run path. A chain is
    validated once, as it is made, and keeps ``validate_chain``'s arrays.
    """

    neighbors: np.ndarray
    weights: np.ndarray
    pi: np.ndarray
    lambda_low: float

    def __post_init__(self):
        arrays = validate_chain(self.neighbors, self.weights, self.pi)
        object.__setattr__(self, "lambda_low", check_lambda_low(self.lambda_low))
        for name, arr in zip(("neighbors", "weights", "pi"), arrays):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.pi.shape[0]

    def affine(self, a: float, b: float):
        """The operator ``v -> a L v + b v``: one gather and one row-wise dot.

        The table ``-a weights``, with ``a + b`` added to column 0 (the state
        itself), is folded once here, so each application is one product with
        the table and nothing else. P is ``affine(-1, 1)``, L is
        ``affine(1, 0)``.
        """
        table = -a * self.weights
        table[:, 0] += a + b
        neighbors = self.neighbors

        def apply(v: np.ndarray) -> np.ndarray:
            return np.vecdot(table, v[neighbors])

        return apply


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending Laplacian eigenvalues, stationary-orthonormal eigenfunction
    columns, and the stationary law ``pi`` they are orthonormal under; the
    zero-frequency column is exactly the all-ones vector."""

    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray
    pi: np.ndarray

    def __post_init__(self):
        self.eigenvalues.setflags(write=False)
        self.eigenfunctions.setflags(write=False)
        self.pi.setflags(write=False)


def _pair_imbalance(neighbors: np.ndarray, sym: np.ndarray) -> np.ndarray:
    """``|S(x, y) - S(y, x)|`` for each entry ``(x, y)`` of the table, where
    ``S(x, y)`` sums ``sym`` over every entry of row ``x`` that lists ``y``
    and is 0 if there is none; ``sym[x, j]`` is ``S(x, y)`` of that one
    entry, ``weights[x, j] sqrt(pi(x)) / sqrt(pi(y))``.

    The exact check for any table, in O(n d^2), ``_BLOCK_ROWS`` rows at a
    time: both sums are taken from 0.0 in column order, over row ``x`` and
    over row ``y``, so a self-entry ``(x, x)`` reads exactly 0 and a pair
    with no reverse keeps its sum. On a table that lists each neighbour
    once, the largest entry has the bits of ``_entry_imbalance``'s worst value.
    """
    n, d = neighbors.shape
    out = np.empty((n, d))
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        rows = slice(start, stop)
        nbr = neighbors[rows]
        states = np.arange(start, stop)[:, None]
        forward = np.zeros(nbr.shape)
        backward = np.zeros(nbr.shape)
        for k in range(d):
            forward += np.where(nbr[:, k : k + 1] == nbr, sym[rows, k : k + 1], 0.0)
            backward += np.where(neighbors[nbr, k] == states, sym[nbr, k], 0.0)
        np.abs(np.subtract(forward, backward, out=forward), out=out[rows])
    return out


def _symmetrized(nbr: np.ndarray, w: np.ndarray, root: np.ndarray) -> np.ndarray:
    """S's table ``w / root[nbr] * root[:, None]``, rounded alike, over one gather of ``root``."""
    sym = root[nbr]
    return np.multiply(np.divide(w, sym, out=sym), root[:, None], out=sym)


def _entry_imbalance(nbr: np.ndarray, sym: np.ndarray) -> float | None:
    """The largest ``|S(x, y) - S(y, x)|`` over the entries ``(x, j)`` of the
    table ``sym`` of S, ``y = nbr[x, j]``, with ``S(y, x)`` gathered from column
    ``tau(j)`` of row ``y``, ``_BLOCK_ROWS`` rows at a time; None if some row
    ``y`` does not list ``x`` there.

    ``tau(j)`` is the column of row ``nbr[0, j]`` that lists state 0 (the
    identity on a table of bit flips; 2 for 1 and 1 for 2 on the cycle), or
    ``j`` if that map is not an involution. Entries and reverses then pair
    off one to one, so a check that passes weighs ``S(x, y)`` against
    ``S(y, x)`` even where a state lists another twice, and each entry is
    the reverse of its reverse: the rounded differences ``S(y, x) - S(x, y)``
    come in pairs ``v, -v``, and their largest is the largest ``|v|``.
    Column 0 must list each row's own state, as ``validate_chain`` checks
    first."""
    n, d = nbr.shape
    tau = (nbr.take(nbr[0], axis=0) == 0).argmax(axis=1)
    order = tau.tolist()
    if [order[k] for k in order] != list(range(d)):
        tau = np.arange(d)
    worst = 0.0
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        reverse = nbr[start:stop] * d
        reverse += tau
        if not (nbr.ravel().take(reverse) == nbr[start:stop, :1]).all():
            return None
        imbalance = sym.ravel().take(reverse)
        imbalance -= sym[start:stop]
        worst = max(worst, imbalance.max())
    return worst


def validate_chain(neighbors, weights, pi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Check row-stochasticity, positivity of pi, and detailed balance of a
    neighbour table in O(n d) time for the bundled chains.

    Returns the validated ``(neighbors, weights, pi)`` as index and float
    arrays, the caller's own where they already are; ``ChainModel`` runs it
    on every chain it makes. Raises a ``ChainValidationError`` subclass
    naming the worst offending state or ``(x, y)`` pair, or the first NaN.
    Each row is summed in one matrix-vector product.

    Detailed balance is judged on the scale of the symmetrized Laplacian
    ``S = D^{1/2} L D^{-1/2}`` (``D = diag(pi)``), whose symmetry it is: for
    each entry ``(x, y)``, ``|S(x, y) - S(y, x)|``, the flux imbalance
    ``|pi(x) P(x,y) - pi(y) P(y,x)|`` divided by ``sqrt(pi(x) pi(y))``, is
    at most ``DETAILED_BALANCE_TOL``; a ``DetailedBalanceViolation`` carries
    the largest such asymmetry. It is checked by the one-gather pass
    ``_entry_imbalance``, which both bundled chains pass, and where that
    does not decide, by the exact pair-by-pair ``_pair_imbalance``. A table
    that lists each neighbour once gets the same verdict, worst pair and
    magnitude from either.
    """
    nbr = np.asarray(neighbors)
    w = np.asarray(weights, dtype=float)
    dist = np.asarray(pi, dtype=float)
    if nbr.ndim != 2 or 0 in nbr.shape or nbr.dtype.kind not in "iu":
        raise ValueError(f"neighbour table must be a nonempty 2-d integer array, got {nbr.dtype} {nbr.shape}")
    if w.shape != nbr.shape:
        raise ValueError(f"weights have shape {w.shape}, expected {nbr.shape}")
    n, d = nbr.shape
    if dist.shape != (n,):
        raise ValueError(f"pi has shape {dist.shape}, expected ({n},)")
    nbr = nbr.astype(np.intp, copy=False)
    # one reduction: a negative index reads as 2^63 or more in the unsigned view
    if nbr.view(np.uintp).max() >= n:
        raise ValueError(f"neighbour index outside 0..{n - 1}")
    if (nbr[:, 0] != np.arange(n)).any():
        raise ValueError("column 0 of the neighbour table must list each state itself")

    if not w.min() >= 0.0:  # min and argmin propagate NaN, which fails this
        x, j = np.unravel_index(int(np.argmin(w)), w.shape)
        pair = (int(x), int(nbr[x, j]))
        if np.isnan(w[x, j]):
            raise NotANumber("transition probability is NaN", pair, float(w[x, j]))
        raise StochasticityViolation("negative transition probability", pair, float(-w[x, j]))
    ones = np.empty(d)
    ones.fill(1.0)
    row_err = np.abs(w @ ones - 1.0)
    if row_err.max() > ROW_SUM_TOL:
        idx = int(np.argmax(row_err))
        raise StochasticityViolation("row sum differs from 1", idx, float(row_err[idx]))

    check_law(dist)

    sym = _symmetrized(nbr, w, np.sqrt(dist))
    worst = _entry_imbalance(nbr, sym)
    if worst is not None and worst <= DETAILED_BALANCE_TOL:
        return nbr, w, dist
    imbalance = _pair_imbalance(nbr, sym)
    worst = int(np.argmax(imbalance))
    if imbalance.flat[worst] > DETAILED_BALANCE_TOL:
        x, j = divmod(worst, d)
        raise DetailedBalanceViolation(
            "detailed balance violated", (x, int(nbr[x, j])), float(imbalance.flat[worst])
        )
    return nbr, w, dist


def pi_inner(f, g, chain: ChainModel | SpectralDecomposition) -> float:
    """``sum_x f(x) g(x) pi(x)`` under the chain's validated law, at the scale of
    the product: each ``f(x) g(x)`` as its ``frexp`` mantissas times ``2^(e - top)``,
    ``e`` its exponent sum and ``top`` the largest, so no signal's spread is lost."""
    check_signal(f, len(chain.pi))
    check_signal(g, len(chain.pi))
    fm, fe = np.frexp(np.asarray(f, dtype=float))
    gm, ge = np.frexp(np.asarray(g, dtype=float))
    top = int((fe + ge).max())
    products = np.ldexp(fm * gm, fe + ge - top)
    return float(scaled_back(np.sum(products * chain.pi), top, "pi_inner"))


def pi_expectation(f, chain: ChainModel | SpectralDecomposition) -> float:
    """Mean ``sum_x f(x) pi(x)`` under the chain's validated law ``chain.pi``."""
    values, exponent = check_signal(f, len(chain.pi))
    return float(scaled_back(np.dot(chain.pi, values), exponent, "pi_expectation"))


def pi_norm(f, chain: ChainModel | SpectralDecomposition) -> float:
    """2-norm of a signal under the chain's validated law, its square root taken at
    unit scale, where ``sqrt`` of ``2^-2e`` times a sum is exactly ``2^-e`` times its root."""
    values, exponent = check_signal(f, len(chain.pi))
    return float(scaled_back(np.sqrt(np.sum(values * values * chain.pi)), exponent, "pi_norm"))


def total_variation(f, chain: ChainModel) -> float:
    """Edge-weighted roughness of a signal, normalized by its stationary norm.

    Sums ``pi(x) P(x,y) |f(x) - f(y)|^2`` over the entries of the neighbour
    table (every directed transition, in O(n d)) and
    returns the square root divided by ``||f||_pi``. Zero signals are rejected
    since the normalization is undefined for them. Both are taken at unit
    scale, and their ratio has no scale to take back.
    """
    fv = check_signal(f, chain.n)[0]
    norm = pi_norm(fv, chain)
    if norm == 0.0:
        raise ValueError("total variation is undefined for the zero signal")
    diff = fv[:, None] - fv[chain.neighbors]
    rough = float(np.sum(chain.pi[:, None] * chain.weights * diff * diff))
    return float(np.sqrt(rough) / norm)


def spectral_decomposition(chain: ChainModel) -> SpectralDecomposition:
    """Eigenpairs of the Laplacian in the stationary geometry.

    Works on ``S = D^{1/2} L D^{-1/2}`` (``D = diag(pi)``), symmetric exactly
    under detailed balance, as the identity minus validation's table of S
    (``_symmetrized``), whose ``S - S^T`` validation bounded entrywise by
    ``DETAILED_BALANCE_TOL``; the round-off left is folded as ``(S + S^T) / 2``.

    It then maps the Euclidean-orthonormal eigenvectors ``v`` back to
    stationary-orthonormal eigenfunctions ``f = D^{-1/2} v``.
    The first column (eigenvalue 0 on a validated chain) is replaced by the
    exact all-ones vector and every other column is sign-fixed so its first
    non-negligible entry is positive, making the output deterministic.
    """
    d = np.sqrt(chain.pi)
    s = np.eye(chain.n)
    sym = _symmetrized(chain.neighbors, chain.weights, d)
    np.subtract.at(s, (np.arange(chain.n)[:, None], chain.neighbors), sym)
    eigenvalues, vectors = densela.symmetric_eigen(0.5 * (s + s.T))
    funcs = vectors / d[:, None]
    funcs[:, 0] = 1.0
    # non-negligible: above 1e-12 max(1, max|column|); each column's largest entry is
    magnitude = np.abs(funcs)
    above = magnitude > 1e-12 * np.maximum(1.0, magnitude.max(axis=0))
    lead = funcs[above.argmax(axis=0), np.arange(chain.n)]
    np.negative(funcs, out=funcs, where=lead < 0.0)
    return SpectralDecomposition(eigenvalues=eigenvalues, eigenfunctions=funcs, pi=chain.pi)


def gft(f, spec: SpectralDecomposition) -> np.ndarray:
    """Forward transform: coefficient of each eigenfunction under ``pi_inner``
    with the decomposed chain's ``spec.pi``."""
    values, exponent = check_signal(f, len(spec.pi))
    return scaled_back(spec.eigenfunctions.T @ (spec.pi * values), exponent, "gft")


def igft(fhat, spec: SpectralDecomposition) -> np.ndarray:
    """Inverse transform: the eigenfunction columns weighted by ``n`` coefficients."""
    values, exponent = check_signal(fhat, len(spec.pi))
    return scaled_back(spec.eigenfunctions @ values, exponent, "igft")
