"""Polynomial filters on the Laplacian of a reversible chain.

All four filters approximate the projection of a signal onto its stationary
mean: the running (Birkhoff) average, plus three degree-``K`` designs that
pass the zero frequency with unit gain while damping everything above a known
positive frequency bound ``lambda_low`` — Bernstein smoothing of an ideal
triangular low-pass response, a sup-norm-optimal normalized Chebyshev design,
and an L2-optimal Legendre design. Each filter's vector recursion is one
generator that yields its output at every degree up to K, one application of
an affine Laplacian operator from ``ChainModel.affine`` per degree (per
carried basis signal for Bernstein):
``*_apply`` returns the last output, and ``*_errors`` the max-abs error at
each degree of one sweep. Each vector recursion has a scalar
evaluator mirroring it for spectral-domain testing, and an exact reference
ships alongside: the frequency-zeroing projector ``lagrange_exact_apply``.

Polynomial coefficient vectors are in ascending monomial order.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from . import markov

_BAND_SLOP = 1e-9
# Bernstein triangle weights per ``triangle`` call: one call covers a sweep
# unless it has many degrees and many control points, where a whole (K, c + 1)
# table could take gigabytes
_WEIGHT_BLOCK = 1 << 16


def _check_degree(k: int):
    if int(k) != k or k < 0:
        raise ValueError(f"filter degree must be a nonnegative integer, got {k}")


def _check_context(k: int, lambda_low: float):
    _check_degree(k)
    if not 0.0 < lambda_low < 2.0:
        raise ValueError(f"lambda_low must lie in (0, 2), got {lambda_low}")


def _band_values(z) -> np.ndarray:
    """Validate frequencies against [0, 2] (with round-off slop) and clip."""
    values = np.atleast_1d(np.asarray(z, dtype=float))
    if values.size and (values.min() < -_BAND_SLOP or values.max() > 2.0 + _BAND_SLOP):
        raise ValueError("frequency outside the Laplacian band [0, 2]")
    return np.clip(values, 0.0, 2.0)


def _m0(lambda_low: float) -> float:
    """Image of frequency 0 under the stopband map; always < -1."""
    return -(2.0 + lambda_low) / (2.0 - lambda_low)


def _stopband_map(chain: markov.ChainModel, lambda_low: float):
    """The operator ``M = (2L - (2 + lambda_low) I) / (2 - lambda_low)``, which
    sends the stopband [lambda_low, 2] onto [-1, 1]."""
    return chain.affine(2.0 / (2.0 - lambda_low), _m0(lambda_low))


def _first_overflow(normalizers: np.ndarray, name: str):
    """Raise ``FloatingPointError`` naming the first degree whose normalizer
    is not finite; past it the filter would silently return zero."""
    bad = np.flatnonzero(~np.isfinite(normalizers))
    if bad.size:
        raise FloatingPointError(
            f"{name} is not finite at degree {int(bad[0])}; lower the degree or raise lambda_low"
        )


def _signal_for(chain: markov.ChainModel, f) -> np.ndarray:
    values = np.asarray(f, dtype=float)
    if values.shape != (chain.n,):
        raise ValueError(f"signal has shape {values.shape}, expected ({chain.n},)")
    if not np.all(np.isfinite(values)):
        raise ValueError("signal values must be finite")
    return values


def _last(steps):
    for out in steps:
        pass
    return out


def _errors(chain: markov.ChainModel, f, steps) -> list[float]:
    """Max-abs errors of the outputs at degrees 1, 2, ... (degree 0 skipped)."""
    next(steps)
    target = markov.pi_expectation(f, chain.pi)
    return [float(np.abs(out - target).max()) for out in steps]


# ---------------------------------------------------------------------------
# running (Birkhoff) average
# ---------------------------------------------------------------------------


def _ergodic_steps(chain: markov.ChainModel, f, K: int):
    """Running averages at degrees 0..K (horizons 1..K+1), one product with P each."""
    _check_degree(K)
    values = _signal_for(chain, f)
    transition = chain.affine(-1.0, 1.0)
    acc = values.copy()
    power = values
    yield values.copy()
    for k in range(1, K + 1):
        power = transition(power)
        acc += power
        yield acc / (k + 1)


def ergodic_apply(chain: markov.ChainModel, f, t: int) -> np.ndarray:
    """Average of the first ``t`` powers of P applied to ``f`` (t-1 matvecs).

    The output obeys the mean ergodic theorem exactly:
    ``avg_t f - pi(f) = L+ (I - P^t)(f - pi(f)) / t``, where ``L+`` inverts
    ``L = I - P`` on signals of stationary mean zero (numpy's ``pinv`` of L
    when pi is uniform). Once P^t has mixed, the max-norm error therefore
    decays like ``||L+ (f - pi(f))||_inf / t``, set by the Poisson solution
    rather than by the degree: on the 11-cycle with the reference signal it
    is 0.033658 at t = 500 and first drops below 1e-2 at t = 1683.
    """
    if int(t) != t or t < 1:
        raise ValueError(f"averaging horizon must be a positive integer, got {t}")
    return _last(_ergodic_steps(chain, f, t - 1))


def ergodic_errors(chain: markov.ChainModel, f, k_max: int) -> list[float]:
    """Max-abs errors of the running average at degrees ``1..k_max``, where
    degree K is horizon ``t = K + 1``; ``k_max`` products with P in all."""
    return _errors(chain, f, _ergodic_steps(chain, f, k_max))


def ergodic_scalar(z, t: int) -> np.ndarray:
    """Frequency response of the running average: ``(1/t) sum_k (1-z)^k``."""
    if int(t) != t or t < 1:
        raise ValueError(f"averaging horizon must be a positive integer, got {t}")
    values = np.atleast_1d(np.asarray(z, dtype=float))
    acc = np.zeros_like(values)
    term = np.ones_like(values)
    for _ in range(t):
        acc += term
        term = term * (1.0 - values)
    return acc / t


# ---------------------------------------------------------------------------
# Bernstein filter
# ---------------------------------------------------------------------------


def triangle(z, lambda_low: float):
    """Ideal low-pass target: 1 at frequency 0, linear down to 0 at
    ``lambda_low``, 0 across the rest of the band."""
    _check_context(0, lambda_low)
    values = _band_values(z)
    result = np.where(values < lambda_low, 1.0 - values / lambda_low, 0.0)
    return float(result[0]) if np.ndim(z) == 0 else result


def bernstein_scalar(z, K: int, lambda_low: float):
    """Degree-``K`` Bernstein polynomial of the triangle target on [0, 2].

    Only coefficients with ``2l/K`` inside the passband contribute (the
    target vanishes elsewhere), so the sum is short even for large ``K``.
    """
    _check_context(K, lambda_low)
    values = _band_values(z)
    if K == 0:
        result = np.ones_like(values)
    else:
        half = values / 2.0
        result = np.zeros_like(values)
        l_cap = min(K, int(np.ceil(K * lambda_low / 2.0)))
        for l in range(l_cap + 1):
            weight = triangle(2.0 * l / K, lambda_low)
            if weight == 0.0:
                continue
            result += weight * comb(K, l) * half**l * (1.0 - half) ** (K - l)
    return float(result[0]) if np.ndim(z) == 0 else result


def _triangle_weights(degrees: range, width: int, lambda_low: float) -> list[list[float]]:
    """The nonzero triangle weights ``triangle(2l/k)``, ``l < width``, of each
    degree ``k`` in ``degrees``, from one ``triangle`` call.

    The nonzero weights of a degree are a prefix, since ``2l/k`` grows with
    ``l``. Entries with ``l > k`` are set to frequency 2 (weight 0): ``2l/k``
    would lie outside the band there.
    """
    k = np.array(degrees)[:, None]
    l = np.arange(width)
    table = triangle(np.where(l <= k, 2.0 * l / k, 2.0), lambda_low)
    counts = np.count_nonzero(table, axis=1).tolist()
    return [row[:count] for row, count in zip(table.tolist(), counts)]


def _bernstein_steps(chain: markov.ChainModel, f, K: int, lambda_low: float):
    """Bernstein outputs at degrees 0..K from the Pascal recurrence.

    Carries the basis signals ``b_{k,l} = C(k,l) (L/2)^l (I - L/2)^(k-l) f``
    up in degree by ``b_{k,l} = b_{k-1,l} - (L/2)(b_{k-1,l} - b_{k-1,l-1})``;
    every basis response lies in [0, 1], so no binomial is ever formed. Only
    ``l <= c`` is carried, ``c`` the last control point the triangle weights
    at degree K leave nonzero: since ``2l/k >= 2l/K``, no lower degree has a
    nonzero weight beyond it. Step k takes ``min(k, c) + 1`` products with L,
    one per basis signal, so each output is the same whatever K the sweep
    runs to. The triangle weights of the degrees come from
    ``_triangle_weights``, ``_WEIGHT_BLOCK`` or so per call.
    """
    _check_context(K, lambda_low)
    values = _signal_for(chain, f)
    yield values.copy()
    if K == 0:
        return
    cap = np.count_nonzero(triangle(2.0 * np.arange(K + 1) / K, lambda_low)) - 1
    rows = max(1, _WEIGHT_BLOCK // (cap + 1))
    half_laplacian = chain.affine(0.5, 0.0)
    basis = [values]
    for k in range(1, K + 1):
        if k <= cap:
            basis.append(np.zeros(chain.n))
        for l in range(len(basis) - 1, -1, -1):
            below = basis[l - 1] if l else 0.0
            basis[l] = basis[l] - half_laplacian(basis[l] - below)
        if (k - 1) % rows == 0:
            block = _triangle_weights(range(k, min(k + rows, K + 1)), cap + 1, lambda_low)
        yield sum(w * b for w, b in zip(block[(k - 1) % rows], basis))


def bernstein_apply(chain: markov.ChainModel, f, K: int, lambda_low: float) -> np.ndarray:
    """Apply the degree-``K`` Bernstein filter of the triangle target ``g``:
    ``sum_l g(2l/K) b_{K,l}`` over the basis signals of ``_bernstein_steps``.
    Takes ``sum_{k<=K} (min(k, c) + 1)`` products with L, where
    ``c < K lambda_low / 2`` is the last nonzero control point."""
    return _last(_bernstein_steps(chain, f, K, lambda_low))


def bernstein_errors(chain: markov.ChainModel, f, k_max: int, lambda_low: float) -> list[float]:
    """Max-abs errors of the Bernstein filter at degrees ``1..k_max`` from one
    sweep of ``sum_{k<=k_max} (min(k, c) + 1)`` products with L."""
    return _errors(chain, f, _bernstein_steps(chain, f, k_max, lambda_low))


# ---------------------------------------------------------------------------
# Chebyshev filter
# ---------------------------------------------------------------------------


def chebyshev_scalar_at_zero(K: int, lambda_low: float) -> np.ndarray:
    """Values at frequency 0 of the stopband-mapped Chebyshev family,
    ``T_k(m0)`` for ``k = 0..K``; strictly growing in magnitude since
    ``|m0| > 1``."""
    _check_context(K, lambda_low)
    # Python floats: the same IEEE arithmetic as numpy scalars, at a fraction
    # of the cost per step; an overflow yields inf or nan without raising
    m0 = float(_m0(lambda_low))
    seq = [1.0, m0][: K + 1]
    for k in range(1, K):
        seq.append(2.0 * m0 * seq[k] - seq[k - 1])
    seq = np.array(seq, dtype=float)
    _first_overflow(seq, "Chebyshev normalizer T_k(m0)")
    return seq


def chebyshev_scalar(z, K: int, lambda_low: float):
    """Normalized mapped Chebyshev response ``T_K(m(z)) / T_K(m(0))``."""
    _check_context(K, lambda_low)
    values = _band_values(z)
    if K == 0:
        result = np.ones_like(values)
    else:
        mapped = (2.0 * values - 2.0 - lambda_low) / (2.0 - lambda_low)
        prev = np.ones_like(mapped)
        curr = mapped.copy()
        for _ in range(1, K):
            prev, curr = curr, 2.0 * mapped * curr - prev
        result = curr / chebyshev_scalar_at_zero(K, lambda_low)[K]
    return float(result[0]) if np.ndim(z) == 0 else result


def _chebyshev_steps(chain: markov.ChainModel, f, K: int, lambda_low: float):
    """Chebyshev outputs at degrees 0..K, one product with L each."""
    _check_context(K, lambda_low)
    values = _signal_for(chain, f)
    at_zero = chebyshev_scalar_at_zero(K, lambda_low)
    prev = values.copy()
    yield prev
    if K == 0:
        return
    mapped = _stopband_map(chain, lambda_low)
    curr = mapped(values) / at_zero[1]
    yield curr
    # step k: 2 T_k / T_{k+1} and T_{k-1} / T_{k+1}, as Python floats
    two_alpha = (2.0 * (at_zero[1:K] / at_zero[2:])).tolist()
    beta = (at_zero[: K - 1] / at_zero[2:]).tolist()
    for a2, b in zip(two_alpha, beta):
        prev, curr = curr, a2 * mapped(curr) - b * prev
        yield curr


def chebyshev_apply(chain: markov.ChainModel, f, K: int, lambda_low: float) -> np.ndarray:
    """Apply the normalized Chebyshev filter by its three-term vector recursion.

    With ``u_k`` the degree-``k`` filtered signal and ``T_k`` the values from
    ``chebyshev_scalar_at_zero``:
    ``u_{k+1} = 2 (T_k/T_{k+1}) M u_k - (T_{k-1}/T_{k+1}) u_{k-1}``
    where ``M`` is the stopband-mapped Laplacian. The ``T_k`` do not depend
    on K, so ``u_k`` is also the degree-k output.
    """
    return _last(_chebyshev_steps(chain, f, K, lambda_low))


def chebyshev_errors(chain: markov.ChainModel, f, k_max: int, lambda_low: float) -> list[float]:
    """Max-abs errors of the Chebyshev filter at degrees ``1..k_max`` from one
    run of the recursion: ``k_max`` products with L."""
    return _errors(chain, f, _chebyshev_steps(chain, f, k_max, lambda_low))


# ---------------------------------------------------------------------------
# Legendre filter
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LegendreScalars:
    """Zero-frequency bookkeeping for the Legendre design at degree ``K``:
    basis values ``L~_k(0)``, their running squared sums ``S_k``, the final
    mixing weights ``xi_k = L~_k(0) / S_K``, and the carry factors
    ``gamma_k = S_k / S_{k+1}`` used by the coupled recursion."""

    values_at_zero: np.ndarray
    partial_sums: np.ndarray
    xi: np.ndarray
    gamma: np.ndarray


def _legendre_recursion_factors(n):
    """Coefficients (a_next, b, a) of the orthonormal-Legendre three-term
    recursion ``a_next P_{n+1} = b x P_n - a P_{n-1}`` on [-1, 1]; elementwise
    for an array of degrees ``n``."""
    a_next = np.sqrt(2.0 * (n + 1) ** 2 / (2 * n + 3))
    b = np.sqrt(2.0 * (2 * n + 1))
    a = np.sqrt(2.0 * n**2 / (2 * n - 1))
    return a_next, b, a


def legendre_scalar_at_zero(K: int, lambda_low: float) -> LegendreScalars:
    """Zero-frequency values of the stopband-orthonormal Legendre basis.

    The basis is the orthonormal Legendre family mapped onto the stopband and
    rescaled by ``sqrt(2 / (2 - lambda_low))`` so it stays orthonormal under
    the plain Lebesgue measure on ``[lambda_low, 2]``.
    """
    _check_context(K, lambda_low)
    scale = np.sqrt(2.0 / (2.0 - lambda_low))
    # Python floats, as in chebyshev_scalar_at_zero
    m0 = float(_m0(lambda_low))
    seq = [float(scale * np.sqrt(0.5)), float(scale * np.sqrt(1.5) * m0)][: K + 1]
    factors = zip(*(x.tolist() for x in _legendre_recursion_factors(np.arange(1, K))))
    for n, (a_next, b, a) in enumerate(factors, start=1):
        seq.append((b * m0 * seq[n] - a * seq[n - 1]) / a_next)
    seq = np.array(seq, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        partial = np.cumsum(seq * seq)
    _first_overflow(partial, "Legendre normalizer S_k")
    gamma = partial[:-1] / partial[1:] if K >= 1 else np.empty(0)
    return LegendreScalars(
        values_at_zero=seq, partial_sums=partial, xi=seq / partial[K], gamma=gamma
    )


def legendre_scalar(z, K: int, lambda_low: float):
    """L2-optimal response: mix of stopband Legendre basis values with the
    final weights from ``legendre_scalar_at_zero``; equals 1 at frequency 0."""
    _check_context(K, lambda_low)
    values = _band_values(z)
    scalars = legendre_scalar_at_zero(K, lambda_low)
    scale = np.sqrt(2.0 / (2.0 - lambda_low))
    mapped = (2.0 * values - 2.0 - lambda_low) / (2.0 - lambda_low)
    prev = np.full_like(mapped, scale * np.sqrt(0.5))
    result = scalars.xi[0] * prev
    if K >= 1:
        curr = scale * np.sqrt(1.5) * mapped
        result = result + scalars.xi[1] * curr
        for n in range(1, K):
            a_next, b, a = _legendre_recursion_factors(n)
            prev, curr = curr, (b * mapped * curr - a * prev) / a_next
            result = result + scalars.xi[n + 1] * curr
    return float(result[0]) if np.ndim(z) == 0 else result


def _legendre_steps(chain: markov.ChainModel, f, K: int, lambda_low: float):
    """Legendre outputs at degrees 0..K, one product with L each."""
    _check_context(K, lambda_low)
    values = _signal_for(chain, f)
    scalars = legendre_scalar_at_zero(K, lambda_low)
    scale = np.sqrt(2.0 / (2.0 - lambda_low))
    prev = scale * np.sqrt(0.5) * values
    result = (scalars.values_at_zero[0] / scalars.partial_sums[0]) * prev
    yield result
    if K == 0:
        return
    mapped = _stopband_map(chain, lambda_low)
    curr = scale * np.sqrt(1.5) * mapped(values)
    # step k: the recursion factors of degree k (from k = 1), the carry
    # S_k / S_{k+1} and the weight L~_{k+1}(0) / S_{k+1}, as Python floats
    factors = zip(*(x.tolist() for x in _legendre_recursion_factors(np.arange(1, K))))
    weights = (scalars.values_at_zero[1:] / scalars.partial_sums[1:]).tolist()
    for k, (carry, weight) in enumerate(zip(scalars.gamma.tolist(), weights)):
        if k >= 1:
            a_next, b, a = next(factors)
            prev, curr = curr, (b * mapped(curr) - a * prev) / a_next
        result = carry * result + weight * curr
        yield result


def legendre_apply(chain: markov.ChainModel, f, K: int, lambda_low: float) -> np.ndarray:
    """Apply the L2-optimal filter by the coupled vector recursion.

    Carries the running filtered signal together with the last two basis
    signals: ``q_{k+1} = gamma_k q_k + xi_{k+1}^{(k+1)} v_{k+1}`` where the
    ``v`` sequence follows the same three-term recursion as the scalars.
    The carry and weight use only ``L~_j(0)`` and ``S_j`` for ``j <= k + 1``,
    so ``q_k`` is also the degree-k output.
    """
    return _last(_legendre_steps(chain, f, K, lambda_low))


def legendre_errors(chain: markov.ChainModel, f, k_max: int, lambda_low: float) -> list[float]:
    """Max-abs errors of the Legendre filter at degrees ``1..k_max`` from one
    run of the recursion: ``k_max`` products with L."""
    return _errors(chain, f, _legendre_steps(chain, f, k_max, lambda_low))


# ---------------------------------------------------------------------------
# exact reference
# ---------------------------------------------------------------------------


def lagrange_exact_apply(
    spec: markov.SpectralDecomposition, f, pi
) -> np.ndarray:
    """Exact stationary projection: zero every nonzero-frequency coefficient.

    Equivalent to evaluating the annihilating polynomial of the spectrum on
    the Laplacian; returns the constant signal at the stationary mean of ``f``.
    """
    fhat = markov.gft(f, spec, pi)
    keep = np.abs(spec.eigenvalues) <= markov.ZERO_EIGENVALUE_TOL
    return markov.igft(np.where(keep, fhat, 0.0), spec)


def max_abs_error(filtered, f, pi) -> float:
    """Largest pointwise deviation of a filtered signal from the constant
    signal at the stationary mean of ``f``."""
    out = np.asarray(filtered, dtype=float)
    target = markov.pi_expectation(f, pi)
    if out.shape != np.asarray(f, dtype=float).shape:
        raise ValueError("filtered signal and input signal differ in shape")
    return float(np.abs(out - target).max())
