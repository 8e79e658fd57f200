"""Polynomial filters on the Laplacian of a reversible chain.

All four filters approximate the projection of a signal onto its stationary
mean: the running (Birkhoff) average, plus three degree-``K`` designs that
pass the zero frequency with unit gain while damping everything above a known
positive frequency bound ``lambda_low`` — Bernstein smoothing of an ideal
triangular low-pass response, a sup-norm-optimal normalized Chebyshev design,
and an L2-optimal Legendre design. Each filter's vector recursion is one
generator that yields its output at every degree up to K, one application of
an affine Laplacian operator from ``ChainModel.affine`` per degree (per
carried basis signal for Bernstein), its per-degree scalars computed in the
loop as Python floats: the IEEE arithmetic of numpy scalars at a fraction of
the cost. ``*_apply`` returns the last output, and ``error_table``, the one
error reader, the max-abs error of all four sweeps at each degree and the
stationary mean, from one pass that judges the signal and takes its mean
once. Each sweep's outputs are reduced a block of degrees at a time as it
yields them (``_ERROR_BLOCK`` entries at most, or one output). The
frequency responses ``*_scalar`` run the same generators on the diagonal
operator of the frequencies, so each filter has one definition. An exact
reference ships alongside: the frequency-zeroing projector
``lagrange_exact_apply``.

The float64 range is ``markov.check_signal``'s rule: ``*_apply`` and
``error_table`` sweep the unit-scale signal ``2^-e f`` it hands back and
scale the output or the errors back by ``2^e``; that is exact, so in range
the results are bitwise those of an unscaled sweep. The sweep runs with
numpy's overflow and invalid warnings off, and an output or an error that is
not finite is a ``FloatingPointError`` naming the filter and its first
non-finite degree. ``*_scalar`` runs unscaled. Each input is judged once,
before any sweep runs: a degree by ``_apply``, ``_response`` or ``_errors``,
``lambda_low`` by the public entry; the ``_*_steps`` generators trust theirs.

Polynomial coefficient vectors are in ascending monomial order.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import markov

_BAND_SLOP = 1e-9
# entries of a block of outputs ``_errors`` stacks for one reduction:
# 512 KiB of float64, or a single output once n exceeds it
_ERROR_BLOCK = 1 << 16


def _band_values(z) -> np.ndarray:
    """Validate frequencies against [0, 2] (with round-off slop) and clip;
    a NaN fails both bounds."""
    values = np.atleast_1d(np.asarray(z, dtype=float))
    if values.size and not (values.min() >= -_BAND_SLOP and values.max() <= 2.0 + _BAND_SLOP):
        raise ValueError("frequency outside the Laplacian band [0, 2]")
    return np.clip(values, 0.0, 2.0)


def _stopband_map(chain: markov.ChainModel, lambda_low: float):
    """The operator ``M = (2L - (2 + lambda_low) I) / (2 - lambda_low)``, which
    sends the stopband [lambda_low, 2] onto [-1, 1], and ``m0``, the image of
    frequency 0 under it, a Python float as the judged ``lambda_low`` is;
    ``m0 < -1`` always."""
    m0 = -(2.0 + lambda_low) / (2.0 - lambda_low)
    return chain.affine(2.0 / (2.0 - lambda_low), m0), m0


def _last(steps):
    for out in steps:
        pass
    return out


class _Spectrum:
    """The diagonal operator over frequencies ``z``: a stand-in for a chain
    offering the two things a ``_*_steps`` generator uses, ``n`` and
    ``affine(a, b)``, here ``v -> (a z + b) v``."""

    def __init__(self, z: np.ndarray):
        self.z = z
        self.n = len(z)

    def affine(self, a: float, b: float):
        scale = a * self.z + b
        return lambda v: scale * v


def _response(steps, z, K: int, *args):
    """Frequency response at ``z`` of the filter whose generator is ``steps``:
    its degree-``K`` output on the all-ones signal over ``_Spectrum(z)``."""
    values = _band_values(z)
    markov.check_integer(K, "filter degree", 0)
    out = _last(steps(_Spectrum(values), np.ones_like(values), K, *args))
    return float(out[0]) if np.ndim(z) == 0 else out


def _apply(chain: markov.ChainModel, f, steps, name: str, K: int, *args) -> np.ndarray:
    """The degree-``K`` output of the generator ``steps`` on ``f``, swept at
    unit scale and scaled back; a non-finite output is a ``FloatingPointError``."""
    values, exponent = markov.check_signal(f, chain.n)
    markov.check_integer(K, "filter degree", 0)
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.ldexp(_last(steps(chain, values, K, *args)), exponent)
    if not np.isfinite(out).all():
        raise FloatingPointError(f"non-finite {name} filter output at degree {K}")
    return out


def _errors(chain: markov.ChainModel, f, k_max: int, sweeps) -> tuple[np.ndarray, float]:
    """One pass over ``sweeps``, each ``(name, steps, args)`` run as
    ``steps(chain, values, k_max, *args)``: the (len(sweeps), k_max) table of
    max-abs errors from the stationary mean of ``f`` at degrees 1..k_max, and
    that mean. The signal is judged and its mean taken once; the table and
    the mean are scaled back by ``2^e`` and checked once.

    Each sweep's outputs are stacked and reduced ``max(1, _ERROR_BLOCK // n)``
    degrees at a time; max is exact, so each value is the one a reduction of
    that output alone gives. A block holds the arrays one sweep yielded, so a
    generator must never write to its input (degree 0) or to an output after
    yielding it, which none of the four does. The first non-finite cell, in
    sweep order, is a ``FloatingPointError`` naming its sweep and degree.
    """
    values, exponent = markov.check_signal(f, chain.n)
    markov.check_integer(k_max, "filter degree", 0)
    table = np.empty((len(sweeps), k_max))
    rows = max(1, _ERROR_BLOCK // chain.n)
    with np.errstate(over="ignore", invalid="ignore"):
        target = float(np.dot(chain.pi, values))
        for errors, (_, steps, args) in zip(table, sweeps):
            sweep = steps(chain, values, k_max, *args)
            next(sweep)
            done = 0
            while block := list(itertools.islice(sweep, rows)):
                _reduce_block(np.array(block), target, errors[done : done + len(block)])
                done += len(block)
        np.ldexp(table, exponent, out=table)
    finite = np.isfinite(table)
    if not finite.all():
        row, degree = divmod(int(finite.argmin()), k_max)
        raise FloatingPointError(f"non-finite {sweeps[row][0]} filter error at degree {degree + 1}")
    return table, float(markov.scaled_back(target, exponent, "pi_expectation"))


def _reduce_block(block: np.ndarray, target: float, out: np.ndarray):
    """``max |row - target|`` of each row into ``out``, reduced in place."""
    np.subtract(block, target, out=block)
    np.abs(block, out=block).max(axis=1, out=out)


def error_table(chain: markov.ChainModel, f, k_max: int, lambda_low: float) -> tuple[np.ndarray, float]:
    """Max-abs errors of the four filters at degrees ``1..k_max``, one row per
    filter (running average, Bernstein, Chebyshev, Legendre), and ``pi(f)``,
    from one pass: each row is bitwise its sweep run alone by ``_errors``,
    and ``pi(f)`` is bitwise ``markov.pi_expectation``'s. The running
    average's row does not read ``lambda_low``; degree K of it is horizon
    ``t = K + 1``."""
    lambda_low = markov.check_lambda_low(lambda_low)
    return _errors(chain, f, k_max, (
        ("ergodic", _ergodic_steps, ()),
        ("bernstein", _bernstein_steps, (lambda_low,)),
        ("chebyshev", _chebyshev_steps, (lambda_low,)),
        ("legendre", _legendre_steps, (lambda_low,)),
    ))


# ---------------------------------------------------------------------------
# running (Birkhoff) average
# ---------------------------------------------------------------------------


def _ergodic_steps(chain: markov.ChainModel, f, K: int):
    """Running averages at degrees 0..K (horizons 1..K+1), one product with P each."""
    transition = chain.affine(-1.0, 1.0)
    acc = f.copy()
    power = f
    yield f
    for k in range(1, K + 1):
        power = transition(power)
        acc += power
        # a float divisor, exact for any degree, takes numpy's faster path
        yield acc / float(k + 1)


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
    markov.check_integer(t, "averaging horizon", 1)
    return _apply(chain, f, _ergodic_steps, "ergodic", t - 1)


def ergodic_scalar(z, t: int):
    """Frequency response of the running average: ``(1/t) sum_k (1-z)^k``."""
    markov.check_integer(t, "averaging horizon", 1)
    return _response(_ergodic_steps, z, t - 1)


# ---------------------------------------------------------------------------
# Bernstein filter
# ---------------------------------------------------------------------------


def triangle(z, lambda_low: float):
    """Ideal low-pass target: 1 at frequency 0, linear down to 0 at
    ``lambda_low``, 0 across the rest of the band."""
    lambda_low = markov.check_lambda_low(lambda_low)
    values = _band_values(z)
    result = np.where(values < lambda_low, 1.0 - values / lambda_low, 0.0)
    return float(result[0]) if np.ndim(z) == 0 else result


def bernstein_scalar(z, K: int, lambda_low: float):
    """Degree-``K`` Bernstein polynomial of the triangle target on [0, 2]."""
    return _response(_bernstein_steps, z, K, markov.check_lambda_low(lambda_low))


def _control_weights(k: int, lambda_low: float) -> list[float]:
    """The nonzero weights ``triangle(2l/k)``, l = 0, 1, ..., of degree ``k``
    as Python floats, by the IEEE expressions of ``triangle``. They are the
    ``l`` with ``2l/k < lambda_low``, a prefix, as ``1 - x / lambda_low > 0``
    for every ``x < lambda_low``; the first is 1.0."""
    weights, l = [], 0
    while (x := 2.0 * l / k) < lambda_low:
        weights.append(1.0 - x / lambda_low)
        l += 1
    return weights


def _bernstein_steps(chain: markov.ChainModel, f, K: int, lambda_low: float):
    """Bernstein outputs at degrees 0..K from the Pascal recurrence.

    Carries the basis signals ``b_{k,l} = C(k,l) (L/2)^l (I - L/2)^(k-l) f``
    up in degree by ``b_{k,l} = b_{k-1,l} - (L/2)(b_{k-1,l} - b_{k-1,l-1})``,
    with no ``b_{k-1,-1}`` term at ``l = 0``; every basis response lies in
    [0, 1], so no binomial is ever formed. Only
    ``l <= c`` is carried, ``c`` the last control point the triangle weights
    at degree K leave nonzero: since ``2l/k >= 2l/K``, no lower degree has a
    nonzero weight beyond it. Step k takes ``min(k, c) + 1`` products with L,
    one per basis signal, so each output is the same whatever K the sweep
    runs to. Each degree's weights come from ``_control_weights``; a degree
    whose only weight is ``w_0 = 1`` yields ``b_{k,0}`` itself. With
    ``c = 0`` only ``b_{k,0}`` is carried, and no weights are computed.
    """
    yield f
    if K == 0:
        return
    cap = len(_control_weights(K, lambda_low)) - 1
    half_laplacian = chain.affine(0.5, 0.0)
    basis = [f]
    for k in range(1, K + 1):
        if k <= cap:
            basis.append(np.zeros(chain.n))
        for l in range(len(basis) - 1, 0, -1):
            basis[l] = basis[l] - half_laplacian(basis[l] - basis[l - 1])
        basis[0] = basis[0] - half_laplacian(basis[0])
        weights = _control_weights(k, lambda_low) if len(basis) > 1 else [1.0]
        out = basis[0] if len(weights) == 1 else basis[0] + weights[1] * basis[1]
        for w, b in zip(weights[2:], basis[2:]):
            out += w * b
        yield out


def bernstein_apply(chain: markov.ChainModel, f, K: int, lambda_low: float) -> np.ndarray:
    """Apply the degree-``K`` Bernstein filter of the triangle target ``g``:
    ``sum_l g(2l/K) b_{K,l}`` over the basis signals of ``_bernstein_steps``.
    Takes ``sum_{k<=K} (min(k, c) + 1)`` products with L, where
    ``c < K lambda_low / 2`` is the last nonzero control point."""
    return _apply(chain, f, _bernstein_steps, "bernstein", K, markov.check_lambda_low(lambda_low))


# ---------------------------------------------------------------------------
# Chebyshev filter
# ---------------------------------------------------------------------------


def chebyshev_scalar(z, K: int, lambda_low: float):
    """Normalized mapped Chebyshev response ``T_K(m(z)) / T_K(m(0))``."""
    return _response(_chebyshev_steps, z, K, markov.check_lambda_low(lambda_low))


def _chebyshev_steps(chain: markov.ChainModel, f, K: int, lambda_low: float):
    """Chebyshev outputs at degrees 0..K, one product with L each.

    Carries the ratio ``omega_k = T_{k-1}(m0) / T_k(m0)``, which stays in
    (-1, 0), rather than ``T_k(m0)``, which grows geometrically in k:
    ``omega_{k+1} = 1 / (2 m0 - omega_k)`` from ``omega_1 = 1 / m0``.
    """
    prev = f
    yield prev
    if K == 0:
        return
    mapped, m0 = _stopband_map(chain, lambda_low)
    omega = 1.0 / m0
    curr = mapped(f) / m0
    yield curr
    for _ in range(1, K):
        next_omega = 1.0 / (2.0 * m0 - omega)
        prev, curr = curr, (2.0 * next_omega) * mapped(curr) - (omega * next_omega) * prev
        omega = next_omega
        yield curr


def chebyshev_apply(chain: markov.ChainModel, f, K: int, lambda_low: float) -> np.ndarray:
    """Apply the normalized Chebyshev filter by its three-term vector recursion.

    With ``u_k = T_k(M) f / T_k(m0)`` the degree-``k`` filtered signal, ``M``
    the stopband-mapped Laplacian and ``omega_k = T_{k-1}(m0) / T_k(m0)``:
    ``u_{k+1} = 2 omega_{k+1} M u_k - omega_k omega_{k+1} u_{k-1}``
    (Chebyshev semi-iteration). The ratios do not depend on K, so ``u_k`` is
    also the degree-k output, and none of them grows with k.
    """
    return _apply(chain, f, _chebyshev_steps, "chebyshev", K, markov.check_lambda_low(lambda_low))


# ---------------------------------------------------------------------------
# Legendre filter
# ---------------------------------------------------------------------------


def legendre_scalar(z, K: int, lambda_low: float):
    """L2-optimal response: the mean of ``P_k(m(z)) / P_k(m0)``, k = 0..K,
    weighted by ``(2k + 1) P_k(m0)^2``, with ``P_k`` the classical Legendre
    polynomials; equals 1 at frequency 0."""
    return _response(_legendre_steps, z, K, markov.check_lambda_low(lambda_low))


def _legendre_steps(chain: markov.ChainModel, f, K: int, lambda_low: float):
    """Legendre outputs at degrees 0..K, one product with L each.

    Carries the basis signals ``w_n = P_n(M) f / P_n(m0)`` with the ratios
    ``r_n = P_n(m0) / P_{n-1}(m0)`` and ``s_n = sum_{k<=n} a_k / a_n``,
    ``a_k = (2k + 1) P_k(m0)^2``; none of them grows with n. From
    ``(n + 1) P_{n+1} = (2n + 1) x P_n - n P_{n-1}``:
    ``r_{n+1} = ((2n + 1) m0 - n / r_n) / (n + 1)``,
    ``w_{n+1} = ((2n + 1) M w_n - (n / r_n) w_{n-1}) / ((n + 1) r_{n+1})`` and
    ``s_{n+1} = 1 + s_n (2n + 1) / ((2n + 3) r_{n+1}^2)``, starting from
    ``w_0 = f`` and ``r_0 = s_0 = 1``.
    """
    result = f
    yield result
    mapped, m0 = _stopband_map(chain, lambda_low)
    prev = curr = f
    ratio = sum_ratio = 1.0
    for n in range(K):
        next_ratio = ((2 * n + 1) * m0 - n / ratio) / (n + 1)
        scale = (n + 1) * next_ratio
        prev, curr = curr, (2 * n + 1) / scale * mapped(curr) - n / ratio / scale * prev
        sum_ratio = 1.0 + sum_ratio * (2 * n + 1) / ((2 * n + 3) * next_ratio * next_ratio)
        ratio = next_ratio
        result = result + (curr - result) / sum_ratio
        yield result


def legendre_apply(chain: markov.ChainModel, f, K: int, lambda_low: float) -> np.ndarray:
    """Apply the L2-optimal filter by the coupled vector recursion.

    The degree-k output ``q_k`` is the running weighted mean of the basis
    signals ``w_n`` of ``_legendre_steps``:
    ``q_{n+1} = q_n + (w_{n+1} - q_n) / s_{n+1}``, from ``q_0 = f``.
    The ratios use only degrees up to ``n + 1``, so ``q_k`` is also the
    degree-k output.
    """
    return _apply(chain, f, _legendre_steps, "legendre", K, markov.check_lambda_low(lambda_low))


# ---------------------------------------------------------------------------
# exact reference
# ---------------------------------------------------------------------------


def lagrange_exact_apply(spec: markov.SpectralDecomposition, f) -> np.ndarray:
    """Exact stationary projection: zero every nonzero-frequency coefficient.

    Equivalent to evaluating the annihilating polynomial of the spectrum on
    the Laplacian; returns the constant signal at the stationary mean of ``f``.
    """
    fhat = markov.gft(f, spec)
    # column 0 is exactly the all-ones vector; a small eigenvalue of another
    # column, however close to 0, is a nonzero frequency
    fhat[1:] = 0.0
    return markov.igft(fhat, spec)

