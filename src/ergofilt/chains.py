"""Constructors for the two bundled reversible chains.

* simple random walk on an odd cycle of ``p`` vertices, and
* single-site heat-bath (Glauber) dynamics for an Ising ring of ``p`` spins,

each with its analytic stationary distribution and a positive lower bound
``lambda_low`` on the smallest nonzero eigenvalue of ``L = I - P``.

Both are built directly as neighbour tables (see ``markov.ChainModel``),
vectorised over the states. Ising states are encoded as bitmasks: state index
``x`` has spin ``+1`` at site ``w`` iff bit ``w`` of ``x`` is set, and its
table row lists ``x`` and then the single-spin flips ``x ^ 2^w``. Every
per-site quantity (an edge's energy term, a site's keep and flip
probabilities) depends on a few neighbouring spins only, so it is computed
once per site and spin pattern and gathered by each state's window codes.
The ring has no external field, so reversing every spin, which maps ``x``
to ``2^p - 1 - x``, negates each window's spins and field and leaves every
per-site quantity bitwise the same: the spins are +-1, and IEEE rounding is
symmetric under negation. Table rows and Gibbs weights are therefore
gathered for the states with the top spin down only, and the other half is
a reversed copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import densela, markov

MAX_SPIN_SITES = 20  # full-enumeration cap: 2^20 states


@dataclass(frozen=True)
class GlauberParams:
    """Ring size, inverse temperature, and per-edge couplings ``J_i`` for the
    edge between sites ``i`` and ``i+1 (mod p)``."""

    p: int
    beta: float
    couplings: np.ndarray = field(default=None)

    def __post_init__(self):
        markov.check_integer(self.p, "ring size", 3)
        object.__setattr__(self, "beta", markov.check_real(self.beta, "inverse temperature", 0.0))
        given = np.ones(self.p) if self.couplings is None else self.couplings
        values = np.asarray(given)
        # judged by dtype, as check_signal judges a signal but with bools
        # refused: a sequence entry by entry, as numpy reads [True, 1] as ints
        entries = (values,) if isinstance(given, np.ndarray) else given
        if (
            values.shape != (self.p,)
            or any(np.asarray(entry).dtype.kind not in "iuf" for entry in entries)
            or not np.isfinite(values).all()
        ):
            raise ValueError("couplings must be p finite reals")
        couplings = values.astype(float)
        couplings.setflags(write=False)
        object.__setattr__(self, "couplings", couplings)

    @staticmethod
    def uniform(p: int, beta: float, coupling: float = 1.0) -> "GlauberParams":
        # judged before the couplings array is made
        markov.check_integer(p, "ring size", 3)
        return GlauberParams(p=p, beta=beta, couplings=np.full(p, markov.check_real(coupling, "coupling")))


def build_cycle_walk(p: int) -> markov.ChainModel:
    """Nearest-neighbor random walk on a cycle of odd length ``p``.

    Each step moves to either neighbor with probability 1/2; the stationary
    law is uniform. Even ``p`` is rejected (the walk would be periodic).
    """
    lambda_low = cycle_lambda_low(p)
    # state x, then x + 1 and x - 1: only the last state's successor and the
    # first state's predecessor wrap
    neighbors = np.arange(p)[:, None] + np.array([0, 1, -1])
    neighbors[-1, 1] = 0
    neighbors[0, 2] = p - 1
    weights = np.empty((p, 3))
    weights.fill(0.5)
    weights[:, 0] = 0.0
    pi = np.empty(p)
    pi.fill(1.0 / p)
    return markov.ChainModel(neighbors, weights, pi, lambda_low)


def cycle_lambda_low(p: int) -> float:
    """Closed-form gap bound ``8p / ((p-1)^2 (p+1))`` for the odd cycle walk,
    whose length must lie below 2^53, where ``np.arange`` still counts exactly."""
    markov.check_integer(p, "cycle length", 3)
    if p >= 2**53:
        raise ValueError(f"cycle length must be below 2^53, got {p}")
    if p % 2 == 0:
        raise ValueError(f"cycle length must be odd, got {p}")
    return 8.0 * p / ((p - 1) ** 2 * (p + 1))


def _window_codes(states: np.ndarray, p: int) -> np.ndarray:
    """The (len(states), p) lookup indices ``8 w + c`` of each lower-half
    state's sites ``w``, where bits 0, 1, 2 of ``c`` are the spins of sites
    ``w - 1``, ``w``, ``w + 1`` (mod p).

    The ring is unrolled into one integer, with the top site wrapped below
    site 0 as bit 0 (spin down: the states lie below ``2^(p - 1)``) and site
    0 repeated above site ``p - 1``, so each window is one shift and one mask.
    """
    ring = (states << 1) | ((states & 1) << (p + 1))
    codes = ring[:, None] >> np.arange(p)
    codes &= 7
    codes += np.arange(0, 8 * p, 8)
    return codes


# the spins +1/-1 of every window code c (rows) at sites w - 1, w, w + 1
_WINDOW_SPINS = np.where((np.arange(8)[:, None] >> np.arange(3)) & 1, 1.0, -1.0)
_WINDOW_SPINS.setflags(write=False)


def check_enumeration(p: int):
    """Refuse a ``p`` that is not an integer of at least 3, and then a ring of
    more than ``MAX_SPIN_SITES`` spins, whose 2^p states are not enumerated;
    it reads ``p`` alone, so a caller can judge a size before
    ``GlauberParams`` makes its ``p`` couplings."""
    markov.check_integer(p, "ring size", 3)
    if p > MAX_SPIN_SITES:
        raise ValueError(f"enumeration capped at 2^{MAX_SPIN_SITES} states, got p={p}")


def build_glauber_cycle(params: GlauberParams) -> markov.ChainModel:
    """Heat-bath single-spin-flip dynamics on the Ising ring.

    A step picks a site uniformly and resamples its spin from the conditional
    Boltzmann law given the neighbors. Row ``x`` of the table holds the lazy
    part ``P(x, x)``, the sum of the keep probabilities, and then the flip
    probability of each site ``w`` at ``x ^ 2^w``, so rows sum to 1.

    Both probabilities depend only on ``w`` and the spins of sites
    ``w - 1, w, w + 1``; they are computed once for each of those 8 p
    windows and gathered into the (2^p, p + 1) table, which is written in
    place; the same window codes give each state's energy. Only the lower
    half of the states, top spin down, is gathered: reversing every spin
    maps row ``x`` onto row ``2^p - 1 - x`` bit for bit, for any couplings,
    so the upper half of the table and of the Gibbs weights is one reversed
    copy. The neighbour table is one XOR of each state with
    ``0, 1, 2, ..., 2^(p-1)``. The chain validates the arrays and keeps
    them without a copy, and the build peaks at about 1.4 tables beside the
    chain it returns (p = 14).
    """
    check_enumeration(params.p)
    # the gap bound is cheap, and fails first on an unfrustrated ring too cold
    # for the Gibbs weights below; a frustrated ring's bound stays positive, so
    # its overflow is built and left to the chain's validation of pi
    lambda_low = glauber_lambda_low(params)
    p = params.p
    spins = _WINDOW_SPINS
    # site w couples to w-1 via couplings[w-1] and to w+1 via couplings[w]
    field = (
        params.couplings[np.arange(-1, p - 1)][:, None] * spins[:, 0]
        + params.couplings[:, None] * spins[:, 2]
    )
    # e^a / (e^a + e^-a) as a sigmoid, whose exp overflows to inf only where
    # the probability is 0 to rounding; the flipped spin sees the opposite field
    aligned = params.beta * spins[:, 1] * field
    # a cold ring's exp overflows in the sigmoids and the Gibbs weights, and
    # pi may come out nan or 0: validation alone judges it, without warnings
    with np.errstate(over="ignore", invalid="ignore"):
        keep = 1.0 / (p * (1.0 + np.exp(-2.0 * aligned)))
        flip = 1.0 / (p * (1.0 + np.exp(2.0 * aligned)))
        states = np.arange(1 << p)
        half = states.size >> 1
        # the states with the top spin down; reversing every spin maps them
        # onto the other half
        codes = _window_codes(states[:half], p)
        weights = np.empty((states.size, p + 1))
        keep.take(codes).sum(axis=1, out=weights[:half, 0])
        weights[:half, 1:] = flip.take(codes)
        # the reversed state 2^p - 1 - x has row x, bit for bit
        weights[half:] = weights[half - 1 :: -1]
        # -H(x) sums couplings[i] s(i) s(i+1) over the edges (i, i+1); each
        # edge term is looked up by the two spins it joins, bits 1 and 2 of
        # site i's code
        edge_terms = params.couplings[:, None] * spins[:, 1] * spins[:, 2]
        lower = np.exp(params.beta * edge_terms.take(codes).sum(axis=1))
        # Z sums the mirrored vector, which holds every state's own weight, in order
        pi = np.concatenate((lower, lower[::-1]))
        pi /= pi.sum()
    del codes, lower
    # state x, then its flips x ^ 2^w: an XOR with 0, 1, 2, ..., 2^(p-1)
    neighbors = states[:, None] ^ ((1 << np.arange(p + 1)) >> 1)
    return markov.ChainModel(neighbors, weights, pi, lambda_low)


def glauber_lambda_low(params: GlauberParams) -> float:
    """Gap bound ``(1 - gamma_1) / p`` where ``gamma_1`` is the largest
    eigenvalue of the cyclic two-band matrix ``M(i, i-1) = s_{i-1} / D_i``,
    ``M(i, i+1) = s_i / D_i`` (indices mod p), with ``s_i = sinh(2 beta J_i)``,
    ``c_i = cosh(2 beta J_i)`` and ``D_i = c_{i-1} + c_i``.

    Uniform couplings ``J`` have closed forms, and no band matrix is built.
    The band matrix is then ``tanh(2 beta J) / 2`` times the adjacency matrix
    of the ring, so ``gamma_1 = t = tanh(2 beta |J|)``, except on an odd
    ring with ``J < 0``, which is frustrated: there ``gamma_1 = t cos(pi/p)``.
    The bound is ``2 / ((1 + e^(4 beta |J|)) p)``, which is ``1 / p`` at
    ``J = 0``, and ``(2 / (1 + e^(4 beta |J|)) + 2 t sin^2(pi / 2p)) / p`` on
    a frustrated ring. Both keep full relative precision at low temperature,
    where ``1 - gamma_1`` cancels.

    Other couplings, zero among them, are eigensolved as one symmetric band
    matrix: ``M = D^(-1/2) S D^(1/2)`` with ``D = diag(c_{i-1} + c_i)``, so
    ``S(i, i+1) = S(i+1, i) = s_i / sqrt(D_i D_{i+1})`` has the eigenvalues
    of ``M``, and the entries of ``M`` itself where ``M`` is symmetric.
    """
    p = params.p
    coupling = params.couplings[0]
    uniform = bool((params.couplings == coupling).all())
    with np.errstate(over="ignore"):
        # one value of 2 beta |J| stands for a uniform ring
        x = 2.0 * params.beta * (abs(coupling) if uniform else params.couplings)
        c = np.cosh(x)
        # a uniform ring's 1 - t is 2 / (1 + growth), with no cancellation;
        # growth overflows to inf only where t rounds to 1, which passes the
        # guard below only on a frustrated ring, where 1 - t is 0 to rounding
        growth = float(np.exp(2.0 * x)) if uniform else 0.0
    top = float(c if uniform else c.max())
    # |sinh| <= cosh: every band entry is finite when cosh is
    if not math.isfinite(top):
        raise ValueError(f"gap bound degenerates: band matrix overflows at beta={params.beta}")
    if uniform:
        frustrated = coupling < 0.0 and p % 2 == 1
        t = float(np.tanh(x))
        gamma1 = t * math.cos(math.pi / p) if frustrated else t
    else:
        # D_i D_{i+1} overflows from c near 1e154 on: c is scaled by 2^-k
        # first and the entries by 2^k after, which is exact
        k = max(0, math.frexp(top)[1] - 510)
        c = np.ldexp(c, -k)
        d = np.roll(c, 1) + c
        # S(i, i+1), then S + S^T
        band = np.roll(np.diag(np.ldexp(np.sinh(x) / np.sqrt(d * np.roll(d, -1)), -k)), 1, axis=1)
        gamma1 = float(densela.symmetric_eigen(band + band.T)[0][-1])
    if gamma1 >= 1.0:
        raise ValueError(f"gap bound degenerates: top band eigenvalue {gamma1} >= 1")
    if not uniform:
        return (1.0 - gamma1) / p
    if frustrated:
        # 1 - t cos(pi/p) = (1 - t) + 2 t sin^2(pi/2p)
        return (2.0 / (1.0 + growth) + 2.0 * t * math.sin(math.pi / (2 * p)) ** 2) / p
    return 2.0 / ((1.0 + growth) * p)
