"""Constructors for the two bundled reversible chains.

* simple random walk on an odd cycle of ``p`` vertices, and
* single-site heat-bath (Glauber) dynamics for an Ising ring of ``p`` spins,

each with its analytic stationary distribution and a positive lower bound
``lambda_low`` on the smallest nonzero eigenvalue of ``L = I - P``.

Both are built directly as neighbour tables (see ``markov.ChainModel``),
vectorised over the states. Ising states are encoded as bitmasks: state index
``x`` has spin ``+1`` at site ``w`` iff bit ``w`` of ``x`` is set, and its
table row lists ``x`` and then the single-spin flips ``x ^ 2^w``.
"""

from __future__ import annotations

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
        if self.p < 3:
            raise ValueError(f"ring size must be at least 3, got {self.p}")
        if not self.beta > 0.0:
            raise ValueError(f"inverse temperature must be positive, got {self.beta}")
        couplings = np.array(
            np.ones(self.p) if self.couplings is None else self.couplings, dtype=float
        )
        if couplings.shape != (self.p,) or not np.all(np.isfinite(couplings)):
            raise ValueError("couplings must be p finite reals")
        couplings.setflags(write=False)
        object.__setattr__(self, "couplings", couplings)

    @staticmethod
    def uniform(p: int, beta: float, coupling: float = 1.0) -> "GlauberParams":
        return GlauberParams(p=p, beta=beta, couplings=np.full(p, float(coupling)))


def build_cycle_walk(p: int) -> markov.ChainModel:
    """Nearest-neighbor random walk on a cycle of odd length ``p``.

    Each step moves to either neighbor with probability 1/2; the stationary
    law is uniform. Even ``p`` is rejected (the walk would be periodic).
    """
    if p < 3:
        raise ValueError(f"cycle length must be at least 3, got {p}")
    if p % 2 == 0:
        raise ValueError(f"cycle length must be odd, got {p}")
    neighbors = (np.arange(p)[:, None] + np.array([0, 1, -1])) % p
    weights = np.full((p, 3), 0.5)
    weights[:, 0] = 0.0
    pi = np.full(p, 1.0 / p)
    return markov.make_chain(neighbors, weights, pi, cycle_lambda_low(p))


def cycle_lambda_low(p: int) -> float:
    """Closed-form gap bound ``8p / ((p-1)^2 (p+1))`` for the odd cycle walk."""
    if p < 3 or p % 2 == 0:
        raise ValueError(f"cycle length must be odd and at least 3, got {p}")
    return 8.0 * p / ((p - 1) ** 2 * (p + 1))


def _spins(states: np.ndarray, p: int) -> np.ndarray:
    """The (len(states), p) array of spins: ``+1`` where bit ``w`` is set."""
    return np.where((states[:, None] >> np.arange(p)) & 1, 1.0, -1.0)


def _energies(spins: np.ndarray, params: GlauberParams) -> np.ndarray:
    # couplings[i] sits on the edge (i, i+1), the right neighbour of site i
    return -(params.couplings * spins * np.roll(spins, -1, axis=1)).sum(axis=1)


def glauber_energy(x: int, params: GlauberParams) -> float:
    """Ising ring energy ``-sum_i J_i s(i) s(i+1)``, each edge counted once."""
    return float(_energies(_spins(np.array([x]), params.p), params)[0])


def _check_enumeration(params: GlauberParams):
    if params.p > MAX_SPIN_SITES:
        raise ValueError(f"enumeration capped at 2^{MAX_SPIN_SITES} states, got p={params.p}")


def gibbs_distribution(params: GlauberParams) -> np.ndarray:
    """Boltzmann law ``exp(-beta H(x)) / Z`` by full enumeration of 2^p states."""
    _check_enumeration(params)
    energies = _energies(_spins(np.arange(1 << params.p), params.p), params)
    weights = np.exp(-params.beta * energies)
    return weights / weights.sum()


def build_glauber_cycle(params: GlauberParams) -> markov.ChainModel:
    """Heat-bath single-spin-flip dynamics on the Ising ring.

    A step picks a site uniformly and resamples its spin from the conditional
    Boltzmann law given the neighbors. Row ``x`` of the table holds the lazy
    part ``P(x, x)``, the sum of the keep probabilities, and then the flip
    probability of each site ``w`` at ``x ^ 2^w``, so rows sum to 1.
    """
    _check_enumeration(params)
    # the gap bound is cheap and fails first when the temperature is so low
    # that the Gibbs weights would overflow in the O(n p) build below
    lambda_low = glauber_lambda_low(params)
    p = params.p
    states = np.arange(1 << p)
    spins = _spins(states, p)
    # site w couples to w-1 via couplings[w-1] and to w+1 via couplings[w]
    field = np.roll(params.couplings, 1) * np.roll(spins, 1, axis=1) + params.couplings * np.roll(
        spins, -1, axis=1
    )
    # e^a / (e^a + e^-a) written as a sigmoid so large fields cannot overflow;
    # the flipped spin sees the same field with the opposite sign
    aligned = params.beta * spins * field
    keep = 1.0 / (p * (1.0 + np.exp(-2.0 * aligned)))
    flip = 1.0 / (p * (1.0 + np.exp(2.0 * aligned)))
    neighbors = np.concatenate([states[:, None], states[:, None] ^ (1 << np.arange(p))], axis=1)
    weights = np.concatenate([keep.sum(axis=1, keepdims=True), flip], axis=1)
    return markov.make_chain(neighbors, weights, gibbs_distribution(params), lambda_low)


def glauber_m_matrix(params: GlauberParams) -> np.ndarray:
    """Cyclic two-band matrix whose top eigenvalue controls the chain's gap.

    With ``s_i = sinh(2 beta J_i)`` and ``c_i = cosh(2 beta J_i)`` the bands
    are ``M(i, i-1) = s_{i-1} / (c_{i-1} + c_i)`` and
    ``M(i, i+1) = s_i / (c_{i-1} + c_i)``, indices mod p. Once ``2 beta J_i``
    overflows float64 the entries are inf or nan, without a warning;
    ``glauber_lambda_low`` rejects them.
    """
    p = params.p
    with np.errstate(over="ignore", invalid="ignore"):
        s = np.sinh(2.0 * params.beta * params.couplings)
        c = np.cosh(2.0 * params.beta * params.couplings)
        m = np.zeros((p, p))
        for i in range(p):
            denom = c[(i - 1) % p] + c[i]
            m[i, (i - 1) % p] = s[(i - 1) % p] / denom
            m[i, (i + 1) % p] = s[i] / denom
    return m


def glauber_lambda_low(params: GlauberParams) -> float:
    """Gap bound ``(1 - gamma_1) / p`` where ``gamma_1`` is the largest
    eigenvalue of the band matrix from ``glauber_m_matrix``.

    For uniform ferromagnetic couplings ``J > 0``, ``gamma_1 = tanh(2 beta J)``
    and the bound is the closed form ``2 / ((1 + e^(4 beta J)) p)``: it keeps
    full relative precision at low temperature, where ``1 - gamma_1``
    cancels. Other couplings are eigensolved; for ``J < 0`` on an odd ring,
    which is frustrated, the closed form would be wrong.

    Non-uniform couplings make the band matrix asymmetric; it is then brought
    to symmetric form by a diagonal similarity before eigensolving. The two
    band entries that face each other share the same sinh factor, so their
    ratio is a positive ratio of cosh sums and the scaling is well defined
    whenever every coupling is nonzero.
    """
    m = glauber_m_matrix(params)
    if not np.all(np.isfinite(m)):
        raise ValueError(f"gap bound degenerates: band matrix overflows at beta={params.beta}")
    p = params.p
    coupling = float(params.couplings[0])
    closed_form = coupling > 0.0 and bool(np.all(params.couplings == coupling))
    if closed_form:
        gamma1 = float(np.tanh(2.0 * params.beta * coupling))
    elif np.abs(m - m.T).max() <= 1e-14 * max(1.0, float(np.abs(m).max())):
        gamma1 = float(densela.symmetric_eigen(m)[0][-1])
    else:
        if np.any(params.couplings == 0.0):
            raise ValueError("gap bound needs nonzero couplings on every edge")
        d = np.ones(p)
        for i in range(p - 1):
            # geometric-mean scaling: (d_{i+1}/d_i)^2 = M(i,i+1)/M(i+1,i); the
            # cyclic closure ratio telescopes to 1, so the wrap edge symmetrizes too
            d[i + 1] = d[i] * np.sqrt(m[i, i + 1] / m[i + 1, i])
        gamma1 = float(densela.symmetric_eigen(d[:, None] * m / d[None, :])[0][-1])
    if gamma1 >= 1.0:
        raise ValueError(f"gap bound degenerates: top band eigenvalue {gamma1} >= 1")
    if closed_form:
        # tanh(2 beta J) < 1 here, so 4 beta J < 40 and the exponential is finite
        return 2.0 / ((1.0 + float(np.exp(4.0 * params.beta * coupling))) * p)
    return (1.0 - gamma1) / p
