"""Polynomial spectral filters that accelerate ergodic averaging of
reversible Markov chains.

The package splits into six small modules: ``densela`` (typed numerical
errors and the symmetric eigensolver, numpy ``eigh``), ``markov`` (the
neighbour-table chain model and its ``aL + bI`` operators, reversible-chain
geometry, and the Laplacian eigenfunction transform), ``chains`` (the two
bundled chain constructors, built as neighbour tables),
``filters`` (the running average and the Bernstein / Chebyshev / Legendre
designs plus the exact frequency-zeroing projector), ``harness`` (the
experiment runner and its CSV / JSON tables), and ``cli`` (the ``ergofilt``
command-line tool).
"""

from .chains import GlauberParams, build_cycle_walk, build_glauber_cycle, cycle_lambda_low, glauber_lambda_low
from .filters import (
    bernstein_apply,
    chebyshev_apply,
    ergodic_apply,
    lagrange_exact_apply,
    legendre_apply,
    max_abs_error,
)
from .harness import ExperimentConfig, run_experiment
from .markov import ChainModel, SpectralDecomposition, gft, igft, make_chain, spectral_decomposition

__version__ = "0.1.0"

__all__ = [
    "GlauberParams",
    "build_cycle_walk",
    "build_glauber_cycle",
    "cycle_lambda_low",
    "glauber_lambda_low",
    "bernstein_apply",
    "chebyshev_apply",
    "ergodic_apply",
    "lagrange_exact_apply",
    "legendre_apply",
    "max_abs_error",
    "ExperimentConfig",
    "run_experiment",
    "ChainModel",
    "SpectralDecomposition",
    "gft",
    "igft",
    "make_chain",
    "spectral_decomposition",
    "__version__",
]
