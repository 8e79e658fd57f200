"""Typed numerical errors and the symmetric eigensolver (numpy ``eigh``).

The CLI maps every ``DenseLAError`` to exit code 2.
"""

from __future__ import annotations

import numpy as np


class DenseLAError(Exception):
    """Base class for numerical failures in this package."""


class AsymmetricMatrixError(DenseLAError):
    """Input to the symmetric eigensolver was not symmetric to tolerance."""


def symmetric_eigen(m) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a symmetric matrix.

    Rejects a non-square matrix, or asymmetry above ``1e-10 * max|m|``, with
    ``AsymmetricMatrixError``; folds the remaining round-off as
    ``(m + m^T) / 2`` and returns ``numpy.linalg.eigh`` of the result:
    ascending eigenvalues and Euclidean-orthonormal eigenvector columns.
    Raises ``DenseLAError`` for non-finite input or when LAPACK fails.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={a.ndim}")
    if a.shape[0] != a.shape[1]:
        raise AsymmetricMatrixError(f"matrix is not square: {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DenseLAError("matrix has non-finite entries")
    scale = float(np.abs(a).max())
    asym = float(np.abs(a - a.T).max())
    if asym > 1e-10 * max(scale, 1e-300):
        raise AsymmetricMatrixError(
            f"asymmetry {asym:.3e} exceeds 1e-10 * max|m| = {1e-10 * scale:.3e}"
        )
    try:
        return np.linalg.eigh(0.5 * (a + a.T))
    except np.linalg.LinAlgError as exc:
        raise DenseLAError(f"symmetric eigensolve failed: {exc}") from exc
