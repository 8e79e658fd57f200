"""Typed numerical errors and one ``eigh`` call.

No CLI path reaches an eigensolver: the CLI builds cycles and uniform rings,
whose gap bounds have closed forms.
"""

from __future__ import annotations

import numpy as np


class DenseLAError(Exception):
    """A symmetric eigensolve refused for non-finite input, or failed."""


def symmetric_eigen(m) -> tuple[np.ndarray, np.ndarray]:
    """``numpy.linalg.eigh`` of a symmetric matrix: ascending eigenvalues and
    Euclidean-orthonormal eigenvector columns.

    ``eigh`` reads one triangle only, so the caller makes ``m`` symmetric.
    Raises ``DenseLAError`` for non-finite input or when ``eigh`` fails, a
    non-square matrix included.
    """
    a = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(a)):
        raise DenseLAError("matrix has non-finite entries")
    try:
        return np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise DenseLAError(f"symmetric eigensolve failed: {exc}") from exc
