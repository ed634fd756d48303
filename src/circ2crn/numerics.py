"""Dense real linear algebra for small, well-scaled systems.

Matrices are plain 2-D float64 numpy arrays, vectors 1-D arrays.  A square
matrix counts as nonsingular when every diagonal entry |R_kk| of its
Householder QR factorization exceeds ``REL_PIVOT_TOL`` times the 2-norm of
its column k (Golub & Van Loan, Matrix Computations, 5.4).  |R_kk| is the
distance of column k from the span of the columns before it, so the test is
a rank test: scaling a column scales its |R_kk| and its norm together and
leaves the verdict unchanged, and since |R_kk| >= sigma_min, a matrix fails
only when its condition number is at least 1 / REL_PIVOT_TOL = 1e12.  That
relative threshold is what lets callers distinguish a genuinely singular
pencil from round-off.  The factorization and the inverse both come from
LAPACK through numpy.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularMatrix

REL_PIVOT_TOL = 1e-12


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D float64 array, copying the input."""
    m = np.array(a, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def as_vector(a, name: str = "vector") -> np.ndarray:
    """Coerce to a finite 1-D float64 array, copying the input."""
    v = np.array(a, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v


def _square(m, name: str = "M") -> np.ndarray:
    mm = as_matrix(m, name)
    if mm.shape[0] != mm.shape[1]:
        raise ValueError(f"{name} must be square, got {mm.shape}")
    return mm


def failed_pivot(m) -> tuple[int, float] | None:
    """First column that fails the relative rank test, as (column, |R_kk|).

    Factors the matrix once by Householder QR and reports the first k with
    |R_kk| <= REL_PIVOT_TOL * ||column k||_2.  None means every column
    passes, i.e. the matrix is numerically nonsingular.  Scaling any column
    leaves the verdict unchanged, and a failure implies a condition number
    of at least 1 / REL_PIVOT_TOL.
    """
    a = _square(m)
    r = np.abs(np.diagonal(np.linalg.qr(a, mode="r")))
    failed = np.flatnonzero(r <= REL_PIVOT_TOL * np.linalg.norm(a, axis=0))
    if failed.size == 0:
        return None
    k = int(failed[0])
    return k, float(r[k])


def invert(m) -> np.ndarray:
    """Inverse of a square matrix; SingularMatrix when a column fails the rank test."""
    mm = _square(m)
    failed = failed_pivot(mm)
    if failed is not None:
        col, pivot = failed
        raise SingularMatrix(f"pivot {pivot:.3e} below threshold in column {col}")
    return np.linalg.inv(mm)
