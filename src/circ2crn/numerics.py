"""Dense real linear algebra for small, well-scaled systems.

Matrices are plain 2-D float64 numpy arrays, vectors 1-D arrays.  A square
matrix counts as nonsingular when every pivot |U_kk| of its LU factorization
with partial pivoting exceeds ``REL_PIVOT_TOL`` times the largest magnitude
found in its original column k.  That relative threshold is what lets
callers distinguish a genuinely singular pencil from round-off; the inverse
itself comes from LAPACK through numpy.
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
    """First column whose pivot fails the relative rule, as (column, |U_kk|).

    Runs LU elimination with partial pivoting and stops at the first pivot
    |U_kk| <= REL_PIVOT_TOL * (largest initial magnitude in column k).  None means
    every pivot passes, i.e. the matrix is numerically nonsingular.  Scaling
    any column leaves the verdict unchanged.
    """
    a = _square(m)
    col_scale = np.max(np.abs(a), axis=0, initial=0.0)
    for k in range(a.shape[0]):
        p = k + int(np.argmax(np.abs(a[k:, k])))
        pivot = abs(a[p, k])
        if pivot <= REL_PIVOT_TOL * col_scale[k]:
            return k, float(pivot)
        a[[k, p]] = a[[p, k]]
        a[k + 1 :, k + 1 :] -= np.outer(a[k + 1 :, k] / a[k, k], a[k, k + 1 :])
    return None


def invert(m) -> np.ndarray:
    """Inverse of a square matrix; SingularMatrix when a pivot fails the rule."""
    mm = _square(m)
    failed = failed_pivot(mm)
    if failed is not None:
        col, pivot = failed
        raise SingularMatrix(f"pivot {pivot:.3e} below threshold in column {col}")
    return np.linalg.inv(mm)
