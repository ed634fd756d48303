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
pencil from round-off.  The factorization, the inverse and the solve inside
`expm` all come from LAPACK through numpy.  `expm` and `propagate` step
y' = M y exactly on a grid: y(k dt) = Phi^k y(0) with Phi = expm(M dt).
`checked_blocks` is the one block loop of every stepped stream, RK4's
(`sim.rk4_rows`) and `propagate`'s: it hands out rows in checked blocks,
each block one array per part of the state (per diagonal block of
`propagate`'s map), refilled in one buffer, so a block is valid until the
next one is requested.  A block holds a whole number of anchor periods of
_BLOCK_ROWS rows, as many as _BLOCK_ENTRIES values allow and at least one.
`propagate` restarts its table products at every anchor, so its rows do not
depend on the block length.
"""

from __future__ import annotations

from math import comb, perm

import numpy as np

from .errors import NonFiniteState, SingularMatrix, ValidationError

REL_PIVOT_TOL = 1e-12
# float64 entries in propagate's table of powers (512 KB)
_TABLE_ENTRIES = 1 << 16
# the anchor period: propagate's table products restart every _BLOCK_ROWS
# rows from row 1, which fixes every bit of its rows.  A block of
# checked_blocks is a whole number of periods, as many as fit in
# _BLOCK_ENTRIES float64 values (512 KB) and at least one; the block length
# moves no bit, only the per-block overhead
_BLOCK_ROWS = 512
_BLOCK_ENTRIES = 1 << 16
# the Pade [13/13] coefficients b_0 .. b_13, scaled to b_0 = 1 so that a zero
# row keeps its diagonal at exactly 1, and the largest 1-norm at which that
# approximant meets double precision (Higham 2005)
_PADE13 = [comb(13, k) / perm(26, k) for k in range(14)]
_THETA13 = 5.371920351148152


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D float64 array, copying the input."""
    m = np.array(a, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValidationError(f"{name} contains non-finite entries")
    return m


def as_vector(a, name: str = "vector") -> np.ndarray:
    """Coerce to a finite 1-D float64 array, copying the input."""
    v = np.array(a, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValidationError(f"{name} contains non-finite entries")
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


def expm(m) -> np.ndarray:
    """Matrix exponential by scaling and squaring with the [13/13] Pade
    approximant (Higham, SIAM J. Matrix Anal. Appl. 26, 2005): M is scaled
    by 2^-s to a 1-norm of at most _THETA13, and the approximant
    (V - U)^-1 (V + U) there is squared s times."""
    a = _square(m)
    norm = float(np.linalg.norm(a, 1)) if a.size else 0.0
    s = max(0, int(np.ceil(np.log2(norm / _THETA13)))) if norm > 0.0 else 0
    a = a / 2.0**s
    b = _PADE13
    ident = np.eye(a.shape[0])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def checked_blocks(fill, y0s, steps: int, dt: float, limit: float):
    """The rows 1 .. steps after the states y0s, as blocks of equal length
    and then one of the rest: _BLOCK_ROWS times the most anchor periods
    whose rows of the stream's full width fit in _BLOCK_ENTRIES, and at
    least one period.

    Each block is a list of parts, one C-contiguous array per state of y0s
    and as wide as it, all of them laid end to end in one buffer that the
    stream allocates once and refills, so a block is valid until the next
    one is requested.  fill(parts, ys) writes them, ys being copies of the
    rows before them, under one errstate that silences overflow.  The
    block is checked whole, and a row passes when every |entry| <= limit,
    so NaN and +-inf fail whatever the limit.  At the first row that fails
    in any part, the rows of every part before it are yielded and
    NonFiniteState is raised with that row's time.
    """
    ends = np.cumsum([0] + [y.shape[0] for y in y0s]).tolist()
    width = ends[-1]
    per = max(1, _BLOCK_ENTRIES // max(width, 1) // _BLOCK_ROWS) * _BLOCK_ROWS
    buffer = np.empty(min(per, steps) * width)
    ys = y0s
    for start in range(1, steps + 1, per):
        rows = min(per, steps + 1 - start)
        block = buffer[: rows * width]
        parts = [block[rows * a : rows * b].reshape(rows, b - a)
                 for a, b in zip(ends, ends[1:])]
        with np.errstate(over="ignore", invalid="ignore"):
            fill(parts, ys)
        # |entry| <= limit by two reductions, with no copy; NaN fails them too
        if not (-limit <= block.min(initial=0.0) and block.max(initial=0.0) <= limit):
            bad = min(_passing_rows(part, limit) for part in parts)
            if bad:
                yield [part[:bad] for part in parts]
            raise NonFiniteState((start + bad) * dt)
        yield parts
        # the next fill writes over the buffer these rows lie in
        ys = [part[-1].copy() for part in parts]


def _passing_rows(rows: np.ndarray, limit: float) -> int:
    """The number of leading rows in which every |entry| <= limit."""
    passing = (np.abs(rows) <= limit).all(axis=1)
    return len(rows) if passing.all() else int(np.argmin(passing))


def propagate(phis, y0: np.ndarray, steps: int, dt: float):
    """The rows Phi_i^1 y_i .. Phi_i^steps y_i of each diagonal block Phi_i
    of one map, y0 stacking the states y_i, as the blocks of
    `checked_blocks`: each block holds one C-contiguous array per diagonal
    block and is valid until the next one is requested, and the stream
    fails at the first row that is not finite in any.

    Each diagonal block fills its own array from its own table of powers
    (b of them, bounded by _TABLE_ENTRIES and _BLOCK_ROWS), b rows at a
    time from each anchor, the rows 1, 1 + _BLOCK_ROWS, 1 + 2 _BLOCK_ROWS,
    ..., each b rows (fewer before the next anchor) one matrix product with
    the row before them, written in place.  The anchors depend on the row
    numbers alone, not on the length of the blocks or the width of the
    map, so each array equals its own propagation alone bit for bit.
    """
    if len(phis) == 0 or any(np.ndim(phi) != 2 or phi.shape[0] != phi.shape[1]
                             for phi in phis):
        raise ValueError("phis must be the square diagonal blocks of one map")
    tables = []
    for phi in phis:
        size = phi.shape[0]
        table = max(1, min(_BLOCK_ROWS, _TABLE_ENTRIES // size**2, steps))
        # the rows are checked block by block, so overflow needs no warning
        with np.errstate(over="ignore", invalid="ignore"):
            powers = np.empty((table, size, size))
            powers[0] = phi
            k = 1
            while k < table:  # doubling: powers[k:k+j] = powers[:j] @ Phi^k
                j = min(k, table - k)
                doubled = powers[:j].reshape(j * size, size) @ powers[k - 1]
                powers[k : k + j] = doubled.reshape(j, size, size)
                k += j
            # an overflowed power would turn a zero component into NaN, where
            # stepping keeps it zero: use only the leading finite powers
            finite = np.isfinite(powers).all(axis=(1, 2))
        if not finite.all():
            table = max(1, int(np.argmin(finite)))
        tables.append(powers[:table].reshape(table * size, size))
    y0s = np.split(y0, np.cumsum([len(phi) for phi in phis])[:-1])

    def fill(parts, ys):
        for part, x, stacked in zip(parts, ys, tables):
            table = len(stacked) // len(x)
            for anchor in range(0, len(part), _BLOCK_ROWS):
                period = part[anchor : anchor + _BLOCK_ROWS]
                for lo in range(0, len(period), table):
                    rows = period[lo : lo + table]
                    np.matmul(stacked[: rows.size], x, out=rows.reshape(-1))
                    x = rows[-1]

    yield from checked_blocks(fill, y0s, steps, dt, np.finfo(float).max)
