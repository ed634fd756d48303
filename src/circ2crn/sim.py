"""Integration on a fixed time grid, and trajectory analytics.

Every stepped trajectory is a `dae.Rows` stream of the rows at the times
k*dt, row 0 first, and `Rows.collect` copies a stream into one table.

`rk4_rows` is classical RK4 with step dt on any field, stepped and checked
block by block by `numerics.checked_blocks`, so a caller stores only what
it reads; `integrate` collects every row into one table.
`mass_action_rows` is the same RK4 on the mass-action networks of a CRN,
stepped on their polynomial form (`crn.polynomial_form`) rather than
through the field closure, with the same rows bit for bit: `simulate`
collects its rows with the difference columns, and `freq` keeps only the
two rail differences it fits, over each frequency's fit window.

RK4's stability rests on the stiffness scale of the emitted system.  In
Euler mode the fastest rates are about 2/h (the algebraic-row relaxation
plus annihilation at gamma = 1/h, the eigenvalues lambda/(1 - h lambda) of
F_h staying below 1/h) and rail values stay O(1), so dt = h/20 sits far
inside the real-axis stability bound of roughly 2.78/|lambda|.  Larger
steps trigger a configuration warning.  In direct mode (E invertible) the
rates are those of E^-1 A, which do not depend on h: a circuit time
constant well below h makes RK4 at h/20 blow up.

`linear_map` is the matrix exponential of one grid step of a linear
system x' = F x + g, which `numerics.propagate` steps exactly.  `verify`
certifies with it, on the rail differences of an emitted network
(`crn.difference_system`): that map and the oracle's are stepped as the
two diagonal blocks of one map, each into its own array of each block,
and the sup error is folded over the blocks of that one stream, so
nothing of the length of the horizon is stored.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .crn import polynomial_form
from .dae import Rows, Trajectory, grid_steps
from .errors import ValidationError
from .numerics import as_vector, checked_blocks, expm

BLOWUP_LIMIT = 1e12
DT_RULE_FACTOR = 20.0


@dataclass(frozen=True)
class FitResult:
    amplitude: float
    phase: float  # radians in (-pi, pi]
    residual: float  # RMS of the fit error


def check_dt(dt: float, h: float) -> None:
    """Warn when dt violates the dt <= h/20 stability rule."""
    if dt > h / DT_RULE_FACTOR * (1.0 + 1e-12):
        warnings.warn(
            f"dt={dt:g} exceeds h/{DT_RULE_FACTOR:g}={h / DT_RULE_FACTOR:g}; "
            "RK4 may be unstable for the stiff rates of this system",
            RuntimeWarning,
            stacklevel=2,
        )


def rk4_rows(field, x0, steps: int, dt: float) -> Rows:
    """Classical 4th-order Runge-Kutta on a time-invariant field, as rows.

    Takes `steps` steps of dt from the float64 vector x0, which is row 0.
    The rows after it are the blocks of `numerics.checked_blocks`, computed
    as they are read, and fail at the first row in which any state
    magnitude exceeds BLOWUP_LIMIT or turns non-finite.  On the stacked
    state of several networks (see crn.mass_action_field) that row is the
    earliest blow-up of any of them.  The field's arrays are only read,
    never written.
    """
    half = 0.5 * dt
    sixth = dt / 6.0

    def fill(parts, xs):
        [block], [x] = parts, xs
        for row in block:
            k1 = field(x)
            k2 = field(x + half * k1)
            k3 = field(x + half * k2)
            k4 = field(x + dt * k3)
            np.add(x, sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4), out=row)
            x = row

    x = as_vector(x0, "x0")
    blocks = (block for [block] in checked_blocks(fill, [x], steps, dt, BLOWUP_LIMIT))
    return Rows(dt, steps, chain([x[None]], blocks))


def mass_action_rows(nets, x0, steps: int, dt: float) -> Rows:
    """`rk4_rows` of the mass-action field of the networks nets, stepped on
    their `crn.polynomial_form` directly: the same rows bit for bit.

    x0 stacks the networks' states as `crn.mass_action_field` does.  Each
    stage writes its argument into the buffer the monomials gather from,
    and each field value is the same stacked product M @ m(c), so the
    stages, their sums and the checks are those of `rk4_rows` with that
    field.  The buffers are the call's own.
    """
    M, ma, mb = polynomial_form(*nets)
    B, n, _ = M.shape
    x = as_vector(x0, "x0")
    if x.shape != (B * n,):
        raise ValidationError(f"expected {B * n} concentrations")
    ext = np.ones(B * n + 1)
    arg = ext[: B * n].reshape(B, n, 1)
    # 0-d float64 arrays multiply faster than Python floats, to the same bits
    half, full, sixth, two = (np.array(v) for v in (0.5 * dt, dt, dt / 6.0, 2.0))

    def fill(parts, xs):
        [block], [x] = parts, xs
        x = x.reshape(B, n, 1)
        for row in block.reshape(len(block), B, n, 1):
            arg[...] = x
            k1 = M @ (ext[ma] * ext[mb])
            np.add(x, half * k1, out=arg)
            k2 = M @ (ext[ma] * ext[mb])
            np.add(x, half * k2, out=arg)
            k3 = M @ (ext[ma] * ext[mb])
            np.add(x, full * k3, out=arg)
            k4 = M @ (ext[ma] * ext[mb])
            np.add(x, sixth * (k1 + two * k2 + two * k3 + k4), out=row)
            x = row

    blocks = (block for [block] in checked_blocks(fill, [x], steps, dt, BLOWUP_LIMIT))
    return Rows(dt, steps, chain([x[None]], blocks))


def integrate(field, x0, T: float, dt: float, names=None) -> Trajectory:
    """Classical 4th-order Runge-Kutta on a time-invariant field.

    Steps from 0 to the first multiple of dt at or beyond T (`grid_steps`)
    and collects the rows of `rk4_rows` into one table, the columns named
    s0, s1, ... unless `names` are given.  Its NonFiniteState carries the
    partial trajectory of the rows before the blow-up.
    """
    x = as_vector(x0, "x0")
    names = tuple(f"s{i}" for i in range(x.shape[0])) if names is None else names
    return rk4_rows(field, x, grid_steps(T, dt), dt).collect(names)


def linear_map(F, g, x0, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """One grid step of the exact solution of x' = F x + g, for `numerics.propagate`.

    Returns expm([[F, g], [0, 0]] dt), which steps y = (x, 1) from k*dt to
    (k + 1)*dt, and y0 = (x0, 1): each stepped row holds x and then the
    constant 1.
    """
    x = as_vector(x0, "x0")
    M = np.vstack([np.column_stack([F, g]), np.zeros(x.size + 1)])
    return expm(M * dt), np.append(x, 1.0)


def recover_difference(traj: Trajectory, pairs) -> Trajectory:
    """Columns out = plus - minus on the same time grid."""
    names = []
    cols = []
    for plus_name, minus_name, out_name in pairs:
        cols.append(traj.column(plus_name) - traj.column(minus_name))
        names.append(out_name)
    values = np.column_stack(cols) if cols else np.zeros((traj.times.shape[0], 0))
    return Trajectory(traj.times.copy(), tuple(names), values)


def sup_error(a: Trajectory, b: Trajectory, columns) -> float:
    """Max over shared times of the infinity norm of column differences.

    b is resampled onto a's grid by linear interpolation; the comparison is
    restricted to the overlap [0, min(T_a, T_b)].
    """
    t_end = min(a.times[-1], b.times[-1])
    mask = a.times <= t_end * (1.0 + 1e-12)
    grid = a.times[mask]
    worst = 0.0
    for name in columns:
        ca = a.column(name)[mask]
        cb = np.interp(grid, b.times, b.column(name))
        worst = max(worst, float(np.max(np.abs(ca - cb))))
    return worst


def fit_sinusoid(
    traj: Trajectory, column: str, omega: float, window: tuple[float, float]
) -> FitResult:
    """Least-squares fit of a sin(wt) + b cos(wt) + c over the window.

    Amplitude is sqrt(a^2 + b^2) and phase atan2(b, a), so the fitted signal
    reads amplitude * sin(wt + phase) + c.  ValidationError when the window
    spans fewer than two periods, or when its samples do not determine the
    three coefficients (the least-squares system has rank below 3).
    """
    t0, t1 = window
    if not 0.0 < omega < np.inf:  # NaN fails too
        raise ValidationError("omega must be positive and finite")
    if t0 < traj.times[0] - 1e-12 or t1 > traj.times[-1] + 1e-12:
        raise ValidationError("window extends beyond the trajectory")
    if (t1 - t0) < 2.0 * (2.0 * np.pi / omega):
        raise ValidationError(
            f"window ({t0:g}, {t1:g}) spans fewer than two periods of omega={omega:g}"
        )
    mask = (traj.times >= t0) & (traj.times <= t1)
    t = traj.times[mask]
    y = traj.column(column)[mask]
    design = np.column_stack([np.sin(omega * t), np.cos(omega * t), np.ones_like(t)])
    coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < 3:
        raise ValidationError(f"window ({t0:g}, {t1:g}), sample count {t.size}, does not "
                              f"determine a sinusoid of omega={omega:g}")
    a, b, _ = coef
    resid = y - design @ coef
    return FitResult(
        amplitude=float(np.hypot(a, b)),
        phase=float(np.arctan2(b, a)),
        residual=float(np.sqrt(np.mean(resid**2))),
    )
