"""Integration on a fixed time grid, and trajectory analytics.

Both integrators return values at the times k*dt from 0 to the first
multiple of dt at or beyond T, so trajectories of either kind compare row
by row.

`rk4_blocks` is classical RK4 with step dt.  It hands the grid rows to its
caller in checked blocks as it steps, so a caller stores only what it
reads: `integrate` collects every row into one table, which `simulate`
writes out, and `freq` keeps only the two rail differences it fits, over
each frequency's fit window.  RK4's stability rests on the stiffness scale
of the emitted system.  In Euler mode the fastest rates are about 2/h (the
algebraic-row relaxation plus annihilation at gamma = 1/h, the eigenvalues
lambda/(1 - h lambda) of F_h staying below 1/h) and rail values stay O(1),
so dt = h/20 sits far inside the real-axis stability bound of roughly
2.78/|lambda|.  Larger steps trigger a configuration warning.  In direct
mode (E invertible) the rates are those of E^-1 A, which do not depend on
h: a circuit time constant well below h makes RK4 at h/20 blow up.

`integrate_adaptive` is Dormand-Prince 5(4) with error control, sampled on
the same grid through its 4th-order dense output; `verify` certifies with
it.  On the emitted systems its steps are limited by accuracy (the rail
sums sharpen where a rail difference crosses zero), not by stability: on
the four reference circuits at T = 10 it makes 8-41x fewer field
evaluations than RK4 at h/20.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dae import Trajectory, step_count
from .errors import NonFiniteState, WindowTooShort
from .numerics import as_vector

BLOWUP_LIMIT = 1e12
DT_RULE_FACTOR = 20.0
# RK4 rows in one block of rk4_blocks, checked for blow-up together
_CHECK_ROWS = 256

# Dormand-Prince 5(4) (Dormand & Prince 1980).  Row s of _DP_A gives stage
# s + 1 from stages 1..s; the last row is the 5th-order solution, whose
# field value is the next step's first stage.  _DP_E weighs the stages into
# the 5th- minus 4th-order difference.
_DP_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0],
    [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
])
_DP_E = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)


def _dense_weights() -> np.ndarray:
    """Shampine's 4th-order dense output of Dormand-Prince 5(4) (Hairer,
    Norsett & Wanner, Solving ODEs I, II.6), as stage weights per power of
    theta: x(t + theta*h) = x + h * sum_j theta^j (W[j-1] @ k), j = 1..4.

    It expands x + theta*dx + theta(1-theta)*c3 + theta^2(1-theta)*c4
    + theta^2(1-theta)^2*c5, where dx = h*b@k, c3 = h*k1 - dx,
    c4 = dx - h*k7 - c3 and c5 = h*d@k.
    """
    b = np.append(_DP_A[-1], 0.0)
    d = np.array([
        -12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
        -10690763975 / 1880347072, 701980252875 / 199316789632,
        -1453857185 / 822651844, 69997945 / 29380423,
    ])
    k1, k7 = np.eye(7)[[0, 6]]
    return np.array([k1, 3 * b - 2 * k1 - k7 + d, -2 * b + k1 + k7 - 2 * d, d])


_DP_W = _dense_weights()
_THETA_POWERS = np.arange(1, 5)
# absolute and relative tolerance of one integrate_adaptive step
_TOL = 1e-9
# smallest integrate_adaptive step, as a fraction of the horizon
_MIN_STEP = 1e-12


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


def _grid(x0, T: float, dt: float, names):
    """Times k*dt up to the first multiple of dt at or beyond T, the names,
    and the value rows to fill, row 0 holding x0."""
    if not 0.0 < dt <= T < np.inf:  # NaN fails too
        raise ValueError("need 0 < dt <= T, both finite")
    x = as_vector(x0, "x0")
    if names is None:
        names = tuple(f"s{i}" for i in range(x.shape[0]))
    times = np.arange(step_count(T, dt) + 1) * dt
    values = np.empty((times.shape[0], x.shape[0]))
    values[0] = x
    return times, names, values


def _blowup(times, names, values, i: int) -> NonFiniteState:
    """NonFiniteState at row i, carrying the rows before it."""
    exc = NonFiniteState(float(times[i]))
    exc.partial = Trajectory(times[:i], names, values[:i])
    return exc


def _first_bad_row(rows) -> int | None:
    """Index of the first row with a magnitude above BLOWUP_LIMIT or a
    non-finite value, or None."""
    ok = (np.abs(rows) <= BLOWUP_LIMIT).all(axis=1)  # NaN fails the <= too
    return None if ok.all() else int(np.argmin(ok))


def rk4_blocks(field, x0: np.ndarray, steps: int, dt: float):
    """Classical 4th-order Runge-Kutta on a time-invariant field, as blocks.

    Takes `steps` steps of dt from the float64 vector x0 (grid row 0) and
    yields grid rows 1..steps in order, as fresh arrays of at most
    _CHECK_ROWS rows that the caller may keep.  Each block is checked before
    it is yielded: at the first row in which any state magnitude exceeds
    1e12 or turns non-finite, the rows before it are yielded and
    NonFiniteState is raised with that row's time (and no partial
    trajectory).  A blow-up is thus found up to a block late, but the steps
    taken past it raise no floating-point warning.  On the stacked state of
    several networks (see crn.mass_action_field) that row is the earliest
    blow-up of any of them.  The field's arrays are only read, never
    written.
    """
    x = x0
    half = 0.5 * dt
    sixth = dt / 6.0
    for start in range(1, steps + 1, _CHECK_ROWS):
        block = np.empty((min(_CHECK_ROWS, steps + 1 - start), x.shape[0]))
        with np.errstate(over="ignore", invalid="ignore"):
            for row in block:
                k1 = field(x)
                k2 = field(x + half * k1)
                k3 = field(x + half * k2)
                k4 = field(x + dt * k3)
                np.add(x, sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4), out=row)
                x = row
        bad = _first_bad_row(block)
        if bad is not None:
            if bad:
                yield block[:bad]
            raise NonFiniteState((start + bad) * dt)
        yield block


def integrate(field, x0, T: float, dt: float, names=None) -> Trajectory:
    """Classical 4th-order Runge-Kutta on a time-invariant field.

    Steps from 0 to the first multiple of dt at or beyond T and collects
    the blocks of `rk4_blocks` into one table allocated up front.  Aborts
    with NonFiniteState at the first row in which any state magnitude
    exceeds 1e12 or turns non-finite, carrying that row's time and the
    partial trajectory of the rows before it.
    """
    times, names, values = _grid(x0, T, dt, names)
    row = 1
    try:
        for block in rk4_blocks(field, values[0], len(times) - 1, dt):
            values[row : row + len(block)] = block
            row += len(block)
    except NonFiniteState as exc:
        exc.partial = Trajectory(times[:row], names, values[:row])
        raise
    return Trajectory(times, names, values)


def integrate_adaptive(field, x0, T: float, dt: float, names=None) -> Trajectory:
    """Error-controlled Dormand-Prince 5(4) on a time-invariant field,
    returned on integrate's grid (the same times and row count).

    Each step keeps the RMS over states of its local error estimate, scaled
    by _TOL * (1 + |x|), at or below 1; the next step is the last one times
    0.9 * err^(-1/5), clipped to [0.2, 5].  The first step tried is dt, and
    the last step is stretched or cut to end exactly on the last grid time.
    Grid rows inside an accepted step come from the dense output.  Aborts
    with NonFiniteState like integrate, at the first grid row whose
    magnitude exceeds 1e12 or turns non-finite, and also when the step
    falls below _MIN_STEP * T (a non-finite field rejects every step); it
    then reports the first grid row not yet reached.  The partial
    trajectory holds the rows before the reported one.
    """
    times, names, values = _grid(x0, T, dt, names)
    t_end = times[-1]
    y = values[0]
    k = np.empty((7, y.shape[0]))
    k[0] = field(y)
    t, h, row = 0.0, dt, 1
    with np.errstate(over="ignore", invalid="ignore"):
        while row < len(times):
            if h < _MIN_STEP * t_end:
                raise _blowup(times, names, values, row)
            last = t + 1.1 * h >= t_end
            if last:
                h = t_end - t
            hA = h * _DP_A
            for s in range(1, 7):
                y_new = y + hA[s, :s] @ k[:s]
                k[s] = field(y_new)
            z = (_DP_E @ k) * (h / _TOL) / (1.0 + np.maximum(np.abs(y), np.abs(y_new)))
            err = math.sqrt(z @ z / max(len(z), 1))  # NaN rejects the step
            if err <= 1.0:
                t_new = t_end if last else t + h
                stop = int(times.searchsorted(t_new, side="right"))
                if stop > row:
                    theta = (times[row:stop, None] - t) / h
                    values[row:stop] = y + (theta**_THETA_POWERS) @ (h * _DP_W @ k)
                    bad = _first_bad_row(values[row:stop])
                    if bad is not None:
                        raise _blowup(times, names, values, row + bad)
                    row = stop
                t, y = t_new, y_new
                k[0] = k[6]
            if err == 0.0:
                h *= 5.0
            elif err < np.inf:
                h *= min(5.0, max(0.2, 0.9 * err**-0.2))
            else:
                h *= 0.2
    return Trajectory(times, names, values)


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
    reads amplitude * sin(wt + phase) + c.
    """
    t0, t1 = window
    if not 0.0 < omega < np.inf:  # NaN fails too
        raise ValueError("omega must be positive and finite")
    if t0 < traj.times[0] - 1e-12 or t1 > traj.times[-1] + 1e-12:
        raise ValueError("window extends beyond the trajectory")
    if (t1 - t0) < 2.0 * (2.0 * np.pi / omega):
        raise WindowTooShort(
            f"window ({t0:g}, {t1:g}) spans fewer than two periods of omega={omega:g}"
        )
    mask = (traj.times >= t0) & (traj.times <= t1)
    t = traj.times[mask]
    y = traj.column(column)[mask]
    design = np.column_stack([np.sin(omega * t), np.cos(omega * t), np.ones_like(t)])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    a, b, _ = coef
    resid = y - design @ coef
    return FitResult(
        amplitude=float(np.hypot(a, b)),
        phase=float(np.arctan2(b, a)),
        residual=float(np.sqrt(np.mean(resid**2))),
    )
