"""Fixed-step integration and trajectory analytics.

Classical RK4 is enough here because the stiffness scale of every emitted
system is known: the fastest rates are about 2/h (the algebraic-row
relaxation plus annihilation at gamma = 1/h) and rail values stay O(1), so
dt = h/20 sits far inside the real-axis stability bound of roughly
2.78/|lambda|.  Larger steps trigger a configuration warning.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dae import Trajectory
from .errors import NonFiniteState, WindowTooShort
from .numerics import as_vector

BLOWUP_LIMIT = 1e12
DT_RULE_FACTOR = 20.0
# RK4 steps between two blow-up checks of integrate
_CHECK_ROWS = 256


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


def step_count(T: float, dt: float) -> int:
    """Steps `integrate` takes: to the first multiple of dt at or beyond T."""
    return int(np.ceil(T / dt - 1e-12))


def integrate(field, x0, T: float, dt: float, names=None) -> Trajectory:
    """Classical 4th-order Runge-Kutta on a time-invariant field.

    Steps from 0 to the first multiple of dt at or beyond T.  Aborts with
    NonFiniteState (carrying the blow-up time and the partial trajectory)
    at the first row in which any state magnitude exceeds 1e12 or turns
    non-finite.  The rows are checked once per block of _CHECK_ROWS steps,
    so a blow-up is found up to a block late, but the time and partial
    trajectory it reports are those of its first row, and the steps taken
    past it raise no floating-point warning.  On the stacked state of
    several networks (see crn.mass_action_field) that row is the earliest
    blow-up of any of them.  The field's arrays are only read, never
    written.
    """
    if not 0.0 < dt <= T < np.inf:  # NaN fails too
        raise ValueError("need 0 < dt <= T, both finite")
    x = as_vector(x0, "x0")
    n = x.shape[0]
    if names is None:
        names = tuple(f"s{i}" for i in range(n))
    steps = step_count(T, dt)
    values = np.empty((steps + 1, n))
    values[0] = x
    x = values[0]
    half = 0.5 * dt
    sixth = dt / 6.0
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(1, steps + 1, _CHECK_ROWS):
            stop = min(start + _CHECK_ROWS, steps + 1)
            for i in range(start, stop):
                k1 = field(x)
                k2 = field(x + half * k1)
                k3 = field(x + half * k2)
                k4 = field(x + dt * k3)
                np.add(x, sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4), out=values[i])
                x = values[i]
            # NaN fails the <= too
            bad = ~(np.abs(values[start:stop]) <= BLOWUP_LIMIT).all(axis=1)
            if bad.any():
                i = start + int(np.argmax(bad))
                exc = NonFiniteState(i * dt)
                exc.partial = Trajectory(np.arange(i) * dt, names, values[:i])
                raise exc
    return Trajectory(np.arange(steps + 1) * dt, names, values)


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
