"""Linear DAE systems E dx/dt = A x + B u and their ODE approximations.

The central transform replaces the DAE by the ODE dx/dt = F_h(x) with
F_h(x) = (E - hA)^-1 (A x + b); for a regular pencil the ODE solution
converges to the DAE solution as h -> 0.  Inputs are themselves solutions
of an affine ODE d(u,z)/dt = D (u,z) + d, which covers constants and
truncated Fourier series: u holds one value per source, in source order,
and z each source's oscillator pairs after it.  A backward-Euler stepper on
the exact stacked pencil serves as the numerical oracle for every downstream
comparison; `reference_map` is its map, and `reference_solve` collects
its rows into a `Trajectory`.

`Rows` is the one contract of every stepped trajectory: RK4's rows
(`sim.rk4_rows`) and those of one affine map (`stepped`) are handed out as
a `Rows` stream, row 0 and then the checked blocks of
`numerics.checked_blocks`, one array each and each valid until the next is
requested, and `Rows.collect` is the one loop that copies a stream into a
table.
`grid_steps` is the one rule of a stepped run's grid: its step count, and
its refusal before anything is compiled, allocated or stepped.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain
from typing import Iterator, NamedTuple

import numpy as np

from .errors import NonFiniteState, ValidationError
from .numerics import _BLOCK_ROWS, as_matrix, as_vector, failed_pivot, invert, propagate

DEFAULT_SEED = 1729
PROBE_COUNT = 8
PROBE_RANGE = (1e-4, 0.5)
# the grid rows a stepped run takes at most (`grid_steps`): minutes of
# stepping even on the smallest circuits
MAX_GRID_ROWS = 10**9
# the float64 values a collected table holds at most (`Rows.collect`): 1 GiB
MAX_TABLE_VALUES = 2**27
# the step of `consistent_project`
_H_TINY = 1e-6


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class DaeSystem:
    """Pencil (E, A) with input routing B over named states."""

    E: np.ndarray
    A: np.ndarray
    B: np.ndarray
    state_names: tuple[str, ...]
    output_index: int

    def __post_init__(self):
        object.__setattr__(self, "E", as_matrix(self.E, "E"))
        object.__setattr__(self, "A", as_matrix(self.A, "A"))
        object.__setattr__(self, "B", as_matrix(self.B, "B"))
        object.__setattr__(self, "state_names", tuple(self.state_names))
        n = self.E.shape[0]
        if self.E.shape != (n, n) or self.A.shape != (n, n):
            raise ValueError("E and A must be square and the same size")
        if self.B.shape[0] != n:
            raise ValueError("B must have one row per state")
        if len(self.state_names) != n:
            raise ValueError("state_names length must match the state count")
        if not 0 <= self.output_index < max(n, 1):
            raise ValueError("output_index out of range")

    @property
    def n(self) -> int:
        return self.E.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]


@dataclass(frozen=True)
class InputModel:
    """Affine generator d(u,z)/dt = D (u,z) + d with initial values."""

    D: np.ndarray
    d: np.ndarray
    u0: np.ndarray
    z0: np.ndarray
    input_names: tuple[str, ...]
    aux_names: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "D", as_matrix(self.D, "D"))
        object.__setattr__(self, "d", as_vector(self.d, "d"))
        object.__setattr__(self, "u0", as_vector(self.u0, "u0"))
        object.__setattr__(self, "z0", as_vector(self.z0, "z0"))
        object.__setattr__(self, "input_names", tuple(self.input_names))
        object.__setattr__(self, "aux_names", tuple(self.aux_names))
        mk = self.u0.shape[0] + self.z0.shape[0]
        if self.D.shape != (mk, mk) or self.d.shape != (mk,):
            raise ValueError("D and d must cover the stacked (u, z) vector")
        if len(self.input_names) != self.m or len(self.aux_names) != self.k:
            raise ValueError("input/aux name counts must match u0/z0")

    @property
    def m(self) -> int:
        return self.u0.shape[0]

    @property
    def k(self) -> int:
        return self.z0.shape[0]

    @property
    def names(self) -> tuple[str, ...]:
        return self.input_names + self.aux_names

    @property
    def init(self) -> np.ndarray:
        return np.concatenate([self.u0, self.z0])


@dataclass(frozen=True)
class AffineOde:
    """dx/dt = Ahat x + bhat over named states."""

    Ahat: np.ndarray
    bhat: np.ndarray
    state_names: tuple[str, ...]
    output_index: int

    def __post_init__(self):
        object.__setattr__(self, "Ahat", as_matrix(self.Ahat, "Ahat"))
        object.__setattr__(self, "bhat", as_vector(self.bhat, "bhat"))
        object.__setattr__(self, "state_names", tuple(self.state_names))
        n = self.Ahat.shape[0]
        if self.Ahat.shape != (n, n):
            raise ValueError("Ahat must be square")
        if self.bhat.shape != (n,):
            raise ValueError("bhat length must match Ahat")
        if len(self.state_names) != n:
            raise ValueError("state_names length must match Ahat")

    @property
    def n(self) -> int:
        return self.Ahat.shape[0]

    def field(self):
        """Evaluable right-hand side, suitable for sim.integrate."""
        a, b = self.Ahat, self.bhat

        def rhs(x: np.ndarray) -> np.ndarray:
            return a @ x + b

        return rhs


@dataclass(frozen=True)
class Trajectory:
    """Named value table over a strictly increasing time grid."""

    times: np.ndarray
    names: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.shape != (self.times.shape[0], len(self.names)):
            raise ValueError("values must be times x names")
        if self.times.shape[0] > 1 and not (np.diff(self.times) > 0).all():
            raise ValueError("times must be strictly increasing")

    def column(self, name: str) -> np.ndarray:
        try:
            j = self.names.index(name)
        except ValueError:
            raise ValidationError(f"no column named {name!r}") from None
        return self.values[:, j]

    def csv_lines(self):
        """The lines of `to_csv`, one at a time."""
        rows = ((t, *row.tolist()) for t, row in zip(self.times.tolist(), self.values))
        return csv_lines(("t",) + self.names, rows)

    def to_csv(self) -> str:
        return "".join(self.csv_lines())


class Rows(NamedTuple):
    """A trajectory as a stream: the rows at the times k*dt for k = 0..steps,
    handed out in order as consecutive blocks, row 0 first.  The blocks are
    computed as they are read, into one buffer that each block overwrites,
    so a block is valid until the next one is requested: a consumer folds
    or copies it before reading on, and holds one block at a time."""

    dt: float
    steps: int
    blocks: Iterator[np.ndarray]

    def collect(self, names, diffs=()) -> Trajectory:
        """The leading columns of the rows in one table under `names`,
        allocated before the first block is read: ValidationError, before
        anything is allocated, when it holds more than MAX_TABLE_VALUES.

        Each (out, plus, minus) of diffs, plus and minus among the names,
        appends a column out = plus - minus, filled block by block as
        `sim.recover_difference` computes it.  NonFiniteState raised by the
        stream carries the table of the rows before it as .partial.
        """
        names = tuple(names)
        width = len(names)
        plus = [names.index(p) for _, p, _ in diffs]
        minus = [names.index(m) for _, _, m in diffs]
        names += tuple(out for out, _, _ in diffs)
        size = (self.steps + 1) * len(names)
        if size > MAX_TABLE_VALUES:
            raise ValidationError(f"a table of {self.steps + 1} rows and {len(names)} columns "
                                  f"holds {size:.4g} values, above the cap of {MAX_TABLE_VALUES}")
        times = np.arange(self.steps + 1) * self.dt
        values = np.empty((times.shape[0], len(names)))
        row = 0
        try:
            for block in self.blocks:
                rows = values[row : row + len(block)]
                rows[:, :width] = block[:, :width]
                # one anchor period at a time, so no temporary grows with the block
                for lo in range(0, len(block), _BLOCK_ROWS):
                    period = block[lo : lo + _BLOCK_ROWS]
                    rows[lo : lo + len(period), width:] = period[:, plus] - period[:, minus]
                row += len(block)
        except NonFiniteState as exc:
            exc.partial = Trajectory(times[:row], names, values[:row])
            raise
        return Trajectory(times, names, values)


def grid_steps(T: float, dt: float) -> int:
    """Steps of a stepped run's grid, from 0 to the first multiple of dt at
    or beyond T: ValidationError unless 0 < dt <= T, both finite, and the steps
    are at most MAX_GRID_ROWS."""
    if not 0.0 < dt <= T < np.inf:  # NaN fails too
        raise ValidationError("need 0 < dt <= T, both finite")
    steps = np.ceil(T / dt - 1e-12)
    if steps > MAX_GRID_ROWS:  # an infinite quotient fails too
        raise ValidationError(f"T={T:g} needs {steps:.10g} grid rows at dt={dt:g}, "
                              f"above the cap of {MAX_GRID_ROWS:.0e}")
    return int(steps)


def csv_lines(header, rows):
    """Comma-separated lines, each ending in a newline: the header line, then
    each row's cells as %.17g."""
    fmt = ",".join(["%.17g"] * len(header)) + "\n"
    yield ",".join(header) + "\n"
    for row in rows:
        yield fmt % tuple(row)


def csv_table(header, rows) -> str:
    """The text of `csv_lines`."""
    return "".join(csv_lines(header, rows))


# ---------------------------------------------------------------------------
# regularity and consistency


def default_h_probes(seed: int | None = None) -> list[float]:
    """Reproducible pseudo-random step probes for the regularity check."""
    rng = random.Random(DEFAULT_SEED if seed is None else seed)
    lo, hi = PROBE_RANGE
    return [rng.uniform(lo, hi) for _ in range(PROBE_COUNT)]


def check_regularity(sys: DaeSystem, h_probe: list[float]) -> bool:
    """True when E - hA passes the relative rank test at some probe h.

    For a regular pencil det(E - hA) is a polynomial in h that is not
    identically zero, so failing at every probe flags a singular pencil.
    """
    if not h_probe:
        raise ValidationError("h_probe must be nonempty")
    for h in h_probe:
        if not 0.0 < h < 1.0:
            raise ValidationError(f"probe h={h} outside (0, 1)")
        if failed_pivot(sys.E - h * sys.A) is None:
            return True
    return False


def consistent_project(sys: DaeSystem, b, x0) -> tuple[np.ndarray, bool]:
    """One tiny implicit step x0 + h F_h(x0) with h = _H_TINY: it lands on
    the consistent set, and it also advances the state by h in time, so it
    is a step rather than a projection.

    Returns the stepped state and a flag that is set when the move was
    large relative to h, i.e. when x0 was not consistent.  With E
    invertible there is no algebraic row, every state is consistent, and
    x0 is returned unchanged and unflagged.
    """
    bv = as_vector(b, "b")
    x = as_vector(x0, "x0")
    if e_invertible(sys):
        return x, False
    fh = invert(sys.E - _H_TINY * sys.A) @ (sys.A @ x + bv)
    projected = x + _H_TINY * fh
    moved = float(np.max(np.abs(projected - x))) if x.size else 0.0
    flag = moved > 10.0 * _H_TINY * (1.0 + float(np.max(np.abs(x), initial=0.0)))
    return projected, flag


# ---------------------------------------------------------------------------
# ODE approximations


def coupled_euler_map(sys: DaeSystem, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Matrices ((E - hA)^-1 A, (E - hA)^-1 B) of the shifted system.

    Since (E - hA)^-1 A = ((E - hA)^-1 E - I) / h, the column of an
    algebraic state (a zero column of E) is exactly -e_j / h; it is set
    rather than computed, so rounding leaves no residue there.
    """
    if h <= 0.0:
        raise ValidationError("h must be positive")
    inv = invert(sys.E - h * sys.A)
    fa = inv @ sys.A
    alg = np.flatnonzero(~sys.E.any(axis=0))
    fa[:, alg] = 0.0
    fa[alg, alg] = -1.0 / h
    return fa, inv @ sys.B


def direct_map(sys: DaeSystem) -> tuple[np.ndarray, np.ndarray]:
    """Matrices (E^-1 A, E^-1 B) when E is invertible (pure-ODE circuits)."""
    inv = invert(sys.E)
    return inv @ sys.A, inv @ sys.B


def e_invertible(sys: DaeSystem) -> bool:
    """Whether E passes the rank test; a zero column of E, which every
    algebraic state gives, makes it singular without a factorization."""
    return bool(sys.E.any(axis=0).all()) and failed_pivot(sys.E) is None


def fourier_input(*sources) -> InputModel:
    """Input generator for u_s(t) = alpha_s + sum_i beta_i sin(omega_i t + gamma_i).

    Each source is a (name, alpha, terms) triple, terms holding (beta, omega,
    gamma).  Realized as the linear oscillator bank du_s/dt = sum_i beta_i
    omega_i zb_i, dz_i/dt = omega_i zb_i, dzb_i/dt = -omega_i z_i with
    z_i(0) = sin(gamma_i) and zb_i(0) = cos(gamma_i).  Every u_s comes first,
    at its source's index, then each source's (z_i, zb_i) pairs in source
    order; one source gives that source's own generator.
    """
    sources = [(name, alpha, list(terms)) for name, alpha, terms in sources]
    for _, _, terms in sources:
        for _, omega, _ in terms:
            if not 0.0 < omega < np.inf:  # NaN fails too
                raise ValidationError("omega must be positive and finite")
    m = len(sources)
    size = m + 2 * sum(len(terms) for _, _, terms in sources)
    D = np.zeros((size, size))
    u0 = np.zeros(m)
    z0 = np.zeros(size - m)
    aux_names: list[str] = []
    for s, (name, alpha, terms) in enumerate(sources):
        for i, (beta, omega, gamma) in enumerate(terms, start=1):
            iz = m + len(aux_names)  # z_i column; zbar_i follows
            D[s, iz + 1] = beta * omega
            D[iz, iz + 1] = omega
            D[iz + 1, iz] = -omega
            z0[iz - m : iz - m + 2] = np.sin(gamma), np.cos(gamma)
            aux_names += [f"{name}_z{i}", f"{name}_zb{i}"]
        u0[s] = alpha + sum(beta * np.sin(gamma) for beta, _, gamma in terms)
    names = tuple(name for name, _, _ in sources)
    return InputModel(D, np.zeros(size), u0, z0, names, tuple(aux_names))


# ---------------------------------------------------------------------------
# reference solver (backward Euler on the exact stacked pencil)


def stacked_pencil(sys: DaeSystem, inp: InputModel):
    """The exact DAE as one autonomous pencil E dy/dt = A y on y = (x, u, z, 1):
    the circuit rows with B in the u columns, the generator rows with D and
    with d in the constant column, and a last row that keeps the constant at
    1.  Returns the names of (x, u, z), E and A."""
    n, m, mk = sys.n, inp.m, inp.m + inp.k
    if sys.m != m:
        raise ValueError("DAE input count does not match the input model")
    size = n + mk + 1
    E = np.eye(size)
    A = np.zeros((size, size))
    E[:n, :n] = sys.E
    A[:n, :n] = sys.A
    A[:n, n : n + m] = sys.B
    A[n:-1, n:-1] = inp.D
    A[n:-1, -1] = inp.d
    return sys.state_names + inp.names, E, A


def reference_map(sys: DaeSystem, inp: InputModel, x0, h: float,
                  stride: int) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """Backward-Euler (equivalently BDF-1) steps of the exact DAE, stride
    steps of h at a time: the map from one grid row to the next on a grid
    of step stride*h.

    A step of the stacked pencil solves (E - hA) y[i+1] = E y[i], so it is
    y -> P y with P = (E - hA)^-1 E.  Returns the names of (x, u, z),
    P^stride, which `stepped` steps, and y0 = (x0, u0, z0, 1).  x0 is taken
    as given: an inconsistent x0 is not projected, and the first step lands
    on the algebraic rows.  The rows agree with the step-by-step recursion
    to rounding, about 1e-12 relative to max|x|.
    """
    if not 0.0 < h < np.inf:  # NaN fails too
        raise ValidationError("h must be positive and finite")
    names, E, A = stacked_pencil(sys, inp)
    P = invert(E - h * A) @ E
    # the stepped rows are checked block by block, so overflow needs no warning
    with np.errstate(over="ignore", invalid="ignore"):
        phi = np.linalg.matrix_power(P, stride)
    return names, phi, np.concatenate([as_vector(x0, "x0"), inp.init, [1.0]])


def stepped(phi, y0, steps: int, dt: float) -> Rows:
    """Row 0 = y0 and then the rows of `numerics.propagate` of the one map
    phi, one array per block, row k at time k*dt; a block is valid until
    the next one is requested."""
    blocks = (block for [block] in propagate([phi], y0, steps, dt))
    return Rows(dt, steps, chain([y0[None]], blocks))


def reference_solve(
    sys: DaeSystem,
    inp: InputModel,
    x0,
    T: float,
    h: float,
    max_points: int | None = None,
) -> Trajectory:
    """Backward-Euler (equivalently BDF-1) trajectory of the exact DAE from
    x0 as given: an inconsistent x0 is not projected, and the first step
    lands on the algebraic rows.

    Collects the rows of `reference_map`, without the constant column,
    into one table on the grid of `grid_steps(T, h)`.  When max_points is
    given, only every stride-th iterate is stored, the stride being the
    least one that keeps the stored steps within max_points.
    NonFiniteState carries the time of the first non-finite stored iterate
    and, as .partial, the rows before it.
    """
    n_steps = grid_steps(T, h)
    stride = 1
    if max_points is not None and n_steps > max_points:
        stride = int(np.ceil(n_steps / max_points))
    names, phi, y0 = reference_map(sys, inp, x0, h, stride)
    rows = stepped(phi, y0, n_steps // stride, stride * h)
    return rows.collect(names)
