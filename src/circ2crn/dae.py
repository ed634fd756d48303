"""Linear DAE systems E dx/dt = A x + B u and their ODE approximations.

The central transform replaces the DAE by the ODE dx/dt = F_h(x) with
F_h(x) = (E - hA)^-1 (A x + b); for a regular pencil the ODE solution
converges to the DAE solution as h -> 0.  Inputs are themselves solutions
of an affine ODE d(u,z)/dt = D (u,z) + d, which covers constants and
truncated Fourier series.  A backward-Euler stepper on the exact stacked
pencil serves as the numerical oracle for every downstream comparison.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteState, UnknownColumn
from .numerics import as_matrix, as_vector, failed_pivot, invert

DEFAULT_SEED = 1729
PROBE_COUNT = 8
PROBE_RANGE = (1e-4, 0.5)
# float64 entries in reference_solve's table of step-map powers (512 KB)
_TABLE_ENTRIES = 1 << 16


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
        if self.times.shape[0] > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")

    def column(self, name: str) -> np.ndarray:
        try:
            j = self.names.index(name)
        except ValueError:
            raise UnknownColumn(f"no column named {name!r}") from None
        return self.values[:, j]

    def to_csv(self) -> str:
        rows = ((t, *row.tolist()) for t, row in zip(self.times.tolist(), self.values))
        return csv_table(("t",) + self.names, rows)


def step_count(T: float, dt: float) -> int:
    """Steps of `sim.integrate` and `reference_solve`: from 0 to the first
    multiple of dt at or beyond T."""
    return int(np.ceil(T / dt - 1e-12))


def csv_table(header, rows) -> str:
    """Comma-separated text: the header line, then each row's cells as %.17g."""
    fmt = ",".join(["%.17g"] * len(header))
    return "\n".join([",".join(header), *(fmt % tuple(row) for row in rows)]) + "\n"


# ---------------------------------------------------------------------------
# regularity and consistency


def default_h_probes(seed: int | None = None) -> list[float]:
    """Reproducible pseudo-random step probes for the regularity check."""
    rng = random.Random(DEFAULT_SEED if seed is None else seed)
    lo, hi = PROBE_RANGE
    return [rng.uniform(lo, hi) for _ in range(PROBE_COUNT)]


def check_regularity(sys: DaeSystem, h_probe: list[float]) -> bool:
    """True when E - hA passes the relative pivot rule at some probe h.

    For a regular pencil det(E - hA) is a polynomial in h that is not
    identically zero, so failing at every probe flags a singular pencil.
    """
    if not h_probe:
        raise ValueError("h_probe must be nonempty")
    for h in h_probe:
        if not 0.0 < h < 1.0:
            raise ValueError(f"probe h={h} outside (0, 1)")
        if failed_pivot(sys.E - h * sys.A) is None:
            return True
    return False


def consistent_project(
    sys: DaeSystem, b, x0, h_tiny: float = 1e-6
) -> tuple[np.ndarray, bool]:
    """One tiny implicit step, which lands on the consistent set.

    Returns the projected state and a flag that is set when the move was
    large relative to h_tiny, i.e. when x0 was not consistent.  With E
    invertible there is no algebraic row, every state is consistent, and
    x0 is returned unchanged and unflagged.
    """
    if not 0.0 < h_tiny <= 1e-4:
        raise ValueError("h_tiny must lie in (0, 1e-4]")
    bv = as_vector(b, "b")
    x = as_vector(x0, "x0")
    if e_invertible(sys):
        return x, False
    fh = invert(sys.E - h_tiny * sys.A) @ (sys.A @ x + bv)
    projected = x + h_tiny * fh
    moved = float(np.max(np.abs(projected - x))) if x.size else 0.0
    flag = moved > 10.0 * h_tiny * (1.0 + float(np.max(np.abs(x), initial=0.0)))
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
        raise ValueError("h must be positive")
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
    return failed_pivot(sys.E) is None


def fourier_input(alpha: float, terms, name: str = "u") -> InputModel:
    """Input generator for u(t) = alpha + sum_i beta_i sin(omega_i t + gamma_i).

    Realized as the linear oscillator bank du/dt = sum beta_i omega_i zb_i,
    dz_i/dt = omega_i zb_i, dzb_i/dt = -omega_i z_i with z_i(0) = sin(gamma_i)
    and zb_i(0) = cos(gamma_i).
    """
    terms = list(terms)
    for _, omega, _ in terms:
        if not 0.0 < omega < np.inf:  # NaN fails too
            raise ValueError("omega must be positive and finite")
    n_aux = 2 * len(terms)
    size = 1 + n_aux
    D = np.zeros((size, size))
    z0 = np.zeros(n_aux)
    aux_names = []
    for i, (beta, omega, gamma) in enumerate(terms):
        iz = 1 + 2 * i  # z_i column
        izb = iz + 1  # zbar_i column
        D[0, izb] = beta * omega
        D[iz, izb] = omega
        D[izb, iz] = -omega
        z0[2 * i] = np.sin(gamma)
        z0[2 * i + 1] = np.cos(gamma)
        aux_names += [f"{name}_z{i + 1}", f"{name}_zb{i + 1}"]
    u0 = alpha + sum(beta * np.sin(gamma) for beta, _, gamma in terms)
    return InputModel(
        D, np.zeros(size), np.array([u0]), z0, (name,), tuple(aux_names)
    )


def combine_inputs(models: list[InputModel]) -> InputModel:
    """Stack independent input generators into one block model.

    The stacked vector keeps all u components first, then all auxiliaries,
    matching the (u, z) layout the DAE coupling expects.
    """
    m_total = sum(mod.m for mod in models)
    k_total = sum(mod.k for mod in models)
    size = m_total + k_total
    D = np.zeros((size, size))
    d = np.zeros(size)
    u0 = np.zeros(m_total)
    z0 = np.zeros(k_total)
    input_names: list[str] = []
    aux_names: list[str] = []
    mu, kz = 0, 0
    for mod in models:
        # local index -> global index (u block first, then z block)
        gidx = np.r_[mu : mu + mod.m, m_total + kz : m_total + kz + mod.k]
        D[np.ix_(gidx, gidx)] = mod.D
        d[gidx] = mod.d
        u0[mu : mu + mod.m] = mod.u0
        z0[kz : kz + mod.k] = mod.z0
        input_names += list(mod.input_names)
        aux_names += list(mod.aux_names)
        mu += mod.m
        kz += mod.k
    return InputModel(D, d, u0, z0, tuple(input_names), tuple(aux_names))


# ---------------------------------------------------------------------------
# reference solver (backward Euler on the exact stacked pencil)


def stacked_pencil(sys: DaeSystem, inp: InputModel):
    """Exact DAE over (x, u, z): the input rows are appended as plain ODEs."""
    n, m, mk = sys.n, inp.m, inp.m + inp.k
    if sys.m != m:
        raise ValueError("DAE input count does not match the input model")
    size = n + mk
    E = np.zeros((size, size))
    A = np.zeros((size, size))
    b = np.zeros(size)
    E[:n, :n] = sys.E
    E[n:, n:] = np.eye(mk)
    A[:n, :n] = sys.A
    A[:n, n : n + m] = sys.B
    A[n:, n:] = inp.D
    b[n:] = inp.d
    names = sys.state_names + inp.names
    stacked = DaeSystem(E, A, np.zeros((size, 0)), names, sys.output_index)
    return stacked, b


def reference_solve(
    sys: DaeSystem,
    inp: InputModel,
    x0,
    T: float,
    h: float,
    max_points: int | None = None,
) -> Trajectory:
    """Backward-Euler (equivalently BDF-1) trajectory of the exact DAE.

    Steps the stacked pencil x[i+1] = x[i] + h F_h(x[i]), which is the affine
    map x -> S x + c, written as y -> P y on y = (x, 1) with P = [[S, c],
    [0, 1]].  When max_points is given, only every stride-th iterate is
    stored and P is replaced by P^stride.  A table of P^1 .. P^b (b bounded
    by _TABLE_ENTRIES) turns each block of b stored iterates into one matrix
    product with the last iterate of the previous block.  The stored values
    agree with the step-by-step recursion to rounding, about 1e-12 relative
    to max|x|.  NonFiniteState carries the time of the first non-finite
    stored iterate.
    """
    if not 0.0 < h <= T < np.inf:  # NaN fails too
        raise ValueError("need 0 < h <= T, both finite")
    stacked, b = stacked_pencil(sys, inp)
    x_full = np.concatenate([as_vector(x0, "x0"), inp.init])
    x_full, flagged = consistent_project(stacked, b, x_full, min(1e-6, h / 10))
    if flagged:
        warnings.warn(
            "initial state was inconsistent and has been projected",
            RuntimeWarning,
            stacklevel=2,
        )

    n_steps = step_count(T, h)
    size = x_full.shape[0]
    inv = invert(stacked.E - h * stacked.A)
    P = np.eye(size + 1)
    P[:size, :size] = inv @ stacked.E
    P[:size, size] = h * (inv @ b)

    stride = 1
    if max_points is not None and n_steps > max_points:
        stride = int(np.ceil(n_steps / max_points))
    n_stored = n_steps // stride
    block = min(n_stored, max(1, _TABLE_ENTRIES // (size + 1) ** 2))

    out = np.empty((n_stored + 1, size))
    out[0] = x_full
    y = np.append(x_full, 1.0)
    # finiteness is checked row by row below, so overflow needs no warning
    with np.errstate(over="ignore", invalid="ignore"):
        powers = np.empty((block, size + 1, size + 1))
        powers[0] = np.linalg.matrix_power(P, stride)
        k = 1
        while k < block:  # doubling: powers[k:2k] = powers[:k] @ P^k
            j = min(k, block - k)
            powers[k : k + j] = powers[:j] @ powers[k - 1]
            k += j
        # an overflowed power would turn a zero component into NaN, where
        # stepping keeps it zero: use only the leading finite powers
        finite = np.isfinite(powers).all(axis=(1, 2))
        if not finite.all():
            block = max(1, int(np.argmin(finite)))
        for start in range(1, n_stored + 1, block):
            count = min(block, n_stored + 1 - start)
            # one matrix-vector product over the stacked powers
            ys = (powers[:count].reshape(-1, size + 1) @ y).reshape(count, -1)
            bad = ~np.isfinite(ys).all(axis=1)
            if bad.any():
                raise NonFiniteState((start + int(np.argmax(bad))) * stride * h)
            out[start : start + count] = ys[:, :size]
            y = ys[-1]
    times = np.arange(n_stored + 1) * (stride * h)
    return Trajectory(times, stacked.state_names, out)
