"""Independent oracles for the benchmark's output checks.

Every check returns the deviation it measured; a deviation above the
check's tolerance makes the op count as failed.  The pencils here are
stamped by hand from the ladder's physics (KCL at each node, L di/dt = v
across each inductor), not by `circuit.build_dae`, so a stamping or
elimination fault in the program shows up as a mismatch.
"""

from __future__ import annotations

import re

import numpy as np

from circ2crn.crn import Crn
from circ2crn.dae import AffineOde
from circ2crn.positivation import hungarize, positivate, rail_field

# Unit sine drive of every generated ladder: vin(t) = sin(t).
DRIVE = "FOURIER 0 1 1 0"
SOURCE = "vin"

VERIFY_LINE = re.compile(r"^sup_error=(\S+) tol=(\S+) (PASS|FAIL)$")


class CheckFailed(Exception):
    """An output that its oracle rejects; carries the measured deviation."""

    def __init__(self, message: str, error: float = float("inf")):
        super().__init__(message)
        self.error = error


def ladder_netlist(rs, ls) -> str:
    """k sections of series R and shunt L behind the unit-sine source.

    k = 1 is the README's RL high-pass filter.
    """
    lines = [f"V {SOURCE} 1 0 {DRIVE}"]
    for i, (r, l) in enumerate(zip(rs, ls), start=1):
        lines.append(f"R r{i} {i} {i + 1} {r!r}")
        lines.append(f"L l{i} {i + 1} 0 {l!r}")
    lines.append(f"OUT {len(rs) + 1}")
    return "\n".join(lines) + "\n"


def ladder_pencil(rs, ls):
    """Hand-stamped pencil (E, A, B, names) of `ladder_netlist(rs, ls)`.

    States are the voltages of nodes 2..k+1 and the inductor currents
    (node 1 is pinned to vin).  Node rows read 0 = currents in - currents
    out; inductor rows read L di/dt = v(node).
    """
    k = len(rs)
    n = 2 * k
    E, A, B = np.zeros((n, n)), np.zeros((n, n)), np.zeros((n, 1))

    def v(node):
        return node - 2

    def cur(section):
        return k + section - 1

    for node in range(2, k + 2):
        row = v(node)
        g = 1.0 / rs[node - 2]  # resistor from the previous node
        A[row, row] -= g
        if node == 2:
            B[row, 0] += g
        else:
            A[row, v(node - 1)] += g
        if node <= k:  # resistor on to the next node
            g = 1.0 / rs[node - 1]
            A[row, row] -= g
            A[row, v(node + 1)] += g
        A[row, cur(node - 1)] -= 1.0  # inductor to ground
    for section in range(1, k + 1):
        row = cur(section)
        E[row, row] = ls[section - 1]
        A[row, v(section + 1)] = 1.0
    names = tuple(f"v{node}" for node in range(2, k + 2)) + tuple(
        f"i_l{section}" for section in range(1, k + 1)
    )
    return E, A, B, names


def shifted_response(E, A, B, out: int, h: float, omega: float) -> complex:
    """Exact transfer function c (jw(E - hA) - A)^-1 B of the emitted ODE."""
    x = np.linalg.solve(1j * omega * (E - h * A) - A, B[:, 0])
    return complex(x[out])


def sine_generator():
    """(D, names) of the generator of the drive vin = sin(t).

    States (vin, z, zb) with vin' = zb, z' = zb, zb' = -z.
    """
    D = np.zeros((3, 3))
    D[0, 2] = 1.0
    D[1, 2] = 1.0
    D[2, 1] = -1.0
    return D, (SOURCE, f"{SOURCE}_z1", f"{SOURCE}_zb1")


class RailOracle:
    """Rail derivative of a compiled ladder, from the hand-stamped pencil."""

    def __init__(self, rs, ls, h: float):
        E, A, B, names = ladder_pencil(rs, ls)
        M = E - h * A
        F, G = np.linalg.solve(M, A), np.linalg.solve(M, B)
        gamma = 1.0 / h
        circuit = hungarize(
            positivate(AffineOde(F, np.zeros(len(names)), names, 0),
                       coupling=(G, (SOURCE,))),
            gamma,
        )
        D, in_names = sine_generator()
        source = hungarize(positivate(AffineOde(D, np.zeros(3), in_names, 0)), gamma)
        self._circuit = rail_field(circuit)
        self._source = rail_field(source)
        self._circuit_rails = _rails(names) + _rails((SOURCE,))
        self._source_rails = _rails(in_names)
        self.n_circuit = 2 * len(names)

    def field(self, species):
        """Derivative over the species order of a `.crn` file."""
        pos = {sp: i for i, sp in enumerate(species)}
        ci = np.array([pos[nm] for nm in self._circuit_rails])
        si = np.array([pos[nm] for nm in self._source_rails])
        nc = self.n_circuit

        def rhs(c):
            out = np.zeros(len(species))
            out[ci[:nc]] = self._circuit(c[ci])[:nc]
            out[si] = self._source(c[si])
            return out

        return rhs


def _rails(names) -> tuple[str, ...]:
    return tuple(f"{nm}_{s}" for nm in names for s in ("p", "m"))


def mass_action(net: Crn, c: np.ndarray) -> np.ndarray:
    """Mass-action derivative summed reaction by reaction."""
    pos = {sp: i for i, sp in enumerate(net.species)}
    out = np.zeros(len(net.species))
    for rx in net.reactions:
        flux = rx.rate
        for sp in rx.reactants:
            flux *= c[pos[sp]]
        for sp in rx.reactants:
            out[pos[sp]] -= flux
        for sp in rx.products:
            out[pos[sp]] += flux
    return out


def rel_dev(got, want) -> float:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise CheckFailed(f"shape {got.shape} != {want.shape}")
    scale = max(float(np.max(np.abs(want), initial=0.0)), 1e-300)
    return float(np.max(np.abs(got - want), initial=0.0)) / scale


def check_field(net: Crn, oracle: RailOracle, point: np.ndarray, tol: float) -> float:
    """Mass-action field of a parsed `.crn` against the rail oracle."""
    err = rel_dev(mass_action(net, point), oracle.field(net.species)(point))
    if not err <= tol:
        raise CheckFailed(f"field deviates from rail oracle by {err:.3g}", err)
    return err


def check_one_step(csv_text: str, net: Crn, oracle: RailOracle, dt: float,
                   tol: float) -> float:
    """A one-step `simulate` CSV against one RK4 step of the rail oracle."""
    header, *rows = csv_text.strip().split("\n")
    cols = header.split(",")
    if len(rows) != 2 or cols[1 : 1 + len(net.species)] != list(net.species):
        raise CheckFailed("one-step CSV has the wrong shape or columns")
    table = np.array([[float(x) for x in row.split(",")] for row in rows])
    f = oracle.field(net.species)
    x = net.initial_state()
    k1 = f(x)
    k2 = f(x + 0.5 * dt * k1)
    k3 = f(x + 0.5 * dt * k2)
    k4 = f(x + dt * k3)
    want = x + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    n = len(net.species)
    err = max(abs(table[1, 0] - dt) / dt, rel_dev(table[1, 1 : 1 + n], want))
    for j, (out, plus, minus) in enumerate(net.diffs):
        got = table[1, 1 + n + j]
        want_diff = want[net.species.index(plus)] - want[net.species.index(minus)]
        err = max(err, abs(got - want_diff) / max(np.max(np.abs(want)), 1e-300))
    if not err <= tol:
        raise CheckFailed(f"one-step CSV deviates from oracle RK4 by {err:.3g}", err)
    return err


def check_verify(exit_code: int, stdout: str, tol: float) -> float:
    """`verify` must exit 0 and print PASS with a sup_error within tol."""
    m = VERIFY_LINE.match(stdout.strip())
    if exit_code != 0 or m is None:
        raise CheckFailed(f"verify exited {exit_code} with {stdout.strip()!r}")
    err = float(m.group(1))
    if m.group(3) != "PASS" or not err <= tol:
        raise CheckFailed(f"verify reports {stdout.strip()!r}", err)
    return err


def check_freq(csv_text: str, expected, tol: float) -> float:
    """`freq` rows against exact H_h values given as {omega: complex}.

    The deviation is the larger of the relative gain error and the phase
    error in radians.
    """
    header, *rows = csv_text.strip().split("\n")
    if header != "omega,gain,phase_deg" or len(rows) != len(expected):
        raise CheckFailed(f"freq output has the wrong shape: {csv_text!r}")
    err = 0.0
    for row, (omega, H) in zip(rows, expected):
        try:
            w, gain, phase = (float(x) for x in row.split(","))
        except ValueError:
            raise CheckFailed(f"malformed freq row {row!r}") from None
        if w != omega:
            raise CheckFailed(f"freq row for omega={w!r}, expected {omega!r}")
        dphase = np.radians(phase) - np.angle(H)
        dphase = abs((dphase + np.pi) % (2.0 * np.pi) - np.pi)
        err = max(err, abs(gain - abs(H)) / abs(H), dphase)
    if not err <= tol:
        raise CheckFailed(f"freq deviates from exact H_h by {err:.3g}", err)
    return err


def check_trajectory(csv_text: str, column: str, reference, tol: float) -> float:
    """Sup deviation of one CSV column from a reference trajectory."""
    lines = csv_text.split("\n", 1)
    cols = lines[0].split(",")
    if column not in cols:
        raise CheckFailed(f"CSV has no column {column!r}")
    table = np.loadtxt(lines[1].splitlines(), delimiter=",", ndmin=2)
    t, y = table[:, 0], table[:, cols.index(column)]
    want = np.interp(t, reference.times, reference.column(column))
    err = float(np.max(np.abs(y - want)))
    if not err <= tol:
        raise CheckFailed(f"{column} deviates from reference_solve by {err:.3g}", err)
    return err
