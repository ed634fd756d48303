"""Shared fixtures: the reference circuits, their hand-derived forms and
generated netlists."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import strategies as st

from circ2crn.circuit import build_dae, parse_netlist
from circ2crn.crn import difference_system, parse_crn, serialize_crn
from circ2crn.dae import (AffineOde, DaeSystem, InputModel, coupled_euler_map, direct_map,
                          grid_steps, reference_solve, stepped)
from circ2crn.pipeline import compile_circuit
from circ2crn.sim import linear_map, sup_error

# High-pass RL filter (R = L = 1), DC and unit-sine drive variants.
RL_DC = "V vin 1 0 DC 1\nR r1 1 2 1\nL l1 2 0 1\nOUT 2\n"
RL_SINE = "V vin 1 0 FOURIER 0 1 1 0\nR r1 1 2 1\nL l1 2 0 1\nOUT 2\n"

# Two-capacitor circuit whose DAE is not semi-explicit (C1 = C2 = R = 1).
TWO_CAP = "I is 0 1 DC 1\nC c1 1 0 1\nC c2 1 2 1\nR r1 2 0 1\nOUT 2\n"

# Low-pass variant: the inductor replaced by a capacitor (RC = 1).
RC_LOWPASS = "V vin 1 0 DC 1\nR r1 1 2 1\nC c1 2 0 1\nOUT 2\n"


def hand_rl_pencil() -> DaeSystem:
    """The textbook 2-state form of the RL filter over (i, vout):

    di/dt = vout / L,    0 = i + vout/R - vin/R
    with b = B vin routing -vin/R into the algebraic row.
    """
    E = np.array([[1.0, 0.0], [0.0, 0.0]])
    A = np.array([[0.0, 1.0], [1.0, 1.0]])
    B = np.array([[0.0], [-1.0]])
    return DaeSystem(E, A, B, ("i", "vout"), 1)


def hand_rl_input_dc(level: float = 1.0) -> InputModel:
    return InputModel(
        np.zeros((1, 1)), np.zeros(1), np.array([level]), np.zeros(0), ("vin",), ()
    )


def sine_input_2state() -> InputModel:
    """The rotation system d(u,z)/dt = [[0,1],[-1,0]](u,z), u(0)=0, z(0)=1."""
    D = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return InputModel(D, np.zeros(2), np.array([0.0]), np.array([1.0]), ("u",), ("z",))


@pytest.fixture(scope="session")
def rl_dc():
    net = parse_netlist(RL_DC)
    sys, inp = build_dae(net)
    return net, sys, inp


@pytest.fixture(scope="session")
def rl_sine():
    net = parse_netlist(RL_SINE)
    sys, inp = build_dae(net)
    return net, sys, inp


@pytest.fixture(scope="session")
def two_cap():
    net = parse_netlist(TWO_CAP)
    sys, inp = build_dae(net)
    return net, sys, inp


@pytest.fixture(scope="session")
def rc_lowpass():
    net = parse_netlist(RC_LOWPASS)
    sys, inp = build_dae(net)
    return net, sys, inp


def signed_ode(sys: DaeSystem, inp: InputModel, h: float | None = None) -> AffineOde:
    """The signed ODE a compiled union implements, over (x, u, z).

    [[Ax, Bx S], [0, D]] (x, u, z) + [0; d], where S selects u from (u, z)
    and (Ax, Bx) is the direct map, or the h-shifted map when h is given.
    """
    ax, bx = direct_map(sys) if h is None else coupled_euler_map(sys, h)
    n, m = sys.n, inp.m
    size = n + m + inp.k
    a = np.zeros((size, size))
    a[:n, :n] = ax
    a[:n, n : n + m] = bx
    a[n:, n:] = inp.D
    b = np.concatenate([np.zeros(n), inp.d])
    return AffineOde(a, b, sys.state_names + inp.names, sys.output_index)


def materialised_study(net, cfg, hs, oracle_step=None):
    """The rows of `convergence_study` from two stored tables at each h:
    reference_solve at the oracle step (h/100 unless oracle_step is given,
    a whole number of steps per grid row either way), keeping one row per
    grid row, then the collected rows of the exact law's map stepped alone,
    compared by sup_error."""
    rows = []
    for h in hs:
        cfg_h = replace(cfg, h=h)
        dt = cfg_h.resolve_dt()
        compiled = compile_circuit(net, cfg_h)
        grid = grid_steps(cfg.T, dt)
        step = h / 100.0 if oracle_step is None else oracle_step
        s = round(dt / step)
        assert abs(dt / step - s) <= 1e-12 * s, "not a whole number of oracle steps"
        # half a step short of grid * s steps, so reference_solve takes that
        # many and keeps every s-th
        ref = reference_solve(compiled.sys, compiled.inp, compiled.x0,
                              (grid * s - 0.5) * step, step, max_points=grid)
        assert len(ref.times) == grid + 1
        assert ref.times[1] == pytest.approx(dt, rel=1e-12)
        emitted = parse_crn(serialize_crn(compiled.crn))
        outs = [out for out, _, _ in emitted.diffs]
        phi, y0 = linear_map(*difference_system(emitted), dt)
        traj = stepped(phi, y0, grid, dt).collect(outs)
        rows.append((h, sup_error(traj, ref, compiled.sys.state_names)))
    return rows


def field_all_at_once(net):
    """The mass-action field with M filled by one np.add.at over every
    species occurrence of every reaction, reactants before products,
    reaction by reaction: the order of the sums `mass_action_field` keeps."""
    table, n_sp = net.table, len(net.species)
    n_in, n_out = np.diff(table.in_off), np.diff(table.out_off)
    pair = np.full((len(table), 2), n_sp, dtype=np.intp)
    for k in (0, 1):
        on = n_in > k
        pair[on, k] = table.in_idx[table.in_off[:-1][on] + k]
    pair.sort(axis=1)
    cols = {}
    rx_col = np.array([cols.setdefault(tuple(p), len(cols)) for p in pair.tolist()],
                      dtype=np.intp)
    occ_sp, occ_col, occ_val = [], [], []
    for r in range(len(table)):
        for side, sign in ((table.in_idx[table.in_off[r] : table.in_off[r + 1]], -1.0),
                           (table.out_idx[table.out_off[r] : table.out_off[r + 1]], 1.0)):
            occ_sp += side.tolist()
            occ_col += [rx_col[r]] * side.size
            occ_val += [sign * table.rates[r]] * side.size
    M = np.zeros((1, n_sp, len(cols)))
    np.add.at(M[0], (np.array(occ_sp, dtype=np.intp), np.array(occ_col, dtype=np.intp)),
              np.array(occ_val))
    pairs = np.array(list(cols), dtype=np.intp).reshape(1, -1, 2)

    def rhs(c):
        ext = np.append(c, 1.0)  # slot n_sp reads the constant 1.0
        return np.matmul(M, ext[pairs[:, :, :1]] * ext[pairs[:, :, 1:]]).reshape(n_sp)

    return rhs


def tableau_response(net, omega: float) -> np.ndarray:
    """H(j omega), the OUT node's voltage per unit of each source in source
    order, from the sparse tableau of Hachtel, Brayton and Gustavson (IEEE
    Trans. Circuit Theory 18, 1971) over the netlist's components alone,
    sharing no code with build_dae.

    The unknowns are the node voltages e, the branch currents i and the
    branch voltages v, a branch current flowing from n1 to n2 through its
    component.  The equations are KCL (the currents leaving each node sum to
    zero), KVL (v = e(n1) - e(n2)) and one per branch: v = R i, v = sL i,
    i = sC v, v = u for a V source and i = u for an I source.
    """
    nodes = [nd for nd in net.nodes() if nd != "0"]
    comps, sources = net.components, net.sources()
    n, b = len(nodes), len(comps)
    incidence = np.zeros((n, b))
    for k, c in enumerate(comps):
        for node, sign in ((c.n1, 1.0), (c.n2, -1.0)):
            if node != "0":
                incidence[nodes.index(node), k] += sign
    s = 1j * omega
    tableau = np.zeros((n + 2 * b, n + 2 * b), complex)
    rhs = np.zeros((n + 2 * b, len(sources)), complex)
    tableau[:n, n : n + b] = incidence  # KCL on i
    tableau[n : n + b, :n] = -incidence.T  # KVL: v - A^T e = 0
    tableau[n : n + b, n + b :] = np.eye(b)
    for k, c in enumerate(comps):
        row, i, v = n + b + k, n + k, n + b + k
        if c.kind in "RL":
            tableau[row, [v, i]] = 1.0, -(c.value if c.kind == "R" else s * c.value)
        elif c.kind == "C":
            tableau[row, [i, v]] = 1.0, -s * c.value
        else:
            tableau[row, v if c.kind == "V" else i] = 1.0
            rhs[row, sources.index(c)] = 1.0
    return np.linalg.solve(tableau, rhs)[nodes.index(net.output_spec)]


def interleave(plus, minus) -> np.ndarray:
    """Pack (plus, minus) vectors into the rail layout [p1, m1, p2, m2, ...]."""
    return np.column_stack([plus, minus]).ravel()


def block_reactions(net, label: str):
    """The reactions of the marked block `label` of a network."""
    start = len(net.reactions) - net.marked
    for name, count in net.blocks:
        if name == label:
            return net.reactions[start : start + count]
        start += count
    raise KeyError(label)


def circuit_block(text: str) -> str:
    """The circuit-reaction block of a compiled file, byte for byte."""
    lines = text.splitlines()
    start = lines.index("# circuit reactions") + 1
    block = []
    for line in lines[start:]:
        if line.startswith("#"):
            break
        block.append(line)
    return "\n".join(block) + "\n"


def rl_ladder(k: int) -> str:
    """k sections of series R and shunt L behind a unit-sine source."""
    sections = "".join(
        f"R r{i} {i} {i + 1} 1\nL l{i} {i + 1} 0 1\n" for i in range(1, k + 1)
    )
    return f"V vin 1 0 FOURIER 0 1 1 0\n{sections}OUT {k + 1}\n"


# `t` is left out: a source's diff output carries its name, and `t` is the
# CSV time column, so compile rejects a source named `t`
SOURCE_NAMES = st.sampled_from(["init", "inity", "initial", "species", "speciesA", "s"]) | (
    st.from_regex(r"[a-hj-uw-z][a-z0-9{}.$-]{0,4}", fullmatch=True).filter(lambda s: s != "t")
)


@st.composite
def rlc_netlists(draw) -> str:
    """Small connected RLC netlists with one or two sources.

    Every node has a resistor to ground, so the pencil is regular; the other
    branches form a random tree.  Source names are lowercase, some with the
    punctuation a name may carry, and component names uppercase, so they
    never collide with each other or with states.
    """
    n_nodes = draw(st.integers(1, 4))
    values = st.floats(0.5, 2.0)
    lines = []
    for node in range(1, n_nodes + 1):
        lines.append(f"R G{node} {node} 0 {draw(values)!r}")
        if node > 1:
            kind = draw(st.sampled_from("RLC"))
            other = draw(st.integers(1, node - 1))
            lines.append(f"{kind} {kind}{node} {other} {node} {draw(values)!r}")
    names = draw(st.lists(SOURCE_NAMES, min_size=1, max_size=2, unique=True))
    for j, name in enumerate(names):
        kind = draw(st.sampled_from("VI")) if j == 0 else "I"
        node = 1 if j == 0 else draw(st.integers(1, n_nodes))
        terms = draw(st.lists(st.tuples(values, values, values), max_size=2))
        wave = "FOURIER 0.1 " + " ".join(f"{b!r} {w!r} {g!r}" for b, w, g in terms)
        wave = wave if terms else f"DC {draw(values)!r}"
        lines.append(f"{kind} {name} {node} 0 {wave}")
    lines.append(f"OUT {draw(st.integers(1, n_nodes))}")
    return "\n".join(lines) + "\n"
