"""Shared fixtures: the reference circuits, their hand-derived forms and
generated netlists."""

import numpy as np
import pytest
from hypothesis import strategies as st

from circ2crn.circuit import build_dae, parse_netlist
from circ2crn.dae import AffineOde, DaeSystem, InputModel, coupled_euler_map, direct_map

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


SOURCE_NAMES = st.sampled_from(["init", "inity", "initial", "species", "speciesA", "s"]) | (
    st.from_regex(r"[a-hj-uw-z][a-z0-9{}.$-]{0,4}", fullmatch=True)
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
