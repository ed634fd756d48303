"""Netlist parsing and Modified Nodal Analysis compilation.

The netlist grammar is line oriented with '#' comments:

    R|L|C <name> <node1> <node2> <value>
    V|I   <name> <node+> <node-> DC <level>
    V|I   <name> <node+> <node-> FOURIER <alpha> (<beta> <omega> <gamma>)*
    OUT   <node>

`DC <level>` is `FOURIER <level>` with no terms.

Ground is the literal node "0".  Compilation produces the pencil
E dx/dt = A x + B u over x = (non-ground node voltages) ++ (branch currents
of voltage sources and inductors), with one input column per source.

A voltage source with one grounded terminal pins the other node's voltage
to the input directly; the pinned node, its KCL row, and the source current
unknown are then removed from the state.  This keeps textbook circuits at
the same size as their hand-derived systems (the output node and nodes with
capacitors attached are never pinned, so no input derivative can appear).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .crn import check_name
from .dae import DaeSystem, InputModel, fourier_input
from .errors import ParseError, ValidationError

GROUND = "0"


@dataclass(frozen=True)
class Fourier:
    alpha: float
    terms: tuple[tuple[float, float, float], ...] = ()  # (beta, omega, gamma)


@dataclass(frozen=True)
class Component:
    kind: str  # R, L, C, V, I
    name: str
    n1: str
    n2: str
    value: float | None  # None for sources


@dataclass(frozen=True)
class Netlist:
    components: tuple[Component, ...]
    output_spec: str  # the ground-referenced output node
    source_waveforms: dict[str, Fourier] = field(default_factory=dict)

    def nodes(self) -> list[str]:
        """Every node once, in the order of its first appearance."""
        return list(dict.fromkeys(nd for c in self.components for nd in (c.n1, c.n2)))

    def sources(self) -> list[Component]:
        return [c for c in self.components if c.kind in ("V", "I")]


def _float(tok: str, line_no: int, what: str) -> float:
    try:
        value = float(tok)
    except ValueError:
        raise ParseError(line_no, f"bad {what} value {tok!r}") from None
    if not np.isfinite(value):
        raise ParseError(line_no, f"{what} value {tok!r} is not finite")
    return value


def parse_netlist(text: str) -> Netlist:
    """Parse and validate a netlist; raises ParseError / ValidationError."""
    components: list[Component] = []
    waveforms: dict[str, Fourier] = {}
    output: str | None = None
    names: set[str] = set()

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        kind = toks[0].upper()

        if kind == "OUT":
            if output is not None:
                raise ParseError(line_no, "duplicate OUT directive")
            if len(toks) != 2:
                raise ParseError(line_no, "OUT takes one node")
            check_name(toks[1], line_no, "node")
            output = toks[1]
            continue

        if kind in ("R", "L", "C"):
            if len(toks) != 5:
                raise ParseError(line_no, f"{kind} line needs: name n1 n2 value")
            name = toks[1]
            value = _float(toks[4], line_no, kind)
            if value <= 0.0:
                raise ParseError(line_no, f"{kind} value must be positive")
            comp = Component(kind, name, toks[2], toks[3], value)
        elif kind in ("V", "I"):
            if len(toks) < 5:
                raise ParseError(line_no, f"{kind} line needs: name n+ n- DC|FOURIER ...")
            name = toks[1]
            mode = toks[4].upper()
            if mode == "DC":
                if len(toks) != 6:
                    raise ParseError(line_no, "DC takes a single level")
                waveforms[name] = Fourier(_float(toks[5], line_no, "DC level"))
            elif mode == "FOURIER":
                rest = toks[5:]
                if not rest or (len(rest) - 1) % 3 != 0:
                    raise ParseError(
                        line_no, "FOURIER takes alpha then (beta omega gamma) triples"
                    )
                alpha = _float(rest[0], line_no, "alpha")
                terms = []
                for i in range(1, len(rest), 3):
                    beta = _float(rest[i], line_no, "beta")
                    omega = _float(rest[i + 1], line_no, "omega")
                    gamma = _float(rest[i + 2], line_no, "gamma")
                    if omega <= 0.0:
                        raise ParseError(line_no, "omega must be positive")
                    terms.append((beta, omega, gamma))
                waveforms[name] = Fourier(alpha, tuple(terms))
            else:
                raise ParseError(line_no, f"unknown source mode {toks[4]!r}")
            comp = Component(kind, name, toks[2], toks[3], None)
        else:
            raise ParseError(line_no, f"unknown directive {toks[0]!r}")

        for what, nm in (("component", comp.name), ("node", comp.n1), ("node", comp.n2)):
            check_name(nm, line_no, what)
        if comp.name in names:
            raise ParseError(line_no, f"duplicate component name {comp.name!r}")
        names.add(comp.name)
        components.append(comp)

    if not components:
        raise ParseError(0, "no components")
    if output is None:
        raise ValidationError("missing OUT directive")

    net = Netlist(tuple(components), output, waveforms)
    _validate_graph(net)
    return net


def _validate_graph(net: Netlist) -> None:
    nodes = net.nodes()
    if GROUND not in nodes:
        raise ValidationError("no component is connected to ground node \"0\"")
    # union-find connectivity over component edges
    parent = {nd: nd for nd in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for c in net.components:
        parent[find(c.n1)] = find(c.n2)
    root = find(GROUND)
    stray = [nd for nd in nodes if find(nd) != root]
    if stray:
        raise ValidationError(f"nodes disconnected from ground: {', '.join(stray)}")
    if net.output_spec != GROUND and net.output_spec not in nodes:
        raise ValidationError(f"OUT references unknown node {net.output_spec!r}")


def _waveforms(net: Netlist) -> list[tuple[str, float, tuple]]:
    """(name, alpha, terms) of each source, in netlist order."""
    wfs = [(c.name, net.source_waveforms[c.name]) for c in net.sources()]
    return [(name, wf.alpha, wf.terms) for name, wf in wfs]


def source_models(net: Netlist) -> list[tuple[str, InputModel]]:
    """One input generator per source, in netlist order."""
    return [(src[0], fourier_input(src)) for src in _waveforms(net)]


def build_dae(net: Netlist) -> tuple[DaeSystem, InputModel]:
    """Compile the netlist into E dx/dt = A x + B u plus its input model."""
    sources = net.sources()
    src_index = {c.name: i for i, c in enumerate(sources)}
    out_node = net.output_spec
    if out_node == GROUND:
        raise ValidationError("output node must not be ground")

    cap_nodes = {
        nd
        for c in net.components
        if c.kind == "C"
        for nd in (c.n1, c.n2)
    }

    # Grounded voltage sources pin the opposite node: v(node) = sign * u.
    pinned: dict[str, tuple[int, float]] = {}
    eliminated: set[str] = set()
    for c in sources:
        if c.kind != "V":
            continue
        if c.n2 == GROUND and c.n1 != GROUND:
            node, sign = c.n1, 1.0
        elif c.n1 == GROUND and c.n2 != GROUND:
            node, sign = c.n2, -1.0
        else:
            continue
        if node == out_node or node in cap_nodes or node in pinned:
            continue
        pinned[node] = (src_index[c.name], sign)
        eliminated.add(c.name)

    volt_nodes = [nd for nd in net.nodes() if nd != GROUND and nd not in pinned]
    state_names = [f"v{nd}" for nd in volt_nodes]
    node_idx = {nd: i for i, nd in enumerate(volt_nodes)}
    current_of: dict[str, int] = {}
    for c in net.components:
        if c.kind == "L" or (c.kind == "V" and c.name not in eliminated):
            current_of[c.name] = len(state_names)
            state_names.append(f"i_{c.name}")

    n = len(state_names)
    m = len(sources)
    E = np.zeros((n, n))
    A = np.zeros((n, n))
    B = np.zeros((n, m))

    def stamp(M: np.ndarray, row: int, node: str, coef: float) -> None:
        """Add coef * v(node) to a row of M; a pinned node's term goes to B."""
        if node == GROUND:
            return
        if node in pinned:
            s, sign = pinned[node]
            B[row, s] += coef * sign
        else:
            M[row, node_idx[node]] += coef

    def inject(M: np.ndarray, col: int, c: Component) -> None:
        """KCL: the branch current in column col leaves n1 and enters n2."""
        for node, sign in ((c.n1, -1.0), (c.n2, 1.0)):
            if node in node_idx:
                M[node_idx[node], col] += sign

    # a node's stamps are summed, and finite values may overflow the sum:
    # that is refused below, so numpy need not warn of it
    with np.errstate(over="ignore"):
        for c in net.components:
            if c.kind in ("R", "C"):
                # R: the out-current (v_a - v_b) / R moves negated to the A side;
                # C: the out-current C d(v_a - v_b)/dt stays on the E side
                M, coef = (A, -1.0 / c.value) if c.kind == "R" else (E, c.value)
                if coef == -np.inf:
                    raise ValidationError(f"resistor {c.name} = {c.value!r} is too small: "
                                          "its conductance 1/R overflows")
                for a, b in ((c.n1, c.n2), (c.n2, c.n1)):
                    if a in node_idx:
                        stamp(M, node_idx[a], a, coef)
                        stamp(M, node_idx[a], b, -coef)
            elif c.name in current_of:
                # L: L di/dt = v(n1) - v(n2);  V: 0 = v(n+) - v(n-) - u
                idx = current_of[c.name]
                inject(A, idx, c)
                stamp(A, idx, c.n1, +1.0)
                stamp(A, idx, c.n2, -1.0)
                if c.kind == "L":
                    E[idx, idx] = c.value
                else:
                    B[idx, src_index[c.name]] -= 1.0
            elif c.kind == "I":
                inject(B, src_index[c.name], c)
    # a node's diagonal entry sums the magnitudes of all values stamped on
    # its row, in A and B, so it overflows whenever any sum of the row does
    for M, kind, what in ((A, "R", "conductances"), (E, "C", "capacitances")):
        finite = np.isfinite(M.diagonal())
        if not finite.all():
            nd = volt_nodes[np.argmin(finite)]
            names = [c.name for c in net.components if c.kind == kind and nd in (c.n1, c.n2)]
            raise ValidationError(f"the {what} at node {nd} ({', '.join(names)}) "
                                  "overflow when summed")

    zero_rows = [
        i
        for i in range(n)
        if not E[i].any() and not A[i].any()
    ]
    if zero_rows:
        raise ValidationError(
            f"stamping produced identically-zero pencil rows {zero_rows}"
        )

    if out_node not in node_idx:
        raise ValidationError(f"output node {out_node!r} is not a circuit state")
    output_index = node_idx[out_node]

    inp = fourier_input(*_waveforms(net))
    all_names = list(state_names) + list(inp.names)
    if len(set(all_names)) != len(all_names):
        dupes = sorted({nm for nm in all_names if all_names.count(nm) > 1})
        raise ValidationError(f"state/input name collision: {', '.join(dupes)}")

    sys = DaeSystem(E, A, B, tuple(state_names), output_index)
    return sys, inp
