"""Chemical reaction networks with mass-action kinetics.

A Hungarized rail system translates monomial-by-monomial into reactions:
every positive matrix entry becomes a catalytic reaction x_j -> x_j + x_i,
every positive offset a production 0 -> x_i, and each state pair gets the
annihilation x_i+ + x_i- -> 0 at rate gamma.  The mass-action field of the
emitted network reproduces the rail field identically.

The `.crn` text format is line oriented with '#' comments:

    species <name> [<name> ...]
    init <name> <value>
    <reactants> ->{<rate>} <products>      (sides are `0` or `a [+ b]`)

Structured comments `# meta <key> <value>` and `# diff <out> <plus> <minus>`
carry compile metadata and rail-pair annotations, and the block markers
`# circuit reactions` / `# input reactions <source>` label the reactions
that follow them.  All of them survive round trips and are plain comments
to any other reader.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from operator import add, attrgetter

import numpy as np

from .errors import (
    DimensionMismatch,
    InitConflict,
    NegativeInit,
    ParseError,
    UnknownSpecies,
)
from .numerics import as_vector
from .positivation import RailSystem

CIRCUIT_BLOCK = "circuit reactions"
INPUT_BLOCK = "input reactions"
# Substrings no name may hold: `+` separates the species of a reaction side,
# `->{` opens a rate, and `,` separates the cells of a simulation CSV.
NAME_FORBIDDEN = ("+", ",", "->{")
# The spelling of a reaction side with no species, so no species may take it.
EMPTY_SIDE = "0"


def check_name(name: str, line_no: int, what: str) -> None:
    """ParseError unless the .crn and CSV formats can carry the name."""
    for bad in NAME_FORBIDDEN:
        if bad in name:
            raise ParseError(line_no, f"{what} name {name!r} contains {bad!r}")


def _block_label(toks: list[str]) -> str | None:
    """The block label spelled by a marker comment's tokens, else None."""
    if toks == CIRCUIT_BLOCK.split() or (
        toks[:2] == INPUT_BLOCK.split() and len(toks) == 3
    ):
        return " ".join(toks)
    return None


@dataclass(frozen=True)
class Reaction:
    reactants: tuple[str, ...]
    products: tuple[str, ...]
    rate: float

    def __post_init__(self):
        if type(self.reactants) is not tuple:
            object.__setattr__(self, "reactants", tuple(self.reactants))
        if type(self.products) is not tuple:
            object.__setattr__(self, "products", tuple(self.products))
        if not self.rate > 0.0:
            raise ValueError("reaction rate must be positive")


@dataclass(frozen=True)
class Crn:
    species: tuple[str, ...]
    reactions: tuple[Reaction, ...]
    init: dict[str, float] = field(default_factory=dict)
    meta: dict[str, str] = field(default_factory=dict)
    diffs: tuple[tuple[str, str, str], ...] = ()  # (out, plus, minus)
    # (label, reaction count) of the marked blocks, which cover the last
    # reactions in order; any reactions before them are unmarked
    blocks: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "species", tuple(self.species))
        object.__setattr__(self, "reactions", tuple(self.reactions))
        object.__setattr__(self, "diffs", tuple(self.diffs))
        object.__setattr__(self, "blocks", tuple(tuple(b) for b in self.blocks))
        for label, count in self.blocks:
            if _block_label(label.split()) != label or count < 0:
                raise ValueError(f"bad reaction block ({label!r}, {count})")
        if self.marked > len(self.reactions):
            raise ValueError("reaction blocks cover more reactions than exist")
        known = set(self.species)
        if len(known) != len(self.species):
            raise ValueError("duplicate species names")
        if EMPTY_SIDE in known:
            raise ValueError(f"species name {EMPTY_SIDE!r} reads as the empty side")
        # emitted networks share few reactant sides; product sides are
        # mostly distinct, so they are checked name by name
        reactants = set(map(attrgetter("reactants"), self.reactions))
        products = map(attrgetter("products"), self.reactions)
        if not (known.issuperset(chain.from_iterable(reactants))
                and known.issuperset(chain.from_iterable(products))):
            sp = next(sp for r in self.reactions for sp in r.reactants + r.products
                      if sp not in known)
            raise UnknownSpecies(f"reaction references unknown species {sp!r}")
        for sp, val in self.init.items():
            if sp not in known:
                raise UnknownSpecies(f"init references unknown species {sp!r}")
            if val < 0.0:
                raise NegativeInit(f"init[{sp!r}] = {val} is negative")

    def initial_state(self) -> np.ndarray:
        return np.array([self.init.get(sp, 0.0) for sp in self.species])

    @property
    def marked(self) -> int:
        """Number of reactions inside marked blocks."""
        return sum(count for _, count in self.blocks)


def emit_crn(rs: RailSystem, init_plus, init_minus) -> Crn:
    """Reactions of a rail system, zero-rate entries omitted.

    Order is deterministic: catalytic reactions row-major over the state and
    input columns, then productions, then annihilations.  Initial
    concentrations cover the state rails only; exogenous input rails are
    expected to get theirs from the network that owns them.
    """
    plus = as_vector(init_plus, "init_plus")
    minus = as_vector(init_minus, "init_minus")
    n = rs.n
    if plus.shape != (n,) or minus.shape != (n,):
        raise ValueError("initial rails must match the state count")
    if np.any(plus < 0.0) or np.any(minus < 0.0):
        raise NegativeInit("initial rail concentrations must be nonnegative")

    species = rs.rail_names
    pos, neg = species[0::2], species[1::2]
    pos1, neg1 = [(sp,) for sp in pos], [(sp,) for sp in neg]
    reactions: list[Reaction] = []
    rows, cols = np.nonzero((rs.aplus > 0.0) | (rs.aminus > 0.0))
    for i, j, up, um in zip(
        rows.tolist(), cols.tolist(),
        rs.aplus[rows, cols].tolist(), rs.aminus[rows, cols].tolist(),
    ):
        pj, nj, pi, ni = pos[j], neg[j], pos[i], neg[i]
        if up > 0.0:
            reactions.append(Reaction(pos1[j], (pj, pi), up))
            reactions.append(Reaction(neg1[j], (nj, ni), up))
        if um > 0.0:
            reactions.append(Reaction(neg1[j], (nj, pi), um))
            reactions.append(Reaction(pos1[j], (pj, ni), um))
    for i, (bp, bm) in enumerate(zip(rs.bplus.tolist(), rs.bminus.tolist())):
        if bp > 0.0:
            reactions.append(Reaction((), pos1[i], bp))
        if bm > 0.0:
            reactions.append(Reaction((), neg1[i], bm))
    if rs.gamma > 0.0:
        gamma = float(rs.gamma)
        for i in range(n):
            reactions.append(Reaction((pos[i], neg[i]), (), gamma))

    init = {}
    for i, (p, m) in enumerate(zip(plus.tolist(), minus.tolist())):
        if p != 0.0:
            init[pos[i]] = p
        if m != 0.0:
            init[neg[i]] = m
    return Crn(species, tuple(reactions), init)


def mass_action_field(*nets: Crn):
    """Evaluable concentration derivative under the law of mass action.

    The networks are compiled once into their polynomial form dc/dt = M m(c):
    m(c) holds one monomial per distinct reactant multiset (1, c_a or
    c_a c_b), and column k of M sums rate * (products - reactants) over the
    reactions on monomial k.  M therefore has at most one column per
    reaction, and far fewer for emitted networks, whose reactions share
    the few monomials of their rails.

    Several networks of one structure (the same species and the same
    reactions in the same order; rates may differ) give one field over
    their stacked states: with B networks of n species it takes and returns
    B*n values, network b's in [b*n, (b+1)*n).  They share the monomials
    and keep one M each, evaluated as one stacked product, so each
    network's slice equals its own field bit for bit.  One network is the
    case B = 1.  ValueError when the structures differ.  The field gathers
    through one buffer it reuses, so it must not run in two threads at once.
    """
    if not nets:
        raise ValueError("mass_action_field needs at least one network")
    first = nets[0]
    if any(_structure(other) != _structure(first) for other in nets[1:]):
        raise ValueError("stacked networks must share species and reactions")
    n_sp = len(first.species)
    idx = {sp: i for i, sp in enumerate(first.species)}
    # monomial -> column; a monomial is a sorted index pair in which the
    # slot n_sp reads a constant 1.0, so A + B and B + A share a column
    cols: dict[tuple[int, int], int] = {}
    reactants = list(map(attrgetter("reactants"), first.reactions))
    side_cols = dict.fromkeys(reactants)
    for side in side_cols:
        if len(side) > 2:
            raise ValueError("mass action supported up to binary reactions")
        pair = sorted(idx[sp] for sp in side) + [n_sp, n_sp]
        side_cols[side] = cols.setdefault((pair[0], pair[1]), len(cols))
    # M sums rate * (products - reactants) reaction by reaction, reactants
    # before products: one entry per species occurrence in that order, added
    # by one unbuffered np.add.at, which keeps the order of the sums
    products = list(map(attrgetter("products"), first.reactions))
    n_rx = len(reactants)
    n_in = np.fromiter(map(len, reactants), np.intp, n_rx)
    n_occ = n_in + np.fromiter(map(len, products), np.intp, n_rx)
    owner = np.repeat(np.arange(n_rx), n_occ)  # the reaction of each occurrence
    rank = np.arange(owner.size) - (np.cumsum(n_occ) - n_occ)[owner]
    sign = np.where(rank < n_in[owner], -1.0, 1.0)
    occ_sp = np.fromiter(
        map(idx.__getitem__, chain.from_iterable(map(add, reactants, products))),
        np.intp, owner.size,
    )
    occ_col = np.fromiter(map(side_cols.__getitem__, reactants), np.intp, n_rx)[owner]
    n_net, n_mono, size = len(nets), len(cols), len(nets) * n_sp
    M = np.zeros((n_net, n_sp, n_mono))
    for net, M_net in zip(nets, M):
        rates = np.fromiter(map(attrgetter("rate"), net.reactions), float, n_rx)
        np.add.at(M_net, (occ_sp, occ_col), sign * rates[owner])
    # the stacked concentrations fill ext[:size] and ext[size] holds the
    # constant 1.0; network b's monomials gather from its own slice, shaped
    # (network, monomial, 1) for the stacked product
    ext = np.ones(size + 1)
    pairs = np.array(list(cols), dtype=np.intp).reshape(-1, 2)
    gather = n_sp * np.arange(n_net, dtype=np.intp)[:, None, None] + pairs
    gather[:, pairs == n_sp] = size
    ma, mb = gather[:, :, :1].copy(), gather[:, :, 1:].copy()

    def rhs(c: np.ndarray) -> np.ndarray:
        c = np.asarray(c, dtype=float)
        if c.shape != (size,):
            raise DimensionMismatch(f"expected {size} concentrations")
        ext[:size] = c
        return np.matmul(M, ext[ma] * ext[mb]).reshape(size)

    return rhs


def _structure(net: Crn):
    """What networks stacked in one field must share: all but the rates."""
    return net.species, [(rx.reactants, rx.products) for rx in net.reactions]


def union(a: Crn, b: Crn) -> Crn:
    """Compose two networks; shared species names identify shared species.

    Initial values are partial maps: a conflict is raised only when both
    networks assign a shared species different values.  Reaction blocks
    concatenate, so unmarked reactions of b may not follow a marked block.
    """
    if a.blocks and b.marked < len(b.reactions):
        raise ValueError("unmarked reactions cannot follow a marked block")
    shared = set(a.species) & set(b.species)
    for sp in sorted(shared):
        if sp in a.init and sp in b.init and a.init[sp] != b.init[sp]:
            raise InitConflict(
                f"species {sp!r} has init {a.init[sp]} in one network "
                f"and {b.init[sp]} in the other"
            )
    species = a.species + tuple(sp for sp in b.species if sp not in set(a.species))
    init = dict(a.init)
    for sp, val in b.init.items():
        init.setdefault(sp, val)
    meta = dict(a.meta)
    for key, val in b.meta.items():
        meta.setdefault(key, val)
    diffs = a.diffs + tuple(d for d in b.diffs if d not in set(a.diffs))
    return Crn(
        species, a.reactions + b.reactions, init, meta, diffs, a.blocks + b.blocks
    )


def format_reaction(rx: Reaction) -> str:
    left = " + ".join(rx.reactants) or EMPTY_SIDE
    right = " + ".join(rx.products) or EMPTY_SIDE
    return f"{left} ->{{{rx.rate:.17g}}} {right}"


def serialize_crn(net: Crn) -> str:
    """Deterministic text form; parse_crn inverts it losslessly."""
    lines = ["# crn"]
    for key in sorted(net.meta):
        lines.append(f"# meta {key} {net.meta[key]}")
    if net.species:
        lines.append("species " + " ".join(net.species))
    for sp in net.species:
        if sp in net.init:
            lines.append(f"init {sp} {net.init[sp]:.17g}")
    start = len(net.reactions) - net.marked
    lines.extend(map(format_reaction, net.reactions[:start]))
    for label, count in net.blocks:
        lines.append(f"# {label}")
        lines.extend(map(format_reaction, net.reactions[start : start + count]))
        start += count
    for out, plus, minus in net.diffs:
        lines.append(f"# diff {out} {plus} {minus}")
    return "\n".join(lines) + "\n"


def _parse_side(text: str, line_no: int) -> tuple[str, ...]:
    text = text.strip()
    if text == EMPTY_SIDE:
        return ()
    names = tuple([t.strip() for t in text.split("+")])
    if "" in names:
        raise ParseError(line_no, f"malformed reaction side {text!r}")
    return names


def parse_crn(text: str) -> Crn:
    species: list[str] = []
    declared: set[str] = set()
    init: dict[str, float] = {}
    reactions: list[Reaction] = []
    meta: dict[str, str] = {}
    diffs: list[tuple[str, str, str]] = []
    starts: list[tuple[str, int]] = []  # (block label, its first reaction)
    # side text -> its names, once every name is known to be declared;
    # species are only ever added, so a checked side stays valid
    sides: dict[str, tuple[str, ...]] = {}

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line[0] == "#":
            toks = line[1:].split()
            if toks[:1] == ["meta"] and len(toks) >= 3:
                meta[toks[1]] = " ".join(toks[2:])
            elif toks[:1] == ["diff"] and len(toks) == 4:
                diffs.append((toks[1], toks[2], toks[3]))
            elif (label := _block_label(toks)) is not None:
                starts.append((label, len(reactions)))
            continue
        left, arrow, rest = line.partition("->{")
        if arrow:
            rate_str, brace, right = rest.partition("}")
            if not brace:
                raise ParseError(line_no, "missing closing brace on rate")
            try:
                rate = float(rate_str)
            except ValueError:
                raise ParseError(line_no, f"bad rate {rate_str!r}") from None
            if not 0.0 < rate < math.inf:
                if not math.isfinite(rate):
                    raise ParseError(line_no, f"non-finite rate {rate_str!r}")
                raise ParseError(line_no, "rate must be positive")
            reactants = sides.get(left)
            fresh = reactants is None
            if fresh:
                reactants = _parse_side(left, line_no)
            products = _parse_side(right, line_no)
            if (fresh and not declared.issuperset(reactants)
                    or not declared.issuperset(products)):
                sp = next(sp for sp in reactants + products if sp not in declared)
                raise ParseError(line_no, f"undeclared species {sp!r}")
            if fresh:
                sides[left] = reactants
            reactions.append(Reaction(reactants, products, rate))
            continue
        toks = line.split()
        if toks[0] == "species":
            for nm in toks[1:]:
                check_name(nm, line_no, "species")
                if nm == EMPTY_SIDE:
                    raise ParseError(
                        line_no, f"species name {EMPTY_SIDE!r} reads as the empty side"
                    )
                if nm in declared:
                    raise ParseError(line_no, f"duplicate species {nm!r}")
                species.append(nm)
                declared.add(nm)
            continue
        if toks[0] == "init":
            if len(toks) != 3:
                raise ParseError(line_no, "init takes: name value")
            if toks[1] not in declared:
                raise ParseError(line_no, f"init of undeclared species {toks[1]!r}")
            if toks[1] in init:
                raise ParseError(line_no, f"duplicate init for {toks[1]!r}")
            try:
                val = float(toks[2])
            except ValueError:
                raise ParseError(line_no, f"bad init value {toks[2]!r}") from None
            if not math.isfinite(val):
                raise ParseError(line_no, f"non-finite init value {toks[2]!r}")
            if val < 0.0:
                raise ParseError(line_no, f"negative init for {toks[1]!r}")
            init[toks[1]] = val
            continue
        raise ParseError(line_no, f"unrecognized line {line!r}")

    ends = [first for _, first in starts[1:]] + [len(reactions)]
    blocks = tuple((label, end - first) for (label, first), end in zip(starts, ends))
    return Crn(tuple(species), tuple(reactions), init, meta, tuple(diffs), blocks)
