"""Chemical reaction networks with mass-action kinetics.

A Hungarized rail system translates monomial-by-monomial into reactions:
every positive matrix entry becomes a catalytic reaction x_j -> x_j + x_i,
every positive offset a production 0 -> x_i, and each state pair gets the
annihilation x_i+ + x_i- -> 0 at rate gamma.  The mass-action field of the
emitted network reproduces the rail field identically.

A network keeps its reactions in a `ReactionTable`: the reactant and
product species of every reaction as indices into the network's species,
flattened behind offsets, and the rates as one float64 array, all in
reaction order.  Emission, union, serialization, parsing and the field
build work on the table alone; `Crn.reactions` gives the same reactions as
`Reaction` objects for callers that want them.  `Crn` checks its parts
whenever one is made and keeps them read-only, so every network in hand is
valid and its `.crn` text reads back as itself.  `union` composes
unannotated networks only; meta, diffs and blocks go on the finished one.

Nothing on the way from a table to a file and back holds the whole text.
`crn_lines` yields the text of `serialize_crn`, which is their join, _CHUNK
reaction lines at a time, each chunk formatted by whole-array string
operations on the table.  `parse_crn` reads an open file _BLOCK characters
at a time and runs its line loop over each block's `str.splitlines`, a
line cut by a block's end being carried into the next, so lines are
numbered and read as in the whole text.  `polynomial_form` adds the
species occurrences into its matrix _CHUNK reactions at a time, in
reaction order, so the matrix is the same bit for bit while its
temporaries stay the size of a chunk.

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
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import chain
from types import MappingProxyType
from typing import TextIO

import numpy as np

from .dae import TIME_COLUMN
from .errors import ParseError, ValidationError
from .numerics import as_vector
from .positivation import RailSystem

CIRCUIT_BLOCK = "circuit reactions"
INPUT_BLOCK = "input reactions"
# Substrings no name may hold: `+` separates the species of a reaction side,
# `->{` opens a rate, and `,` separates the cells of a simulation CSV.
NAME_FORBIDDEN = ("+", ",", "->{")
# The spelling of a reaction side with no species, so no species may take it.
EMPTY_SIDE = "0"
# Reactions per piece of the .crn writer and per step of the field build.
_CHUNK = 4096
# Characters per read of the .crn reader.
_BLOCK = 1 << 20


def _forbidden_problem(label: str, name: str) -> str | None:
    """'<label> <name> contains <bad>' for the first of NAME_FORBIDDEN that
    the name holds, or None."""
    bad = next((bad for bad in NAME_FORBIDDEN if bad in name), None)
    return None if bad is None else f"{label} {name!r} contains {bad!r}"


def check_name(name: str, line_no: int, what: str) -> None:
    """ParseError unless the .crn and CSV formats can carry the name."""
    if (problem := _forbidden_problem(f"{what} name", name)) is not None:
        raise ParseError(line_no, problem)


def _is_word(name) -> bool:
    """Whether the reader's whitespace split gives the name back whole."""
    return isinstance(name, str) and name.split() == [name]


def _species_name_problem(name: str) -> str | None:
    """Why `parse_crn` could not read a species name back, or None.

    The reader splits lines on whitespace, takes `+`, `->{` and a leading
    `#` as syntax and `0` as the empty side; `,` would split a CSV cell,
    and `t` heads the CSV's time column.
    """
    if (problem := _forbidden_problem("species name", name)) is not None:
        return problem
    if name == EMPTY_SIDE:
        return f"species name {EMPTY_SIDE!r} reads as the empty side"
    if name == TIME_COLUMN:
        return f"species name {TIME_COLUMN!r} is the CSV time column"
    if not _is_word(name):
        return f"species name {name!r} is empty or holds whitespace"
    if name[0] == "#":
        return f"species name {name!r} starts a comment"
    return None


def _meta_problem(key, value) -> str | None:
    """Why `parse_crn` could not read a `# meta key value` line back, or None.

    The reader splits the line on whitespace and joins the value's words
    with single spaces.
    """
    if not _is_word(key):
        return f"meta key {key!r} is empty or holds whitespace"
    if not isinstance(value, str) or not value or " ".join(value.split()) != value:
        return f"meta value {value!r} of {key!r} is empty or not single-spaced"
    return None


def _diff_problem(diff, index, outs) -> str | None:
    """Why a `# diff out plus minus` line cannot stand, or None.

    `simulate` writes each diff output as a CSV column after `t` and the
    species, so an output must not hold a CSV separator (or a name
    separator of the reader) and must not repeat `t`, a species in `index`
    or an earlier output in `outs`.  The rails are checked by the callers.
    """
    if len(diff) != 3 or not all(map(_is_word, diff)):
        return f"diff {diff!r} needs three names without whitespace"
    out = diff[0]
    if (problem := _forbidden_problem("diff output", out)) is not None:
        return problem
    if out == TIME_COLUMN or out in index or out in outs:
        return f"diff output {out!r} repeats a CSV column"
    return None


def _block_label(toks: list[str]) -> str | None:
    """The block label spelled by a marker comment's tokens, else None."""
    if toks == CIRCUIT_BLOCK.split() or (
        toks[:2] == INPUT_BLOCK.split() and len(toks) == 3
    ):
        return " ".join(toks)
    return None


@dataclass(frozen=True, slots=True)
class Reaction:
    reactants: tuple[str, ...]
    products: tuple[str, ...]
    rate: float

    def __post_init__(self):
        if type(self.reactants) is not tuple:
            object.__setattr__(self, "reactants", tuple(self.reactants))
        if type(self.products) is not tuple:
            object.__setattr__(self, "products", tuple(self.products))
        if not 0.0 < self.rate < math.inf:
            raise ValidationError("reaction rate must be positive and finite")


def _frozen(a, dtype) -> np.ndarray:
    view = np.asarray(a, dtype=dtype).view()
    view.flags.writeable = False
    return view


_SIDE_ARRAYS = ("in_off", "in_idx", "out_off", "out_idx")


@dataclass(frozen=True, eq=False)
class ReactionTable:
    """Reactions as index arrays, in reaction order.

    Reaction r consumes the species `in_idx[in_off[r]:in_off[r + 1]]` and
    produces `out_idx[out_off[r]:out_off[r + 1]]` at `rates[r]`.  The
    indices point into the species of the network that holds the table, a
    species appears once per occurrence (A + A holds A twice), and a side
    may have any length.  The arrays are read-only.
    """

    in_off: np.ndarray
    in_idx: np.ndarray
    out_off: np.ndarray
    out_idx: np.ndarray
    rates: np.ndarray

    def __post_init__(self):
        for name in _SIDE_ARRAYS:
            object.__setattr__(self, name, _frozen(getattr(self, name), np.intp))
        object.__setattr__(self, "rates", _frozen(self.rates, float))
        n = self.rates.size
        for off, idx in ((self.in_off, self.in_idx), (self.out_off, self.out_idx)):
            if (off.shape != (n + 1,) or idx.ndim != 1 or off[0] != 0
                    or off[-1] != idx.size or (off[1:] < off[:-1]).any()):
                raise ValueError("reaction table offsets do not match their indices")
        finite = (self.rates > 0.0) & (self.rates < math.inf)
        if self.rates.ndim != 1 or not finite.all():
            raise ValidationError("reaction rate must be positive and finite")

    @classmethod
    def from_sides(cls, in_len, in_idx, out_len, out_idx, rates) -> ReactionTable:
        """The table of reactions whose sides have these lengths and indices."""
        return cls(_offsets(in_len), in_idx, _offsets(out_len), out_idx, rates)

    def __len__(self) -> int:
        return self.rates.size

    def __eq__(self, other):
        if not isinstance(other, ReactionTable):
            return NotImplemented
        return self.same_sides(other) and np.array_equal(self.rates, other.rates)

    __hash__ = None

    def same_sides(self, other: ReactionTable) -> bool:
        """Whether both tables hold the same reactions in the same order,
        rates aside."""
        return all(np.array_equal(getattr(self, name), getattr(other, name))
                   for name in _SIDE_ARRAYS)

    def reactions(self, species) -> tuple[Reaction, ...]:
        """The reactions as `Reaction` objects over these species names."""
        return tuple(map(
            Reaction,
            _side_names(self.in_off, self.in_idx, species),
            _side_names(self.out_off, self.out_idx, species),
            self.rates.tolist(),
        ))


def _offsets(lengths) -> np.ndarray:
    lengths = np.asarray(lengths, dtype=np.intp)
    off = np.zeros(lengths.size + 1, dtype=np.intp)
    np.cumsum(lengths, out=off[1:])
    return off


def _side_names(off, idx, species) -> list[tuple[str, ...]]:
    names = list(map(species.__getitem__, idx.tolist()))
    bounds = off.tolist()
    return [tuple(names[a:b]) for a, b in zip(bounds, bounds[1:])]


def _table_of(reactions: tuple[Reaction, ...], index: dict[str, int]) -> ReactionTable:
    """The table of Reaction objects; ValidationError for an undeclared name."""
    ins = [rx.reactants for rx in reactions]
    outs = [rx.products for rx in reactions]
    try:
        in_idx = list(map(index.__getitem__, chain.from_iterable(ins)))
        out_idx = list(map(index.__getitem__, chain.from_iterable(outs)))
    except KeyError:
        sp = next(sp for rx in reactions for sp in rx.reactants + rx.products
                  if sp not in index)
        raise ValidationError(f"reaction references unknown species {sp!r}") from None
    return ReactionTable.from_sides(
        list(map(len, ins)), in_idx, list(map(len, outs)), out_idx,
        [rx.rate for rx in reactions],
    )


@dataclass(frozen=True)
class Crn:
    """A reaction network: species, reactions, initial values, annotations.

    `table` takes the reactions as a `ReactionTable` over the species
    indices or as a sequence of `Reaction`, which is converted to one.
    `Crn.reactions` gives the table's reactions as `Reaction` objects,
    built on first access.  `init` and `meta` are copied into read-only
    mappings.  `diffs` lists (out, plus, minus), where plus and minus are
    declared species and out names a CSV column of its own.  `blocks` lists
    (label, reaction count) of the marked blocks, which cover the last
    reactions in order; any reactions before them are unmarked.  Every
    construction, `dataclasses.replace` included, runs the same checks, and
    every check asks that the `.crn` text of the network read back as the
    network.
    """

    species: tuple[str, ...]
    table: ReactionTable
    init: Mapping[str, float] = field(default_factory=dict)
    meta: Mapping[str, str] = field(default_factory=dict)
    diffs: tuple[tuple[str, str, str], ...] = ()  # (out, plus, minus)
    blocks: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "species", tuple(self.species))
        object.__setattr__(self, "init", MappingProxyType(dict(self.init)))
        object.__setattr__(self, "meta", MappingProxyType(dict(self.meta)))
        object.__setattr__(self, "diffs", tuple(tuple(d) for d in self.diffs))
        object.__setattr__(self, "blocks", tuple(tuple(b) for b in self.blocks))
        for key, value in self.meta.items():
            problem = _meta_problem(key, value)
            if problem is not None:
                raise ValidationError(problem)
        for label, count in self.blocks:
            if _block_label(label.split()) != label or count < 0:
                raise ValidationError(f"bad reaction block ({label!r}, {count})")
        for sp in self.species:
            problem = _species_name_problem(sp)
            if problem is not None:
                raise ValidationError(problem)
        index = {sp: i for i, sp in enumerate(self.species)}
        if len(index) != len(self.species):
            raise ValidationError("duplicate species names")
        if isinstance(self.table, ReactionTable):
            for idx in (self.table.in_idx, self.table.out_idx):
                if idx.size and not 0 <= idx.min() <= idx.max() < len(index):
                    raise ValidationError("reaction table indexes beyond the species")
        else:
            object.__setattr__(self, "table", _table_of(tuple(self.table), index))
        if self.marked > len(self.table):
            raise ValidationError("reaction blocks cover more reactions than exist")
        for sp, val in self.init.items():
            if sp not in index:
                raise ValidationError(f"init references unknown species {sp!r}")
            if not math.isfinite(val):
                raise ValidationError(f"init[{sp!r}] = {val} is not finite")
            if val < 0.0:
                raise ValidationError(f"init[{sp!r}] = {val} is negative")
        outs: set[str] = set()
        for diff in self.diffs:
            problem = _diff_problem(diff, index, outs)
            if problem is not None:
                raise ValidationError(problem)
            outs.add(diff[0])
            for rail in diff[1:]:
                if rail not in index:
                    raise ValidationError(f"diff references unknown species {rail!r}")

    @cached_property
    def reactions(self) -> tuple[Reaction, ...]:
        return self.table.reactions(self.species)

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
    expected to get theirs from the network that owns them.  A negative
    initial rail is refused by the checks of `Crn`.
    """
    plus = as_vector(init_plus, "init_plus")
    minus = as_vector(init_minus, "init_minus")
    n = rs.n
    if plus.shape != (n,) or minus.shape != (n,):
        raise ValueError("initial rails must match the state count")

    # state or input j has the rails 2j (plus) and 2j + 1 (minus).  Entry
    # (i, j) emits, in this order, x_j+ -> x_j+ + x_i+ and x_j- -> x_j- + x_i-
    # at A+[i, j], then x_j- -> x_j- + x_i+ and x_j+ -> x_j+ + x_i- at A-[i, j]
    rows, cols = np.nonzero((rs.aplus > 0.0) | (rs.aminus > 0.0))
    up, um = rs.aplus[rows, cols], rs.aminus[rows, cols]
    rate = np.column_stack([up, up, um, um]).ravel()
    keep = rate > 0.0
    catalyst = (2 * cols[:, None] + [0, 1, 1, 0]).ravel()[keep]
    made = (2 * rows[:, None] + [0, 1, 0, 1]).ravel()[keep]
    # productions 0 -> x_i+ at b+[i] and 0 -> x_i- at b-[i]: entry k of the
    # interleaved offsets is the rate of rail k
    offset = np.column_stack([rs.bplus, rs.bminus]).ravel()
    produced = np.flatnonzero(offset > 0.0)
    # annihilations x_i+ + x_i- -> 0 consume the rails 0 .. 2n - 1 in pairs
    n_ann = n if rs.gamma > 0.0 else 0
    counts = [catalyst.size, produced.size, n_ann]
    table = ReactionTable.from_sides(
        np.repeat([1, 0, 2], counts),
        np.concatenate([catalyst, np.arange(2 * n_ann)]),
        np.repeat([2, 1, 0], counts),
        np.concatenate([np.column_stack([catalyst, made]).ravel(), produced]),
        np.concatenate([rate[keep], offset[produced], np.full(n_ann, float(rs.gamma))]),
    )
    species = rs.rail_names
    rails0 = np.column_stack([plus, minus]).ravel()
    held = np.flatnonzero(rails0)
    init = dict(zip(map(species.__getitem__, held.tolist()), rails0[held].tolist()))
    return Crn(species, table, init)


def polynomial_form(*nets: Crn) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The networks' mass-action law in polynomial form dc/dt = M m(c), as
    (M, ma, mb).

    m(c) holds one monomial per distinct reactant multiset (1, c_a or
    c_a c_b), and column k of M sums rate * (products - reactants) over the
    reactions on monomial k.  M therefore has at most one column per
    reaction, and far fewer for emitted networks, whose reactions share
    the few monomials of their rails.

    Several networks of one structure (the same species and the same
    reactions in the same order; rates may differ) share the monomials and
    keep one M each: with B networks of n species, m monomials and the
    stacked concentrations c of B*n values, network b's in [b*n, (b+1)*n),
    M is (B, n, m), and with ext = (c, 1.0) the monomials are
    ext[ma] * ext[mb], both gathers shaped (B, m, 1) for the stacked
    product M @ m(c) of shape (B, n, 1).  One network is the case B = 1.
    ValueError when the structures differ.
    """
    if not nets:
        raise ValueError("polynomial_form needs at least one network")
    first = nets[0]
    table = first.table
    if any(other.species != first.species or not other.table.same_sides(table)
           for other in nets[1:]):
        raise ValueError("stacked networks must share species and reactions")
    n_sp, n_rx = len(first.species), len(table)
    n_in, n_out = np.diff(table.in_off), np.diff(table.out_off)
    if (n_in > 2).any():
        raise ValidationError("mass action supported up to binary reactions")
    # a monomial is a sorted index pair in which the slot n_sp reads a
    # constant 1.0, so A + B and B + A share one; columns are numbered in
    # the order their monomials first appear.  A dict keeps that order
    # without a numpy sort, whose kernels, paged in on a process's first
    # sort, raised the peak memory of small workloads by about 1 MB
    cols: dict[int, int] = {}
    rx_col = np.empty(n_rx, dtype=np.intp)  # the monomial of each reaction
    for lo in range(0, n_rx, _CHUNK):
        hi = min(lo + _CHUNK, n_rx)
        pair = np.full((2, hi - lo), n_sp, dtype=np.intp)
        for k in (0, 1):
            on = n_in[lo:hi] > k
            pair[k, on] = table.in_idx[table.in_off[lo:hi][on] + k]
        keys = (np.minimum(*pair) * (n_sp + 1) + np.maximum(*pair)).tolist()
        for key in dict.fromkeys(keys):
            cols.setdefault(key, len(cols))
        rx_col[lo:hi] = np.fromiter(map(cols.__getitem__, keys), np.intp, hi - lo)
    pairs = np.column_stack(divmod(np.fromiter(cols, np.intp, len(cols)), n_sp + 1))
    n_net, n_mono, size = len(nets), len(cols), len(nets) * n_sp
    M = np.zeros((n_net, n_sp, n_mono))
    # M sums rate * (products - reactants) reaction by reaction, reactants
    # before products: one entry per species occurrence in that order, added
    # by one unbuffered np.add.at per chunk of reactions, in chunk order,
    # which keeps the order of the sums
    for lo in range(0, n_rx, _CHUNK):
        hi = min(lo + _CHUNK, n_rx)
        in_off, out_off = table.in_off[lo : hi + 1], table.out_off[lo : hi + 1]
        n_in_c, n_out_c = n_in[lo:hi], n_out[lo:hi]
        n_occ = n_in_c + n_out_c
        owner = np.repeat(np.arange(lo, hi), n_occ)  # the reaction of each occurrence
        # reaction r's occurrences start at start[r - lo]: its reactants, then
        # its products, each side in its table order
        start = np.cumsum(n_occ) - n_occ
        at_in = (np.repeat(start - (in_off[:-1] - in_off[0]), n_in_c)
                 + np.arange(in_off[-1] - in_off[0]))
        at_out = (np.repeat(start + n_in_c - (out_off[:-1] - out_off[0]), n_out_c)
                  + np.arange(out_off[-1] - out_off[0]))
        occ_sp = np.empty(owner.size, dtype=np.intp)
        occ_sp[at_in] = table.in_idx[in_off[0] : in_off[-1]]
        occ_sp[at_out] = table.out_idx[out_off[0] : out_off[-1]]
        sign = np.ones(owner.size)
        sign[at_in] = -1.0
        occ_col = rx_col[owner]
        for net, M_net in zip(nets, M):
            np.add.at(M_net, (occ_sp, occ_col), sign * net.table.rates[owner])
    # the stacked concentrations fill ext[:size] and ext[size] holds the
    # constant 1.0; network b's monomials gather from its own slice, shaped
    # (network, monomial, 1) for the stacked product
    gather = n_sp * np.arange(n_net, dtype=np.intp)[:, None, None] + pairs
    gather[:, pairs == n_sp] = size
    return M, gather[:, :, :1].copy(), gather[:, :, 1:].copy()


def mass_action_field(*nets: Crn):
    """Evaluable concentration derivative under the law of mass action.

    The field evaluates the networks' `polynomial_form` M m(c).  Several
    networks of one structure give one field over their stacked states:
    with B networks of n species it takes and returns B*n values, network
    b's in [b*n, (b+1)*n), and since the B products are one stacked
    product, each network's slice equals its own field bit for bit.
    ValueError when the structures differ.  The field gathers through one
    buffer it reuses, so it must not run in two threads at once.
    """
    M, ma, mb = polynomial_form(*nets)
    size = M.shape[0] * M.shape[1]
    ext = np.ones(size + 1)

    def rhs(c: np.ndarray) -> np.ndarray:
        c = np.asarray(c, dtype=float)
        if c.shape != (size,):
            raise ValidationError(f"expected {size} concentrations")
        ext[:size] = c
        return np.matmul(M, ext[ma] * ext[mb]).reshape(size)

    return rhs


def difference_system(net: Crn) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(F, g, d0): the law d' = F d + g of the rail differences, difference
    i being plus - minus of `net.diffs[i]`, and their initial values.

    Under mass action the law is exact when no reaction with two or more
    reactants moves a difference (annihilation moves none), no species off
    the rails feeds one, and each minus rail's column is the negated column
    of its plus rail.  F holds the plus-rail columns and g the moves of the
    reactant-free reactions, each summed in reaction order.  ValidationError
    names the first reaction that breaks a rule.
    """
    table, n_sp, n_rx = net.table, len(net.species), len(net.table)
    index = {sp: k for k, sp in enumerate(net.species)}
    plus = np.array([index[p] for _, p, _ in net.diffs], dtype=np.intp)
    minus = np.array([index[m] for _, _, m in net.diffs], dtype=np.intp)
    rails = np.concatenate([plus, minus])
    if np.bincount(rails, minlength=1).max() > 1:
        raise ValidationError("a species is a rail of two differences")
    pair = np.full(n_sp, -1)  # the difference of each rail, -1 off the rails
    pair[rails] = np.tile(np.arange(plus.size), 2)
    sign = np.bincount(plus, minlength=n_sp) - np.bincount(minus, minlength=n_sp)
    # every occurrence of a rail in a reaction, as the key r * (differences)
    # + difference and its move; a reaction's occurrences of one difference
    # sum to its net move, and the keys sort by reaction first
    n_in, n_out = np.diff(table.in_off), np.diff(table.out_off)
    idx = np.concatenate([table.in_idx, table.out_idx])
    on = pair[idx] >= 0
    width = max(plus.size, 1)
    key = (np.concatenate([np.repeat(np.arange(n_rx), n_in),
                           np.repeat(np.arange(n_rx), n_out)])[on] * width + pair[idx[on]])
    move = np.concatenate([-sign[table.in_idx], sign[table.out_idx]])[on]
    order = np.argsort(key, kind="stable")
    key, move = key[order], move[order]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    net_move = np.add.reduceat(move, first) if first.size else move
    moved = net_move != 0
    r, diff = np.divmod(key[first[moved]], width)
    net_move = net_move[moved]
    reactant = np.append(table.in_idx, 0)[table.in_off[r]]  # read where n_in is 1
    G = np.zeros((plus.size, n_sp + 1))  # the last column collects g
    col = np.where(n_in[r] == 0, n_sp, reactant)
    np.add.at(G, (diff, col), net_move * table.rates[r])
    # whether the reactant's rail pair has unequal columns; pair -1 reads the False
    unequal = np.append((G[:, minus] != -G[:, plus]).any(axis=0), False)[pair[reactant]]
    unary = n_in[r] == 1
    for bad, rule in ((n_in[r] > 1, "has two reactants and moves a difference"),
                      (unary & (pair[reactant] < 0), "reads a species off the rails"),
                      (unary & unequal, "reads a rail whose partner is not its negation")):
        if bad.any():
            rx = net.reactions[r[bad][0]]
            sides = [" + ".join(side) or EMPTY_SIDE for side in (rx.reactants, rx.products)]
            raise ValidationError(f"reaction {r[bad][0] + 1} ({' -> '.join(sides)}) {rule}")
    c0 = net.initial_state()
    return G[:, plus], G[:, n_sp], c0[plus] - c0[minus]


def union(a: Crn, b: Crn) -> Crn:
    """Compose two unannotated networks; shared species names identify
    shared species.

    The result holds a's species and reactions, then b's.  Initial values
    are partial maps: a conflict is raised only when both networks assign
    a shared species different values.  ValueError when either network
    carries meta, diffs or blocks; annotations go on the finished network.
    """
    if a.meta or a.diffs or a.blocks or b.meta or b.diffs or b.blocks:
        raise ValueError("union composes only networks without meta, diffs or blocks")
    known = set(a.species)
    for sp in sorted(known.intersection(b.species)):
        if sp in a.init and sp in b.init and a.init[sp] != b.init[sp]:
            raise ValidationError(
                f"species {sp!r} has init {a.init[sp]} in one network "
                f"and {b.init[sp]} in the other"
            )
    species = a.species + tuple(sp for sp in b.species if sp not in known)
    index = {sp: i for i, sp in enumerate(species)}
    remap = np.array([index[sp] for sp in b.species], dtype=np.intp)
    ta, tb = a.table, b.table
    table = ReactionTable.from_sides(
        np.concatenate([np.diff(ta.in_off), np.diff(tb.in_off)]),
        np.concatenate([ta.in_idx, remap[tb.in_idx]]),
        np.concatenate([np.diff(ta.out_off), np.diff(tb.out_off)]),
        np.concatenate([ta.out_idx, remap[tb.out_idx]]),
        np.concatenate([ta.rates, tb.rates]),
    )
    init = dict(a.init)
    for sp, val in b.init.items():
        init.setdefault(sp, val)
    return Crn(species, table, init)


def _side_texts(off, idx, names, before: str, after: str) -> np.ndarray:
    """`before` + each side's text (`0`, `a`, `a + b`, ...) + `after`.

    `names` is the species as an object array; the texts come back as one.
    """
    lengths = np.diff(off)
    texts = np.full(lengths.size, before + EMPTY_SIDE + after, dtype=object)
    for length in range(1, lengths.max(initial=0) + 1):
        rows = np.flatnonzero(lengths == length)
        at = off[rows]
        parts = [before + names] + [" + " + names] * (length - 1)
        parts[-1] = parts[-1] + after
        text = parts[0][idx[at]]
        for k in range(1, length):
            text = text + parts[k][idx[at + k]]
        texts[rows] = text
    return texts


def _reaction_lines(table: ReactionTable, names, lo: int, hi: int) -> list[str]:
    """The lines of reactions lo .. hi - 1, each ending in a newline."""
    # catalytic reactions come in pairs of one rate, so each run of equal
    # rates is formatted once
    rates = table.rates[lo:hi]
    new_run = np.ones(rates.size, dtype=bool)
    new_run[1:] = rates[1:] != rates[:-1]
    runs = np.flatnonzero(new_run)
    texts = np.array(["%.17g" % rate for rate in rates[runs].tolist()], dtype=object)
    return (
        _side_texts(table.in_off[lo : hi + 1], table.in_idx, names, "", " ->{")
        + np.repeat(texts, np.diff(runs, append=rates.size))
        + _side_texts(table.out_off[lo : hi + 1], table.out_idx, names, "} ", "\n")
    ).tolist()


def crn_lines(net: Crn) -> Iterator[str]:
    """The text of `serialize_crn` in pieces of whole lines: the header, the
    reactions _CHUNK lines at a time with each block marker in its place,
    and the diff lines."""
    head = ["# crn"]
    head += [f"# meta {key} {net.meta[key]}" for key in sorted(net.meta)]
    if net.species:
        head.append("species " + " ".join(net.species))
    head += [f"init {sp} {net.init[sp]:.17g}" for sp in net.species if sp in net.init]
    yield "".join(line + "\n" for line in head)
    table, names = net.table, np.array(net.species, dtype=object)
    # each block's marker line goes before its first reaction, and the
    # chunks are cut without regard to blocks
    markers, at = [], len(table) - net.marked
    for label, count in net.blocks:
        markers.append((at, f"# {label}\n"))
        at += count
    for lo in range(0, len(table), _CHUNK):
        hi = min(lo + _CHUNK, len(table))
        lines = _reaction_lines(table, names, lo, hi)
        for pos, marker in reversed([m for m in markers if lo <= m[0] < hi]):
            lines.insert(pos - lo, marker)
        yield "".join(lines)
    yield "".join(marker for pos, marker in markers if pos == len(table))
    yield "".join(f"# diff {out} {plus} {minus}\n" for out, plus, minus in net.diffs)


def serialize_crn(net: Crn) -> str:
    """Deterministic text form; parse_crn inverts it losslessly."""
    return "".join(crn_lines(net))


def _parse_side(text: str, line_no: int) -> list[str]:
    names = list(map(str.strip, text.split("+")))
    if names == [EMPTY_SIDE]:
        return []
    if "" in names:
        raise ParseError(line_no, f"malformed reaction side {text.strip()!r}")
    return names


def _reaction_indices(left: str, right: str, index: dict[str, int], line_no: int):
    """The species indices of a reaction line's two sides, or its ParseError.

    A malformed side is reported before an undeclared name, and reactants
    before products.
    """
    sides = _parse_side(left, line_no), _parse_side(right, line_no)
    try:
        return [list(map(index.__getitem__, names)) for names in sides]
    except KeyError as exc:
        raise ParseError(line_no, f"undeclared species {exc.args[0]!r}") from None


# `str.splitlines` ends a line at each of these, and at "\r\n" as one break
_LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"


def _line_blocks(source: str | TextIO) -> Iterator[list[str]]:
    """The lines of a text or an open text file as `str.splitlines` splits
    the whole text, in lists of about _BLOCK characters."""
    if isinstance(source, str):
        blocks = (source[at : at + _BLOCK] for at in range(0, len(source), _BLOCK))
    else:
        blocks = iter(partial(source.read, _BLOCK), "")
    carry = ""  # the block's last line, while the next block may continue it
    for block in blocks:
        text = carry + block
        lines = text.splitlines()
        carry = ""
        if text[-1] not in _LINE_BREAKS:
            carry = lines.pop()
        elif text[-1] == "\r":  # a "\n" opening the next block ends the same line
            carry = lines.pop() + "\r"
        yield lines
    yield carry.splitlines()


def parse_crn(source: str | TextIO) -> Crn:
    """The network of a `.crn` text, or of an open text file, which is read
    _BLOCK characters at a time.  Lines are numbered as `str.splitlines`
    splits the whole text; ParseError names the first bad line."""
    species: list[str] = []
    index: dict[str, int] = {}
    init: dict[str, float] = {}
    meta: dict[str, str] = {}
    diffs: list[tuple[str, str, str]] = []
    outs: set[str] = set()  # the diff outputs so far
    starts: list[tuple[str, int]] = []  # (block label, its first reaction)
    # the reaction table's columns: side lengths, species indices and rates
    in_len: list[int] = []
    in_idx: list[int] = []
    out_len: list[int] = []
    out_idx: list[int] = []
    rates: list[float] = []
    # reactant side text -> its indices, and a product side's `+`-separated
    # token -> its index, once the names are known to be declared; species
    # are only ever added, so a checked side or token stays valid
    sides: dict[str, list[int]] = {}
    product_tokens: dict[str, int] = {}
    # rate text -> its value; catalytic reactions come in pairs of one rate
    checked_rates: dict[str, float] = {}

    first_no = 1  # the number of the block's first line
    for lines in _line_blocks(source):
        for line_no, raw in enumerate(lines, first_no):
            line = raw.strip()
            if not line:
                continue
            if line[0] == "#":
                toks = line[1:].split()
                if toks[:1] == ["meta"] and len(toks) >= 3:
                    meta[toks[1]] = " ".join(toks[2:])
                elif toks[:1] == ["diff"] and len(toks) == 4:
                    problem = _diff_problem(toks[1:], index, outs)
                    if problem is not None:
                        raise ParseError(line_no, problem)
                    for rail in toks[2:]:
                        if rail not in index:
                            raise ParseError(line_no, f"diff of undeclared species {rail!r}")
                    diffs.append((toks[1], toks[2], toks[3]))
                    outs.add(toks[1])
                elif (label := _block_label(toks)) is not None:
                    starts.append((label, len(rates)))
                continue
            left, arrow, rest = line.partition("->{")
            if arrow:
                rate_str, brace, right = rest.partition("}")
                if not brace:
                    raise ParseError(line_no, "missing closing brace on rate")
                rate = checked_rates.get(rate_str)
                if rate is None:
                    try:
                        rate = float(rate_str)
                    except ValueError:
                        raise ParseError(line_no, f"bad rate {rate_str!r}") from None
                    if not 0.0 < rate < math.inf:
                        if not math.isfinite(rate):
                            raise ParseError(line_no, f"non-finite rate {rate_str!r}")
                        raise ParseError(line_no, "rate must be positive")
                    checked_rates[rate_str] = rate
                reactants = sides.get(left)
                tokens = right.split("+")
                products = list(map(product_tokens.get, tokens))
                if reactants is None or None in products:
                    reactants, products = _reaction_indices(left, right, index, line_no)
                    sides[left] = reactants
                    product_tokens.update(zip(tokens, products))
                in_len.append(len(reactants))
                in_idx += reactants
                out_len.append(len(products))
                out_idx += products
                rates.append(rate)
                continue
            toks = line.split()
            if toks[0] == "species":
                for nm in toks[1:]:
                    problem = _species_name_problem(nm)
                    if problem is not None:
                        raise ParseError(line_no, problem)
                    if nm in index:
                        raise ParseError(line_no, f"duplicate species {nm!r}")
                    if nm in outs:
                        raise ParseError(line_no, f"species {nm!r} repeats a diff output")
                    index[nm] = len(species)
                    species.append(nm)
                continue
            if toks[0] == "init":
                if len(toks) != 3:
                    raise ParseError(line_no, "init takes: name value")
                if toks[1] not in index:
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
        first_no += len(lines)

    ends = [first for _, first in starts[1:]] + [len(rates)]
    blocks = tuple((label, end - first) for (label, first), end in zip(starts, ends))
    table = ReactionTable.from_sides(in_len, in_idx, out_len, out_idx, rates)
    return Crn(tuple(species), table, init, meta, tuple(diffs), blocks)
