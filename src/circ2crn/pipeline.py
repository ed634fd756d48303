"""End-to-end wiring: netlist -> DAE -> rails -> union CRN -> measurements.

The compiled network is the union of one circuit block and one block per
source.  The circuit block holds the reactions of the shifted (or, when E
is invertible, the exact) circuit ODE with the source rails acting as
catalysts; it depends only on the circuit and h, never on the waveforms.
Each input block holds the reactions of that source's own generator ODE.
The blocks are recorded on the union, so `serialize_crn` marks them.

`verify_circuit` certifies exactly that union, read back from its `.crn`
text: under mass action its rail differences obey an affine law exactly,
which it propagates on the h/20 grid and compares with a backward-Euler run
of ORACLE_STEPS steps of h/100 per grid row on the exact pencil.  The two
are stepped as the diagonal blocks of one map (`numerics.propagate`), in
blocks of as many 512-row anchor periods as fit in its buffer, each block
holding one array per side, and compared block by block, each before the
next is requested, so memory does not grow with the horizon.  The
circuit states lead both sides, the network's differences and the
oracle's columns, in the same order, so the comparison reads both in
place.  `convergence_study` is `verify_circuit` at each of its h values,
so each row is the number `verify` prints at that h.

Every grid's step count, and its refusal, comes from `dae.grid_steps`; the
one grid arithmetic left here is `freq`'s fit window.

`simulate_crn` collects the rows of the mass-action RK4 kernel
(`sim.mass_action_rows`) into one table, rail differences included.

`frequency_response` validates every drive frequency and its grid before
it compiles any, then simulates the unions of all frequencies together as
one stacked state by that kernel, in batches.  It reads the kernel's rows
block by block and keeps of each network only the output and source rail
differences inside its fit window; _SWEEP_ENTRIES bounds what a batch
keeps.  A batch that blows up raises NonFiniteState at the earliest
blow-up time among its frequencies.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from functools import reduce
from itertools import chain

import numpy as np

from .circuit import Fourier, Netlist, build_dae, source_models
from .crn import (CIRCUIT_BLOCK, INPUT_BLOCK, Crn, difference_system, emit_crn, parse_crn,
                  serialize_crn, union)
from .dae import (
    AffineOde,
    DaeSystem,
    InputModel,
    Trajectory,
    consistent_project,
    coupled_euler_map,
    csv_table,
    direct_map,
    e_invertible,
    grid_steps,
    reference_map,
)
from .errors import ValidationError
from .numerics import propagate
from .positivation import hungarize, positivate, rails, split_initial
from .sim import DT_RULE_FACTOR, fit_sinusoid, linear_map, mass_action_rows

# float64 rail differences one batch of a frequency sweep may store (32 MB)
_SWEEP_ENTRIES = 1 << 22
# the oracle's backward-Euler steps per grid row of verify: steps of h/100
ORACLE_STEPS = 5


@dataclass(frozen=True)
class RunConfig:
    """Knobs shared by every command; `auto` resolves against h."""

    h: float = 0.01
    gamma: float | str = "auto"  # auto -> 1/h
    T: float = 50.0
    transient_discard: float = 20.0
    seed: int | None = None  # read only by perfbench/tracing.py

    def __post_init__(self):
        # each test is written so that NaN fails it
        if not 0.0 < self.h < np.inf:
            raise ValidationError("h must be positive and finite")
        if not 0.0 < self.T < np.inf:
            raise ValidationError("T must be positive and finite")
        if not 0.0 <= self.transient_discard < np.inf:
            raise ValidationError("transient_discard must be finite and nonnegative")
        if self.gamma != "auto" and not 0.0 <= float(self.gamma) < np.inf:
            raise ValidationError("gamma must be finite and nonnegative, or 'auto'")

    def resolve_gamma(self) -> float:
        return 1.0 / self.h if self.gamma == "auto" else float(self.gamma)

    def resolve_dt(self) -> float:
        """The grid step of every simulation and of verify: h / DT_RULE_FACTOR."""
        return self.h / DT_RULE_FACTOR


@dataclass(frozen=True)
class CompiledCircuit:
    """The circuit's pencil, input model and initial state, and its union
    CRN; the h, gamma and mode it was compiled at are in `crn.meta`."""

    sys: DaeSystem
    inp: InputModel
    x0: np.ndarray
    crn: Crn  # the union, with meta, diff and block annotations


def compile_circuit(net: Netlist, cfg: RunConfig) -> CompiledCircuit:
    """Compile a parsed netlist into its union CRN.

    Raises SingularMatrix when E - hA fails the rank test at cfg.h, which
    a singular pencil does at every h (with E invertible the pencil is
    regular and E - hA is never formed), and ValidationError for structural
    problems and for rates that overflow, naming h or the component values;
    emits RuntimeWarnings for projected initial conditions and for the
    gamma = 0 diagnostic mode.
    """
    sys, inp = build_dae(net)
    direct = e_invertible(sys)
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        ax, bx = direct_map(sys) if direct else coupled_euler_map(sys, cfg.h)
    if not (np.isfinite(ax).all() and np.isfinite(bx).all()):
        if direct:
            raise ValidationError("the circuit's rates overflow: its component values "
                                  "are too far apart")
        raise ValidationError(f"the circuit's rates overflow at h={cfg.h:g}")
    gamma = cfg.resolve_gamma()
    if gamma == np.inf:  # an explicit gamma is finite
        raise ValidationError(f"h={cfg.h:g} is too small: gamma = 1/h overflows")
    if gamma == 0.0:
        warnings.warn(
            "gamma = 0 disables annihilation: rails will grow without bound",
            RuntimeWarning,
            stacklevel=2,
        )

    x0, flagged = consistent_project(sys, sys.B @ inp.u0, np.zeros(sys.n))
    if flagged:
        warnings.warn(
            "default initial state was inconsistent and has been projected",
            RuntimeWarning,
            stacklevel=2,
        )

    circuit_ode = AffineOde(ax, np.zeros(sys.n), sys.state_names, sys.output_index)
    circuit_rs = hungarize(
        positivate(circuit_ode, coupling=(bx, inp.input_names)), gamma
    )
    parts = [(CIRCUIT_BLOCK, emit_crn(circuit_rs, *split_initial(x0)))]
    for name, model in source_models(net):
        ode = AffineOde(model.D, model.d, model.names, 0)
        block = emit_crn(hungarize(positivate(ode), gamma), *split_initial(model.init))
        parts.append((f"{INPUT_BLOCK} {name}", block))
    merged = reduce(union, [block for _, block in parts])
    meta = {
        "h": f"{cfg.h:.17g}",
        "gamma": f"{gamma:.17g}",
        "mode": "direct" if direct else "euler",
    }
    names = sys.state_names + inp.names
    pairs = rails(names)
    diffs = tuple(zip(names, pairs[0::2], pairs[1::2]))
    blocks = tuple((label, len(block.table)) for label, block in parts)
    crn = replace(merged, meta=meta, diffs=diffs, blocks=blocks)
    return CompiledCircuit(sys, inp, x0, crn)


def simulate_crn(net: Crn, T: float, dt: float) -> Trajectory:
    """Integrate a CRN by RK4 with step dt from its declared initial
    concentrations, from 0 to the first multiple of dt at or beyond T: the
    species trajectory with any annotated rail differences appended as extra
    columns, in one table.
    """
    rows = mass_action_rows([net], net.initial_state(), grid_steps(T, dt), dt)
    return rows.collect(net.species, net.diffs)


def verify_circuit(net: Netlist, cfg: RunConfig) -> float:
    """Sup error on [0, cfg.T] of the compiled union CRN against the oracle.

    The network `compile` emits is read back from its `.crn` text, and the
    law of its rail differences (`crn.difference_system`) is propagated
    exactly on the h/20 grid (`RunConfig.resolve_dt`).  It is stepped with
    the oracle's map from one grid row to the next (`dae.reference_map`,
    ORACLE_STEPS steps of h/100) as the two diagonal blocks of one map
    (`numerics.propagate`), and the leading columns of the two, the circuit
    states, are compared block by block.  A blow-up of either raises
    NonFiniteState at its earliest row.  ValidationError, before anything
    is compiled, when `dae.grid_steps` refuses the grid, and later when the
    difference law is not exact.
    """
    dt = cfg.resolve_dt()
    steps = grid_steps(cfg.T, dt)
    compiled = compile_circuit(net, cfg)
    _, oracle, y_oracle = reference_map(compiled.sys, compiled.inp, compiled.x0,
                                        cfg.h / (DT_RULE_FACTOR * ORACLE_STEPS), ORACLE_STEPS)
    emitted = parse_crn(serialize_crn(compiled.crn))
    states = compiled.sys.state_names
    k = len(states)
    if tuple(out for out, _, _ in emitted.diffs[:k]) != states:
        raise AssertionError("the emitted differences do not lead with the circuit states")
    artifact, y_artifact = linear_map(*difference_system(emitted), dt)
    joint = propagate([artifact, oracle], np.concatenate([y_artifact, y_oracle]), steps, dt)
    worst = 0.0
    for mine, theirs in chain([(y_artifact[None], y_oracle[None])], joint):
        # in F order each inner loop runs down a column, not along k entries of a row
        gap = np.subtract(mine[:, :k], theirs[:, :k], order="F")
        worst = max(worst, float(np.abs(gap, out=gap).max(initial=0.0)))
        del mine, theirs, gap  # the next block is filled without this one held
    return worst


def convergence_study(net: Netlist, cfg: RunConfig, hs) -> list[tuple[float, float]]:
    """`verify_circuit` at each h of hs, as (h, sup error) rows.

    ValidationError, before anything is compiled, when hs is empty or not
    strictly decreasing, or when an h or its grid is refused.
    """
    hs = list(hs)
    if not hs:
        raise ValidationError("hs must be nonempty")
    if any(b >= a for a, b in zip(hs, hs[1:])):
        raise ValidationError("hs must be strictly decreasing")
    for h in hs:
        grid_steps(cfg.T, replace(cfg, h=h).resolve_dt())
    return [(h, verify_circuit(net, replace(cfg, h=h))) for h in hs]


def study_to_csv(rows) -> str:
    return csv_table(("h", "sup_error"), rows)


def frequency_response(
    net: Netlist, omegas, cfg: RunConfig
) -> list[tuple[float, float, float]]:
    """Gain and phase (degrees) of the compiled CRN at each drive frequency.

    The single source is replaced by a unit sine of the requested frequency,
    the union CRN is simulated, and both the recovered input and output are
    fitted over the post-transient window.  Every omega is validated before
    any is compiled.  The networks of all frequencies share one structure,
    so they are integrated together as one stacked state.  Of each network
    only the output and source rail differences inside its fit window are
    stored, and a batch of networks stores at most _SWEEP_ENTRIES such
    values; each frequency is fitted on rows that equal its own run bit for
    bit.  A batch that blows up raises NonFiniteState at the earliest
    blow-up time of its networks.  A grid that `dae.grid_steps` refuses,
    or a fit window of more than _SWEEP_ENTRIES values, is refused with the
    other omega checks.
    """
    sources = net.sources()
    if len(sources) != 1:
        raise ValidationError("frequency sweep needs exactly one source")
    src = sources[0].name
    omegas = list(omegas)
    if not omegas:
        raise ValidationError("omegas must be nonempty")
    dt = cfg.resolve_dt()
    windows = []
    for omega in omegas:
        if not 0.0 < omega < np.inf:  # NaN fails too
            raise ValidationError("omega must be positive and finite")
        T = max(cfg.T, cfg.transient_discard + 2.2 * (2.0 * np.pi / omega))
        try:
            steps = grid_steps(T, dt)
        except ValidationError as exc:
            raise ValidationError(f"omega={omega:g}: {exc}") from None
        fit = _fit_rows(steps, dt, cfg.transient_discard)
        entries = 2 * len(fit)  # the output and source differences
        if entries > _SWEEP_ENTRIES:
            raise ValidationError(f"omega={omega:g} needs {entries} fit values at h={cfg.h:g}, "
                                  f"above the cap of {_SWEEP_ENTRIES}")
        windows.append((T, fit, entries))
    rows: list[tuple[float, float, float]] = []
    batch: list[tuple[float, float, range, CompiledCircuit]] = []
    stored = 0
    for omega, (T, fit, entries) in zip(omegas, windows):
        drive = Fourier(0.0, ((1.0, float(omega), 0.0),))
        compiled = compile_circuit(replace(net, source_waveforms={src: drive}), cfg)
        if batch and stored + entries > _SWEEP_ENTRIES:
            rows += _sweep_batch(batch, src, cfg)
            batch, stored = [], 0
        batch.append((omega, T, fit, compiled))
        stored += entries
    if batch:
        rows += _sweep_batch(batch, src, cfg)
    return rows


def _fit_rows(steps: int, dt: float, discard: float) -> range:
    """Grid rows a sweep keeps for a fit over discard to the end of a grid
    of the given steps: from the last row at or before discard to the last."""
    start = int(discard // dt)  # the floor of the exact quotient
    if (start + 1) * dt <= discard:  # the row time may still round onto it
        start += 1
    return range(start, steps + 1)


def _sweep_batch(batch, src: str, cfg: RunConfig) -> list[tuple[float, float, float]]:
    """Rows of `frequency_response` for one batch of (omega, T, fit rows,
    compiled).

    The stacked networks are stepped by `mass_action_rows`; of network b,
    only the output and source differences on its fit rows are stored, each
    computed as `recover_difference` computes it.
    """
    nets = [compiled.crn for *_, compiled in batch]
    dt = cfg.resolve_dt()
    first = batch[0][3]
    out = first.sys.state_names[first.sys.output_index]
    names = (out, src)
    species = first.crn.species
    rails = {name: (plus, minus) for name, plus, minus in first.crn.diffs}
    plus = [species.index(rails[name][0]) for name in names]
    minus = [species.index(rails[name][1]) for name in names]
    n = len(species)
    kept = [(fit, np.empty((len(fit), len(names)))) for _, _, fit, _ in batch]
    x0 = np.concatenate([crn.initial_state() for crn in nets])
    steps = max(fit.stop for fit, _ in kept) - 1
    row = 0  # the grid row of the block's first row
    for block in mass_action_rows(nets, x0, steps, dt).blocks:
        for b, (fit, diff) in enumerate(kept):
            lo, hi = max(fit.start, row), min(fit.stop, row + len(block))
            if lo < hi:
                own = block[lo - row : hi - row, b * n : (b + 1) * n]
                diff[lo - fit.start : hi - fit.start] = own[:, plus] - own[:, minus]
        row += len(block)
    rows = []
    for (omega, T, _, _), (fit, diff) in zip(batch, kept):
        signal = Trajectory(np.arange(fit.start, fit.stop) * dt, names, diff)
        window = (cfg.transient_discard, T)
        fit_out = fit_sinusoid(signal, out, omega, window)
        fit_in = fit_sinusoid(signal, src, omega, window)
        gain = fit_out.amplitude / fit_in.amplitude
        phase = np.degrees(fit_out.phase - fit_in.phase)
        phase = (phase + 180.0) % 360.0 - 180.0
        rows.append((float(omega), float(gain), float(phase)))
    return rows


def freq_to_csv(rows) -> str:
    return csv_table(("omega", "gain", "phase_deg"), rows)


__all__ = [
    "CompiledCircuit",
    "RunConfig",
    "compile_circuit",
    "convergence_study",
    "freq_to_csv",
    "frequency_response",
    "simulate_crn",
    "study_to_csv",
    "verify_circuit",
]
