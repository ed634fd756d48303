"""End-to-end wiring: netlist -> DAE -> rails -> union CRN -> measurements.

The compiled network is the union of one circuit block and one block per
source.  The circuit block holds the reactions of the shifted (or, when E
is invertible, the exact) circuit ODE with the source rails acting as
catalysts; it depends only on the circuit and h, never on the waveforms.
Each input block holds the reactions of that source's own generator ODE.
The blocks are recorded on the union, so `serialize_crn` marks them.

`verify_circuit` and `convergence_study` certify exactly that union: they
simulate it under mass-action kinetics and compare the recovered circuit
variables with a backward-Euler run on the exact pencil.

`frequency_response` validates every drive frequency before it compiles
any, then simulates the unions of all frequencies together as one stacked
state, in batches bounded by _SWEEP_ENTRIES; a batch that blows up raises
NonFiniteState at the earliest blow-up time among its frequencies.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .circuit import Fourier, Netlist, build_dae, source_models
from .crn import CIRCUIT_BLOCK, INPUT_BLOCK, Crn, emit_crn, mass_action_field, union
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
    reference_solve,
)
from .errors import ValidationError
from .positivation import hungarize, positivate, rails, split_initial
from .sim import (
    DT_RULE_FACTOR,
    fit_sinusoid,
    integrate,
    recover_difference,
    step_count,
    sup_error,
)

# float64 values one batch of a frequency sweep may store (32 MB)
_SWEEP_ENTRIES = 1 << 22


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
            raise ValueError("h must be positive and finite")
        if not np.inf > self.T > self.transient_discard >= 0.0:
            raise ValueError("need finite T > transient_discard >= 0")
        if self.gamma != "auto" and not 0.0 <= float(self.gamma) < np.inf:
            raise ValueError("gamma must be finite and nonnegative, or 'auto'")

    def resolve_gamma(self) -> float:
        return 1.0 / self.h if self.gamma == "auto" else float(self.gamma)

    def resolve_dt(self) -> float:
        """The RK4 step of every simulation: h / DT_RULE_FACTOR."""
        return self.h / DT_RULE_FACTOR


@dataclass(frozen=True)
class CompiledCircuit:
    sys: DaeSystem
    inp: InputModel
    x0: np.ndarray
    x0_was_projected: bool
    direct: bool
    h: float
    gamma: float
    crn: Crn  # the union, with meta, diff and block annotations


def compile_circuit(net: Netlist, cfg: RunConfig) -> CompiledCircuit:
    """Compile a parsed netlist into its union CRN.

    Raises SingularMatrix when E - hA fails the pivot rule at cfg.h, which
    a singular pencil does at every h (with E invertible the pencil is
    regular and E - hA is never formed), and ValidationError for structural
    problems; emits RuntimeWarnings for projected initial conditions and
    for the gamma = 0 diagnostic mode.
    """
    sys, inp = build_dae(net)
    direct = e_invertible(sys)
    if direct:
        ax, bx = direct_map(sys)
    else:
        ax, bx = coupled_euler_map(sys, cfg.h)
    gamma = cfg.resolve_gamma()
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
    circuit = emit_crn(circuit_rs, *split_initial(x0))
    meta = {
        "h": f"{cfg.h:.17g}",
        "gamma": f"{gamma:.17g}",
        "mode": "direct" if direct else "euler",
    }
    names = sys.state_names + inp.names
    pairs = rails(names)
    diffs = tuple(zip(names, pairs[0::2], pairs[1::2]))
    blocks = ((CIRCUIT_BLOCK, len(circuit.reactions)),)
    merged = replace(circuit, meta=meta, diffs=diffs, blocks=blocks)
    for name, model in source_models(net):
        ode = AffineOde(model.D, model.d, model.names, 0)
        block = emit_crn(hungarize(positivate(ode), gamma), *split_initial(model.init))
        label = f"{INPUT_BLOCK} {name}"
        merged = union(merged, replace(block, blocks=((label, len(block.reactions)),)))
    return CompiledCircuit(sys, inp, x0, flagged, direct, cfg.h, gamma, merged)


def simulate_crn(net: Crn, T: float, dt: float) -> Trajectory:
    """Integrate a CRN from its declared initial concentrations.

    Returns the species trajectory with any annotated rail differences
    appended as extra columns.
    """
    traj = integrate(mass_action_field(net), net.initial_state(), T, dt, net.species)
    if net.diffs:
        extra = recover_difference(traj, [(p, m, out) for out, p, m in net.diffs])
        values = np.column_stack([traj.values, extra.values])
        traj = Trajectory(traj.times, traj.names + extra.names, values)
    return traj


def verify_circuit(net: Netlist, cfg: RunConfig, h_ref: float | None = None) -> float:
    """Sup error on [0, cfg.T] of the compiled union CRN against the oracle.

    This certifies the artifact that `compile` emits: the CRN is simulated
    under mass-action kinetics, the circuit variables are recovered as rail
    differences, and the result is compared with reference_solve on the
    exact stacked pencil.  The oracle step defaults to h/100.
    """
    return convergence_study(net, cfg, [cfg.h], h_ref)[0][1]


def convergence_study(
    net: Netlist, cfg: RunConfig, hs, h_ref: float | None = None
) -> list[tuple[float, float]]:
    """Sup error of the compiled union CRN at each h against one oracle run.

    h values must be strictly decreasing; the oracle step defaults to
    min(hs)/100.  The oracle depends only on the circuit, its inputs and
    the projected initial state, none of which depend on h.
    """
    hs = list(hs)
    if not hs:
        raise ValueError("hs must be nonempty")
    if any(b >= a for a, b in zip(hs, hs[1:])):
        raise ValueError("hs must be strictly decreasing")
    if h_ref is None:
        h_ref = min(hs) / 100.0
    rows = []
    reference = None
    for h in hs:
        cfg_h = replace(cfg, h=h)
        compiled = compile_circuit(net, cfg_h)
        if reference is None:
            reference = reference_solve(
                compiled.sys, compiled.inp, compiled.x0, cfg.T, h_ref, max_points=400_000
            )
        traj = simulate_crn(compiled.crn, cfg.T, cfg_h.resolve_dt())
        rows.append((h, sup_error(traj, reference, compiled.sys.state_names)))
    return rows


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
    so they are integrated together as one stacked state, in batches whose
    stored trajectory stays under _SWEEP_ENTRIES values; each frequency is
    fitted on the leading rows it needs, which equal its own run bit for
    bit.  A batch that blows up raises NonFiniteState at the earliest
    blow-up time of its networks.
    """
    sources = net.sources()
    if len(sources) != 1:
        raise ValidationError("frequency sweep needs exactly one source")
    src = sources[0].name
    omegas = list(omegas)
    if not omegas:
        raise ValueError("omegas must be nonempty")
    for omega in omegas:
        if not 0.0 < omega < np.inf:  # NaN fails too
            raise ValueError("omega must be positive and finite")
    dt = cfg.resolve_dt()
    rows: list[tuple[float, float, float]] = []
    batch: list[tuple[float, float, CompiledCircuit]] = []
    for omega in omegas:
        drive = Fourier(0.0, ((1.0, float(omega), 0.0),))
        compiled = compile_circuit(replace(net, source_waveforms={src: drive}), cfg)
        T = max(cfg.T, cfg.transient_discard + 2.2 * (2.0 * np.pi / omega))
        T_max = max([T] + [t for _, t, _ in batch])
        entries = (step_count(T_max, dt) + 1) * len(compiled.crn.species) * (len(batch) + 1)
        if batch and entries > _SWEEP_ENTRIES:
            rows += _sweep_batch(batch, src, cfg)
            batch = []
        batch.append((omega, T, compiled))
    if batch:
        rows += _sweep_batch(batch, src, cfg)
    return rows


def _sweep_batch(batch, src: str, cfg: RunConfig) -> list[tuple[float, float, float]]:
    """Rows of `frequency_response` for one batch of (omega, T, compiled)."""
    nets = [compiled.crn for _, _, compiled in batch]
    dt = cfg.resolve_dt()
    x0 = np.concatenate([crn.initial_state() for crn in nets])
    traj = integrate(mass_action_field(*nets), x0, max(T for _, T, _ in batch), dt)
    first = batch[0][2]
    out = first.sys.state_names[first.sys.output_index]
    pairs = [(plus, minus, name) for name, plus, minus in first.crn.diffs if name in (out, src)]
    species = first.crn.species
    n = len(species)
    rows = []
    for b, (omega, T, _) in enumerate(batch):
        stop = step_count(T, dt) + 1
        own = Trajectory(traj.times[:stop], species, traj.values[:stop, b * n : (b + 1) * n])
        signal = recover_difference(own, pairs)
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
