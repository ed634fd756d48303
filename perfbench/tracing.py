"""Outside-in tracing: each CLI command replayed as calls into its layers.

A replica performs the calls its command makes, in the same order and on
the same inputs, through public functions only, and wraps every call in a
span.  Nothing in the program is patched: the field closure from
`mass_action_field` is wrapped before it is handed to `sim.integrate`, and
the stages inside `compile_circuit` are timed by calling them again on the
inputs `compile_circuit` uses (`probe_compile`).  Field evaluations are too
many to keep one span each (up to 80 000 per op), so they are summed into
one child span of `sim.integrate` with a call count.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from circ2crn.circuit import Fourier, build_dae, parse_netlist, source_models
from circ2crn.crn import Crn, emit_crn, mass_action_field, parse_crn, serialize_crn, union
from circ2crn.dae import (
    AffineOde,
    Trajectory,
    check_regularity,
    consistent_project,
    coupled_euler_map,
    default_h_probes,
    direct_map,
    e_invertible,
    reference_solve,
)
from circ2crn.pipeline import RunConfig, compile_circuit, freq_to_csv
from circ2crn.positivation import hungarize, positivate, split_initial
from circ2crn.sim import fit_sinusoid, integrate, recover_difference, sup_error

from oracles import CheckFailed

# CLI defaults the replicas mirror.
H = 0.01
FIELD = "crn.field"


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans and counts kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: dict[tuple[int, str], float] = {}
        self.op = -1
        self.keys: dict[int, str] = {}  # op id -> input key, for traced ops
        self.compiles: list = []  # (net, cfg, compiled) awaiting probes
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = Span(name, start, end, parent, self.op)

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, name: str, n: float) -> None:
        key = (self.op, name)
        self.counts[key] = self.counts.get(key, 0.0) + n

    def add_child(self, name: str, start: float, total: float) -> None:
        """A span summing many short calls made under the current span."""
        self.spans.append(Span(name, start, start + total, self._stack[-1], self.op))


def closure_bytes(fn) -> int:
    """Bytes of the numpy arrays a field closure holds, from their sizes."""
    cells = fn.__closure__ or ()
    return sum(c.cell_contents.nbytes for c in cells
               if isinstance(c.cell_contents, np.ndarray))


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def replay_simulate_crn(tr: Tracer, net: Crn, T: float, dt: float) -> Trajectory:
    """`pipeline.simulate_crn`, with the field closure wrapped."""
    with tr.span("pipeline.simulate_crn"):
        field = tr.call("crn.mass_action_field", mass_action_field, net)
        tr.count("crn.mass_action_field.bytes", closure_bytes(field))
        calls, total = 0, 0.0

        def counted(c):
            nonlocal calls, total
            t0 = time.perf_counter()
            out = field(c)
            total += time.perf_counter() - t0
            calls += 1
            return out

        with tr.span("sim.integrate"):
            start = time.perf_counter()
            traj = integrate(counted, net.initial_state(), T, dt, net.species)
            tr.add_child(FIELD, start, total)
        tr.count("crn.field.calls", calls)
        tr.count("sim.integrate.steps", len(traj.times) - 1)
        if net.diffs:
            extra = tr.call("sim.recover_difference", recover_difference, traj,
                            [(p, m, out) for out, p, m in net.diffs])
            values = np.column_stack([traj.values, extra.values])
            traj = Trajectory(traj.times, traj.names + extra.names, values)
        return traj


def replay_compile(tr: Tracer, net, cfg: RunConfig):
    compiled = tr.call("pipeline.compile_circuit", compile_circuit, net, cfg)
    tr.count("pipeline.compile_circuit.calls", 1)
    tr.compiles.append((net, cfg, compiled))
    return compiled


def run_probes(tr: Tracer) -> None:
    """Probe every `compile_circuit` call of the op just replayed."""
    while tr.compiles:
        probe_compile(tr, *tr.compiles.pop(0))


def probe_compile(tr: Tracer, net, cfg: RunConfig, compiled) -> None:
    """Time the stages of `compile_circuit` by calling each on its inputs.

    The probes run under a `probe` span after the replayed command, so they
    add nothing to its time, and must rebuild the network that
    `compile_circuit` returned.
    """
    with tr.span("probe"):
        sys, inp = tr.call("circuit.build_dae", build_dae, net)
        tr.count("circuit.build_dae.states", sys.n)
        tr.call("dae.check_regularity", check_regularity, sys, default_h_probes(cfg.seed))
        gamma = cfg.resolve_gamma()
        direct = tr.call("dae.e_invertible", e_invertible, sys)
        if direct:
            ax, bx = tr.call("dae.direct_map", direct_map, sys)
        else:
            ax, bx = tr.call("dae.coupled_euler_map", coupled_euler_map, sys, cfg.h)
        x0, _ = tr.call("dae.consistent_project", consistent_project,
                        sys, sys.B @ inp.u0, np.zeros(sys.n))
        ode = AffineOde(ax, np.zeros(sys.n), sys.state_names, sys.output_index)
        quad = tr.call("positivation.positivate", positivate, ode,
                       coupling=(bx, inp.input_names))
        rails0 = tr.call("positivation.split_initial", split_initial, x0)
        blocks = [tr.call("crn.emit_crn", emit_crn, hungarize(quad, gamma), *rails0)]
        with tr.span("circuit.source_models"):
            models = source_models(net)
        for _, model in models:
            ode = AffineOde(model.D, model.d, model.names, 0)
            quad = tr.call("positivation.positivate", positivate, ode)
            rails0 = tr.call("positivation.split_initial", split_initial, model.init)
            blocks.append(tr.call("crn.emit_crn", emit_crn, hungarize(quad, gamma), *rails0))
        merged = blocks[0]
        for block in blocks[1:]:
            merged = tr.call("crn.union", union, merged, block)
    tr.count("crn.emit_crn.reactions", sum(len(b.reactions) for b in blocks))
    if (merged.species, merged.reactions, merged.init) != (
        compiled.crn.species, compiled.crn.reactions, compiled.crn.init
    ):
        raise CheckFailed("compile probes do not rebuild the compiled network")


def replay_compile_cmd(tr: Tracer, cir: str, out: str) -> str:
    """`compile <cir> -o <out>`, serialized through `crn.serialize_crn`."""
    net = tr.call("circuit.parse_netlist", parse_netlist, _read(cir))
    compiled = replay_compile(tr, net, RunConfig(h=H))
    text = tr.call("crn.serialize_crn", serialize_crn, compiled.crn)
    tr.count("crn.serialize_crn.bytes", len(text.encode()))
    _write(out, text)
    return text


def replay_simulate_cmd(tr: Tracer, crn_path: str, T: float, out: str) -> str:
    """`simulate <crn> -T <T> -o <out>` with `--dt auto`."""
    net = tr.call("crn.parse_crn", parse_crn, _read(crn_path))
    traj = replay_simulate_crn(tr, net, T, float(net.meta["h"]) / 20.0)
    text = tr.call("dae.Trajectory.to_csv", traj.to_csv)
    tr.count("dae.Trajectory.to_csv.cells", traj.values.size + traj.times.size)
    _write(out, text)
    return text


def replay_verify_cmd(tr: Tracer, cir: str, T: float, tol: float) -> str:
    """`verify <cir> -T <T> --tol <tol>`; returns the printed line."""
    net = tr.call("circuit.parse_netlist", parse_netlist, _read(cir))
    cfg = RunConfig(h=H, T=T, transient_discard=0.0)
    with tr.span("pipeline.verify_circuit"):
        compiled = replay_compile(tr, net, cfg)
        traj = replay_simulate_crn(tr, compiled.crn, T, cfg.resolve_dt())
        h_ref = cfg.h / 100.0
        ref = tr.call("dae.reference_solve", reference_solve, compiled.sys,
                      compiled.inp, compiled.x0, T, h_ref, max_points=400_000)
        tr.count("dae.reference_solve.steps", round(T / h_ref))
        err = tr.call("sim.sup_error", sup_error, traj, ref, compiled.sys.state_names)
    verdict = "PASS" if err <= tol else "FAIL"
    return f"sup_error={err:.6g} tol={tol:g} {verdict}\n"


def replay_freq_cmd(tr: Tracer, cir: str, omegas) -> str:
    """`freq <cir> --omega ...`; returns the printed CSV."""
    net = tr.call("circuit.parse_netlist", parse_netlist, _read(cir))
    cfg = RunConfig(h=H)
    rows = []
    with tr.span("pipeline.frequency_response"):
        src = net.sources()[0].name
        for omega in omegas:
            drive = Fourier(0.0, ((1.0, float(omega), 0.0),))
            compiled = replay_compile(tr, replace(net, source_waveforms={src: drive}), cfg)
            T = max(cfg.T, cfg.transient_discard + 2.2 * (2.0 * np.pi / omega))
            traj = replay_simulate_crn(tr, compiled.crn, T, cfg.resolve_dt())
            window = (cfg.transient_discard, T)
            out_name = compiled.sys.state_names[compiled.sys.output_index]
            fit_out = tr.call("sim.fit_sinusoid", fit_sinusoid, traj, out_name, omega, window)
            fit_in = tr.call("sim.fit_sinusoid", fit_sinusoid, traj, src, omega, window)
            gain = fit_out.amplitude / fit_in.amplitude
            phase = np.degrees(fit_out.phase - fit_in.phase)
            phase = (phase + 180.0) % 360.0 - 180.0
            rows.append((float(omega), float(gain), float(phase)))
    return freq_to_csv(rows)


def crn_content(text: str) -> list[str]:
    """Lines that carry species, reactions, rates, metadata and rail pairs.

    Block markers and the header comment differ between the two writers
    and are dropped.
    """
    return [ln for ln in text.splitlines()
            if not ln.startswith("#") or ln.startswith(("# meta ", "# diff "))]


# (metric, unit).  A ".s" metric is the seconds per op spent in the span of
# that name, ".self_s" the same less the span's children, and a metric with
# another suffix is the count of that name, except the few that `per_op`
# derives from spans and counts.
PER_LAYER = [
    ("circuit.build_dae.s", "s"),
    ("dae.check_regularity.s", "s"),
    ("dae.coupled_euler_map.s", "s"),
    ("dae.direct_map.s", "s"),
    ("dae.consistent_project.s", "s"),
    ("positivation.positivate.s", "s"),
    ("crn.emit_crn.s", "s"),
    ("crn.emit_crn.reactions", "count"),
    ("crn.union.s", "s"),
    ("crn.serialize_crn.s", "s"),
    ("crn.serialize_crn.bytes", "bytes"),
    ("crn.parse_crn.s", "s"),
    ("crn.mass_action_field.build_s", "s"),
    ("crn.mass_action_field.bytes", "bytes"),
    ("crn.field.eval_us", "us"),
    ("crn.field.calls", "count"),
    ("sim.integrate.self_s", "s"),
    ("sim.integrate.steps", "count"),
    ("dae.reference_solve.s", "s"),
    ("dae.reference_solve.steps", "count"),
    ("sim.recover_difference.s", "s"),
    ("sim.sup_error.s", "s"),
    ("dae.Trajectory.to_csv.s", "s"),
    ("dae.Trajectory.to_csv.cells", "count"),
    ("sim.fit_sinusoid.s", "s"),
    ("pipeline.compile_circuit.s", "s"),
    ("pipeline.compile_circuit.calls", "count"),
    ("pipeline.compile_circuit.unexplained_s", "s"),
    ("pipeline.simulate_crn.s", "s"),
    ("pipeline.verify_circuit.s", "s"),
    ("pipeline.frequency_response.s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_frac", "frac"),
]


def per_op(tr: Tracer) -> dict[int, dict[str, float]]:
    """Metric values of each traced op; a layer the op never called is left out."""
    children = {}
    for s in tr.spans:
        if s.parent is not None:
            children[s.parent] = children.get(s.parent, 0.0) + s.dur
    total, self_, probed = {}, {}, {}
    for idx, s in enumerate(tr.spans):
        key = (s.op, s.name)
        total[key] = total.get(key, 0.0) + s.dur
        self_[key] = self_.get(key, 0.0) + s.dur - children.get(idx, 0.0)
        if s.parent is not None and tr.spans[s.parent].name == "probe":
            probed[s.op] = probed.get(s.op, 0.0) + s.dur
    out = {}
    for op in tr.keys:
        vals = {}
        for metric, _ in PER_LAYER:
            if metric.endswith(".self_s"):
                v = self_.get((op, metric[: -len(".self_s")]))
            elif metric.endswith(".s"):
                v = total.get((op, metric[: -len(".s")]))
            else:
                v = tr.counts.get((op, metric))
            if v is not None:
                vals[metric] = v
        build = total.get((op, "crn.mass_action_field"))
        if build is not None:
            vals["crn.mass_action_field.build_s"] = build
        calls = tr.counts.get((op, "crn.field.calls"))
        if calls:
            vals["crn.field.eval_us"] = total[(op, FIELD)] / calls * 1e6
        compile_s = total.get((op, "pipeline.compile_circuit"))
        if compile_s is not None:
            vals["pipeline.compile_circuit.unexplained_s"] = compile_s - probed.get(op, 0.0)
        vals["command.s"] = total[(op, "command")] / 2.0  # it runs twice
        vals["trace.overhead_frac"] = total[(op, "cli.main")] / vals["command.s"] - 1.0
        states = tr.counts.get((op, "circuit.build_dae.states"))
        if states is not None:
            vals["states"] = states / vals["pipeline.compile_circuit.calls"]
        out[op] = vals
    return out


def layer_metrics(tr: Tracer) -> tuple[dict[str, float], dict[str, str]]:
    """Median over traced ops of each per-layer metric, and why any is absent.

    A layer's median is taken over the ops that called it; a layer that no
    op called reads 0 and is listed as absent.
    """
    ops = per_op(tr)
    metrics, absent = {}, {}
    for metric, _ in PER_LAYER:
        xs = [v[metric] for v in ops.values() if metric in v]
        metrics[metric] = statistics.median(xs) if xs else 0.0
        if not xs:
            absent[metric] = "not called by this workload's commands"
    return metrics, absent


def input_table(tr: Tracer, key_counts) -> dict[str, dict[str, float]]:
    """Per distinct input: sizes, compile time and field evaluation cost."""
    ops = per_op(tr)
    table = {}
    for key in sorted(set(tr.keys.values()), key=lambda k: (len(k), k)):
        vals = [ops[op] for op, k in tr.keys.items() if k == key]
        row = {}
        if key in key_counts:
            row["species"], row["reactions"] = key_counts[key]
        for name, metric in (("states", "states"), ("compile_s", "pipeline.compile_circuit.s"),
                             ("field_eval_us", "crn.field.eval_us"), ("op_s", "command.s")):
            xs = [v[metric] for v in vals if metric in v]
            if xs:
                row[name] = statistics.median(xs)
        table[key] = row
    return table
