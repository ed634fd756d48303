"""Acceptance suite: one test per numbered criterion.

Each test exercises the pipeline at the stated settings and tolerances and
prints a single pass/fail line (run with -s to see them stream).
"""

import time
import warnings

import numpy as np
import pytest

from circ2crn.circuit import build_dae, parse_netlist
from circ2crn.crn import CIRCUIT_BLOCK, emit_crn, mass_action_field, serialize_crn
from circ2crn.dae import (
    AffineOde,
    coupled_euler_map,
    direct_map,
    e_invertible,
    reference_solve,
)
from circ2crn.errors import NonFiniteState
from circ2crn.pipeline import (
    RunConfig,
    compile_circuit,
    frequency_response,
    simulate_crn,
    verify_circuit,
)
from circ2crn.positivation import hungarize, positivate, rail_field
from circ2crn.sim import integrate, sup_error

from conftest import (
    RL_DC,
    RL_SINE,
    TWO_CAP,
    RC_LOWPASS,
    block_reactions,
    circuit_block,
    materialised_study,
    signed_ode,
)

SQUARE_W0 = 0.4
SQUARE_TERMS = " ".join(
    f"{4 / (j * np.pi):.17g} {j * SQUARE_W0:.17g} 0" for j in (1, 3, 5, 7)
)
RL_SQUARE = f"V vin 1 0 FOURIER 0 {SQUARE_TERMS}\nR r1 1 2 1\nL l1 2 0 1\nOUT 2\n"

ALL_FIXTURES = {"rl": RL_DC, "rc": RC_LOWPASS, "two_cap": TWO_CAP}


@pytest.fixture(autouse=True)
def _quiet_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        yield


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def circuit_hungarization(sys, inp, h: float, gamma: float):
    """Circuit block: shifted (or direct) matrices with source-rail coupling."""
    if e_invertible(sys):
        ax, bx = direct_map(sys)
    else:
        ax, bx = coupled_euler_map(sys, h)
    ode = AffineOde(ax, np.zeros(sys.n), sys.state_names, sys.output_index)
    return hungarize(positivate(ode, coupling=(bx, inp.input_names)), gamma)


def test_c01_high_pass_gain_and_phase():
    """cmd_freq at the cutoff: gain 0.707 +- 0.03, phase 45 +- 3 degrees."""
    net = parse_netlist(RL_SINE)
    start = time.monotonic()
    [(_, gain, phase)] = frequency_response(net, [1.0], RunConfig())
    elapsed = time.monotonic() - start
    ok = 0.677 <= gain <= 0.737 and 42.0 <= phase <= 48.0 and elapsed <= 10.0
    report(1, ok, f"gain={gain:.4f} phase={phase:.2f}deg runtime={elapsed:.1f}s")


def test_c02_golden_crn():
    """Compiled RL high-pass circuit block is exactly the 12 textbook reactions."""
    h = 0.01
    p, q, r = 1 / (1 + h), 1 / (h + h * h), 1 / h
    gamma = r
    expected = {
        (("vin_p",), ("vin_p", "i_l1_p"), p),
        (("i_l1_m",), ("i_l1_m", "i_l1_p"), p),
        (("vin_m",), ("vin_m", "i_l1_m"), p),
        (("i_l1_p",), ("i_l1_p", "i_l1_m"), p),
        (("vin_p",), ("vin_p", "v2_p"), q),
        (("i_l1_m",), ("i_l1_m", "v2_p"), q),
        (("vin_m",), ("vin_m", "v2_m"), q),
        (("i_l1_p",), ("i_l1_p", "v2_m"), q),
        (("v2_m",), ("v2_m", "v2_p"), r),
        (("v2_p",), ("v2_p", "v2_m"), r),
        (("i_l1_p", "i_l1_m"), (), gamma),
        (("v2_p", "v2_m"), (), gamma),
    }
    compiled = compile_circuit(parse_netlist(RL_DC), RunConfig(h=h))
    got = {
        (rx.reactants, rx.products, rx.rate)
        for rx in block_reactions(compiled.crn, CIRCUIT_BLOCK)
    }
    canon = lambda triples: sorted(
        (tuple(sorted(a)), tuple(sorted(b)), rate) for a, b, rate in triples
    )
    ok = len(got) == 12 and canon(got) == canon(expected)
    report(2, ok, f"{len(got)} circuit reactions, exact rate match={canon(got) == canon(expected)}")


def test_c03_convergence_order():
    """Compiled-CRN error vs an oracle at step 1e-5 decreases with ratio >= 1.5."""
    cfg = RunConfig(T=10.0, transient_discard=0.0)
    rows = materialised_study(parse_netlist(RL_DC), cfg, [0.04, 0.02, 0.01], oracle_step=1e-5)
    errs = [err for _, err in rows]
    ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
    ok = (
        all(a > b for a, b in zip(errs, errs[1:]))
        and all(rat >= 1.5 for rat in ratios)
        and errs[-1] <= 0.02
    )
    report(3, ok, f"errors={[f'{e:.4f}' for e in errs]} ratios={[f'{r:.2f}' for r in ratios]}")


def test_c04_positivation_exactness():
    """Rail differences of the compiled CRN reproduce its signed ODE within 1e-9 on [0, 10]."""
    worst = {}
    for name, text in ALL_FIXTURES.items():
        compiled = compile_circuit(parse_netlist(text), RunConfig(h=0.01))
        ode = signed_ode(compiled.sys, compiled.inp, None if compiled.direct else compiled.h)
        full0 = np.concatenate([compiled.x0, compiled.inp.init])
        dt = compiled.h / 20
        direct = integrate(ode.field(), full0, 10.0, dt, names=ode.state_names)
        rails = simulate_crn(compiled.crn, 10.0, dt)
        worst[name] = sup_error(rails, direct, ode.state_names)
    ok = all(err <= 1e-9 for err in worst.values())
    report(4, ok, "sup diffs " + ", ".join(f"{k}={v:.2e}" for k, v in worst.items()))


def test_c05_boundedness_and_divergence():
    """gamma = 1/h keeps rails <= 10 on [0,100]; gamma = 0 escapes 1e3 by t=20."""
    net = parse_netlist(RL_DC)
    compiled = compile_circuit(net, RunConfig())
    traj = simulate_crn(compiled.crn, 100.0, compiled.h / 20)
    rails = [nm for nm in traj.names if nm.endswith(("_p", "_m"))]
    peak = max(float(np.max(traj.column(nm))) for nm in rails)
    floor = min(float(np.min(traj.column(nm))) for nm in rails)
    assert floor >= -1e-9, f"rail went negative: {floor}"

    compiled0 = compile_circuit(net, RunConfig(gamma=0.0))
    crossing = None
    try:
        traj0 = simulate_crn(compiled0.crn, 20.0, compiled0.h / 20)
        partial = traj0
    except NonFiniteState as exc:
        partial = exc.partial
    for nm in partial.names:
        col = partial.column(nm)
        above = np.nonzero(col > 1e3)[0]
        if above.size:
            t_first = float(partial.times[above[0]])
            crossing = t_first if crossing is None else min(crossing, t_first)
    ok = peak <= 10.0 and crossing is not None and crossing < 20.0
    report(5, ok, f"bounded peak={peak:.3f} (<=10); gamma=0 crosses 1e3 at t={crossing}")


def test_c06_mass_action_field_identity():
    """mass_action_field(emit_crn(H)) == rail_field(H) to 1e-12 everywhere."""
    rng = np.random.default_rng(20260810)
    cases = {}
    for name, text in ALL_FIXTURES.items():
        sys, inp = build_dae(parse_netlist(text))
        hs = circuit_hungarization(sys, inp, 0.01, 100.0)
        cases[name] = (emit_crn(hs, np.zeros(hs.n), np.zeros(hs.n)), hs)
    sine_inp = build_dae(parse_netlist(RL_SINE))[1]
    input_ode = AffineOde(sine_inp.D, sine_inp.d, sine_inp.names, 0)
    hs = hungarize(positivate(input_ode), 100.0)
    cases["sine-input"] = (emit_crn(hs, np.zeros(hs.n), np.zeros(hs.n)), hs)
    # the compiled union network against the signed ODE it implements
    compiled = compile_circuit(parse_netlist(RL_SINE), RunConfig(h=0.01))
    ode = signed_ode(compiled.sys, compiled.inp, compiled.h)
    cases["compiled"] = (compiled.crn, hungarize(positivate(ode), compiled.gamma))

    worst = {}
    for name, (net, hs) in cases.items():
        f_crn = mass_action_field(net)
        f_rail = rail_field(hs)
        # rail_field's vector order, as positions in the network's species
        order = [net.species.index(sp) for sp in hs.rail_names]
        err = 0.0
        for _ in range(100):
            state = rng.uniform(0.0, 2.0, len(net.species))
            err = max(err, float(np.max(np.abs(f_crn(state)[order] - f_rail(state[order])))))
        worst[name] = err
    ok = all(err <= 1e-12 for err in worst.values())
    report(6, ok, "max |crn - rail| " + ", ".join(f"{k}={v:.1e}" for k, v in worst.items()))


def test_c07_input_decoupling():
    """Circuit-reaction block is byte-identical for DC and sine sources."""
    cfg = RunConfig()
    block_dc = circuit_block(
        serialize_crn(compile_circuit(parse_netlist(RL_DC), cfg).crn)
    )
    block_sine = circuit_block(
        serialize_crn(compile_circuit(parse_netlist(RL_SINE), cfg).crn)
    )
    ok = block_dc == block_sine and len(block_dc.strip().splitlines()) == 12
    report(7, ok, f"{len(block_dc.strip().splitlines())} reaction lines, byte-identical={block_dc == block_sine}")


def test_c08_two_capacitor_circuit():
    """The non-semi-explicit circuit compiles and tracks its oracle."""
    net = parse_netlist(TWO_CAP)
    compiled = compile_circuit(net, RunConfig())  # raises if pencil singular
    sys, inp = compiled.sys, compiled.inp
    err = verify_circuit(net, RunConfig(T=10.0, transient_discard=0.0))

    ref = reference_solve(sys, inp, np.zeros(2), 10.0, 1e-4)
    h = ref.times[1] - ref.times[0]
    v1, v2, u = ref.column("v1"), ref.column("v2"), ref.column("is")
    dv1, dv2 = np.diff(v1) / h, np.diff(v2) / h
    resid = max(
        float(np.max(np.abs(2 * dv1 - dv2 - u[1:]))),
        float(np.max(np.abs(dv1 - dv2 - v2[1:]))),
    )
    ok = err <= 0.05 and resid <= 1e-8
    report(8, ok, f"compiled CRN sup_error={err:.2e} (<=0.05), row residual={resid:.1e} (<=1e-8)")


def test_c09_perfect_adaptation():
    """Square-wave drive: transients >= 50% of the step, return to baseline."""
    net = parse_netlist(RL_SQUARE)
    compiled = compile_circuit(net, RunConfig())
    period = 2 * np.pi / SQUARE_W0
    half = period / 2
    T = 3 * period
    traj = simulate_crn(compiled.crn, T, compiled.h / 20)
    t, vout = traj.times, traj.column("v2")
    step = 2.0  # input swings -1 -> +1
    peaks, returns = [], []
    for k in range(1, 5):  # settled cycle: skip the start-up edge
        te = k * half
        sgn = 1.0 if k % 2 == 0 else -1.0  # rising edges at even k
        m_trans = (t >= te) & (t <= te + 5.0)
        m_probe = (t >= te + 5.0) & (t <= te + 5.2)
        peaks.append(float(np.max(sgn * vout[m_trans])))
        returns.append(float(np.max(np.abs(vout[m_probe]))))
    ok = all(p >= 0.5 * step for p in peaks) and all(r <= 0.1 * step for r in returns)
    report(9, ok, f"min signed peak={min(peaks):.3f} (>=1.0), max return={max(returns):.3f} (<=0.2)")


def test_c10_rc_low_pass():
    """Direct single-ODE path: DC gain 1 +- 0.01 and gain <= 0.15 at 10/RC."""
    net = parse_netlist(RC_LOWPASS)
    compiled = compile_circuit(net, RunConfig())
    assert compiled.direct, "RC low-pass should take the direct (E invertible) path"
    traj = simulate_crn(compiled.crn, 12.0, compiled.h / 20)
    dc_gain = float(traj.column("v2")[-1]) / 1.0

    sine = parse_netlist(RC_LOWPASS.replace("DC 1", "FOURIER 0 1 10 0"))
    cfg = RunConfig(h=0.01, T=25.0, transient_discard=10.0)
    [(_, hf_gain, _)] = frequency_response(sine, [10.0], cfg)
    ok = abs(dc_gain - 1.0) <= 0.01 and hf_gain <= 0.15
    report(10, ok, f"dc_gain={dc_gain:.4f} (1+-0.01), gain@10/RC={hf_gain:.4f} (<=0.15)")
