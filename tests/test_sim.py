import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings

from circ2crn import numerics, pipeline, sim
from circ2crn.circuit import Fourier, build_dae, parse_netlist
from circ2crn.crn import (
    Crn,
    Reaction,
    difference_system,
    mass_action_field,
    parse_crn,
    serialize_crn,
)
from circ2crn.dae import (
    AffineOde,
    DaeSystem,
    Trajectory,
    coupled_euler_map,
    e_invertible,
    fourier_input,
    grid_steps,
    reference_map,
    reference_solve,
    stepped,
)
from circ2crn.errors import NonFiniteState, ValidationError
from circ2crn.pipeline import (
    ORACLE_STEPS,
    RunConfig,
    compile_circuit,
    convergence_study,
    freq_to_csv,
    frequency_response,
    study_to_csv,
    verify_circuit,
)
from circ2crn.sim import (
    BLOWUP_LIMIT,
    check_dt,
    fit_sinusoid,
    integrate,
    linear_map,
    recover_difference,
    sup_error,
)

from conftest import (
    RC_LOWPASS,
    RL_DC,
    RL_SINE,
    TWO_CAP,
    interleave,
    materialised_study,
    rl_ladder,
    rlc_netlists,
    signed_ode,
    sine_input_2state,
)

# two sources, as in the CI example
TWO_SOURCES = ("V vin 1 0 FOURIER 0 1 1 0\nI ib 0 2 DC 0.5\nR r1 1 2 1\nL l1 2 0 1\n"
               "R r2 2 0 2\nOUT 2\n")


class TestIntegrate:
    def test_zero_field_constant(self):
        traj = integrate(lambda x: np.zeros_like(x), [1.0, 2.0], 1.0, 0.1, ("a", "b"))
        assert np.all(traj.values == [1.0, 2.0])
        assert traj.times[-1] >= 1.0

    def test_exponential_decay(self):
        traj = integrate(lambda x: -x, [1.0], 1.0, 1e-3)
        assert traj.values[-1, 0] == pytest.approx(np.exp(-1.0), abs=1e-9)

    def test_rotation_energy_conserved(self):
        inp = sine_input_2state()
        field = AffineOde(inp.D, inp.d, inp.names, 0).field()
        traj = integrate(field, [0.0, 1.0], 2 * np.pi, 1e-3, inp.names)
        u, z = traj.column("u"), traj.column("z")
        assert abs(np.interp(2 * np.pi, traj.times, u)) <= 1e-6
        assert np.max(np.abs(u**2 + z**2 - 1.0)) <= 1e-8

    def test_fourth_order_convergence(self):
        errs = []
        for dt in (1e-2, 5e-3):
            traj = integrate(lambda x: -x, [1.0], 1.0, dt)
            errs.append(abs(traj.values[-1, 0] - np.exp(-1.0)))
        assert errs[0] / errs[1] >= 12.0  # ideal factor 16 for order 4

    def test_blowup_aborts_with_time_and_partial(self):
        with pytest.raises(NonFiniteState) as exc_info:
            integrate(lambda x: 10.0 * x, [1.0], 10.0, 1e-2)
        exc = exc_info.value
        assert 0.0 < exc.time < 10.0
        assert isinstance(exc.partial, Trajectory)
        assert np.all(np.isfinite(exc.partial.values))

    def test_nan_field_aborts_at_first_step(self):
        with pytest.raises(NonFiniteState) as exc_info:
            integrate(lambda x: np.full_like(x, np.nan), [1.0, 2.0], 1.0, 0.1)
        exc = exc_info.value
        assert exc.time == 0.1
        assert np.array_equal(exc.partial.values, [[1.0, 2.0]])

    def test_dt_validation(self):
        with pytest.raises(ValueError):
            integrate(lambda x: x, [1.0], 1.0, 0.0)

    def test_a_grid_over_the_row_cap_is_refused_before_allocating(self):
        # 2e15 rows: without the cap, numpy's MemoryError
        with pytest.raises(ValueError, match=r"^T=1e\+12 needs 2e\+15 grid rows at "
                                             r"dt=0.0005, above the cap of 1e\+09$"):
            integrate(lambda x: -x, [1.0], 1e12, 5e-4)

    def test_a_table_over_the_table_cap_is_refused_before_allocating(self):
        # 1025 rows of 2**17 columns: under the row cap, one row above the
        # table cap, so the field is never called
        def never(x):
            raise AssertionError("stepped a table above the cap")

        with pytest.raises(ValueError, match=r"^a table of 1025 rows and 131072 columns holds "
                                             r"1.343e\+08 values, above the cap of 134217728$"):
            integrate(never, np.zeros(2**17), 1024.0, 1.0)

    def test_trajectory_equals_stepwise_loop_bitwise(self):
        inp = sine_input_2state()
        field = AffineOde(inp.D, inp.d, inp.names, 0).field()
        steps = 2 * numerics._BLOCK_ROWS + 7
        traj = integrate(field, [0.3, 1.0], steps * 0.01, 0.01)
        time, rows = rk4_stepwise(field, [0.3, 1.0], steps * 0.01, 0.01)
        assert time is None
        assert np.array_equal(traj.values, rows)

    @pytest.mark.parametrize(
        "kind", ["grow", "nan"], ids=["exceeds_limit", "turns_nan"]
    )
    @pytest.mark.parametrize(
        "step",
        ["first", "mid_block", "block_end", "block_start", "last"],
    )
    def test_blowup_matches_stepwise_loop_without_warnings(self, kind, step):
        rows = numerics._BLOCK_ROWS
        steps = 2 * rows + 5
        s = {"first": 1, "mid_block": rows // 2, "block_end": rows,
             "block_start": rows + 1, "last": steps}[step]
        if kind == "grow":
            # x0 rises by exactly 1 per step and first exceeds 1e12 at step s;
            # x1 decays alongside so the partial rows differ from each other
            x0 = [BLOWUP_LIMIT - s + 0.5, 1.0]

            def field(x):
                return np.array([1.0, -x[1]])
        else:
            # both rise by 1 per step; the first midpoint stage past the
            # threshold is x0's at step s
            x0 = [0.0, -1.0]

            def field(x):
                return np.where(x > s - 0.75, np.nan, 1.0)
        time, want = rk4_stepwise(field, x0, steps * 1.0, 1.0)
        assert time == s
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NonFiniteState) as exc_info:
                integrate(field, x0, steps * 1.0, 1.0, ("a", "b"))
        exc = exc_info.value
        assert exc.time == time
        assert exc.partial.names == ("a", "b")
        assert np.array_equal(exc.partial.times, np.arange(s) * 1.0)
        assert np.array_equal(exc.partial.values, want)

    def test_overflow_past_the_blowup_raises_no_warning(self):
        # 50x passes 1e12 within a few steps and overflows to inf well
        # before the end of the first checked block
        field = lambda x: 50.0 * x  # noqa: E731
        time, want = rk4_stepwise(field, [1.0], 100.0, 0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NonFiniteState) as exc_info:
                integrate(field, [1.0], 100.0, 0.1)
        assert exc_info.value.time == time
        assert np.array_equal(exc_info.value.partial.values, want)

    def test_stacked_networks_stop_at_the_earliest_blowup(self):
        # X -> 2X grows as exp(rate t): the faster network sets the time
        def growth(rate):
            return Crn(("X",), (Reaction(("X",), ("X", "X"), rate),), {"X": 1.0})

        slow, fast = growth(1.0), growth(3.0)
        times = []
        for nets in ((fast,), (slow, fast)):
            x0 = np.concatenate([net.initial_state() for net in nets])
            with pytest.raises(NonFiniteState) as exc_info:
                integrate(mass_action_field(*nets), x0, 50.0, 1e-3)
            times.append(exc_info.value.time)
        assert times[0] == times[1] == pytest.approx(np.log(1e12) / 3.0, abs=2e-3)

    def test_dt_rule_warning(self):
        with pytest.warns(RuntimeWarning):
            check_dt(0.01, 0.01)
        check_dt(0.0005, 0.01)  # compliant: no warning


class TestSimulateCrn:
    """simulate_crn fills one table, the rail differences included."""

    @staticmethod
    def ladder():
        return compile_circuit(parse_netlist(rl_ladder(8)), RunConfig()).crn

    def test_equals_the_species_table_with_recovered_differences(self):
        net = self.ladder()
        got = pipeline.simulate_crn(net, 1.0, 5e-4)
        species = integrate(mass_action_field(net), net.initial_state(), 1.0, 5e-4,
                            net.species)
        extra = recover_difference(species, [(p, m, out) for out, p, m in net.diffs])
        assert got.names == species.names + extra.names
        assert np.array_equal(got.times, species.times)
        assert np.array_equal(got.values, np.column_stack([species.values, extra.values]))

    def test_holds_one_table(self):
        net = self.ladder()
        tracemalloc.start()
        try:
            traj = pipeline.simulate_crn(net, 4.0, 5e-4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * traj.values.nbytes, (peak, traj.values.nbytes)

    def test_blowup_partial_carries_the_difference_columns(self):
        net = Crn(("x_p", "x_m"), (Reaction(("x_p",), ("x_p", "x_p"), 3.0),),
                  {"x_p": 1.0}, diffs=(("x", "x_p", "x_m"),))
        with pytest.raises(NonFiniteState) as exc_info:
            pipeline.simulate_crn(net, 50.0, 1e-3)
        partial = exc_info.value.partial
        assert partial.names == ("x_p", "x_m", "x")
        assert np.array_equal(partial.column("x"), partial.column("x_p") - partial.column("x_m"))


def drained(rows):
    """The rows of a stream in one array, and the time of the NonFiniteState
    that ends it, None without one."""
    blocks = []
    try:
        for block in rows.blocks:
            blocks.append(block)
    except NonFiniteState as exc:
        return np.concatenate(blocks), exc.time
    return np.concatenate(blocks), None


class TestMassActionRows:
    """`mass_action_rows` gives the rows of `rk4_rows` on the mass-action
    field bit for bit, blow-ups included."""

    @staticmethod
    def assert_equals_generic(nets, steps, dt):
        x0 = np.concatenate([net.initial_state() for net in nets])
        want = drained(sim.rk4_rows(mass_action_field(*nets), x0, steps, dt))
        got = drained(sim.mass_action_rows(nets, x0, steps, dt))
        assert got[1] == want[1]
        assert np.array_equal(got[0], want[0])
        return got

    @pytest.mark.filterwarnings("ignore:default initial state")
    @pytest.mark.parametrize("source", [RL_DC, RL_SINE, TWO_CAP, RC_LOWPASS, rl_ladder(20)],
                             ids=["rl_dc", "rl_sine", "two_cap", "rc_lowpass", "rl_ladder_20"])
    def test_compiled_networks(self, source):
        net = compile_circuit(parse_netlist(source), RunConfig()).crn
        steps = 2 * numerics._BLOCK_ROWS + 7
        rows, time = self.assert_equals_generic([net], steps, RunConfig().resolve_dt())
        assert time is None and len(rows) == steps + 1

    def test_readme_network_read_back_from_its_file(self):
        # README's hp.cir is RL_SINE; simulate reads its network from hp.crn
        net = parse_crn(serialize_crn(compile_circuit(parse_netlist(RL_SINE), RunConfig()).crn))
        self.assert_equals_generic([net], 2000, RunConfig().resolve_dt())

    @pytest.mark.parametrize("omegas", [[0.5], [0.5, 2.0], [0.5, 2.0, 3.0]],
                             ids=["B1", "B2", "B3"])
    def test_stacked_networks(self, omegas):
        # one structure; the rates of the source block differ with omega
        net = parse_netlist(RL_SINE)
        nets = [compile_circuit(replace(net, source_waveforms={"vin": Fourier(
            0.0, ((1.0, omega, 0.0),))}), RunConfig()).crn for omega in omegas]
        dt = RunConfig().resolve_dt()
        rows, _ = self.assert_equals_generic(nets, 700, dt)
        # each network's slice is its own run, bit for bit
        n = len(nets[0].species)
        for b, net in enumerate(nets):
            own, _ = drained(sim.mass_action_rows([net], net.initial_state(), 700, dt))
            assert np.array_equal(rows[:, b * n : (b + 1) * n], own)

    @pytest.mark.parametrize("text", [
        "species A B C\ninit A 1\ninit B 0.5\nA + B ->{3} C\n",
        "species A\ninit A 2\nA + A ->{3} A\n",
        "species A B\ninit A 1\ninit B 0.25\n",
        "# crn\n",
    ], ids=["bimolecular", "dimer", "no_reactions", "no_species"])
    def test_hand_written_networks(self, text):
        net = parse_crn(text)
        steps = 2 * numerics._BLOCK_ROWS + 7
        rows, _ = self.assert_equals_generic([net], steps, 1e-3)
        assert rows.shape == (steps + 1, len(net.species))

    def test_blowup_time_and_partial_rows(self):
        # a direct-mode RC with a time constant of 1e-4, five times below
        # dt = h/20: RK4 blows up within a few steps
        net = compile_circuit(parse_netlist("V vin 1 0 DC 1\nR r1 1 2 1\nC c1 2 0 1e-4\n"
                                            "OUT 2\n"), RunConfig()).crn
        rows, time = self.assert_equals_generic([net], 2000, RunConfig().resolve_dt())
        assert time == pytest.approx(0.002)
        assert len(rows) == 4

    @pytest.mark.filterwarnings("ignore:default initial state")
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(rlc_netlists())
    def test_generated_netlists(self, text):
        net = compile_circuit(parse_netlist(text), RunConfig()).crn
        self.assert_equals_generic([net], 60, RunConfig().resolve_dt())

    def test_refuses_a_state_of_the_wrong_size(self):
        net = parse_crn("species A B\ninit A 1\n")
        with pytest.raises(ValidationError, match="^expected 4 concentrations$"):
            sim.mass_action_rows([net, net], np.zeros(3), 5, 0.1)


class TestEulerStiffnessBound:
    """RK4 at h/20 rests on the Euler map's eigenvalues staying within 1/h:
    those of (E - hA)^-1 A are lambda / (1 - h lambda) for the finite
    eigenvalues of a passive pencil, and -1/h on the algebraic columns."""

    @pytest.mark.parametrize("text", [RL_DC, RL_SINE, rl_ladder(20), rl_ladder(60)],
                             ids=["rl_dc", "rl_sine", "ladder20", "ladder60"])
    @pytest.mark.parametrize("h", [0.001, 0.01, 0.1])
    def test_spectral_radius_within_one_over_h(self, text, h):
        sys, _ = build_dae(parse_netlist(text))
        assert not e_invertible(sys)
        fa, _ = coupled_euler_map(sys, h)
        assert np.max(np.abs(np.linalg.eigvals(fa))) * h <= 1 + 1e-9


class TestExactDifferences:
    """verify's exact propagation of the read-back difference law."""

    @staticmethod
    def exact(net, T, dt):
        phi, y0 = linear_map(*difference_system(parse_crn(serialize_crn(net))), dt)
        # each row holds the differences in the order of net.diffs, then the constant 1
        rows = stepped(phi, y0, grid_steps(T, dt), dt)
        return rows.collect(out for out, _, _ in net.diffs)

    @pytest.mark.parametrize("source, mode", [(RL_DC, "euler"), (TWO_CAP, "direct")],
                             ids=["rl_dc", "two_cap"])
    def test_agrees_with_fine_rk4_on_compiled_networks(self, source, mode):
        cfg = RunConfig(h=0.01)
        net = compile_circuit(parse_netlist(source), cfg).crn
        assert net.meta["mode"] == mode
        outs = tuple(out for out, _, _ in net.diffs)
        dt = cfg.resolve_dt()
        exact = self.exact(net, 2.0, dt)
        fine = pipeline.simulate_crn(net, 2.0, dt / 8)
        assert np.array_equal(exact.times, fine.times[::8])
        for name in outs:
            assert np.max(np.abs(exact.column(name) - fine.column(name)[::8])) <= 5e-8

    def test_rc_lowpass_sup_error_matches_fine_rk4(self):
        # R and C as verify_fixtures draws them at seed 1; an error-controlled
        # integrator at tolerance 1e-9 printed 2.48898e-05 here
        net = parse_netlist("V vin 1 0 DC 1\nR r1 1 2 0.816662\nC c1 2 0 0.904877\nOUT 2\n")
        cfg = RunConfig(T=10.0, transient_discard=0.0)
        compiled = compile_circuit(net, cfg)
        states = compiled.sys.state_names
        ref = reference_solve(compiled.sys, compiled.inp, compiled.x0, cfg.T, cfg.h / 100.0,
                              max_points=400_000)
        fine = pipeline.simulate_crn(compiled.crn, cfg.T, cfg.resolve_dt() / 8)
        fine = Trajectory(fine.times[::8], fine.names, fine.values[::8])
        assert "%.6g" % sup_error(fine, ref, states) == "2.48897e-05"
        assert "%.6g" % verify_circuit(net, cfg) == "2.48897e-05"


class TestStreamedVerify:
    """verify steps the artifact's law and the oracle as the two diagonal
    blocks of one map and folds the sup error over that one stream, block
    by block; it equals sup_error over the two tables each would fill."""

    @pytest.mark.parametrize("text", [RL_DC, RL_SINE, TWO_CAP, RC_LOWPASS],
                             ids=["rl_dc", "rl_sine", "two_cap", "rc_lowpass"])
    @pytest.mark.parametrize("T, hs", [
        (10.0, [0.01]),  # verify: five oracle steps of h/100 per grid row
        (10.0, [0.04, 0.02, 0.01]),  # a study: each row at its own h/100
        (3.0003, [0.01]),  # T not a multiple of dt: the last row is past T
    ], ids=["verify", "integral_study", "ragged_end"])
    def test_fold_equals_sup_error_of_the_tables(self, text, T, hs):
        net = parse_netlist(text)
        cfg = RunConfig(T=T, transient_discard=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got = convergence_study(net, cfg, hs)
            want = materialised_study(net, cfg, hs)
        assert [h for h, _ in got] == hs
        for (_, err), (_, ref) in zip(got, want):
            assert abs(err - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("text", [RL_DC, RL_SINE, TWO_SOURCES],
                             ids=["rl_dc", "hp", "two_sources"])
    def test_the_oracle_starts_from_the_artifacts_initial_state(self, text):
        # the oracle's row 0 is the read-back network's d(0) bit for bit, so
        # the gap at t = 0 is exactly zero
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            compiled = compile_circuit(parse_netlist(text), RunConfig())
        names, _, y_oracle = reference_map(compiled.sys, compiled.inp, compiled.x0,
                                           1e-4, ORACLE_STEPS)
        emitted = parse_crn(serialize_crn(compiled.crn))
        *_, d0 = difference_system(emitted)
        outs = [out for out, _, _ in emitted.diffs]
        assert y_oracle[-1] == 1.0
        assert np.array_equal(y_oracle[:-1], d0[[outs.index(name) for name in names]])

    @pytest.mark.parametrize("text", [RL_DC, RL_SINE, TWO_CAP, RC_LOWPASS, rl_ladder(20)],
                             ids=["rl_dc", "rl_sine", "two_cap", "rc_lowpass", "ladder_20"])
    @pytest.mark.parametrize("T", [10.0, 3.0003], ids=["whole", "ragged_end"])
    def test_both_streams_share_one_block_schedule(self, text, T):
        # at T = 3.0003 the grid's last row is past T, and the oracle's with it
        net, cfg = parse_netlist(text), RunConfig(T=T, transient_discard=0.0)
        dt, h_ref = cfg.resolve_dt(), cfg.h / 100.0
        steps, stride = grid_steps(T, dt), ORACLE_STEPS
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            compiled = compile_circuit(net, cfg)
            names, oracle, y_oracle = reference_map(compiled.sys, compiled.inp, compiled.x0,
                                                    h_ref, stride)
        law = difference_system(parse_crn(serialize_crn(compiled.crn)))
        artifact, y_artifact = linear_map(*law, dt)
        width = len(y_artifact)
        joint = list(numerics.propagate([artifact, oracle],
                                        np.concatenate([y_artifact, y_oracle]), steps, dt))
        # blocks of _BLOCK_ROWS rows and one of the rest, for the exact maps
        # and for RK4 (after its row 0) alike
        full, rest = divmod(steps, numerics._BLOCK_ROWS)
        want = [numerics._BLOCK_ROWS] * full + [rest] * (rest > 0)
        assert [[len(part) for part in parts] for parts in joint] == [[n, n] for n in want]
        rk4 = sim.rk4_rows(lambda x: -x, y_artifact, steps, dt)
        assert [len(block) for block in rk4.blocks] == [1] + want
        # each side's array is its own rows, and its own collected table
        mine, theirs = (np.concatenate(rows) for rows in zip(*joint))
        assert mine.shape[1] == width
        alone = stepped(artifact, y_artifact, steps, dt)
        assert np.array_equal(np.concatenate([y_artifact[None], mine]),
                              np.concatenate(list(alone.blocks)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            ref = reference_solve(compiled.sys, compiled.inp, compiled.x0,
                                  (steps * stride - 0.5) * h_ref, h_ref, max_points=steps)
        assert ref.names == names
        assert np.array_equal(np.concatenate([y_oracle[None], theirs])[:, :-1], ref.values)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got = verify_circuit(net, cfg)
            [(_, want)] = materialised_study(net, cfg, [cfg.h])
        assert abs(got - want) <= 1e-12 * want

    @staticmethod
    def scalar(rate):
        """x' = rate x as a DAE with one zero source, and its oracle input."""
        sys = DaeSystem([[1.0]], [[rate]], [[0.0]], ("x",), 0)
        return sys, fourier_input(("u", 0.0, ()))

    @pytest.mark.parametrize("artifact_rate, oracle_rate, time", [
        (200.0, -1.0, 3.549),  # only the artifact overflows
        (-1.0, 100.0, 7.0625),  # only the oracle overflows
        (200.0, 100.0, 3.549),  # the artifact first, then the oracle: the earlier
    ], ids=["200.0--1.0", "-1.0-100.0", "200.0-100.0"])
    def test_blowup_is_raised_at_the_time_of_the_tables(self, artifact_rate, oracle_rate,
                                                         time):
        self.assert_blowup_at_the_time_of_the_tables(artifact_rate, oracle_rate, 10.0, time)

    def test_blowup_of_the_collected_oracle_carries_the_rows_before_it(self):
        sys, inp = self.scalar(100.0)
        h, x0 = 1e-4, [1.0]
        with pytest.raises(NonFiniteState) as exc_info:
            reference_solve(sys, inp, x0, 7.1, h)
        exc = exc_info.value
        partial = exc.partial
        rows = len(partial.times)
        assert rows * h == exc.time < 7.1
        assert partial.names == ("x", "u")
        assert np.array_equal(partial.times, np.arange(rows) * h)
        assert np.all(np.isfinite(partial.values))
        # backward Euler: x[k] = x0 / (1 - 100 h)^k
        want = (1.0 - 100.0 * h) ** -np.arange(rows)
        assert np.allclose(partial.column("x"), want, rtol=1e-9, atol=0.0)

    def test_blowup_of_the_oracle_in_its_last_block_is_raised(self):
        # at t = 7.0625, inside the stream's last block
        self.assert_blowup_at_the_time_of_the_tables(-1.0, 100.0, 7.1, 7.0625)

    def assert_blowup_at_the_time_of_the_tables(self, artifact_rate, oracle_rate, T, time):
        """The joint stream of both maps raises the earlier of the times at
        which the two tables, each collected alone, blow up."""
        dt, h_ref, x0 = 5e-4, 1e-4, [1.0]
        sys, inp = self.scalar(oracle_rate)
        F, g = np.array([[artifact_rate]]), np.zeros(1)
        artifact, y_artifact = linear_map(F, g, x0, dt)
        _, oracle, y_oracle = reference_map(sys, inp, x0, h_ref, round(dt / h_ref))
        tables = []
        for make in (lambda: reference_solve(sys, inp, x0, T, h_ref, grid_steps(T, dt)),
                     lambda: stepped(artifact, y_artifact, grid_steps(T, dt), dt)
                     .collect(("x", "1"))):
            try:
                make()
            except NonFiniteState as exc:
                tables.append(exc.time)
        joint = numerics.propagate([artifact, oracle], np.concatenate([y_artifact, y_oracle]),
                                   grid_steps(T, dt), dt)
        with pytest.raises(NonFiniteState) as got:
            for _ in joint:
                pass
        assert got.value.time == min(tables)
        assert "%g" % got.value.time == "%g" % time

    def test_differences_out_of_state_order_are_a_fault(self, monkeypatch):
        # the fold reads the circuit states as the leading differences
        compile_circuit = pipeline.compile_circuit

        def reversed_diffs(net, cfg):
            compiled = compile_circuit(net, cfg)
            return replace(compiled, crn=replace(compiled.crn, diffs=compiled.crn.diffs[::-1]))

        monkeypatch.setattr(pipeline, "compile_circuit", reversed_diffs)
        with pytest.raises(AssertionError, match="do not lead with the circuit states"):
            verify_circuit(parse_netlist(RL_SINE), RunConfig(T=1.0))

    def test_memory_does_not_grow_with_the_horizon(self):
        net = parse_netlist(rl_ladder(3))
        peaks = []
        for T in (1.0, 8.0):
            tracemalloc.start()
            try:
                verify_circuit(net, RunConfig(T=T, transient_discard=0.0))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.2 * peaks[0], peaks

    def test_a_grid_over_the_row_cap_is_refused_before_stepping(self, rc_lowpass):
        net, _, _ = rc_lowpass
        cfg = RunConfig(T=1e12, transient_discard=0.0)
        with pytest.raises(ValueError, match=r"^T=1e\+12 needs 1e\+15 grid rows at dt=0.001, "
                                             r"above the cap of 1e\+09$"):
            convergence_study(net, cfg, [0.02, 0.01])

    @pytest.mark.parametrize("hs", [[0.0], [-1e-4], [float("nan")], [float("inf")],
                                    [0.02, float("nan")]],
                             ids=["0.0", "-0.0001", "nan", "inf", "0.02,nan"])
    def test_a_bad_h_is_refused_before_compiling(self, hs):
        # a singular pencil would raise SingularMatrix if it were compiled first
        net = parse_netlist("V a 1 0 DC 1\nV b 1 0 DC 2\nR r 1 0 1\nOUT 1\n")
        cfg = RunConfig(T=1.0, transient_discard=0.0)
        with pytest.raises(ValueError, match="^h must be positive and finite$"):
            convergence_study(net, cfg, hs)


def rk4_stepwise(field, x0, T, dt):
    """RK4 testing |x| <= 1e12 after every step, the loop `integrate` replaces.

    Returns the blow-up time (None without one) and the rows before it.
    """
    x = np.array(x0, dtype=float)
    rows = [x]
    half, sixth = 0.5 * dt, dt / 6.0
    for i in range(1, grid_steps(T, dt) + 1):
        k1 = field(x)
        k2 = field(x + half * k1)
        k3 = field(x + half * k2)
        k4 = field(x + dt * k3)
        x = x + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.max(np.abs(x)) <= BLOWUP_LIMIT:
            return i * dt, np.array(rows)
        rows.append(x)
    return None, np.array(rows)


class TestRecoverDifference:
    def _traj(self):
        times = np.array([0.0, 1.0])
        return Trajectory(times, ("a_p", "a_m"), np.array([[3.0, 1.0], [5.0, 2.0]]))

    def test_pointwise_difference(self):
        out = recover_difference(self._traj(), [("a_p", "a_m", "a")])
        assert out.names == ("a",)
        assert np.array_equal(out.column("a"), [2.0, 3.0])

    def test_identical_rails_give_zero(self):
        traj = Trajectory(
            np.array([0.0, 1.0]), ("x_p", "x_m"), np.array([[4.0, 4.0], [7.0, 7.0]])
        )
        out = recover_difference(traj, [("x_p", "x_m", "x")])
        assert np.all(out.column("x") == 0.0)

    def test_unknown_column(self):
        with pytest.raises(ValidationError, match="^no column named 'missing'$"):
            recover_difference(self._traj(), [("a_p", "missing", "a")])


class TestSupError:
    def test_identical_trajectories(self):
        t = Trajectory(np.array([0.0, 1.0]), ("a",), np.array([[1.0], [2.0]]))
        assert sup_error(t, t, ("a",)) == 0.0

    def test_constant_offset(self):
        ta = Trajectory(np.linspace(0, 1, 11), ("a",), np.ones((11, 1)))
        tb = Trajectory(np.linspace(0, 1, 5), ("a",), np.full((5, 1), 0.9))
        assert sup_error(ta, tb, ("a",)) == pytest.approx(0.1, abs=1e-12)

    def test_overlap_restriction(self):
        ta = Trajectory(np.linspace(0, 2, 21), ("a",), np.linspace(0, 2, 21)[:, None])
        tb = Trajectory(np.linspace(0, 1, 11), ("a",), np.linspace(0, 1, 11)[:, None])
        # identical on the shared interval [0, 1]
        assert sup_error(ta, tb, ("a",)) <= 1e-12


class TestFitSinusoid:
    def _traj(self, fn, T=4 * np.pi, dt=1e-3):
        t = np.arange(0.0, T + dt, dt)
        return Trajectory(t, ("y",), fn(t)[:, None])

    def test_unit_sine(self):
        fit = fit_sinusoid(self._traj(np.sin), "y", 1.0, (0.0, 4 * np.pi))
        assert fit.amplitude == pytest.approx(1.0, abs=1e-9)
        assert fit.phase == pytest.approx(0.0, abs=1e-9)
        assert fit.residual <= 1e-9

    def test_scaled_shifted_sine(self):
        fit = fit_sinusoid(
            self._traj(lambda t: 0.5 * np.sin(t + np.pi / 4)), "y", 1.0, (0.0, 4 * np.pi)
        )
        assert fit.amplitude == pytest.approx(0.5, abs=1e-9)
        assert fit.phase == pytest.approx(np.pi / 4, abs=1e-9)

    def test_offset_is_absorbed(self):
        fit = fit_sinusoid(
            self._traj(lambda t: 2.0 + 0.25 * np.sin(3 * t)), "y", 3.0, (0.0, 4 * np.pi)
        )
        assert fit.amplitude == pytest.approx(0.25, abs=1e-9)

    def test_window_too_short(self):
        with pytest.raises(ValidationError, match=r"^window \(0, 6.28319\) spans fewer than two "
                                                  r"periods of omega=1$"):
            fit_sinusoid(self._traj(np.sin), "y", 1.0, (0.0, 2 * np.pi))

    def test_a_window_of_one_sample_is_refused(self):
        traj = Trajectory(np.array([0.0, 50.0]), ("y",), np.array([[0.0], [1.0]]))
        with pytest.raises(ValidationError, match=r"^window \(20, 50\), sample count 1, "):
            fit_sinusoid(traj, "y", 1.0, (20.0, 50.0))

    def test_a_window_sampled_every_half_period_is_refused(self):
        # sin(wt) is zero at every sample: its coefficient is not determined
        traj = self._traj(np.sin, T=20 * np.pi, dt=np.pi)
        with pytest.raises(ValidationError, match="sample count 21, does not determine"):
            fit_sinusoid(traj, "y", 1.0, (0.0, 20 * np.pi))

    def test_window_outside_trajectory(self):
        with pytest.raises(ValueError):
            fit_sinusoid(self._traj(np.sin), "y", 1.0, (0.0, 100.0))

    @pytest.mark.parametrize("omega", [np.nan, np.inf])
    def test_non_finite_omega_is_rejected(self, omega, capfd):
        with pytest.raises(ValueError, match="positive and finite"):
            fit_sinusoid(self._traj(np.sin), "y", omega, (0.0, 4 * np.pi))
        assert capfd.readouterr().err == ""


def test_rail_difference_gamma_invariant_at_trajectory_level(rc_lowpass):
    """Integrated rail differences match the source ODE for gamma in {0, 1/h}.

    Uses the low-pass fixture, whose gentle rates keep the gamma = 0 rails
    finite over the whole window.
    """
    from circ2crn.positivation import hungarize, positivate, rail_field, split_initial

    _, sys, inp = rc_lowpass
    ode = signed_ode(sys, inp)
    full0 = np.concatenate([np.zeros(sys.n), inp.init])
    dt = 0.01 / 20
    direct = integrate(ode.field(), full0, 10.0, dt, names=ode.state_names)
    for gamma in (0.0, 100.0):
        hs = hungarize(positivate(ode), gamma)
        rails = integrate(
            rail_field(hs), interleave(*split_initial(full0)), 10.0, dt,
            names=hs.rail_names,
        )
        diff = recover_difference(
            rails, [(f"{nm}_p", f"{nm}_m", nm) for nm in ode.state_names]
        )
        assert sup_error(diff, direct, ode.state_names) <= 1e-9


class TestConvergenceStudy:
    def test_single_h_single_row(self, rc_lowpass):
        net, _, _ = rc_lowpass
        cfg = RunConfig(T=2.0, transient_discard=0.0)
        rows = convergence_study(net, cfg, [0.02])
        assert len(rows) == 1
        assert rows[0][0] == 0.02

    def test_requires_decreasing_hs(self, rc_lowpass):
        net, _, _ = rc_lowpass
        cfg = RunConfig(T=1.0, transient_discard=0.0)
        with pytest.raises(ValueError):
            convergence_study(net, cfg, [0.01, 0.02])

    def test_csv_shape(self):
        text = study_to_csv([(0.04, 0.5), (0.02, 0.25)])
        lines = text.splitlines()
        assert lines[0] == "h,sup_error"
        assert [float(tok) for tok in lines[1].split(",")] == [0.04, 0.5]
        assert [float(tok) for tok in lines[2].split(",")] == [0.02, 0.25]

    def test_rc_direct_path_error_is_h_independent(self, rc_lowpass):
        # E invertible: no h approximation, so the error never grows with h;
        # with a fine oracle the residual error stays below 1e-6
        net, _, _ = rc_lowpass
        cfg = RunConfig(T=10.0, transient_discard=0.0)
        rows = materialised_study(net, cfg, [0.04, 0.01], oracle_step=2e-6)
        errs = [err for _, err in rows]
        assert all(err <= 1e-6 for err in errs), errs


class TestCsvText:
    """The exact bytes of every table the commands write: a header line,
    then one line per row with each cell as %.17g."""

    def test_trajectory_with_difference_columns(self):
        rails = Trajectory(np.array([0.0, 0.1, 0.2]), ("x_p", "x_m"),
                           np.array([[0.0, -0.0], [1e300, 1e-300], [5e-324, 1.0 / 3.0]]))
        diff = recover_difference(rails, [("x_p", "x_m", "x")])
        table = Trajectory(rails.times, rails.names + diff.names,
                           np.column_stack([rails.values, diff.values]))
        assert table.to_csv() == (
            "t,x_p,x_m,x\n"
            "0,0,-0,0\n"
            "0.10000000000000001,1.0000000000000001e+300,1e-300,1.0000000000000001e+300\n"
            "0.20000000000000001,4.9406564584124654e-324,0.33333333333333331,"
            "-0.33333333333333331\n"
        )

    def test_trajectory_without_columns(self):
        table = Trajectory(np.array([0.0, 0.1]), (), np.zeros((2, 0)))
        assert table.to_csv() == "t\n0\n0.10000000000000001\n"

    def test_study_rows(self):
        assert study_to_csv([(0.04, 1.0 / 3.0), (0.02, 5e-324)]) == (
            "h,sup_error\n0.040000000000000001,0.33333333333333331\n"
            "0.02,4.9406564584124654e-324\n"
        )
        assert study_to_csv([]) == "h,sup_error\n"

    def test_freq_rows(self):
        assert freq_to_csv([(1.0, 0.70354, 44.142), (2.0, 1e-300, -0.0)]) == (
            "omega,gain,phase_deg\n1,0.70354000000000005,44.142000000000003\n"
            "2,1e-300,-0\n"
        )
        assert freq_to_csv([]) == "omega,gain,phase_deg\n"


class TestRunConfig:
    """Each field is checked on its own; only freq reads transient_discard."""

    @pytest.mark.parametrize("T", [0.0, -1.0, np.nan, np.inf])
    def test_bad_horizon(self, T):
        with pytest.raises(ValueError, match="^T must be positive and finite$"):
            RunConfig(T=T)

    @pytest.mark.parametrize("discard", [-1.0, np.nan, np.inf])
    def test_bad_transient_discard(self, discard):
        with pytest.raises(ValueError, match="^transient_discard must be finite"):
            RunConfig(transient_discard=discard)

    def test_horizon_below_the_discard_still_fits(self, rl_sine):
        # freq stretches its horizon to transient_discard + 2.2 periods
        cfg = RunConfig(h=0.05, T=1.0, transient_discard=5.0)
        [(_, gain, _)] = frequency_response(rl_sine[0], [3.0], cfg)
        assert 0.0 < gain < np.inf


class TestFrequencyResponse:
    """A sweep integrates its frequencies together; each row must equal a
    sweep of that frequency alone, byte for byte."""

    # at T = 50 the drive at omega = 0.2 needs T = 20 + 2.2 * 2pi / 0.2 ≈ 89
    CFG = RunConfig(h=0.05)

    def _one_at_a_time(self, net, omegas):
        rows = [row for w in omegas for row in frequency_response(net, [w], self.CFG)]
        return freq_to_csv(rows)

    def test_sweep_equals_one_frequency_runs(self, rl_sine):
        net = rl_sine[0]
        omegas = [0.2, 3.0, 1.1]
        got = freq_to_csv(frequency_response(net, omegas, self.CFG))
        assert got == self._one_at_a_time(net, omegas)

    def test_batches_split_by_the_entry_cap(self, rl_sine, monkeypatch):
        net = rl_sine[0]
        omegas = [3.0, 0.2, 1.1, 2.0]
        want = self._one_at_a_time(net, omegas)
        n = len(compile_circuit(net, self.CFG).crn.species)
        dt = self.CFG.resolve_dt()
        rows_50 = grid_steps(50.0, dt) + 1
        start = round(self.CFG.transient_discard / dt)
        assert start * dt == self.CFG.transient_discard
        # a batch stores two differences per kept row, and the cap is omega =
        # 0.2's own window: two networks fit over T = 50, but neither with it
        T_02 = self.CFG.transient_discard + 2.2 * (2.0 * np.pi / 0.2)
        cap = 2 * (grid_steps(T_02, dt) + 1 - start)
        assert 2 * 2 * (rows_50 - start) <= cap < 3 * 2 * (rows_50 - start)
        monkeypatch.setattr(pipeline, "_SWEEP_ENTRIES", cap)
        sizes = []

        def counted(nets, x0, steps, dt):
            sizes.append(len(x0))
            return sim.mass_action_rows(nets, x0, steps, dt)

        monkeypatch.setattr(pipeline, "mass_action_rows", counted)
        got = freq_to_csv(frequency_response(net, omegas, self.CFG))
        assert sizes == [n, n, 2 * n]
        assert got == want
        # two full tables of n species would exceed the cap, two windows do not
        assert 2 * n * rows_50 > cap
        sizes.clear()
        got = freq_to_csv(frequency_response(net, omegas[2:], self.CFG))
        assert sizes == [2 * n]
        assert got == freq_to_csv(frequency_response(net, omegas[2:3], self.CFG)
                                  + frequency_response(net, omegas[3:], self.CFG))

    @pytest.mark.parametrize("discard", [5.0, 5.001, 0.0],
                             ids=["on_grid", "off_grid", "zero"])
    def test_rows_equal_fits_over_the_full_table(self, rl_sine, discard):
        # each row the way a sweep computed it while it stored every species
        # of every row: one network, its whole table, the difference columns
        net, cfg = rl_sine[0], RunConfig(h=0.05, T=10.0, transient_discard=discard)
        omegas = [3.0, 0.9]
        dt = cfg.resolve_dt()
        want = []
        for omega in omegas:
            drive = Fourier(0.0, ((1.0, omega, 0.0),))
            compiled = compile_circuit(replace(net, source_waveforms={"vin": drive}), cfg)
            crn = compiled.crn
            T = max(cfg.T, discard + 2.2 * (2.0 * np.pi / omega))
            traj = integrate(mass_action_field(crn), crn.initial_state(), T, dt, crn.species)
            signal = recover_difference(traj, [(p, m, name) for name, p, m in crn.diffs])
            fit_out = fit_sinusoid(signal, "v2", omega, (discard, T))
            fit_in = fit_sinusoid(signal, "vin", omega, (discard, T))
            phase = np.degrees(fit_out.phase - fit_in.phase)
            want.append((omega, fit_out.amplitude / fit_in.amplitude,
                         (phase + 180.0) % 360.0 - 180.0))
        got = frequency_response(net, omegas, cfg)
        assert freq_to_csv(got) == freq_to_csv(want)

    def test_sweep_stops_at_the_earliest_blowup(self):
        # direct mode with a time constant of h/100: RK4 at h/20 blows up
        net = parse_netlist("V vin 1 0 DC 1\nR r1 1 2 1\nC c1 2 0 1e-4\nOUT 2\n")
        assert compile_circuit(net, RunConfig()).direct
        times = []
        for omegas in ([1.0], [2.0], [1.0, 2.0]):
            with pytest.raises(NonFiniteState) as exc_info:
                frequency_response(net, omegas, RunConfig())
            times.append(exc_info.value.time)
        assert times[2] == min(times[:2])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
    def test_every_omega_is_validated_before_any_compile(self, rl_sine, monkeypatch, bad):
        def no_compile(*args):
            raise AssertionError("compiled before validating every omega")

        monkeypatch.setattr(pipeline, "compile_circuit", no_compile)
        with pytest.raises(ValueError, match="positive and finite"):
            frequency_response(rl_sine[0], [1.0, bad], self.CFG)

    @pytest.mark.parametrize("omega, values", [(1e-4, 552920310), (0.01318, 4195150)],
                             ids=["tiny", "just_above"])
    def test_a_fit_window_over_the_entry_cap_is_refused_before_any_compile(
            self, rl_sine, monkeypatch, omega, values):
        def no_compile(*args):
            raise AssertionError("compiled before validating every omega")

        monkeypatch.setattr(pipeline, "compile_circuit", no_compile)
        with pytest.raises(ValueError) as exc_info:
            frequency_response(rl_sine[0], [1.0, omega], RunConfig())
        assert str(exc_info.value) == (f"omega={omega:g} needs {values} fit values at "
                                       f"h=0.01, above the cap of 4194304")

    @pytest.mark.parametrize("omegas, message", [
        ([1e-300], "omega=1e-300: T=1.3823e+301 needs 2.764601535e+304 grid rows at dt=0.0005, "
                   "above the cap of 1e+09"),
        # the period 2 pi / omega, and so T, is infinite
        ([1e-320], "omega=9.99989e-321: need 0 < dt <= T, both finite"),
        ([1.0, 1e-300], "omega=1e-300: T=1.3823e+301 needs 2.764601535e+304 grid rows at "
                        "dt=0.0005, above the cap of 1e+09"),
        ([1e-12], "omega=1e-12: T=1.3823e+13 needs 2.764601535e+16 grid rows at dt=0.0005, "
                  "above the cap of 1e+09"),
    ], ids=["tiny", "infinite_horizon", "after_a_good_one", "petabytes"])
    def test_a_grid_over_the_row_cap_is_refused_before_any_compile(
            self, rl_sine, monkeypatch, omegas, message):
        def no_compile(*args):
            raise AssertionError("compiled before validating every omega")

        monkeypatch.setattr(pipeline, "compile_circuit", no_compile)
        with pytest.raises(ValueError) as exc_info:
            frequency_response(rl_sine[0], omegas, RunConfig())
        assert str(exc_info.value) == message
