import numpy as np
import pytest

from circ2crn.dae import AffineOde, Trajectory
from circ2crn.errors import NonFiniteState, UnknownColumn, WindowTooShort
from circ2crn.pipeline import RunConfig, convergence_study, freq_to_csv, study_to_csv
from circ2crn.sim import (
    check_dt,
    fit_sinusoid,
    integrate,
    recover_difference,
    sup_error,
)

from conftest import interleave, signed_ode, sine_input_2state


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

    def test_dt_rule_warning(self):
        with pytest.warns(RuntimeWarning):
            check_dt(0.01, 0.01)
        check_dt(0.0005, 0.01)  # compliant: no warning


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
        with pytest.raises(UnknownColumn):
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
        with pytest.raises(WindowTooShort):
            fit_sinusoid(self._traj(np.sin), "y", 1.0, (0.0, 2 * np.pi))

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
        rows = convergence_study(net, cfg, [0.04, 0.01], h_ref=2e-6)
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
