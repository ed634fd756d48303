import warnings

import numpy as np
import pytest
from hypothesis import given, settings

from circ2crn import dae
from circ2crn.circuit import build_dae, parse_netlist
from circ2crn.dae import (
    AffineOde,
    DaeSystem,
    InputModel,
    Trajectory,
    check_regularity,
    consistent_project,
    coupled_euler_map,
    default_h_probes,
    fourier_input,
    reference_solve,
    stacked_pencil,
    step_count,
)
from circ2crn.errors import NonFiniteState, SingularMatrix, UnknownColumn
from circ2crn.sim import integrate

from conftest import hand_rl_pencil, rl_ladder, rlc_netlists

PROBES = default_h_probes(0)


class TestRegularity:
    def test_rl_pencil_is_regular(self):
        # det(E - hA) = -h - h^2, nonzero for every probe
        assert check_regularity(hand_rl_pencil(), PROBES)

    def test_purely_algebraic_regular(self):
        sys = DaeSystem(np.zeros((2, 2)), np.eye(2), np.zeros((2, 0)), ("a", "b"), 0)
        assert check_regularity(sys, PROBES)

    def test_singular_pencil(self):
        sys = DaeSystem(
            np.zeros((2, 2)), np.ones((2, 2)), np.zeros((2, 0)), ("a", "b"), 0
        )
        assert not check_regularity(sys, PROBES)

    def test_probe_validation(self):
        sys = hand_rl_pencil()
        with pytest.raises(ValueError):
            check_regularity(sys, [])
        with pytest.raises(ValueError):
            check_regularity(sys, [1.5])

    def test_default_probes_deterministic(self):
        assert default_h_probes(7) == default_h_probes(7)
        assert len(PROBES) == 8
        assert all(1e-4 < h < 0.5 for h in PROBES)


class TestConsistentProject:
    def test_consistent_point_untouched(self):
        sys = hand_rl_pencil()
        x0, flagged = consistent_project(sys, [0.0, -1.0], [0.0, 1.0], 1e-6)
        assert not flagged
        assert np.max(np.abs(x0 - [0.0, 1.0])) < 1e-5

    def test_inconsistent_point_projected_onto_constraint(self):
        sys = hand_rl_pencil()
        x0, flagged = consistent_project(sys, [0.0, -1.0], [0.0, 0.0], 1e-6)
        assert flagged
        # projected point satisfies 0 = i + vout - vin exactly
        assert abs(x0[0] + x0[1] - 1.0) < 1e-12

    def test_invertible_e_never_flagged(self):
        # no algebraic row: every state is consistent and stays where it is
        e = np.array([[2.0, 0.0], [0.0, 1.0]])
        a = np.array([[-1.0, 0.5], [0.0, -2.0]])
        sys = DaeSystem(e, a, np.zeros((2, 0)), ("a", "b"), 0)
        b = np.array([1.0, -1.0])
        for x in ([0.0, 0.0], [3.0, -4.0], [100.0, 2.0]):
            x0, flagged = consistent_project(sys, b, x, 1e-5)
            assert not flagged
            assert np.array_equal(x0, x)

    def test_fast_pure_ode_neither_moved_nor_flagged(self):
        # x' = 1000x moves 10 * h_tiny * (1 + |x|) in one tiny step
        sys = DaeSystem(np.eye(1), np.array([[1000.0]]), np.zeros((1, 0)), ("x",), 0)
        x0, flagged = consistent_project(sys, [0.0], [1.0], 1e-6)
        assert not flagged
        assert x0.tolist() == [1.0]

    def test_h_tiny_validation(self):
        with pytest.raises(ValueError):
            consistent_project(hand_rl_pencil(), [0.0, 0.0], [0.0, 0.0], 1e-3)


class TestBackwardEulerMap:
    """F_h(x) = (E - hA)^-1 (A x + B u) through coupled_euler_map."""

    def test_rl_map_matches_symbolic_form(self):
        # F_h(i, vout) = ((vin-i)/(1+h), (vin-i-(1+h) vout)/(h(1+h)))
        h, vin = 0.037, 1.0
        ax, bx = coupled_euler_map(hand_rl_pencil(), h)
        for point in ([0.0, 0.0], [0.3, -0.2], [1.0, 1.0]):
            i, vout = point
            got = ax @ point + bx @ [vin]
            want = [
                (vin - i) / (1 + h),
                (vin - i - (1 + h) * vout) / (h * (1 + h)),
            ]
            assert np.max(np.abs(got - np.array(want))) < 1e-9

    def test_evaluation_at_origin_h001(self):
        ax, bx = coupled_euler_map(hand_rl_pencil(), 0.01)
        got = ax @ [0.0, 0.0] + bx @ [1.0]
        assert got[0] == pytest.approx(0.99009900990099009, abs=1e-15)
        assert got[1] == pytest.approx(99.009900990099013, abs=1e-12)

    def test_trivial_zero_map(self):
        sys = DaeSystem(np.eye(2), np.zeros((2, 2)), np.zeros((2, 0)), ("a", "b"), 0)
        for h in (0.5, 0.01):
            ax, bx = coupled_euler_map(sys, h)
            assert np.all(ax == 0.0) and bx.shape == (2, 0)

    def test_singular_shift_raises(self):
        sys = DaeSystem(
            np.zeros((2, 2)), np.ones((2, 2)), np.zeros((2, 0)), ("a", "b"), 0
        )
        with pytest.raises(SingularMatrix):
            coupled_euler_map(sys, 0.1)


class TestFourierInput:
    def test_pure_sine_embedding(self):
        inp = fourier_input(0.0, [(1.0, 1.0, 0.0)])
        assert inp.m == 1 and inp.k == 2
        assert inp.u0[0] == 0.0
        assert np.array_equal(inp.z0, [0.0, 1.0])
        traj = integrate(
            AffineOde(inp.D, inp.d, inp.names, 0).field(), inp.init, 10.0, 1e-3,
            names=inp.names,
        )
        assert np.max(np.abs(traj.column("u") - np.sin(traj.times))) < 1e-6

    def test_constant_input(self):
        inp = fourier_input(2.0, [])
        assert inp.m == 1 and inp.k == 0
        assert inp.u0[0] == 2.0
        assert np.all(inp.D == 0.0) and np.all(inp.d == 0.0)

    def test_phase_and_offset(self):
        inp = fourier_input(1.5, [(2.0, 3.0, 0.7)])
        assert inp.z0[0] == pytest.approx(np.sin(0.7))
        assert inp.z0[1] == pytest.approx(np.cos(0.7))
        assert inp.u0[0] == pytest.approx(1.5 + 2.0 * np.sin(0.7))

    def test_square_wave_sum_matches_trig_oracle(self):
        w0 = 1.0
        terms = [(4.0 / (j * np.pi), j * w0, 0.0) for j in (1, 3, 5, 7)]
        inp = fourier_input(0.0, terms)
        traj = integrate(
            AffineOde(inp.D, inp.d, inp.names, 0).field(), inp.init, 20.0, 1e-3,
            names=inp.names,
        )
        t = traj.times
        oracle = sum(beta * np.sin(om * t + ph) for beta, om, ph in terms)
        assert np.max(np.abs(traj.column("u") - oracle)) <= 1e-4

    def test_omega_validation(self):
        with pytest.raises(ValueError):
            fourier_input(0.0, [(1.0, -1.0, 0.0)])

    @pytest.mark.parametrize("omega", [np.nan, np.inf])
    def test_non_finite_omega_is_rejected(self, omega, capfd):
        with pytest.raises(ValueError, match="positive and finite"):
            fourier_input(0.0, [(1.0, omega, 0.0)])
        assert capfd.readouterr().err == ""


def stepwise(sys, inp, x0, n_steps, h, stride=1):
    """Every stride-th iterate of the backward-Euler recursion, one step at a
    time: the loop that reference_solve's blocked powers replace."""
    stacked, b = stacked_pencil(sys, inp)
    inv = np.linalg.inv(stacked.E - h * stacked.A)
    step_m, step_c = inv @ stacked.E, h * (inv @ b)
    x, out = x0, [x0]
    for i in range(1, n_steps + 1):
        x = step_m @ x + step_c
        if i % stride == 0:
            out.append(x)
    return np.array(out)


def assert_matches_stepwise(sys, inp, T, h, max_points=None):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # projected x0
        traj = reference_solve(sys, inp, np.zeros(sys.n), T, h, max_points)
    n_stored = len(traj.times) - 1
    stride = int(round(traj.times[1] / h)) if n_stored else 1
    want = stepwise(sys, inp, traj.values[0], n_stored * stride, h, stride)
    assert traj.values.shape == want.shape
    assert np.max(np.abs(traj.values - want)) <= 1e-10 * np.max(np.abs(want))


def table_block(sys, inp) -> int:
    """Iterates per block of reference_solve's table of powers."""
    return dae._TABLE_ENTRIES // (sys.n + inp.m + inp.k + 1) ** 2


class TestReferenceSolve:
    def test_rl_dc_matches_closed_form(self, rl_dc):
        # i(t) = 1 - e^-t for the projected initial state
        _, sys, inp = rl_dc
        with pytest.warns(RuntimeWarning):
            traj = reference_solve(sys, inp, np.zeros(2), 10.0, 1e-4)
        assert traj.column("i_l1")[-1] == pytest.approx(1 - np.exp(-10), abs=1e-3)
        assert abs(traj.column("v2")[-1]) < 1e-3

    def test_pure_algebraic_constant(self):
        sys = DaeSystem(np.zeros((2, 2)), -np.eye(2), np.eye(2), ("a", "b"), 0)
        inp = InputModel(
            np.zeros((2, 2)), np.zeros(2), np.array([1.0, 2.0]), np.zeros(0),
            ("u1", "u2"), (),
        )
        traj = reference_solve(sys, inp, np.array([1.0, 2.0]), 1.0, 1e-2)
        assert np.max(np.abs(traj.column("a") - 1.0)) < 1e-12
        assert np.max(np.abs(traj.column("b") - 2.0)) < 1e-12

    def test_algebraic_row_residual_stays_small(self, two_cap):
        _, sys, inp = two_cap
        traj = reference_solve(sys, inp, np.zeros(2), 10.0, 1e-3)
        # backward difference of the stored iterates satisfies both rows
        h = traj.times[1] - traj.times[0]
        v1, v2, u = traj.column("v1"), traj.column("v2"), traj.column("is")
        dv1, dv2 = np.diff(v1) / h, np.diff(v2) / h
        assert np.max(np.abs(2 * dv1 - dv2 - u[1:])) <= 1e-8
        assert np.max(np.abs(dv1 - dv2 - v2[1:])) <= 1e-8

    def test_rl_algebraic_row_consistency_preserved(self, rl_dc):
        # the Kirchhoff row 0 = i + vout - vin holds along the iterates
        _, sys, inp = rl_dc
        with pytest.warns(RuntimeWarning):
            traj = reference_solve(sys, inp, np.zeros(2), 10.0, 1e-3)
        resid = traj.column("i_l1") + traj.column("v2") - traj.column("vin")
        assert np.max(np.abs(resid[1:])) <= 1e-8

    def test_euler_map_trajectory_converges_first_order(self, rl_dc):
        # integrating the shifted ODE tracks the DAE with O(h) error
        _, sys, inp = rl_dc
        x0 = np.array([1.0, 0.0])
        ref = reference_solve(sys, inp, x0, 10.0, 1e-5, max_points=200_000)
        errs = []
        for h in (0.04, 0.02, 0.01):
            ax, bx = coupled_euler_map(sys, h)
            ode = AffineOde(ax, bx @ inp.u0, sys.state_names, sys.output_index)
            traj = integrate(ode.field(), x0, 10.0, h / 20, names=sys.state_names)
            errs.append(
                max(
                    float(np.max(np.abs(
                        traj.column(nm)
                        - np.interp(traj.times, ref.times, ref.column(nm))
                    )))
                    for nm in sys.state_names
                )
            )
        assert errs[0] > errs[1] > errs[2]
        assert errs[0] / errs[1] >= 1.5 and errs[1] / errs[2] >= 1.5

    def test_shifted_matrix_approaches_direct_form(self, two_cap):
        # invertible E: (E - hA)^-1 A -> E^-1 A as h shrinks
        from circ2crn.dae import direct_map

        _, sys, _ = two_cap
        exact = direct_map(sys)[0]
        gaps = [
            float(np.max(np.abs(coupled_euler_map(sys, h)[0] - exact)))
            for h in (1e-2, 1e-3, 1e-4)
        ]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_strided_output_matches_dense(self, rl_dc):
        _, sys, inp = rl_dc
        x0 = np.array([1.0, 0.0])
        dense = reference_solve(sys, inp, x0, 1.0, 1e-3)
        sparse = reference_solve(sys, inp, x0, 1.0, 1e-3, max_points=100)
        stride = (len(dense.times) - 1) // (len(sparse.times) - 1)
        assert np.allclose(dense.values[::stride], sparse.values, atol=1e-11)

    @pytest.mark.parametrize("T, h", [(1.0, 0.3), (15.0, 3e-4)])
    def test_stores_the_integrator_step_count(self, T, h):
        # 15 / 3e-4 is one ulp above 50 000, so T is reached after 50 001 steps
        sys = DaeSystem(np.eye(1), -np.eye(1), np.zeros((1, 0)), ("y",), 0)
        inp = InputModel(np.zeros((0, 0)), np.zeros(0), np.zeros(0), np.zeros(0), (), ())
        traj = reference_solve(sys, inp, np.array([1.0]), T, h)
        assert len(traj.times) == step_count(T, h) + 1

    def test_blowup_raises_non_finite(self):
        sys = DaeSystem(
            np.eye(1), np.array([[1000.0]]), np.zeros((1, 0)), ("x",), 0
        )
        inp = InputModel(np.zeros((0, 0)), np.zeros(0), np.zeros(0), np.zeros(0), (), ())
        with pytest.raises(NonFiniteState):
            reference_solve(sys, inp, np.array([1.0]), 10.0, 1e-4)

    def test_blowup_time_matches_stepping_without_warnings(self):
        sys = DaeSystem(
            np.eye(1), np.array([[1000.0]]), np.zeros((1, 0)), ("x",), 0
        )
        inp = InputModel(np.zeros((0, 0)), np.zeros(0), np.zeros(0), np.zeros(0), (), ())
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NonFiniteState) as exc_info:
                reference_solve(sys, inp, np.array([1.0]), 1000.0, 1e-4)
        # (1 - 0.1)^-n first exceeds the float range at n = 6737
        assert exc_info.value.time == pytest.approx(0.6737)

    def test_pure_ode_starts_at_its_initial_state_without_warning(self):
        sys = DaeSystem(np.eye(1), -np.eye(1), np.zeros((1, 0)), ("y",), 0)
        inp = InputModel(np.zeros((0, 0)), np.zeros(0), np.zeros(0), np.zeros(0), (), ())
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            traj = reference_solve(sys, inp, np.array([1.0]), 1.0, 1e-3)
        assert traj.column("y")[0] == 1.0

    def test_unstable_mode_at_zero_stays_zero(self):
        # the powers of the unstable mode overflow inside the first block,
        # but stepping keeps a zero component exactly zero
        sys = DaeSystem(
            np.eye(2), np.diag([1000.0, -1.0]), np.zeros((2, 0)), ("x", "y"), 0
        )
        inp = InputModel(np.zeros((0, 0)), np.zeros(0), np.zeros(0), np.zeros(0), (), ())
        traj = reference_solve(sys, inp, np.array([0.0, 1.0]), 2.0, 1e-4)
        assert np.all(traj.column("x") == 0.0)
        y = traj.column("y")
        assert np.allclose(y, y[0] * (1 + 1e-4) ** -np.arange(len(y)), rtol=1e-12)

    @pytest.mark.parametrize(
        "blocks, extra", [(0, 1), (0.5, 0), (1, 0), (2, 0), (2, 1)],
        ids=["one_step", "half_block", "one_block", "two_blocks", "two_blocks_plus_one"],
    )
    def test_block_boundaries_match_stepwise(self, rl_sine, blocks, extra):
        _, sys, inp = rl_sine
        n_steps = int(blocks * table_block(sys, inp)) + extra
        assert_matches_stepwise(sys, inp, n_steps * 1e-3, 1e-3)

    def test_strided_output_matches_stepwise(self, rl_sine):
        _, sys, inp = rl_sine
        assert_matches_stepwise(sys, inp, 10.0, 1e-3, max_points=300)

    @pytest.mark.parametrize(
        "fixture, k", [("rc_lowpass", 0), ("rl_dc", 0), ("two_cap", 0), ("rl_sine", 0),
                       (None, 20), (None, 60)]
    )
    def test_stacked_sizes_match_stepwise(self, request, fixture, k):
        if fixture is None:
            sys, inp = build_dae(parse_netlist(rl_ladder(k)))
        else:
            _, sys, inp = request.getfixturevalue(fixture)
        block = table_block(sys, inp)
        if k == 60:
            assert block == 4
        assert_matches_stepwise(sys, inp, (2 * block + 1) * 1e-3, 1e-3)


@settings(max_examples=40, deadline=None)
@given(rlc_netlists())
def test_reference_solve_matches_stepwise_on_random_netlists(text):
    sys, inp = build_dae(parse_netlist(text))
    assert_matches_stepwise(sys, inp, 1.0, 1e-3)


class TestTrajectory:
    def test_csv_format(self):
        traj = Trajectory(np.array([0.0, 0.5]), ("a", "b"),
                          np.array([[1.0, 2.0], [3.0, 1.0 / 3.0]]))
        text = traj.to_csv()
        lines = text.splitlines()
        assert lines[0] == "t,a,b"
        assert lines[1] == "0,1,2"
        assert lines[2].startswith("0.5,3,0.333333333333333")

    def test_unknown_column(self):
        traj = Trajectory(np.array([0.0]), ("a",), np.array([[1.0]]))
        with pytest.raises(UnknownColumn):
            traj.column("missing")

    def test_monotone_times_enforced(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 0.0]), ("a",), np.zeros((2, 1)))
