import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings

from circ2crn import numerics
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
    grid_steps,
    reference_map,
    reference_solve,
)
from circ2crn.errors import NonFiniteState, SingularMatrix, ValidationError
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
        x0, flagged = consistent_project(sys, [0.0, -1.0], [0.0, 1.0])
        assert not flagged
        assert np.max(np.abs(x0 - [0.0, 1.0])) < 1e-5

    def test_inconsistent_point_projected_onto_constraint(self):
        sys = hand_rl_pencil()
        x0, flagged = consistent_project(sys, [0.0, -1.0], [0.0, 0.0])
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
            x0, flagged = consistent_project(sys, b, x)
            assert not flagged
            assert np.array_equal(x0, x)

    def test_fast_pure_ode_neither_moved_nor_flagged(self):
        # x' = 1000x moves 10 * h_tiny * (1 + |x|) in one tiny step
        sys = DaeSystem(np.eye(1), np.array([[1000.0]]), np.zeros((1, 0)), ("x",), 0)
        x0, flagged = consistent_project(sys, [0.0], [1.0])
        assert not flagged
        assert x0.tolist() == [1.0]


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
        inp = fourier_input(("u", 0.0, [(1.0, 1.0, 0.0)]))
        assert inp.m == 1 and inp.k == 2
        assert inp.u0[0] == 0.0
        assert np.array_equal(inp.z0, [0.0, 1.0])
        traj = integrate(
            AffineOde(inp.D, inp.d, inp.names, 0).field(), inp.init, 10.0, 1e-3,
            names=inp.names,
        )
        assert np.max(np.abs(traj.column("u") - np.sin(traj.times))) < 1e-6

    def test_constant_input(self):
        inp = fourier_input(("u", 2.0, []))
        assert inp.m == 1 and inp.k == 0
        assert inp.u0[0] == 2.0
        assert np.all(inp.D == 0.0) and np.all(inp.d == 0.0)

    def test_phase_and_offset(self):
        inp = fourier_input(("u", 1.5, [(2.0, 3.0, 0.7)]))
        assert inp.z0[0] == pytest.approx(np.sin(0.7))
        assert inp.z0[1] == pytest.approx(np.cos(0.7))
        assert inp.u0[0] == pytest.approx(1.5 + 2.0 * np.sin(0.7))

    def test_square_wave_sum_matches_trig_oracle(self):
        w0 = 1.0
        terms = [(4.0 / (j * np.pi), j * w0, 0.0) for j in (1, 3, 5, 7)]
        inp = fourier_input(("u", 0.0, terms))
        traj = integrate(
            AffineOde(inp.D, inp.d, inp.names, 0).field(), inp.init, 20.0, 1e-3,
            names=inp.names,
        )
        t = traj.times
        oracle = sum(beta * np.sin(om * t + ph) for beta, om, ph in terms)
        assert np.max(np.abs(traj.column("u") - oracle)) <= 1e-4

    def test_omega_validation(self):
        with pytest.raises(ValueError):
            fourier_input(("u", 0.0, [(1.0, -1.0, 0.0)]))

    @pytest.mark.parametrize("omega", [np.nan, np.inf])
    def test_non_finite_omega_is_rejected(self, omega, capfd):
        with pytest.raises(ValueError, match="positive and finite"):
            fourier_input(("u", 0.0, [(1.0, omega, 0.0)]))
        assert capfd.readouterr().err == ""

    def test_bad_omega_in_a_later_source_is_rejected(self):
        with pytest.raises(ValueError, match="positive and finite"):
            fourier_input(("a", 1.0, [(1.0, 1.0, 0.0)]), ("b", 0.0, [(1.0, 0.0, 0.0)]))

    def test_no_source_gives_the_empty_model(self):
        inp = fourier_input()
        assert inp.D.shape == (0, 0) and inp.init.shape == (0,) and inp.names == ()


def stepwise(sys, inp, x0, n_steps, h, stride=1):
    """Every stride-th iterate of the backward-Euler recursion, one step at a
    time, without the constant: the loop that reference_solve's blocked
    powers replace.  It steps reference_map's own one-step map, so the two
    differ only in how its powers are taken, not in how it is formed."""
    _, step, _ = reference_map(sys, inp, np.zeros(sys.n), h, 1)
    y = np.append(x0, 1.0)
    out = [y]
    for i in range(1, n_steps + 1):
        y = step @ y
        if i % stride == 0:
            out.append(y)
    return np.array(out)[:, :-1]


def assert_matches_stepwise(sys, inp, T, h, max_points=None):
    traj = reference_solve(sys, inp, np.zeros(sys.n), T, h, max_points)
    n_stored = len(traj.times) - 1
    stride = int(round(traj.times[1] / h)) if n_stored else 1
    want = stepwise(sys, inp, traj.values[0], n_stored * stride, h, stride)
    assert traj.values.shape == want.shape
    assert np.max(np.abs(traj.values - want)) <= 1e-10 * np.max(np.abs(want))


def table_block(sys, inp) -> int:
    """Iterates per product with the table of powers that reference_solve
    steps through (`numerics.propagate`)."""
    size = sys.n + inp.m + inp.k + 1
    return min(numerics._BLOCK_ROWS, numerics._TABLE_ENTRIES // size**2)


class TestReferenceSolve:
    def test_rl_dc_matches_closed_form(self, rl_dc):
        # i(t) = 1 - e^-t once the first step lands on the Kirchhoff row
        _, sys, inp = rl_dc
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
        assert len(traj.times) == grid_steps(T, h) + 1

    @pytest.mark.parametrize("T, h", [(1.0, 1.5), (np.inf, 1e-3), (1.0, np.nan)])
    def test_a_bad_horizon_is_refused_by_the_grid_rule(self, T, h):
        sys = DaeSystem(np.eye(1), -np.eye(1), np.zeros((1, 0)), ("y",), 0)
        inp = InputModel(np.zeros((0, 0)), np.zeros(0), np.zeros(0), np.zeros(0), (), ())
        with pytest.raises(ValueError, match=r"^need 0 < dt <= T, both finite$"):
            reference_solve(sys, inp, np.array([1.0]), T, h)

    def test_a_grid_over_the_row_cap_is_refused_before_allocating(self):
        # 1e16 steps: without the cap, numpy's MemoryError
        sys = DaeSystem(np.eye(1), -np.eye(1), np.zeros((1, 0)), ("y",), 0)
        inp = InputModel(np.zeros((0, 0)), np.zeros(0), np.zeros(0), np.zeros(0), (), ())
        with pytest.raises(ValueError, match=r"^T=1e\+12 needs 1e\+16 grid rows at "
                                             r"dt=0.0001, above the cap of 1e\+09$"):
            reference_solve(sys, inp, np.array([1.0]), 1e12, 1e-4)

    @pytest.mark.parametrize("dt", [0.0, -1.0, np.nan, np.inf])
    def test_reference_map_refuses_a_bad_step(self, dt):
        sys = DaeSystem(np.eye(1), -np.eye(1), np.zeros((1, 0)), ("y",), 0)
        inp = InputModel(np.zeros((0, 0)), np.zeros(0), np.zeros(0), np.zeros(0), (), ())
        with pytest.raises(ValueError, match="^h must be positive and finite$"):
            reference_map(sys, inp, np.array([1.0]), dt, 1)

    @pytest.mark.parametrize("h, stride", [
        (1e-4, 5),  # a grid row of five oracle steps
        (2e-3, 1),  # one step per grid row
    ], ids=["whole", "one"])
    def test_reference_map_steps_a_whole_grid_row(self, h, stride):
        # y' = -y: stride backward-Euler steps of h scale y by (1 + h)^-stride
        sys = DaeSystem(np.eye(1), -np.eye(1), np.zeros((1, 0)), ("y",), 0)
        inp = InputModel(np.zeros((0, 0)), np.zeros(0), np.zeros(0), np.zeros(0), (), ())
        _, phi, y0 = reference_map(sys, inp, np.array([1.0]), h, stride)
        assert (phi @ y0)[0] == pytest.approx((1.0 + h) ** -stride, rel=1e-14)

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
        # across two table products, and across the end of a block
        for steps in (2 * block + 1, numerics._BLOCK_ROWS + 1):
            assert_matches_stepwise(sys, inp, steps * 1e-3, 1e-3)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(rlc_netlists())
# a pencil of condition 9.5e3, where a map formed by np.linalg.solve rather
# than reference_map's invert(E - hA) @ E drifted 1.04e-10 of max|x| from it
# over 1 000 steps
@example("R G1 1 0 2.0\nR G2 2 0 2.0\nC C2 1 2 2.0\nR G3 3 0 2.0\nC C3 1 3 1.0\n"
         "I init 1 0 DC 1.0\nOUT 1\n")
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
        with pytest.raises(ValidationError, match="^no column named 'missing'$"):
            traj.column("missing")

    def test_monotone_times_enforced(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 0.0]), ("a",), np.zeros((2, 1)))


class TestGridSteps:
    """The one grid rule of every stepped run."""

    @pytest.mark.parametrize("T, dt", [
        (1.0, 0.0), (1.0, -1.0), (1.0, np.nan), (1.0, np.inf), (1.0, 1.5), (np.inf, 0.1),
    ], ids=["zero", "negative", "nan", "inf", "above_T", "infinite_T"])
    def test_a_bad_grid_gives_one_message(self, T, dt):
        with pytest.raises(ValueError, match=r"^need 0 < dt <= T, both finite$"):
            grid_steps(T, dt)

    @pytest.mark.parametrize("T, dt, steps", [
        (1.0, 1.0, 1), (1.0, 0.3, 4), (15.0, 3e-4, 50_001),
        (1e9 - 1.5, 1.0, 10**9 - 1), (1e9, 1.0, 10**9),  # just under and at the row cap
    ])
    def test_a_good_grid_gives_the_step_count(self, T, dt, steps):
        # 15 / 3e-4 is one ulp above 50 000, so T is reached after 50 001 steps
        assert grid_steps(T, dt) == steps

    @pytest.mark.parametrize("T, dt, message", [
        (1e12, 5e-4, "T=1e+12 needs 2e+15 grid rows at dt=0.0005"),
        (3e9, 2.0, "T=3e+09 needs 1500000000 grid rows at dt=2"),
        (1e9 + 0.5, 1.0, "T=1e+09 needs 1000000001 grid rows at dt=1"),
        (1e300, 1e-300, "T=1e+300 needs inf grid rows at dt=1e-300"),
    ], ids=["petabytes", "gigarows", "just_above", "infinite_quotient"])
    def test_a_grid_over_the_row_cap_gives_one_message(self, T, dt, message):
        with pytest.raises(ValueError) as exc_info:
            grid_steps(T, dt)
        assert str(exc_info.value) == f"{message}, above the cap of 1e+09"
