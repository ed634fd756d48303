import numpy as np
import pytest

from circ2crn.dae import AffineOde, coupled_euler_map
from circ2crn.errors import ValidationError
from circ2crn.positivation import (
    RailSystem,
    hungarize,
    positivate,
    rail_field,
    split_initial,
)

from conftest import interleave


def _ode(a, b, names):
    return AffineOde(np.asarray(a, float), np.asarray(b, float), names, 0)


class TestPositivate:
    def test_rotation_sign_split(self):
        ode = _ode([[0.0, 1.0], [-1.0, 0.0]], [0.0, 0.0], ("u", "z"))
        rs = positivate(ode)
        assert np.array_equal(rs.aplus, [[0.0, 1.0], [0.0, 0.0]])
        assert np.array_equal(rs.aminus, [[0.0, 0.0], [1.0, 0.0]])
        assert np.all(rs.bplus == 0.0) and np.all(rs.bminus == 0.0)

    def test_nonnegative_system_has_empty_minus_parts(self):
        ode = _ode([[1.0, 2.0], [0.0, 3.0]], [0.5, 0.0], ("a", "b"))
        rs = positivate(ode)
        assert np.all(rs.aminus == 0.0) and np.all(rs.bminus == 0.0)

    def test_difference_recovers_source_exactly(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = rng.standard_normal((3, 3))
            b = rng.standard_normal(3)
            rs = positivate(_ode(a, b, ("x", "y", "z")))
            assert np.array_equal(rs.aplus - rs.aminus, a)
            assert np.array_equal(rs.bplus - rs.bminus, b)
            # input columns follow the state columns
            c = rng.standard_normal((3, 2))
            rs = positivate(_ode(a, b, ("x", "y", "z")), coupling=(c, ("u", "w")))
            assert np.array_equal(rs.aplus - rs.aminus, np.hstack([a, c]))

    def test_rl_circuit_block_reproduces_rate_pattern(self, rl_dc):
        # dt i+ = p vin+ + p i- ; dt vout+ = q vin+ + q i- + r vout- (and mirrors)
        _, sys, inp = rl_dc
        h = 0.01
        p, q, r = 1 / (1 + h), 1 / (h + h * h), 1 / h
        ax, bx = coupled_euler_map(sys, h)
        rs = positivate(
            AffineOde(ax, np.zeros(2), sys.state_names, 0),
            coupling=(bx, inp.input_names),
        )
        names = sys.state_names
        iv, ii = names.index("v2"), names.index("i_l1")
        # columns: the two states, then the input vin
        assert rs.aplus.shape == rs.aminus.shape == (2, 3)
        assert np.all(rs.aplus[:, :2] == 0.0)
        assert rs.aminus[iv, iv] == r
        assert rs.aminus[iv, ii] == q
        assert rs.aminus[ii, ii] == p
        assert rs.aminus[ii, iv] == 0.0
        assert rs.aplus[iv, 2] == q
        assert rs.aplus[ii, 2] == p
        assert np.all(rs.aminus[:, 2] == 0.0)

    def test_quadruple_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            RailSystem(
                np.array([[-1.0]]), np.zeros((1, 1)), np.zeros(1), np.zeros(1), ("x",)
            )
        with pytest.raises(ValueError):
            RailSystem(
                np.zeros((1, 2)), np.array([[0.0, -1.0]]), np.zeros(1), np.zeros(1),
                ("x",), ("u",),
            )

    def test_rail_system_rejects_input_column_mismatch(self):
        # one input name needs exactly one column after the state columns
        with pytest.raises(ValueError):
            RailSystem(np.zeros((1, 1)), np.zeros((1, 1)), np.zeros(1), np.zeros(1),
                       ("x",), ("u",))
        with pytest.raises(ValueError):
            positivate(_ode([[0.0]], [0.0], ("x",)), coupling=(np.zeros((2, 1)), ("u",)))


class TestSplitInitial:
    def test_mixed_signs(self):
        plus, minus = split_initial([1.0, -2.0, 0.0])
        assert np.array_equal(plus, [1.0, 0.0, 0.0])
        assert np.array_equal(minus, [0.0, 2.0, 0.0])

    def test_rl_consistent_initial_state(self):
        plus, minus = split_initial([0.0, 1.0])
        assert np.array_equal(plus, [0.0, 1.0])
        assert np.array_equal(minus, [0.0, 0.0])

    def test_difference_is_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            x = rng.standard_normal(5)
            plus, minus = split_initial(x)
            assert np.array_equal(plus - minus, x)
            assert np.all(plus >= 0.0) and np.all(minus >= 0.0)


class TestHungarize:
    def test_gamma_zero_equals_bare_positivation(self):
        ode = _ode([[-1.0, 0.5], [2.0, -3.0]], [1.0, -1.0], ("a", "b"))
        rs = positivate(ode)
        f0 = rail_field(hungarize(rs, 0.0))
        v = interleave([1.0, 2.0], [0.5, 0.25])
        # gamma = 0: field is exactly A+ x+ + A- x- + b+ (and mirror)
        xp, xm = np.array([1.0, 2.0]), np.array([0.5, 0.25])
        want_p = rs.aplus @ xp + rs.aminus @ xm + rs.bplus
        want_m = rs.aplus @ xm + rs.aminus @ xp + rs.bminus
        got = f0(v)
        assert np.allclose(got[0::2], want_p, atol=1e-15)
        assert np.allclose(got[1::2], want_m, atol=1e-15)

    def test_negative_gamma_rejected(self):
        rs = positivate(_ode([[0.0]], [0.0], ("x",)))
        with pytest.raises(ValueError):
            hungarize(rs, -1.0)

    def test_rl_annihilation_contribution(self, rl_dc):
        # at x+ = x- = (1,1) and vin rails (1,0): each Q term removes 100
        _, sys, inp = rl_dc
        h, gamma = 0.01, 100.0
        ax, bx = coupled_euler_map(sys, h)
        rs = positivate(
            AffineOde(ax, np.zeros(2), sys.state_names, 0),
            coupling=(bx, inp.input_names),
        )
        v = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 0.0])  # v2+-, i+-, vin+-
        bare = rail_field(hungarize(rs, 0.0))(v)
        damped = rail_field(hungarize(rs, gamma))(v)
        delta = damped - bare
        assert np.allclose(delta[:4], -gamma, atol=1e-12)
        assert np.all(delta[4:] == 0.0)

    def test_rail_names(self):
        hs = hungarize(positivate(_ode([[0.0]], [0.0], ("x",))), 1.0)
        assert hs.rail_names == ("x_p", "x_m")
        coupled = positivate(_ode([[0.0]], [0.0], ("x",)), coupling=([[1.0]], ("u",)))
        assert coupled.rail_names == ("x_p", "x_m", "u_p", "u_m")


class TestRailField:
    def test_zero_state_zero_offsets(self):
        hs = hungarize(positivate(_ode([[1.0, -1.0], [0.5, 0.0]], [0, 0], ("a", "b"))), 2.0)
        assert np.array_equal(rail_field(hs)(np.zeros(4)), np.zeros(4))

    def test_hand_evaluated_bare_positivation(self):
        # A = [[-1]]: A- = [[1]]; at x+ = 2, x- = 1: dx+ = 1, dx- = 2
        hs = hungarize(positivate(_ode([[-1.0]], [0.0], ("x",))), 0.0)
        got = rail_field(hs)(np.array([2.0, 1.0]))
        assert np.array_equal(got, [1.0, 2.0])

    def test_difference_is_gamma_invariant_pointwise(self):
        rng = np.random.default_rng(3)
        ode = _ode(rng.standard_normal((3, 3)), rng.standard_normal(3), ("a", "b", "c"))
        rs = positivate(ode)
        fields = {g: rail_field(hungarize(rs, g)) for g in (0.0, 1.0, 100.0)}
        for _ in range(100):
            v = rng.uniform(0.0, 2.0, 6)
            diffs = {g: f(v)[0::2] - f(v)[1::2] for g, f in fields.items()}
            assert np.max(np.abs(diffs[0.0] - diffs[1.0])) <= 1e-12
            assert np.max(np.abs(diffs[0.0] - diffs[100.0])) <= 1e-12

    def test_input_rails_are_read_not_written(self):
        # x' = -x + 2u: the input rails drive the state and stay put
        rs = positivate(_ode([[-1.0]], [0.0], ("x",)), coupling=([[2.0]], ("u",)))
        got = rail_field(rs)(np.array([1.0, 0.5, 3.0, 1.0]))
        assert np.array_equal(got, [0.5 + 6.0, 1.0 + 2.0, 0.0, 0.0])

    def test_dimension_mismatch(self):
        hs = hungarize(positivate(_ode([[0.0]], [0.0], ("x",))), 1.0)
        with pytest.raises(ValidationError, match="^expected rail vector of length 2$"):
            rail_field(hs)(np.zeros(3))
