import numpy as np
import pytest
from hypothesis import given, settings

from circ2crn.circuit import Fourier, Netlist, build_dae, parse_netlist, source_models
from circ2crn.dae import reference_solve
from circ2crn.errors import ParseError, ValidationError

from conftest import (RL_DC, RL_SINE, TWO_CAP, RC_LOWPASS, hand_rl_pencil, rlc_netlists,
                      tableau_response)


class TestParse:
    def test_rl_highpass(self):
        net = parse_netlist(RL_DC)
        assert len(net.components) == 3
        assert net.output_spec == "2"
        assert net.source_waveforms["vin"] == Fourier(1.0)
        kinds = [c.kind for c in net.components]
        assert kinds == ["V", "R", "L"]

    def test_empty_is_parse_error(self):
        with pytest.raises(ParseError):
            parse_netlist("")

    def test_two_cap_topology(self):
        net = parse_netlist(TWO_CAP)
        assert [c.kind for c in net.components] == ["I", "C", "C", "R"]
        assert net.output_spec == "2"

    def test_fourier_source(self):
        net = parse_netlist("V s 1 0 FOURIER 0.5 1 2 0.25\nR r 1 0 1\nOUT 1\n")
        assert net.source_waveforms["s"] == Fourier(0.5, ((1.0, 2.0, 0.25),))

    def test_comments_and_case(self):
        net = parse_netlist("# a comment\nv vin 1 0 dc 1  # inline\nr r1 1 0 2\nout 1\n")
        assert len(net.components) == 2
        assert net.components[1].value == 2.0

    @pytest.mark.parametrize(
        "text",
        [
            "Q x 1 0 1\nOUT 1\n",  # unknown directive
            "R a 1 0 1\nR a 1 0 2\nOUT 1\n",  # duplicate name
            "R a 1 0 -1\nOUT 1\n",  # nonpositive value
            "R a 1 0 0\nOUT 1\n",
            "R a 1 0 abc\nOUT 1\n",  # bad number
            "V s 1 0 DC\nR r 1 0 1\nOUT 1\n",  # missing level
            "V s 1 0 FOURIER 0 1 2\nR r 1 0 1\nOUT 1\n",  # ragged triple
            "V s 1 0 FOURIER 0 1 -2 0\nR r 1 0 1\nOUT 1\n",  # omega <= 0
            "R a 1 0 1\nOUT 1\nOUT 1\n",  # duplicate OUT
            "R a 1 0 1\nOUT\n",
            "R a 1 0 inf\nOUT 1\n",  # non-finite numbers
            "V s 1 0 DC nan\nR r 1 0 1\nOUT 1\n",
            "V s 1 0 FOURIER 0 1 -inf 0\nR r 1 0 1\nOUT 1\n",
            "R a 1 0 1\nOUT 1+2\n",  # a node name the formats cannot carry
        ],
    )
    def test_parse_errors(self, text):
        with pytest.raises(ParseError) as exc_info:
            parse_netlist(text)
        assert exc_info.value.line_no >= 0

    @pytest.mark.parametrize("text,error,message", [
        ("V s 1 0\nR r 1 0 1\nOUT 1\n", ParseError,
         "line 1: V line needs: name n+ n- DC|FOURIER ..."),
        ("V s 1 0 SIN 1\nR r 1 0 1\nOUT 1\n", ParseError, "line 1: unknown source mode 'SIN'"),
        ("V s 1 0 DC 1\nR r 1 0 1\nOUT 9\n", ValidationError,
         "OUT references unknown node '9'"),
        ("V s 1 0 DC 1\nR r 1 0 1\nOUT 0\n", ValidationError, "output node must not be ground"),
    ], ids=["source_without_mode", "unknown_source_mode", "out_unknown_node", "out_ground"])
    def test_refusal_names_its_fault(self, text, error, message):
        with pytest.raises(error) as exc_info:
            build_dae(parse_netlist(text))
        assert str(exc_info.value) == message

    def test_non_finite_value_names_its_line(self):
        with pytest.raises(ParseError) as exc_info:
            parse_netlist("V s 1 0 DC 1\nR r1 1 2 inf\nR r2 2 0 1\nOUT 2\n")
        assert exc_info.value.line_no == 2
        assert "not finite" in str(exc_info.value)

    @pytest.mark.parametrize("bad", ["+", ",", "->{"])
    def test_component_name_the_formats_cannot_carry(self, bad):
        text = RL_SINE.replace("L l1", f"L l{bad}1")
        with pytest.raises(ParseError, match="component name") as exc_info:
            parse_netlist(text)
        assert exc_info.value.line_no == 3

    @pytest.mark.parametrize("bad", ["+", ",", "->{"])
    def test_node_name_the_formats_cannot_carry(self, bad):
        text = RL_SINE.replace(" 2", f" a{bad}b")
        with pytest.raises(ParseError, match="node name") as exc_info:
            parse_netlist(text)
        assert exc_info.value.line_no == 2

    def test_missing_out_is_validation_error(self):
        with pytest.raises(ValidationError, match="^missing OUT directive$"):
            parse_netlist("R a 1 0 1\n")

    def test_missing_ground(self):
        with pytest.raises(ValidationError,
                           match='^no component is connected to ground node "0"$'):
            parse_netlist("R a 1 2 1\nOUT 1\n")

    def test_disconnected_node(self):
        with pytest.raises(ValidationError) as exc_info:
            parse_netlist("R a 1 0 1\nR b 2 3 1\nOUT 1\n")
        assert "disconnected" in str(exc_info.value)


def _row_space_equivalent(sys, names, e2, a2, b2) -> bool:
    """True when [E|A|B] of sys (columns reordered to `names`) spans the
    same row space as the reference rows."""
    perm = [sys.state_names.index(nm) for nm in names]
    mine = np.hstack([sys.E[:, perm], sys.A[:, perm], sys.B])
    ref = np.hstack([e2, a2, b2])
    stacked = np.vstack([mine, ref])
    return (
        np.linalg.matrix_rank(stacked, tol=1e-10)
        == np.linalg.matrix_rank(mine, tol=1e-10)
        == np.linalg.matrix_rank(ref, tol=1e-10)
    )


class TestBuildDae:
    def test_rl_rows_match_textbook_pencil(self, rl_dc):
        _, sys, inp = rl_dc
        assert set(sys.state_names) == {"v2", "i_l1"}
        assert sys.state_names[sys.output_index] == "v2"
        hand = hand_rl_pencil()
        assert _row_space_equivalent(sys, ("i_l1", "v2"), hand.E, hand.A, hand.B)

    def test_rl_behavioral_equivalence(self, rl_dc):
        # same backward-Euler iterates as the hand-derived system
        from conftest import hand_rl_input_dc

        _, sys, inp = rl_dc
        mine = reference_solve(sys, inp, np.array([1.0, 0.0]), 5.0, 1e-3)
        hand = reference_solve(
            hand_rl_pencil(), hand_rl_input_dc(), np.array([0.0, 1.0]), 5.0, 1e-3
        )
        assert np.max(np.abs(mine.column("i_l1") - hand.column("i"))) < 1e-9
        assert np.max(np.abs(mine.column("v2") - hand.column("vout"))) < 1e-9

    def test_resistor_divider_is_algebraic(self):
        net = parse_netlist("V vin 1 0 DC 1\nR a 1 2 1\nR b 2 0 1\nOUT 2\n")
        sys, inp = build_dae(net)
        assert np.all(sys.E == 0.0)  # purely algebraic after elimination
        traj = reference_solve(sys, inp, np.zeros(sys.n), 1.0, 1e-2)
        assert traj.column("v2")[-1] == pytest.approx(0.5, abs=1e-9)

    def test_two_cap_rows_match_hand_derived_form(self, two_cap):
        _, sys, _ = two_cap
        e2 = np.array([[2.0, -1.0], [1.0, -1.0]])
        a2 = np.array([[0.0, 0.0], [0.0, 1.0]])
        b2 = np.array([[1.0], [0.0]])
        assert _row_space_equivalent(sys, ("v1", "v2"), e2, a2, b2)

    def test_rc_single_ode(self, rc_lowpass):
        _, sys, _ = rc_lowpass
        assert sys.state_names == ("v2",)
        assert sys.E[0, 0] == 1.0  # E invertible: no h approximation needed

    def test_superposition(self):
        results = []
        for level in (1.0, 2.5):
            net = parse_netlist(f"V vin 1 0 DC {level}\nR r1 1 2 1\nL l1 2 0 1\nOUT 2\n")
            sys, inp = build_dae(net)
            traj = reference_solve(sys, inp, np.zeros(2), 5.0, 1e-3)
            results.append(traj.values[:, :2])
        assert np.max(np.abs(results[1] - 2.5 * results[0])) < 1e-9

    def test_rl_algebraic_constraint_along_solution(self, rl_dc):
        # 0 = i + vout/R - vin/R at every accepted step
        _, sys, inp = rl_dc
        traj = reference_solve(sys, inp, np.zeros(2), 10.0, 1e-3)
        resid = traj.column("i_l1") + traj.column("v2") - traj.column("vin")
        assert np.max(np.abs(resid[1:])) <= 1e-6

    def test_zero_row_rejected(self):
        # second grounded source on an already-pinned node leaves a row empty
        text = "V a 1 0 DC 1\nV b 1 0 DC 2\nR r 1 2 1\nR r2 2 0 1\nOUT 2\n"
        with pytest.raises(ValidationError,
                           match=r"^stamping produced identically-zero pencil rows \[1\]$"):
            build_dae(parse_netlist(text))

    def test_two_node_out_unsupported(self):
        # rejected by the grammar now, before any DAE is built
        with pytest.raises(ParseError) as exc_info:
            parse_netlist("V vin 1 0 DC 1\nR a 1 2 1\nR b 2 3 1\nR c 3 0 1\nOUT 2 3\n")
        assert exc_info.value.line_no == 5

    def test_name_collision_rejected(self):
        net = parse_netlist("V v2 1 0 DC 1\nR r1 1 2 1\nL l1 2 0 1\nOUT 2\n")
        with pytest.raises(ValidationError, match="^state/input name collision: v2$"):
            build_dae(net)

    def test_source_models_per_source(self):
        net = parse_netlist(
            "V a 1 0 DC 2\nI b 0 2 FOURIER 0 1 3 0\nR r1 1 2 1\nR r2 2 0 1\nOUT 2\n"
        )
        models = source_models(net)
        assert [name for name, _ in models] == ["a", "b"]
        assert models[0][1].u0[0] == 2.0 and models[0][1].k == 0
        assert models[1][1].k == 2  # one oscillator pair


# Exact pencils, one per branch kind of the shared stamps, written by hand
# from E dx/dt = A x + B u with KCL rows in node order, then branch rows.
EXACT_PENCILS = {
    "floating V keeps its current": (
        "V s 1 2 DC 1\nR r1 1 0 1\nR r2 2 0 2\nOUT 2\n",
        ("v1", "v2", "i_s"),
        np.zeros((3, 3)),
        [[-1.0, 0.0, -1.0], [0.0, -0.5, 1.0], [1.0, -1.0, 0.0]],
        [[0.0], [0.0], [-1.0]],
    ),
    "V pinned through its negative terminal": (
        "V s 0 1 DC 1\nR r1 1 2 4\nC c1 2 0 3\nOUT 2\n",
        ("v2",),
        [[3.0]],
        [[-0.25]],
        [[-0.25]],
    ),
    "I source": (
        "I s 1 2 DC 1\nR r1 1 0 1\nR r2 2 0 2\nOUT 2\n",
        ("v1", "v2"),
        np.zeros((2, 2)),
        [[-1.0, 0.0], [0.0, -0.5]],
        [[-1.0], [1.0]],
    ),
    "C between two non-ground nodes": (
        "I s 0 1 DC 1\nC c1 1 2 3\nR r1 2 0 2\nOUT 2\n",
        ("v1", "v2"),
        [[3.0, -3.0], [-3.0, 3.0]],
        [[0.0, 0.0], [0.0, -0.5]],
        [[1.0], [0.0]],
    ),
    "R into a pinned node": (
        "V s 1 0 DC 1\nR r1 1 2 2\nR r2 2 0 4\nOUT 2\n",
        ("v2",),
        [[0.0]],
        [[-0.75]],
        [[0.5]],
    ),
    "L keeps its current": (
        "V s 1 0 DC 1\nR r1 1 2 1\nL l1 2 0 5\nOUT 2\n",
        ("v2", "i_l1"),
        [[0.0, 0.0], [0.0, 5.0]],
        [[-1.0, -1.0], [1.0, 0.0]],
        [[1.0], [0.0]],
    ),
}


@pytest.mark.parametrize("case", EXACT_PENCILS)
def test_exact_pencil(case):
    text, names, e, a, b = EXACT_PENCILS[case]
    sys, _ = build_dae(parse_netlist(text))
    assert sys.state_names == names
    assert np.array_equal(sys.E, e)
    assert np.array_equal(sys.A, a)
    assert np.array_equal(sys.B, b)


def test_output_node_outside_the_circuit_is_rejected():
    # parse_netlist rejects this OUT; a hand-built Netlist reaches build_dae
    net = parse_netlist("V s 1 0 DC 1\nR r1 1 2 1\nR r2 2 0 1\nOUT 2\n")
    with pytest.raises(ValidationError, match="'9' is not a circuit state"):
        build_dae(Netlist(net.components, "9", net.source_waveforms))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rlc_netlists())
def test_transfer_function_equals_the_sparse_tableau(text):
    # c (jwE - A)^-1 B of the stamped pencil against a tableau built from
    # the components alone: the stamp's pinned nodes, I-source signs and
    # V-source currents are checked by an oracle that does not share them
    net = parse_netlist(text)
    sys, _ = build_dae(net)
    for omega in (0.3, 1.0, 4.0):
        got = np.linalg.solve(1j * omega * sys.E - sys.A, sys.B)[sys.output_index]
        want = tableau_response(net, omega)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= max(1e-12 * scale, 1e-15), (omega, got, want)


class TestStackedInputModel:
    """The (u, z) layout that the oracle's stacked pencil and the circuit
    coupling read: every source value first, in netlist order, then each
    source's oscillator pairs in the same order."""

    THREE_SOURCES = (
        "V a 1 0 DC 2\n"
        "I b 0 2 FOURIER 0.5 1 2 0 3 4 0.7\n"
        "V c 3 0 FOURIER -1 2 0.5 0\n"
        "R r1 1 2 1\nR r2 2 3 1\nR r3 2 0 1\nOUT 2\n"
    )

    def test_three_sources_exact_layout(self):
        _, inp = build_dae(parse_netlist(self.THREE_SOURCES))
        assert inp.input_names == ("a", "b", "c")
        assert inp.aux_names == ("b_z1", "b_zb1", "b_z2", "b_zb2", "c_z1", "c_zb1")
        D = np.zeros((9, 9))
        D[1, 4], D[3, 4], D[4, 3] = 1.0 * 2.0, 2.0, -2.0  # b, term 1
        D[1, 6], D[5, 6], D[6, 5] = 3.0 * 4.0, 4.0, -4.0  # b, term 2
        D[2, 8], D[7, 8], D[8, 7] = 2.0 * 0.5, 0.5, -0.5  # c
        assert np.array_equal(inp.D, D)
        assert np.array_equal(inp.d, np.zeros(9))
        assert np.array_equal(inp.u0, [2.0, 0.5 + 3.0 * np.sin(0.7), -1.0])
        assert np.array_equal(
            inp.z0, [0.0, 1.0, np.sin(0.7), np.cos(0.7), 0.0, 1.0]
        )

    def test_each_source_block_is_its_own_model(self):
        net = parse_netlist(self.THREE_SOURCES)
        _, inp = build_dae(net)
        covered = np.zeros(inp.D.shape, dtype=bool)
        for name, model in source_models(net):
            idx = [inp.names.index(nm) for nm in model.names]
            assert np.array_equal(inp.D[np.ix_(idx, idx)], model.D)
            assert np.array_equal(inp.init[idx], model.init)
            assert np.array_equal(inp.d[idx], model.d)
            assert model.input_names == (name,)
            covered[np.ix_(idx, idx)] = True
        assert not inp.D[~covered].any()  # no coupling between sources

    def test_no_source_gives_the_empty_model(self):
        sys, inp = build_dae(parse_netlist("R r1 1 0 1\nC c1 1 0 1\nOUT 1\n"))
        assert sys.B.shape == (1, 0)
        assert inp.D.shape == (0, 0) and inp.d.shape == (0,)
        assert inp.m == 0 and inp.k == 0 and inp.names == ()

    @pytest.mark.parametrize("omega", [np.nan, np.inf, -1.0])
    def test_bad_omega_in_the_second_source_is_rejected(self, omega):
        # parse_netlist rejects these omegas; a hand-built Netlist reaches build_dae
        net = parse_netlist(self.THREE_SOURCES)
        waveforms = dict(net.source_waveforms, b=Fourier(0.0, ((1.0, omega, 0.0),)))
        with pytest.raises(ValueError, match="omega must be positive and finite"):
            build_dae(Netlist(net.components, net.output_spec, waveforms))


def test_nodes_keep_their_first_appearance_order():
    # node 3 appears before node 1, and the states follow the nodes
    net = parse_netlist("I s 0 3 DC 1\nR r1 3 1 2\nR r2 1 0 4\nC c1 3 0 1\nOUT 1\n")
    assert net.nodes() == ["0", "3", "1"]
    sys, _ = build_dae(net)
    assert sys.state_names == ("v3", "v1")
