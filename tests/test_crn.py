import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circ2crn.circuit import build_dae, parse_netlist
from circ2crn.crn import (
    CIRCUIT_BLOCK,
    Crn,
    Reaction,
    emit_crn,
    mass_action_field,
    parse_crn,
    serialize_crn,
    union,
)
from circ2crn.dae import AffineOde, coupled_euler_map
from circ2crn.errors import (
    DimensionMismatch,
    InitConflict,
    NegativeInit,
    ParseError,
    UnknownSpecies,
)
from circ2crn.pipeline import RunConfig, compile_circuit
from circ2crn.positivation import hungarize, positivate, rail_field

from conftest import rl_ladder, rlc_netlists, signed_ode


def rl_circuit_hungarization(sys, inp, h, gamma):
    ax, bx = coupled_euler_map(sys, h)
    rs = positivate(
        AffineOde(ax, np.zeros(sys.n), sys.state_names, sys.output_index),
        coupling=(bx, inp.input_names),
    )
    return hungarize(rs, gamma)


def expected_rl_triples(h):
    """The ten catalytic reactions plus two annihilations, rates p, q, r, gamma."""
    p, q, r = 1 / (1 + h), 1 / (h + h * h), 1 / h
    gamma = r
    return {
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


def canonical(reactions):
    return sorted(
        (tuple(sorted(r.reactants)), tuple(sorted(r.products)), r.rate)
        for r in reactions
    )


class TestEmit:
    def test_rl_golden_reactions(self, rl_dc):
        _, sys, inp = rl_dc
        h = 0.01
        hs = rl_circuit_hungarization(sys, inp, h, 1 / h)
        net = emit_crn(hs, np.array([1.0, 0.0]), np.zeros(2))
        assert len(net.reactions) == 12
        want = sorted(
            (tuple(sorted(a)), tuple(sorted(b)), rate)
            for a, b, rate in expected_rl_triples(h)
        )
        assert canonical(net.reactions) == want

    def test_zero_system_empty(self):
        hs = hungarize(
            positivate(AffineOde(np.zeros((2, 2)), np.zeros(2), ("a", "b"), 0)), 0.0
        )
        net = emit_crn(hs, np.zeros(2), np.zeros(2))
        assert net.reactions == ()
        assert net.species == ("a_p", "a_m", "b_p", "b_m")

    def test_rc_lowpass_subnetwork(self, rc_lowpass):
        # q = r = 1/RC arcs between vin and vout rails only
        _, sys, inp = rc_lowpass
        ax, bx = np.linalg.inv(sys.E) @ sys.A, np.linalg.inv(sys.E) @ sys.B
        rs = positivate(
            AffineOde(ax, np.zeros(1), sys.state_names, 0),
            coupling=(bx, inp.input_names),
        )
        net = emit_crn(hungarize(rs, 100.0), np.zeros(1), np.zeros(1))
        got = canonical(net.reactions)
        assert got == canonical(
            [
                Reaction(("v2_m",), ("v2_m", "v2_p"), 1.0),
                Reaction(("v2_p",), ("v2_p", "v2_m"), 1.0),
                Reaction(("vin_p",), ("vin_p", "v2_p"), 1.0),
                Reaction(("vin_m",), ("vin_m", "v2_m"), 1.0),
                Reaction(("v2_p", "v2_m"), (), 100.0),
            ]
        )

    def test_reaction_count_formula(self, rl_dc):
        _, sys, inp = rl_dc
        hs = rl_circuit_hungarization(sys, inp, 0.01, 100.0)
        # A+ and A- hold the state columns and the input column alike
        nnz = np.count_nonzero(hs.aplus) + np.count_nonzero(hs.aminus)
        want = 2 * nnz + np.count_nonzero(hs.bplus) + np.count_nonzero(hs.bminus)
        want += hs.n  # gamma > 0: one annihilation per state
        net = emit_crn(hs, np.zeros(2), np.zeros(2))
        assert len(net.reactions) == want == 12

    def test_negative_init_rejected(self, rl_dc):
        _, sys, inp = rl_dc
        hs = rl_circuit_hungarization(sys, inp, 0.01, 100.0)
        with pytest.raises(NegativeInit):
            emit_crn(hs, np.array([-1.0, 0.0]), np.zeros(2))

    def test_gamma_zero_omits_annihilations(self, rl_dc):
        _, sys, inp = rl_dc
        hs = rl_circuit_hungarization(sys, inp, 0.01, 0.0)
        net = emit_crn(hs, np.zeros(2), np.zeros(2))
        assert len(net.reactions) == 10
        assert all(len(r.reactants) == 1 for r in net.reactions)


class TestMassActionField:
    def test_zero_order_production(self):
        net = Crn(("X",), (Reaction((), ("X",), 2.0),))
        field = mass_action_field(net)
        assert field(np.array([5.0]))[0] == 2.0

    def test_binary_annihilation(self):
        net = Crn(("X", "Y"), (Reaction(("X", "Y"), (), 1.0),))
        out = mass_action_field(net)(np.array([3.0, 2.0]))
        assert np.array_equal(out, [-6.0, -6.0])

    def test_catalysis_leaves_catalyst_unchanged(self):
        net = Crn(("A", "B"), (Reaction(("A",), ("A", "B"), 2.5),))
        out = mass_action_field(net)(np.array([2.0, 7.0]))
        assert np.array_equal(out, [0.0, 5.0])

    def test_homodimer_is_a_square(self):
        net = Crn(("A", "B"), (Reaction(("A", "A"), ("B",), 1.5),))
        out = mass_action_field(net)(np.array([3.0, 1.0]))
        assert np.array_equal(out, [-2 * 1.5 * 9.0, 1.5 * 9.0])

    def test_swapped_binary_orders_add(self):
        net = Crn(
            ("A", "B", "C"),
            (Reaction(("A", "B"), ("C",), 2.0), Reaction(("B", "A"), (), 3.0)),
        )
        out = mass_action_field(net)(np.array([2.0, 5.0, 0.0]))
        assert np.array_equal(out, [-50.0, -50.0, 20.0])

    def test_products_repeating_a_reactant(self):
        # A + B -> A + A: A gains one, B loses one, both at rate * a * b
        net = Crn(("A", "B"), (Reaction(("A", "B"), ("A", "A"), 0.5),))
        out = mass_action_field(net)(np.array([2.0, 3.0]))
        assert np.array_equal(out, [3.0, -3.0])

    def test_ternary_reaction_rejected(self):
        net = Crn(("A",), (Reaction(("A", "A", "A"), (), 1.0),))
        with pytest.raises(ValueError, match="up to binary"):
            mass_action_field(net)

    def test_wrong_state_length_rejected(self):
        field = mass_action_field(Crn(("A", "B"), (Reaction(("A",), (), 1.0),)))
        with pytest.raises(DimensionMismatch):
            field(np.ones(3))

    def test_field_equals_rail_field(self, rl_dc):
        _, sys, inp = rl_dc
        hs = rl_circuit_hungarization(sys, inp, 0.01, 100.0)
        net = emit_crn(hs, np.zeros(2), np.zeros(2))
        crn_field = mass_action_field(net)
        hs_field = rail_field(hs)
        rng = np.random.default_rng(42)
        for _ in range(100):
            state = rng.uniform(0.0, 2.0, len(net.species))
            assert np.max(np.abs(crn_field(state) - hs_field(state))) <= 1e-12

    def test_unknown_species_rejected_at_construction(self):
        with pytest.raises(UnknownSpecies):
            Crn(("X",), (Reaction(("Y",), ("X",), 1.0),))


class TestUnion:
    def _simple(self, name, init=1.0):
        return Crn((name,), (Reaction((name,), (name, name), 1.0),), {name: init})

    def test_empty_identity(self):
        x = self._simple("X")
        assert union(x, Crn((), ())) == x
        assert serialize_crn(union(Crn((), ()), x)) == serialize_crn(x)

    def test_associative_on_serialized_forms(self):
        a, b, c = self._simple("A"), self._simple("B"), self._simple("C")
        left = union(union(a, b), c)
        right = union(a, union(b, c))
        assert serialize_crn(left) == serialize_crn(right)

    def test_shared_species_merge(self):
        a = Crn(("X", "Y"), (Reaction(("X",), ("X", "Y"), 1.0),), {"X": 1.0})
        b = Crn(("X",), (Reaction(("X",), (), 2.0),), {"X": 1.0})
        merged = union(a, b)
        assert merged.species == ("X", "Y")
        assert len(merged.reactions) == 2

    def test_init_conflict(self):
        a = Crn(("X",), (), {"X": 1.0})
        b = Crn(("X",), (), {"X": 2.0})
        with pytest.raises(InitConflict):
            union(a, b)

    def test_blocks_concatenate(self):
        a = Crn(("X",), (Reaction(("X",), (), 1.0),), blocks=((CIRCUIT_BLOCK, 1),))
        b = Crn(("Y",), (Reaction(("Y",), (), 2.0),), blocks=(("input reactions y", 1),))
        assert union(a, b).blocks == ((CIRCUIT_BLOCK, 1), ("input reactions y", 1))
        # unmarked reactions may lead, but not follow a marked block
        assert union(Crn(("Y",), b.reactions), a).blocks == a.blocks
        with pytest.raises(ValueError):
            union(a, Crn(("Y",), b.reactions))

    def test_partial_init_is_not_a_conflict(self):
        a = Crn(("X",), ())  # no init statement for X
        b = Crn(("X",), (), {"X": 2.0})
        assert union(a, b).init == {"X": 2.0}


NON_FINITE = ("nan", "inf", "-inf")


class TestSerialization:
    def test_single_reaction_exact_text(self):
        h = 0.01
        net = Crn(
            ("vin_p", "i_p"),
            (Reaction(("vin_p",), ("vin_p", "i_p"), 1 / (1 + h)),),
            {"vin_p": 1.0},
        )
        text = serialize_crn(net)
        assert "vin_p ->{0.99009900990099009} vin_p + i_p" in text
        assert "init vin_p 1" in text

    def test_annihilation_exact_text(self):
        net = Crn(("i_p", "i_m"), (Reaction(("i_p", "i_m"), (), 100.0),))
        assert "i_p + i_m ->{100} 0" in serialize_crn(net)

    def test_empty_net_is_header_only(self):
        text = serialize_crn(Crn((), ()))
        assert text == "# crn\n"
        assert parse_crn(text) == Crn((), ())

    def test_round_trip_with_metadata(self, rl_dc):
        _, sys, inp = rl_dc
        hs = rl_circuit_hungarization(sys, inp, 0.01, 100.0)
        net = emit_crn(hs, np.array([0.25, 0.0]), np.array([0.0, 0.125]))
        net = Crn(
            net.species,
            net.reactions,
            net.init,
            {"h": "0.01", "mode": "euler"},
            (("v2", "v2_p", "v2_m"),),
        )
        again = parse_crn(serialize_crn(net))
        assert again == net
        assert serialize_crn(again) == serialize_crn(net)

    def test_blocks_round_trip_after_unmarked_reactions(self):
        rx = Reaction(("X",), ("X", "X"), 0.5)
        net = Crn(("X",), (rx, rx, rx), blocks=((CIRCUIT_BLOCK, 1), ("input reactions s", 1)))
        text = serialize_crn(net)
        assert text.splitlines()[2:] == [
            "X ->{0.5} X + X",
            "# circuit reactions",
            "X ->{0.5} X + X",
            "# input reactions s",
            "X ->{0.5} X + X",
        ]
        assert parse_crn(text) == net
        assert serialize_crn(parse_crn(text)) == text

    def test_empty_marked_block_survives(self):
        net = Crn(("X",), (), blocks=(("input reactions s", 0),))
        assert parse_crn(serialize_crn(net)) == net

    def test_bad_block_label_rejected(self):
        with pytest.raises(ValueError):
            Crn(("X",), (), blocks=(("not a marker", 0),))
        with pytest.raises(ValueError):
            Crn(("X",), (), blocks=((CIRCUIT_BLOCK, 1),))  # covers no reaction

    def test_keywords_only_matter_as_first_token(self):
        text = (
            "species init init_p species_m\n"
            "init init_p 1\n"
            "init_p ->{2} init_p + species_m\n"
            "init + species_m ->{1} 0\n"
        )
        net = parse_crn(text)
        assert net.species == ("init", "init_p", "species_m")
        assert net.init == {"init_p": 1.0}
        assert [rx.reactants for rx in net.reactions] == [("init_p",), ("init", "species_m")]

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("species X\nX ->{0} X + X\n", "rate"),
            ("species X\nX ->{1 X\n", "brace"),
            ("species X\ninit X\n", "init"),
            ("species X\ninit Y 1\n", "undeclared"),
            ("species X\nY ->{1} X\n", "undeclared"),
            ("species X\nnonsense here\n", "unrecognized"),
            ("species X\ninit X -1\n", "negative"),
            *[(f"species X\nX ->{{{v}}} 0\n", "non-finite") for v in NON_FINITE],
            *[(f"species X\ninit X {v}\n", "non-finite") for v in NON_FINITE],
            ("species X\nspecies a+b\n", "species name 'a+b' contains '+'"),
            ("species X\nspecies a,b\n", "species name 'a,b' contains ','"),
            ("species X\nspecies a->{b\n", "brace"),  # `->{` makes it a reaction line
        ],
    )
    def test_parse_errors_carry_line_numbers(self, text, fragment):
        with pytest.raises(ParseError) as exc_info:
            parse_crn(text)
        assert fragment in str(exc_info.value)
        assert exc_info.value.line_no == 2


@settings(max_examples=60, deadline=None)
@given(rlc_netlists())
def test_compiled_network_round_trips_byte_for_byte(text):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        compiled = compile_circuit(parse_netlist(text), RunConfig())
    written = serialize_crn(compiled.crn)
    again = parse_crn(written)
    assert serialize_crn(again) == written
    assert again.blocks == compiled.crn.blocks
    assert again.reactions == compiled.crn.reactions
    assert again == compiled.crn


@settings(max_examples=60, deadline=None)
@given(rlc_netlists(), st.integers(0, 2**32 - 1))
def test_compiled_field_equals_rail_field(text, seed):
    """The emitted union's mass-action field is the rail field of its signed ODE."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        compiled = compile_circuit(parse_netlist(text), RunConfig())
    ode = signed_ode(compiled.sys, compiled.inp, None if compiled.direct else compiled.h)
    rs = hungarize(positivate(ode), compiled.gamma)
    net = compiled.crn
    assert sorted(rs.rail_names) == sorted(net.species)
    order = [net.species.index(sp) for sp in rs.rail_names]
    f_crn, f_rail = mass_action_field(net), rail_field(rs)
    rng = np.random.default_rng(seed)
    for _ in range(5):
        state = rng.uniform(0.0, 2.0, len(net.species))
        want = f_rail(state[order])
        err = np.max(np.abs(f_crn(state)[order] - want))
        assert err <= 1e-12 * max(1.0, np.max(np.abs(want)))


@settings(max_examples=200, deadline=None)
@given(rlc_netlists())
def test_shifted_map_equals_inverse_times_a(text):
    """Setting the algebraic columns of F_h changes it by rounding only."""
    sys, _ = build_dae(parse_netlist(text))
    for h in (0.001, 0.01, 0.3):
        got = coupled_euler_map(sys, h)[0]
        want = np.linalg.inv(sys.E - h * sys.A) @ sys.A
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@st.composite
def small_networks(draw):
    """Random networks of up to binary reactions, with homodimers, swapped
    binary orders and products that repeat reactants, plus a state."""
    n = draw(st.integers(1, 6))
    names = tuple(f"x{i}" for i in range(n))

    def side(most):
        return st.lists(st.sampled_from(names), max_size=most)

    rate = st.floats(-6.0, 6.0).map(lambda e: 10.0**e)
    reactions = draw(st.lists(st.builds(Reaction, side(2), side(3), rate), max_size=25))
    state = draw(st.lists(st.floats(0.0, 3.0), min_size=n, max_size=n))
    return Crn(names, tuple(reactions)), np.array(state)


@settings(max_examples=200, deadline=None)
@given(small_networks())
def test_field_equals_reaction_by_reaction_sum(case):
    net, c = case
    idx = {sp: i for i, sp in enumerate(net.species)}
    want = np.zeros(len(c))
    scale = np.zeros(len(c))  # sum of |terms| per species, the rounding scale
    for rx in net.reactions:
        flux = rx.rate * np.prod([c[idx[sp]] for sp in rx.reactants])
        for sp in rx.reactants:
            want[idx[sp]] -= flux
            scale[idx[sp]] += flux
        for sp in rx.products:
            want[idx[sp]] += flux
            scale[idx[sp]] += flux
    got = mass_action_field(net)(c)
    assert np.all(np.abs(got - want) <= 1e-12 * scale)


# a floating voltage source: node 2 and the current of vf are algebraic
FLOATING_V = "V vin 1 0 FOURIER 0 1 1 0\nV vf 2 1 DC 0.5\nR r1 2 3 1\nL l1 3 0 1\nOUT 3\n"


@pytest.mark.parametrize("text", [rl_ladder(20), FLOATING_V], ids=["ladder", "floating_v"])
def test_algebraic_states_relax_exactly_to_their_constraint(text):
    net = parse_netlist(text)
    sys, _ = build_dae(net)
    h = 0.01
    alg = np.flatnonzero(~sys.E.any(axis=0))
    assert alg.size >= 2
    ax = coupled_euler_map(sys, h)[0]
    for j in alg:
        assert np.flatnonzero(ax[:, j]).tolist() == [j]
        assert ax[j, j] == -1.0 / h
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        crn = compile_circuit(net, RunConfig(h=h)).crn
    for j in alg:
        p, m = f"{sys.state_names[j]}_p", f"{sys.state_names[j]}_m"
        consumers = {rx for rx in crn.reactions if {p, m} & set(rx.reactants)}
        assert consumers == {
            Reaction((m,), (m, p), 1.0 / h),
            Reaction((p,), (p, m), 1.0 / h),
            Reaction((p, m), (), 1.0 / h),
        }


def test_field_build_memory_is_bounded_on_a_large_ladder():
    # a dense species x reactions operand would take 346 x 29k x 8 B = 82 MB
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        net = compile_circuit(parse_netlist(rl_ladder(85)), RunConfig()).crn
    assert len(net.species) == 346 and len(net.reactions) > 20_000
    tracemalloc.start()
    try:
        field = mass_action_field(net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6
    assert field(net.initial_state()).shape == (346,)
