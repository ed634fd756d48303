import re
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circ2crn.circuit import Fourier, build_dae, parse_netlist, source_models
from circ2crn import crn
from circ2crn.crn import (
    CIRCUIT_BLOCK,
    Crn,
    Reaction,
    ReactionTable,
    crn_lines,
    difference_system,
    emit_crn,
    mass_action_field,
    parse_crn,
    serialize_crn,
    union,
)
from circ2crn.dae import AffineOde, coupled_euler_map
from circ2crn.errors import ParseError, ValidationError
from circ2crn.pipeline import RunConfig, compile_circuit
from circ2crn.positivation import RailSystem, hungarize, positivate, rail_field, split_initial

from conftest import (RC_LOWPASS, RL_DC, RL_SINE, TWO_CAP, field_all_at_once, rl_ladder,
                      rlc_netlists, signed_ode)

DATA = Path(__file__).parent / "data"


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
        with pytest.raises(ValidationError, match=r"^init\['v2_p'\] = -1.0 is negative$"):
            emit_crn(hs, np.array([-1.0, 0.0]), np.zeros(2))

    def test_gamma_zero_omits_annihilations(self, rl_dc):
        _, sys, inp = rl_dc
        hs = rl_circuit_hungarization(sys, inp, 0.01, 0.0)
        net = emit_crn(hs, np.zeros(2), np.zeros(2))
        assert len(net.reactions) == 10
        assert all(len(r.reactants) == 1 for r in net.reactions)


def reaction_loop_emit(rs: RailSystem, init_plus, init_minus):
    """Reactions and init of a rail system, emitted one reaction at a time."""
    species = rs.rail_names
    pos, neg = species[0::2], species[1::2]
    reactions: list[Reaction] = []
    rows, cols = np.nonzero((rs.aplus > 0.0) | (rs.aminus > 0.0))
    for i, j, up, um in zip(
        rows.tolist(), cols.tolist(),
        rs.aplus[rows, cols].tolist(), rs.aminus[rows, cols].tolist(),
    ):
        if up > 0.0:
            reactions.append(Reaction((pos[j],), (pos[j], pos[i]), up))
            reactions.append(Reaction((neg[j],), (neg[j], neg[i]), up))
        if um > 0.0:
            reactions.append(Reaction((neg[j],), (neg[j], pos[i]), um))
            reactions.append(Reaction((pos[j],), (pos[j], neg[i]), um))
    for i, (bp, bm) in enumerate(zip(rs.bplus.tolist(), rs.bminus.tolist())):
        if bp > 0.0:
            reactions.append(Reaction((), (pos[i],), bp))
        if bm > 0.0:
            reactions.append(Reaction((), (neg[i],), bm))
    if rs.gamma > 0.0:
        for i in range(rs.n):
            reactions.append(Reaction((pos[i], neg[i]), (), float(rs.gamma)))
    init = {}
    plus, minus = np.asarray(init_plus).tolist(), np.asarray(init_minus).tolist()
    for i, (p, m) in enumerate(zip(plus, minus)):
        if p != 0.0:
            init[pos[i]] = p
        if m != 0.0:
            init[neg[i]] = m
    return tuple(reactions), init


@st.composite
def rail_systems(draw):
    """Rail systems with zero and positive entries, up to two input columns
    and gamma = 0 or > 0, with nonnegative initial rails."""
    n, q = draw(st.integers(1, 4)), draw(st.integers(0, 2))
    entry = st.just(0.0) | st.floats(1e-3, 1e3)

    def values(*shape):
        count = int(np.prod(shape))
        return np.array(draw(st.lists(entry, min_size=count, max_size=count))).reshape(shape)

    gamma = draw(st.just(0.0) | st.floats(1e-2, 1e2))
    rs = RailSystem(
        values(n, n + q), values(n, n + q), values(n), values(n),
        tuple(f"x{i}" for i in range(n)), tuple(f"u{i}" for i in range(q)), gamma,
    )
    return rs, values(n), values(n)


@settings(max_examples=200, deadline=None)
@given(rail_systems())
def test_emit_equals_reaction_loop(case):
    rs, plus, minus = case
    net = emit_crn(rs, plus, minus)
    reactions, init = reaction_loop_emit(rs, plus, minus)
    assert net.reactions == reactions
    assert net.init == init
    assert net.species == rs.rail_names


def test_compiled_ladder_blocks_equal_reaction_loop():
    """Each block of a compiled network is its rail system, reaction by reaction."""
    net, cfg = parse_netlist(rl_ladder(20)), RunConfig()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        compiled = compile_circuit(net, cfg)
    sys, inp = compiled.sys, compiled.inp
    assert compiled.crn.meta["mode"] == "euler"
    ax, bx = coupled_euler_map(sys, cfg.h)
    ode = AffineOde(ax, np.zeros(sys.n), sys.state_names, sys.output_index)
    parts = [(positivate(ode, coupling=(bx, inp.input_names)), compiled.x0)]
    for _, model in source_models(net):
        parts.append((positivate(AffineOde(model.D, model.d, model.names, 0)), model.init))
    reactions, start = compiled.crn.reactions, 0
    assert len(compiled.crn.blocks) == len(parts) == 2
    for (_, count), (rs, x0) in zip(compiled.crn.blocks, parts):
        rs = hungarize(rs, cfg.resolve_gamma())
        want, _ = reaction_loop_emit(rs, *split_initial(x0))
        assert emit_crn(rs, *split_initial(x0)).reactions == want
        assert reactions[start : start + count] == want
        start += count
    assert start == len(reactions)


class TestReactionTable:
    def test_reactions_equal_the_input_and_are_built_once(self):
        own = (Reaction(("A",), ("A", "B"), 2.0), Reaction(("A", "B"), (), 0.5))
        net = Crn(("A", "B"), own)
        assert net.reactions == own
        assert net.reactions is net.reactions
        assert net.table.in_idx.tolist() == [0, 0, 1]
        assert net.table.out_off.tolist() == [0, 2, 2]
        again = Crn(net.species, net.table)
        assert again == net
        assert again.reactions == own

    def test_sides_of_any_length_round_trip(self):
        net = Crn(("A", "B", "C"), (
            Reaction(("A", "B", "C"), ("A",), 1.5),
            Reaction(("A",), ("A", "B", "C"), 2.5),
        ))
        text = serialize_crn(net)
        assert "A + B + C ->{1.5} A\nA ->{2.5} A + B + C\n" in text
        again = parse_crn(text)
        assert again == net
        assert again.reactions == net.reactions
        assert serialize_crn(again) == text
        with pytest.raises(ValueError, match="up to binary"):
            mass_action_field(again)

    def test_malformed_tables_rejected(self):
        table = Crn(("A", "B"), (Reaction(("A",), ("B",), 1.0),)).table
        with pytest.raises(ValidationError, match="^reaction table indexes beyond the species$"):
            Crn(("A",), table)
        with pytest.raises(ValueError, match="offsets"):
            ReactionTable([0, 2], [0], [0, 1], [1], [1.0])
        with pytest.raises(ValueError, match="positive"):
            ReactionTable([0, 1], [0], [0, 1], [1], [0.0])

    def test_network_and_table_are_immutable(self):
        net = Crn(("A",), (Reaction(("A",), (), 1.0),))
        with pytest.raises(AttributeError):
            net.species = ("B",)
        with pytest.raises(ValueError):
            net.table.rates[0] = 2.0

    def test_init_and_meta_are_read_only_copies(self):
        init, meta = {"A": 1.0}, {"note": "a b"}
        net = Crn(("A",), (), init, meta)
        # a change after the checks would write `init A inf`, which the
        # reader rejects
        with pytest.raises(TypeError):
            net.init["A"] = float("inf")
        with pytest.raises(TypeError):
            net.meta["note"] = "a\nA ->{1} 0"
        init["A"], meta["note"] = float("inf"), ""
        assert net == Crn(("A",), (), {"A": 1.0}, {"note": "a b"})
        assert parse_crn(serialize_crn(net)) == net
        again = replace(net, init={"A": 2.0})
        assert again.init == {"A": 2.0} and again.meta == net.meta
        assert replace(again, init=net.init) == net


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
        with pytest.raises(ValidationError, match="^expected 2 concentrations$"):
            field(np.ones(3))

    def test_stacked_state_of_wrong_shape_rejected(self):
        net = Crn(("A", "B"), (Reaction(("A",), (), 1.0),))
        field = mass_action_field(net, net)
        for state in (np.ones(2), np.ones(5), np.ones((2, 2))):
            with pytest.raises(ValidationError, match="^expected 4 concentrations$"):
                field(state)

    @pytest.mark.parametrize(
        "other",
        [
            Crn(("A", "C"), (Reaction(("A",), ("C",), 1.0),)),
            Crn(("B", "A"), (Reaction(("A",), ("B",), 1.0),)),
            Crn(("A", "B"), (Reaction(("B",), ("A",), 1.0),)),
            Crn(("A", "B"), (Reaction(("A",), ("B",), 1.0), Reaction((), ("A",), 1.0))),
            Crn(("A", "B"), ()),
        ],
        ids=["species", "species_order", "reaction", "extra_reaction", "no_reactions"],
    )
    def test_stacking_different_structures_rejected(self, other):
        net = Crn(("A", "B"), (Reaction(("A",), ("B",), 2.0),))
        with pytest.raises(ValueError, match="share species and reactions"):
            mass_action_field(net, other)

    def test_stacked_compiled_ladders_equal_their_own_fields_bitwise(self):
        # one structure at three drive frequencies, as in a frequency sweep
        net = parse_netlist(rl_ladder(20))
        nets = []
        for omega in (0.7, 1.3, 2.9):
            drive = Fourier(0.0, ((1.0, omega, 0.0),))
            driven = replace(net, source_waveforms={"vin": drive})
            nets.append(compile_circuit(driven, RunConfig(h=0.01)).crn)
        assert_stacked_equals_own_fields(nets, np.random.default_rng(3))

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
        with pytest.raises(ValidationError, match="^reaction references unknown species 'Y'$"):
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
        with pytest.raises(ValidationError, match="^species 'X' has init 1.0 in one network "
                                                  "and 2.0 in the other$"):
            union(a, b)

    @pytest.mark.parametrize("annotation", [
        {"meta": {"h": "0.01"}},
        {"diffs": (("x", "X", "X"),)},
        {"blocks": ((CIRCUIT_BLOCK, 1),)},
    ], ids=["meta", "diffs", "blocks"])
    def test_annotated_network_rejected(self, annotation):
        plain = self._simple("Y")
        annotated = replace(self._simple("X"), **annotation)
        with pytest.raises(ValueError, match="without meta, diffs or blocks"):
            union(annotated, plain)
        with pytest.raises(ValueError, match="without meta, diffs or blocks"):
            union(plain, annotated)

    def test_partial_init_is_not_a_conflict(self):
        a = Crn(("X",), ())  # no init statement for X
        b = Crn(("X",), (), {"X": 2.0})
        assert union(a, b).init == {"X": 2.0}


NON_FINITE = ("nan", "inf", "-inf")


class TestSerialization:
    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("make", [
        lambda v: Reaction(("X",), (), v),
        lambda v: ReactionTable([0, 1], [0], [0, 0], [], [v]),
        lambda v: Crn(("X",), (), {"X": v}),
    ], ids=["reaction_rate", "table_rate", "init"])
    def test_non_finite_values_rejected_before_writing(self, make, value):
        # the reader rejects them, so a network holding one could not read back
        with pytest.raises(ValueError):
            make(float(value))

    @pytest.mark.parametrize("annotation", [
        {"meta": {"bad key": "v"}},
        {"meta": {"": "v"}},
        {"meta": {"k": "a\nX ->{1} 0"}},
        {"meta": {"k": ""}},
        {"meta": {"k": "a  b"}},
        {"meta": {"k": " a"}},
        {"diffs": (("o", "nope", "X"),)},
        {"diffs": (("o", "X", "nope"),)},
        {"diffs": (("o p", "X", "X"),)},
        {"diffs": (("o", "X"),)},
        {"diffs": (("a,b", "X", "X"),)},
        {"diffs": (("a+b", "X", "X"),)},
        {"diffs": (("a->{b", "X", "X"),)},
        {"diffs": (("t", "X", "X"),)},
        {"diffs": (("X", "X", "X"),)},
        {"diffs": (("o", "X", "X"), ("o", "X", "X"))},
    ], ids=["key_space", "key_empty", "value_newline", "value_empty", "value_double_space",
            "value_leading_space", "diff_plus_undeclared", "diff_minus_undeclared",
            "diff_name_space", "diff_two_names", "diff_out_comma", "diff_out_plus",
            "diff_out_arrow", "diff_out_time", "diff_out_species", "diff_out_repeated"])
    def test_annotation_the_format_cannot_carry_is_rejected(self, annotation):
        # e.g. `# meta bad key v` reads back as key `bad`, and a value
        # holding a newline writes a second line the reader rejects
        with pytest.raises(ValidationError):
            Crn(("X",), (), **annotation)
        with pytest.raises(ValidationError):
            replace(Crn(("X",), ()), **annotation)

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
        # a copy runs the same checks
        with pytest.raises(ValueError, match="bad reaction block"):
            replace(Crn(("X",), ()), blocks=(("not a marker", 0),))

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
            ("species X\nX ->{abc} 0\n", "bad rate 'abc'"),
            ("species X\nspecies X\n", "duplicate species 'X'"),
            ("species X\ninit X abc\n", "bad init value 'abc'"),
            *[(f"species X\nX ->{{{v}}} 0\n", "non-finite") for v in NON_FINITE],
            *[(f"species X\ninit X {v}\n", "non-finite") for v in NON_FINITE],
            ("species X\nspecies a+b\n", "species name 'a+b' contains '+'"),
            ("species X\nspecies a,b\n", "species name 'a,b' contains ','"),
            ("species X\nspecies a->{b\n", "brace"),  # `->{` makes it a reaction line
            ("species X\nspecies 0\n", "species name '0'"),
            # a reaction line on `#a` would read as a comment
            ("species X\nspecies X2 #a\n", "species name '#a' starts a comment"),
            ("species X\ninit X 1\ninit X 2\n", "duplicate init for 'X'"),
            ("species X\n# diff o nope X\n", "diff of undeclared species 'nope'"),
            ("species X\n# diff o X nope\n", "diff of undeclared species 'nope'"),
            ("species X\n# diff a,b X X\n", "diff output 'a,b' contains ','"),
            ("species X\n# diff t X X\n", "diff output 't' repeats a CSV column"),
            ("species X\n# diff X X X\n", "diff output 'X' repeats a CSV column"),
            ("species X\n# diff o X X\n# diff o X X\n", "diff output 'o' repeats"),
            ("species X\nspecies t\n", "species name 't' is the CSV time column"),
            ("species X\n# diff o X X\nspecies o\n", "species 'o' repeats a diff output"),
            # a bad side after valid reactions that share the other side
            ("species X Y\nX ->{1} X + Y\nX ->{1} X + Z\n", "undeclared species 'Z'"),
            ("species X Y\nX ->{1} X + Y\nX ->{1} X +\n", "malformed reaction side 'X +'"),
            ("species X Y\nX ->{1} Y\nX + Z ->{1} Y\n", "undeclared species 'Z'"),
            ("species X Y\nX ->{1} Y\n+ X ->{1} Y\n", "malformed reaction side '+ X'"),
            # a malformed product side is reported before an undeclared reactant
            ("species X\nX ->{1} X\nZ ->{1} X +\n", "malformed reaction side 'X +'"),
        ],
    )
    def test_parse_errors_carry_line_numbers(self, text, fragment):
        with pytest.raises(ParseError) as exc_info:
            parse_crn(text)
        assert fragment in str(exc_info.value)
        assert exc_info.value.line_no == text.count("\n")  # the last line

    def test_species_named_zero_is_rejected(self):
        # `0` spells the empty side, so a catalysis on `0` would read back
        # as a production of 0 + x
        with pytest.raises(ValueError, match="'0'"):
            Crn(("0", "x"), (Reaction(("0",), ("0", "x"), 1.0),))
        with pytest.raises(ParseError) as exc_info:
            parse_crn("species 0 x\n0 ->{1} 0 + x\n")
        assert exc_info.value.line_no == 1

    @pytest.mark.parametrize(
        "name", ["a b", "a\tb", "a\u2028b", "", "#a", "0", "a+b", "a,b", "a->{b", "t"]
    )
    def test_species_name_the_format_cannot_carry_is_rejected(self, name):
        # `a b` would not parse back, `` would write `0 ->{1} x`, a
        # production, and `#a ->{1} x` would read as a comment
        with pytest.raises(ValueError, match="species name"):
            Crn((name, "x"), (Reaction((name,), ("x",), 1.0),))

    @pytest.mark.parametrize("species,init,message", [
        (("A", "A"), {}, "duplicate species names"),
        (("A",), {"B": 1.0}, "init references unknown species 'B'"),
    ], ids=["duplicate_species", "init_undeclared"])
    def test_construction_refusal_names_its_fault(self, species, init, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            Crn(species, (), init)

    def test_rates_are_python_floats(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            net = compile_circuit(parse_netlist(rl_ladder(3)), RunConfig()).crn
        for crn in (net, parse_crn(serialize_crn(net))):
            assert {type(rx.rate) for rx in crn.reactions} == {float}
            assert {type(v) for v in crn.init.values()} == {float}


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


@settings(max_examples=100, deadline=None)
@given(rlc_netlists())
def test_the_leading_differences_are_the_circuit_states_in_order(text):
    """verify compares the leading differences of the read-back network
    with the oracle's leading columns, the circuit states, in place."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        compiled = compile_circuit(parse_netlist(text), RunConfig())
    states = compiled.sys.state_names
    for net in (compiled.crn, parse_crn(serialize_crn(compiled.crn))):
        assert tuple(out for out, _, _ in net.diffs[: len(states)]) == states


@settings(max_examples=60, deadline=None)
@given(rlc_netlists(), st.integers(0, 2**32 - 1))
def test_compiled_field_equals_rail_field(text, seed):
    """The emitted union's mass-action field is the rail field of its signed ODE."""
    cfg = RunConfig()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        compiled = compile_circuit(parse_netlist(text), cfg)
    ode = signed_ode(compiled.sys, compiled.inp,
                     None if compiled.crn.meta["mode"] == "direct" else cfg.h)
    rs = hungarize(positivate(ode), cfg.resolve_gamma())
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


@example(RL_DC)
@example(RL_SINE)
@example(TWO_CAP)
@example(RC_LOWPASS)
@example(rl_ladder(20))
@settings(max_examples=60, deadline=None)
@given(rlc_netlists())
def test_difference_system_is_the_signed_ode(text):
    """The read-back law of the rail differences is compile's signed ODE."""
    cfg = RunConfig()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        compiled = compile_circuit(parse_netlist(text), cfg)
    net = compiled.crn
    F, g, d0 = difference_system(parse_crn(serialize_crn(net)))
    ode = signed_ode(compiled.sys, compiled.inp,
                     None if compiled.crn.meta["mode"] == "direct" else cfg.h)
    scale = np.max(np.abs(ode.Ahat))
    assert np.max(np.abs(F - ode.Ahat)) <= 1e-13 * scale
    assert np.max(np.abs(g - ode.bhat)) <= 1e-13 * scale
    init = [net.init.get(p, 0.0) - net.init.get(m, 0.0) for _, p, m in net.diffs]
    assert np.array_equal(d0, init)


def difference_law_by_reaction(net):
    """(F, g) of `difference_system`, one reaction at a time in reaction
    order: each reaction's net move of each difference, times its rate, is
    added to the column of its one reactant's plus rail, or to g."""
    diff_of = {}
    for i, (_, plus, minus) in enumerate(net.diffs):
        diff_of[plus], diff_of[minus] = (i, 1), (i, -1)
    F, g = np.zeros((len(net.diffs),) * 2), np.zeros(len(net.diffs))
    for rx in net.reactions:
        moves = {}
        for side, sign in ((rx.reactants, -1), (rx.products, 1)):
            for sp in side:
                if sp in diff_of:
                    i, rail = diff_of[sp]
                    moves[i] = moves.get(i, 0) + sign * rail
        for i, move in moves.items():
            if move == 0:
                continue
            if not rx.reactants:
                g[i] += move * rx.rate
            else:
                [reactant] = rx.reactants
                j, rail = diff_of[reactant]
                if rail == 1:
                    F[i, j] += move * rx.rate
    return F, g


@pytest.mark.parametrize("text", [RL_DC, RL_SINE, TWO_CAP, RC_LOWPASS, rl_ladder(20),
                                  rl_ladder(60)],
                         ids=["rl_dc", "rl_sine", "two_cap", "rc_lowpass", "ladder20",
                              "ladder60"])
def test_difference_system_sums_each_reaction_in_order(text):
    """F and g equal, bit for bit, the sums taken reaction by reaction."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        net = parse_crn(serialize_crn(compile_circuit(parse_netlist(text), RunConfig()).crn))
    F, g, _ = difference_system(net)
    want_F, want_g = difference_law_by_reaction(net)
    assert np.array_equal(F, want_F)
    assert np.array_equal(g, want_g)


@pytest.mark.parametrize("name, reaction", [
    ("bimolecular_moves_a_difference.crn", "reaction 3 (x_p + x_p -> x_p) has two reactants"),
    ("unequal_rail_columns.crn", "reaction 1 (x_p -> x_p + x_m) reads a rail whose partner is not its negation"),
    ("unpaired_feeder.crn", "reaction 2 (w -> w + x_p) reads a species off the rails"),
])
def test_difference_system_names_the_reaction_that_breaks_a_rule(name, reaction):
    net = parse_crn((DATA / name).read_text())
    with pytest.raises(ValidationError, match=re.escape(reaction)):
        difference_system(net)


def test_difference_system_rejects_a_rail_shared_by_two_differences():
    net = Crn(("x_p", "x_m"), (), diffs=(("a", "x_p", "x_m"), ("b", "x_m", "x_p")))
    with pytest.raises(ValidationError, match="rail of two differences"):
        difference_system(net)


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


# one rounding of a subnormal flux, doubled against two roundings: 5e-324
@example((Crn(("x0", "x1"), (Reaction(("x1",), ("x0", "x0"), 1e-6),)),
          np.array([4.45e-313, 2.2e-313])))
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
    # below the normal range one rounding is worth more than 1e-12 * scale
    assert np.all(np.abs(got - want) <= np.maximum(1e-12 * scale, np.finfo(float).tiny))


def reaction_loop_field(net: Crn):
    """The polynomial field with M filled by a per-reaction Python loop."""
    n_sp = len(net.species)
    idx = {sp: i for i, sp in enumerate(net.species)}
    cols: dict[tuple[int, int], int] = {}
    rx_cols = []
    for rx in net.reactions:
        pair = sorted(idx[sp] for sp in rx.reactants) + [n_sp, n_sp]
        rx_cols.append(cols.setdefault((pair[0], pair[1]), len(cols)))
    M = np.zeros((1, n_sp, len(cols)))
    for rx, k in zip(net.reactions, rx_cols):
        for sp in rx.reactants:
            M[0, idx[sp], k] -= rx.rate
        for sp in rx.products:
            M[0, idx[sp], k] += rx.rate
    pairs = np.array(list(cols), dtype=np.intp).reshape(1, -1, 2)

    def rhs(c):
        ext = np.append(c, 1.0)  # slot n_sp reads the constant 1.0
        return np.matmul(M, ext[pairs[:, :, :1]] * ext[pairs[:, :, 1:]]).reshape(n_sp)

    return rhs


@settings(max_examples=200, deadline=None)
@given(small_networks())
def test_field_equals_reaction_loop_bitwise(case):
    net, c = case
    assert np.array_equal(mass_action_field(net)(c), reaction_loop_field(net)(c))


def test_compiled_ladder_field_equals_reaction_loop_bitwise():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        net = compile_circuit(parse_netlist(rl_ladder(20)), RunConfig()).crn
    field, want = mass_action_field(net), reaction_loop_field(net)
    rng = np.random.default_rng(5)
    for _ in range(3):
        c = rng.uniform(0.0, 2.0, len(net.species))
        assert np.array_equal(field(c), want(c))


def assert_stacked_equals_own_fields(nets, rng) -> None:
    """Each network's slice of the stacked field is its own field, bitwise."""
    stacked = mass_action_field(*nets)
    singles = [mass_action_field(net) for net in nets]
    n = len(nets[0].species)
    for _ in range(3):
        state = rng.uniform(0.0, 2.0, len(nets) * n)
        got = stacked(state)
        assert got.shape == state.shape
        for b, field in enumerate(singles):
            assert np.array_equal(got[b * n : (b + 1) * n], field(state[b * n : (b + 1) * n]))


@settings(max_examples=100, deadline=None)
@given(small_networks(), st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=6),
       st.integers(0, 2**32 - 1))
def test_stacked_field_equals_each_network_field_bitwise(case, exponents, seed):
    """Networks of one structure with rescaled rates stack bit for bit."""
    net, _ = case
    nets = [
        Crn(net.species, tuple(
            Reaction(rx.reactants, rx.products, rx.rate * 10.0**e) for rx in net.reactions
        ))
        for e in exponents
    ]
    assert_stacked_equals_own_fields(nets, np.random.default_rng(seed))


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


def compiled_ladder(k: int, omega: float = 1.0) -> Crn:
    drive = Fourier(0.0, ((1.0, omega, 0.0),))
    net = replace(parse_netlist(rl_ladder(k)), source_waveforms={"vin": drive})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return compile_circuit(net, RunConfig()).crn


@pytest.fixture(scope="module")
def ladder_120_text():
    text = serialize_crn(compiled_ladder(120))
    assert len(text) > 2 * crn._BLOCK
    return text


def parse_both_ways(tmp_path, text: str, newline=None):
    """parse_crn of the text, and of a file holding it opened in text mode,
    each as the network or the ParseError's message."""
    path = tmp_path / "net.crn"
    path.write_bytes(text.encode())
    results = []
    with open(path, newline=newline) as fh:
        for source in (text, fh):
            try:
                results.append(parse_crn(source))
            except ParseError as exc:
                results.append(str(exc))
    return results


class TestChunkedWriter:
    def test_pieces_are_whole_lines_with_reactions_in_chunks(self):
        net = compiled_ladder(40)
        assert len(net.table) > crn._CHUNK
        pieces = list(crn_lines(net))
        assert "".join(pieces) == serialize_crn(net)
        assert all(piece.endswith("\n") for piece in pieces if piece)
        assert max(piece.count("->{") for piece in pieces) == crn._CHUNK


class TestBlockReader:
    def test_a_file_of_several_blocks_reads_as_its_text(self, tmp_path, ladder_120_text):
        from_text, from_file = parse_both_ways(tmp_path, ladder_120_text)
        assert from_file == from_text
        assert serialize_crn(from_file) == ladder_120_text

    def test_a_bad_line_across_the_first_block_boundary(self, tmp_path):
        head = "species a b\n"
        line = "a ->{1} b\n"
        bad = "a ->{1} b + c"
        fill = (crn._BLOCK - len(head)) // len(line)
        text = head + line * fill + bad + "\n" + line * 3
        start = len(head) + fill * len(line)
        assert text[start:].startswith(bad) and start < crn._BLOCK < start + len(bad)
        from_text, from_file = parse_both_ways(tmp_path, text)
        assert from_text == from_file == f"line {fill + 2}: undeclared species 'c'"

    @pytest.mark.parametrize("newline", [None, ""], ids=["universal", "untranslated"])
    def test_a_crlf_split_by_the_block_boundary_is_one_break(self, tmp_path, newline):
        # the first block ends in "\r" and the second opens with its "\n"
        head = "species a b\r\n"
        line = "a ->{1} b\r\n"
        fill = (crn._BLOCK - len(head)) // len(line)
        pad = crn._BLOCK - len(head) - fill * len(line) - 1
        text = head + line * fill + "#" + "x" * (pad - 1) + "\r\nbogus\r\n"
        assert text[crn._BLOCK - 1 : crn._BLOCK + 1] == "\r\n"
        from_text, from_file = parse_both_ways(tmp_path, text, newline)
        assert from_text == from_file == f"line {fill + 3}: unrecognized line 'bogus'"

    @pytest.mark.parametrize("edit", [
        lambda t: t.replace("\n", "\r\n"),
        lambda t: t.replace("\n# circuit reactions", "\f# circuit reactions", 1),
        lambda t: t[:-1],
    ], ids=["crlf", "form_feed", "no_final_newline"])
    def test_line_endings_read_alike_both_ways(self, tmp_path, edit):
        text = serialize_crn(compiled_ladder(3))
        edited = edit(text)
        assert edited != text
        from_text, from_file = parse_both_ways(tmp_path, edited)
        assert from_text == from_file == parse_crn(text)

    @pytest.mark.parametrize("text,message", [
        ("species a\r\nbogus\r\n", "line 2: unrecognized line 'bogus'"),
        ("species a\fbogus\n", "line 2: unrecognized line 'bogus'"),
        ("species a\n\nbogus", "line 3: unrecognized line 'bogus'"),
    ], ids=["crlf", "form_feed", "no_final_newline"])
    def test_line_numbers_read_alike_both_ways(self, tmp_path, text, message):
        assert parse_both_ways(tmp_path, text) == [message, message]


class TestChunkedField:
    def test_a_compiled_ladder_field_equals_the_all_at_once_build_bitwise(self):
        net = compiled_ladder(40)
        assert len(net.table) > crn._CHUNK
        field, want = mass_action_field(net), field_all_at_once(net)
        rng = np.random.default_rng(11)
        for _ in range(3):
            c = rng.uniform(0.0, 2.0, len(net.species))
            assert np.array_equal(field(c), want(c))

    def test_sums_across_the_chunk_boundary_keep_their_order(self):
        # every reaction adds its rate to one entry of M, so any other order
        # of the sums would round differently
        n = 2 * crn._CHUNK + 7
        rates = 10.0 ** np.random.default_rng(4).uniform(-3.0, 3.0, n)
        table = ReactionTable.from_sides(np.ones(n), np.zeros(n), np.full(n, 2),
                                         np.tile([0, 1], n), rates)
        net = Crn(("a", "b"), table)
        c = np.array([0.7, 0.3])
        assert np.array_equal(mass_action_field(net)(c), field_all_at_once(net)(c))

    def test_stacked_networks_across_the_chunk_boundary_equal_their_own_fields(self):
        nets = [compiled_ladder(40, omega) for omega in (0.7, 2.9)]
        assert len(nets[0].table) > crn._CHUNK
        assert_stacked_equals_own_fields(nets, np.random.default_rng(8))
