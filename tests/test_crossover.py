"""Crossover operators: fixpoints, mixing laws, structural recombination."""

import numpy as np
import pytest
from hypothesis import given, settings as hsettings, strategies as st

import pcgp.crossover
from pcgp.crossover import (
    aligned_node, apply_crossover, output_graph, proportional, random_node, single_point, subgraph,
)
from pcgp.decode import DecodeSettings, decode, output_trace
from pcgp.errors import ConfigError, UnsupportedOperatorError
from pcgp.execute import run_supervised
from pcgp.functions import default_functions
from pcgp.genome import GenomeMode, SizeBounds, flatten, make_genome, random_genome, validate_genome
from pcgp.mutate import invert_connection_position

import reference

FSET = default_functions()
SET = DecodeSettings(input_start=-1.0)


def rnd(mode, n_nodes, seed, n_in=2, n_out=2):
    return random_genome(mode, n_in, n_out, n_nodes, np.random.default_rng(seed))


def graphs_of(a, b, s=SET):
    return decode(a, s, FSET), decode(b, s, FSET)


# ------------------------------------------------------------ mate checks

def test_incompatible_parents_rejected():
    a = rnd(GenomeMode.CGP, 5, 0)
    with pytest.raises(ValueError):
        single_point(a, rnd(GenomeMode.PCGP, 5, 1), np.random.default_rng(0))
    with pytest.raises(ValueError):
        random_node(a, rnd(GenomeMode.CGP, 5, 1, n_in=3), np.random.default_rng(0))


def test_positional_only_operators_reject_plain_genomes():
    a, b = rnd(GenomeMode.CGP, 5, 0), rnd(GenomeMode.CGP, 5, 1)
    rng = np.random.default_rng(0)
    with pytest.raises(UnsupportedOperatorError):
        aligned_node(a, b, rng)
    graphs = graphs_of(a, b)
    with pytest.raises(UnsupportedOperatorError):
        output_graph(a, b, graphs, rng)
    with pytest.raises(UnsupportedOperatorError):
        subgraph(a, b, graphs, rng)


@pytest.mark.parametrize("op", ["output_graph", "subgraph"])
def test_graph_reading_crossover_needs_its_graphs(op):
    a, b = rnd(GenomeMode.PCGP, 5, 0), rnd(GenomeMode.PCGP, 5, 1)
    with pytest.raises(ValueError, match="graphs is None"):
        apply_crossover(a, b, op, np.random.default_rng(0))


def test_apply_crossover_unknown_name():
    a, b = rnd(GenomeMode.CGP, 5, 0), rnd(GenomeMode.CGP, 5, 1)
    with pytest.raises(ConfigError):
        apply_crossover(a, b, "bogus", np.random.default_rng(0))


# ------------------------------------------------------------ single point

def test_single_point_cut_zero_clones_a_parent():
    a, b = rnd(GenomeMode.CGP, 4, 0), rnd(GenomeMode.CGP, 6, 1)
    seen = set()
    for seed in range(20):
        child = single_point(a, b, np.random.default_rng(seed), cut=0)
        flat = tuple(flatten(child))
        assert flat in (tuple(flatten(a)), tuple(flatten(b)))
        seen.add(flat == tuple(flatten(a)))
    assert seen == {True, False}  # both owners occur


def test_single_point_enumerated_cuts():
    a, b = rnd(GenomeMode.PCGP, 2, 3), rnd(GenomeMode.PCGP, 3, 4)
    fa, fb = flatten(a), flatten(b)
    header, stride = 2 + 2, 5
    for j in range(3):  # min(2,3)+1 boundaries
        cut = header + j * stride
        for seed in range(10):
            child = single_point(a, b, np.random.default_rng(seed), cut=cut)
            want_ab = np.concatenate([fa[:cut], fb[cut:]])
            want_ba = np.concatenate([fb[:cut], fa[cut:]])
            # child comes out sorted; sort the raw expectations the same way
            sorted_ab = flatten(make_genome(a.mode, 2, 2, want_ab[4:].reshape(-1, 5),
                                            want_ab[2:4], want_ab[:2]))
            sorted_ba = flatten(make_genome(a.mode, 2, 2, want_ba[4:].reshape(-1, 5),
                                            want_ba[2:4], want_ba[:2]))
            assert flatten(child).tolist() in (sorted_ab.tolist(), sorted_ba.tolist())


def test_single_point_child_node_count_follows_suffix_owner():
    a, b = rnd(GenomeMode.CGP, 5, 7), rnd(GenomeMode.CGP, 9, 8)
    counts = {single_point(a, b, np.random.default_rng(s)).n_nodes for s in range(60)}
    assert counts == {5, 9}


def test_single_point_self_fixpoint():
    for seed in range(30):
        a = rnd(GenomeMode.PCGP, 6, seed)
        child = single_point(a, a, np.random.default_rng(seed + 100))
        assert flatten(child).tolist() == flatten(a).tolist()


def test_single_point_rejects_non_boundary_cut():
    a, b = rnd(GenomeMode.CGP, 4, 0), rnd(GenomeMode.CGP, 4, 1)
    with pytest.raises(ValueError):
        single_point(a, b, np.random.default_rng(0), cut=3)


# ------------------------------------------------------------ random node

def test_random_node_counts():
    rng = np.random.default_rng(0)
    assert random_node(rnd(GenomeMode.CGP, 10, 1), rnd(GenomeMode.CGP, 10, 2), rng).n_nodes == 10
    assert random_node(rnd(GenomeMode.CGP, 1, 3), rnd(GenomeMode.CGP, 1, 4), rng).n_nodes == 1
    assert random_node(rnd(GenomeMode.CGP, 5, 5), rnd(GenomeMode.CGP, 9, 6), rng).n_nodes == 2 + 5


def test_random_node_self_fixpoint_positional():
    for seed in range(30):
        a = rnd(GenomeMode.PCGP, 8, seed)
        child = random_node(a, a, np.random.default_rng(seed + 50))
        assert flatten(child).tolist() == flatten(a).tolist()


def test_random_node_self_is_permutation_for_plain_mode():
    a = rnd(GenomeMode.CGP, 8, 11)
    child = random_node(a, a, np.random.default_rng(12))
    got = sorted(map(tuple, child.nodes.tolist()))
    want = sorted(map(tuple, a.nodes.tolist()))
    assert got == want


# ------------------------------------------------------------ aligned node

def pnode(p, x=0.0, y=0.0, f=0.1, c=0.5):
    return [p, x, y, f, c]


def test_aligned_node_pairs_by_proximity():
    a = make_genome(GenomeMode.PCGP, 1, 1, [pnode(0.1, c=0.11), pnode(0.9, c=0.19)],
                    [0.5], [0.5])
    b = make_genome(GenomeMode.PCGP, 1, 1, [pnode(0.12, c=0.21), pnode(0.88, c=0.29)],
                    [0.5], [0.5])
    for seed in range(20):
        child = aligned_node(a, b, np.random.default_rng(seed))
        assert child.n_nodes == 2
        first, second = sorted(child.nodes[:, 0])
        assert first in (0.1, 0.12) and second in (0.88, 0.9)


def test_aligned_node_leftover_rule_bounds_count():
    a, b = rnd(GenomeMode.PCGP, 3, 0), rnd(GenomeMode.PCGP, 5, 1)
    counts = {aligned_node(a, b, np.random.default_rng(s)).n_nodes for s in range(60)}
    assert counts <= {3, 4, 5}
    assert min(counts) == 3 and max(counts) == 5


def test_aligned_node_self_fixpoint():
    for seed in range(30):
        a = rnd(GenomeMode.PCGP, 7, seed)
        child = aligned_node(a, a, np.random.default_rng(seed + 500))
        assert flatten(child).tolist() == flatten(a).tolist()


# ------------------------------------------------------------ proportional

def test_proportional_injected_endpoints_exact():
    a, b = rnd(GenomeMode.PCGP, 5, 1), rnd(GenomeMode.PCGP, 5, 2)
    low = flatten(a).size
    keep_a = proportional(a, b, np.random.default_rng(0), weights=np.zeros(low))
    assert flatten(keep_a).tolist() == sorted_flat(a)
    keep_b = proportional(a, b, np.random.default_rng(0), weights=np.ones(low))
    assert flatten(keep_b).tolist() == sorted_flat(b)


def sorted_flat(g):
    return flatten(make_genome(g.mode, g.n_in, g.n_out, g.nodes, g.outputs, g.inputs)).tolist()


def test_proportional_midpoint_value():
    a = make_genome(GenomeMode.CGP, 1, 1, np.full((1, 4), 0.2), [0.2])
    b = make_genome(GenomeMode.CGP, 1, 1, np.full((1, 4), 0.6), [0.6])
    child = proportional(a, b, np.random.default_rng(0), weights=np.full(5, 0.5))
    assert flatten(child).tolist() == pytest.approx([0.4] * 5, abs=1e-12)


def test_proportional_self_fixpoint_any_weights():
    for seed in range(30):
        a = rnd(GenomeMode.CGP, 6, seed)
        child = proportional(a, a, np.random.default_rng(seed + 1))
        assert flatten(child).tolist() == flatten(a).tolist()


def test_proportional_tail_from_longer_parent():
    a, b = rnd(GenomeMode.CGP, 2, 1), rnd(GenomeMode.CGP, 4, 2)
    child = proportional(a, b, np.random.default_rng(3))
    assert child.n_nodes == 4
    low = flatten(a).size
    assert flatten(child)[low:].tolist() == flatten(b)[low:].tolist()


def test_proportional_blend_stays_in_parent_interval():
    rng = np.random.default_rng(9)
    for _ in range(20):
        a, b = rnd(GenomeMode.CGP, 6, int(rng.integers(1e6))), rnd(GenomeMode.CGP, 6, int(rng.integers(1e6)))
        child = proportional(a, b, rng)
        fa, fb, fc = flatten(a), flatten(b), flatten(child)
        assert np.all(fc >= np.minimum(fa, fb)) and np.all(fc <= np.maximum(fa, fb))


# ----------------------------------------------------------- output graph

def two_trace_parents():
    s = SET
    a_in = [0.9, 0.1]     # input positions -0.9, -0.1
    a_nodes = [
        pnode(0.2, invert_connection_position(-0.9, 0.2, s),
              invert_connection_position(-0.9, 0.2, s), c=0.11),          # A0 -> in0
        pnode(0.6, invert_connection_position(0.2, 0.6, s),
              invert_connection_position(-0.9, 0.6, s), c=0.12),          # A1 -> A0, in0
    ]
    a = make_genome(GenomeMode.PCGP, 2, 2, a_nodes, [0.8, 0.0], a_in)
    b_in = [0.85, 0.15]   # input positions -0.85, -0.15
    b_nodes = [
        pnode(0.3, c=0.21),
        pnode(0.7, invert_connection_position(-0.15, 0.7, s),
              invert_connection_position(-0.15, 0.7, s), c=0.22),         # B1 -> in1
    ]
    b = make_genome(GenomeMode.PCGP, 2, 2, b_nodes, [0.0, (0.7 + 1.0) / 2.0], b_in)
    return a, b


def test_output_graph_disjoint_traces():
    a, b = two_trace_parents()
    child = output_graph(a, b, graphs_of(a, b), np.random.default_rng(0),
                         output_choices=[0, 1])
    assert child.n_nodes == 3
    assert sorted(np.round(child.nodes[:, 0], 6).tolist()) == [0.2, 0.6, 0.7]
    assert child.outputs.tolist() == [0.8, (0.7 + 1.0) / 2.0]
    # in0 used only via a's trace, in1 only via b's: both inherited directly
    assert child.inputs.tolist() == [0.9, 0.15]


def test_output_graph_all_from_one_parent():
    a, b = two_trace_parents()
    child = output_graph(a, b, graphs_of(a, b), np.random.default_rng(0),
                         output_choices=[0, 0])
    for row in child.nodes.tolist():
        assert row in a.nodes.tolist()
    assert child.outputs.tolist() == a.outputs.tolist()
    # b's output 0 reads in0 itself, so in0 is b's too (with rng 0 the coin would pick a's)
    child = output_graph(a, b, graphs_of(a, b), np.random.default_rng(0), output_choices=[1, 1])
    assert child.inputs.tolist() == b.inputs.tolist()


def test_output_graph_self_cross_keeps_behavior():
    rng = np.random.default_rng(77)
    for _ in range(10):
        a = random_genome(GenomeMode.PCGP, 2, 2, 10, rng)
        s = DecodeSettings(recurrency=float(rng.random() * 0.8), input_start=-0.5)
        child = output_graph(a, a, graphs_of(a, a, s), rng)
        x = rng.uniform(-1, 1, (6, 2))
        got = run_supervised(decode(child, s, FSET), x)
        want = run_supervised(decode(a, s, FSET), x)
        assert got.tolist() == want.tolist()
        # traces follow both connections, whatever the function's arity
        d = decode(a, s, FSET)
        both = output_graph(a, a, (d, d), rng, output_choices=[0, 0])
        assert both.n_nodes == len(output_trace(d, 0) | output_trace(d, 1))


def test_output_graph_decodes_only_traced_nodes():
    """The parents' graphs fill the rows of the nodes the chosen traces
    reach, beside the active ones decode filled, and no others."""
    rng = np.random.default_rng(8)
    for _ in range(10):
        a, b = (random_genome(GenomeMode.PCGP, 2, 3, 20, rng) for _ in range(2))
        graphs = graphs_of(a, b)
        choices = rng.integers(0, 2, 3)
        output_graph(a, b, graphs, rng, output_choices=choices)
        for side, d in enumerate(graphs):
            traced = set().union(*(output_trace(d, k) for k in range(3) if choices[k] == side))
            want = traced | set(np.flatnonzero(d.active).tolist())
            assert {i for i, row in enumerate(d.rows) if row is not None} == want


def four_input_parents():
    """Two 2-output parents over 4 inputs whose traces are known.

    a: A0 (0.2) reads in0, in2; A1 (0.6) reads A0, in0; out0 -> A1 and
    out1 -> in3.  b: B0 (0.3) reads in1, in2; B1 (0.7) reads B0 twice;
    out0 -> B0 and out1 -> B1.
    """
    s = SET

    def node(p, x_pos, y_pos, c):
        return pnode(p, invert_connection_position(x_pos, p, s),
                     invert_connection_position(y_pos, p, s), c=c)

    a = make_genome(GenomeMode.PCGP, 4, 2,
                    [node(0.2, -0.9, -0.5, 0.11), node(0.6, 0.2, -0.9, 0.12)],
                    [0.8, 0.35], [0.9, 0.7, 0.5, 0.3])
    b = make_genome(GenomeMode.PCGP, 4, 2,
                    [node(0.3, -0.65, -0.45, 0.21), node(0.7, 0.3, 0.3, 0.22)],
                    [0.65, 0.85], [0.85, 0.65, 0.45, 0.25])
    return a, b


# (parent, output) -> (the nodes its trace reaches, the inputs it reads)
FOUR_INPUT_TRACES = {(0, 0): ({0, 1}, {0, 2}), (0, 1): (set(), {3}),
                     (1, 0): ({0}, {1, 2}), (1, 1): ({0, 1}, {1, 2})}


def output_graph_oracle(a, b, twin, choices=None, size_max=None):
    """The child of four_input_parents, made with twin's draws in the
    documented order: output choices, the cap's rows, the input coins."""
    if choices is None:
        choices = twin.integers(0, 2, a.n_out).tolist()
    parents = (a, b)
    picked, used = (set(), set()), (set(), set())
    for k, c in enumerate(choices):
        picked[c].update(FOUR_INPUT_TRACES[c, k][0])
        used[c].update(FOUR_INPUT_TRACES[c, k][1])
    rows = np.concatenate([g.nodes[sorted(p)] for g, p in zip(parents, picked)])
    if size_max is not None and len(rows) > size_max:
        rows = rows[np.sort(twin.choice(len(rows), size=size_max, replace=False))]
    outputs = [parents[c].outputs[k] for k, c in enumerate(choices)]
    coins = twin.random(a.n_in) < 0.5
    inputs = [a.inputs[i] if i in used[0] and i not in used[1]
              else b.inputs[i] if i in used[1] and i not in used[0]
              else (b if coins[i] else a).inputs[i] for i in range(a.n_in)]
    return make_genome(GenomeMode.PCGP, 4, 2, rows, outputs, inputs)


def test_output_graph_hand_built_parents():
    """Rows, outputs and the three input-gene cases (one parent's traces
    read it, both do, neither does), against hand-known traces."""
    a, b = four_input_parents()
    graphs = graphs_of(a, b)
    for (side, k), (nodes, inputs) in FOUR_INPUT_TRACES.items():
        d = graphs[side]
        assert output_trace(d, k, arity_aware=False) == nodes
        ends = [d.output_list[k]] + [t for i in nodes for t in d.row(i)[:2]]
        assert {t for t in ends if t < 4} == inputs
    coin_genes = set()
    for choices in ([0, 0], [0, 1], [1, 0], [1, 1]):
        for seed in range(8):
            child = output_graph(a, b, graphs, np.random.default_rng(seed),
                                 output_choices=choices)
            want = output_graph_oracle(a, b, np.random.default_rng(seed), choices)
            assert flatten(child).tobytes() == flatten(want).tobytes()
            if choices == [0, 1]:
                # in0 is a's alone, in1 b's alone; in2 (both) and in3 (neither) flip
                assert child.inputs[:2].tolist() == [0.9, 0.65]
                coin_genes.update(child.inputs[2:].tolist())
    assert coin_genes == {0.5, 0.45, 0.3, 0.25}


@pytest.mark.parametrize("size_max", [None, 4, 3, 1, 0])
def test_output_graph_draw_order(size_max):
    """Capping above size_max, and the generator left where a twin that
    made the documented draws in the documented order is left."""
    a, b = four_input_parents()
    bounds = None if size_max is None else SizeBounds(0, size_max)
    for seed in range(12):
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        child = output_graph(a, b, graphs_of(a, b), rng, bounds)
        want = output_graph_oracle(a, b, twin, size_max=size_max)
        assert flatten(child).tobytes() == flatten(want).tobytes()
        assert rng.random() == twin.random()
        if size_max is not None:
            assert child.n_nodes <= size_max
        for choices in ([0, 1], [1, 1]):     # four and three rows
            rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
            child = output_graph(a, b, graphs_of(a, b), rng, bounds, output_choices=choices)
            want = output_graph_oracle(a, b, twin, choices, size_max)
            assert flatten(child).tobytes() == flatten(want).tobytes()
            assert rng.random() == twin.random()


def test_output_graph_truncates_at_size_max():
    rng = np.random.default_rng(5)
    a = random_genome(GenomeMode.PCGP, 2, 2, 30, rng)
    b = random_genome(GenomeMode.PCGP, 2, 2, 30, rng)
    child = output_graph(a, b, graphs_of(a, b), rng, bounds=SizeBounds(0, 4))
    assert child.n_nodes <= 4


# --------------------------------------------------------------- subgraph

def chain(positions, seed, n_in=1, n_out=1):
    s = SET
    rows = []
    prev = None
    rng = np.random.default_rng(seed)
    for p in positions:
        x = invert_connection_position(prev, p, s) if prev is not None else 0.0
        rows.append(pnode(p, x, 0.0, c=float(rng.random())))
        prev = p
    return make_genome(GenomeMode.PCGP, n_in, n_out, rows, rng.random(n_out), [1.0] * n_in)


def test_subgraph_union_of_selected_components():
    a = chain([0.2, 0.4], 1)
    b = chain([0.3, 0.5, 0.7], 2)
    both = subgraph(a, b, graphs_of(a, b), np.random.default_rng(0),
                    select_a=[True], select_b=[True])
    assert both.n_nodes == 5
    none = subgraph(a, b, graphs_of(a, b), np.random.default_rng(0),
                    select_a=[False], select_b=[False])
    assert none.n_nodes == 0
    # drawn, each parent's one component is taken when its draw is below 1/2
    draws = np.random.default_rng(8).random(2)
    drawn = subgraph(a, b, graphs_of(a, b), np.random.default_rng(8))
    assert drawn.n_nodes == 2 * (draws[0] < 0.5) + 3 * (draws[1] < 0.5)


def test_subgraph_self_cross_under_forced_selection():
    a = chain([0.2, 0.4, 0.6], 3)
    n_comp = max(decode(a, SET, FSET).components) + 1
    child = subgraph(a, a, graphs_of(a, a), np.random.default_rng(9),
                     select_a=[True] * n_comp, select_b=[False] * n_comp)
    assert flatten(child).tolist() == flatten(a).tolist()


def test_subgraph_truncates_at_size_max():
    a = chain([0.1, 0.3, 0.5], 4)
    b = chain([0.2, 0.4, 0.6], 5)
    child = subgraph(a, b, graphs_of(a, b), np.random.default_rng(1),
                     bounds=SizeBounds(0, 4), select_a=[True], select_b=[True])
    assert child.n_nodes == 4


# ------------------------------------------------------------- properties

@hsettings(max_examples=60, deadline=None)
@given(st.sampled_from(["single_point", "random_node", "aligned_node",
                        "proportional", "output_graph", "subgraph"]),
       st.integers(0, 2**31 - 1))
def test_children_always_valid(op, seed):
    rng = np.random.default_rng(seed)
    mode = GenomeMode.PCGP if op in ("aligned_node", "output_graph", "subgraph") \
        else (GenomeMode.CGP if rng.random() < 0.5 else GenomeMode.PCGP)
    a = random_genome(mode, 2, 2, int(rng.integers(0, 12)), rng)
    b = random_genome(mode, 2, 2, int(rng.integers(0, 12)), rng)
    graphs = graphs_of(a, b, DecodeSettings(input_start=-0.5))
    child = apply_crossover(a, b, op, rng, SizeBounds(0, 20), graphs)
    validate_genome(child)
    assert child.n_nodes <= 20


def test_operators_deterministic_under_seed():
    a, b = rnd(GenomeMode.PCGP, 8, 0), rnd(GenomeMode.PCGP, 6, 1)
    for op in ("single_point", "random_node", "aligned_node",
               "proportional", "output_graph", "subgraph"):
        c1 = apply_crossover(a, b, op, np.random.default_rng(42), graphs=graphs_of(a, b))
        c2 = apply_crossover(a, b, op, np.random.default_rng(42), graphs=graphs_of(a, b))
        assert flatten(c1).tolist() == flatten(c2).tolist(), op


def _refuse_decode(*_args):
    raise AssertionError("an operator decoded")


@hsettings(max_examples=80, deadline=None)
@given(st.sampled_from(["output_graph", "subgraph"]),
       st.integers(0, 12), st.integers(0, 12),
       st.sampled_from([0.0, 0.2, 1.0]), st.booleans(), st.integers(0, 2**31 - 1))
def test_given_graphs_match_decoding(op, n_a, n_b, recurrency, capped, seed):
    """Handed the parents' graphs, output_graph and subgraph (directly and
    through apply_crossover) decode nothing and give the child bytes and
    leave the stream state they give when handed the reference decodes
    of the parents."""
    rng = np.random.default_rng(seed)
    a = random_genome(GenomeMode.PCGP, 2, 3, n_a, rng)
    b = random_genome(GenomeMode.PCGP, 2, 3, n_b, rng)
    s = DecodeSettings(recurrency=recurrency, input_start=-0.5)
    bounds = SizeBounds(0, 4) if capped else None
    graphs = graphs_of(a, b, s)
    direct = {"output_graph": output_graph, "subgraph": subgraph}[op]
    r_ref, r_direct, r_apply = (np.random.default_rng(seed + 1) for _ in range(3))
    want = direct(a, b, [reference.decode(g, s, FSET) for g in (a, b)], r_ref, bounds)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pcgp.crossover, "decode", _refuse_decode)
        got = direct(a, b, graphs, r_direct, bounds)
        applied = apply_crossover(a, b, op, r_apply, bounds, graphs)
    for child, stream in ((got, r_direct), (applied, r_apply)):
        assert flatten(child).tobytes() == flatten(want).tobytes()
        assert child.n_nodes == want.n_nodes
        assert stream.bit_generator.state == r_ref.bit_generator.state
