"""Crossover operators: fixpoints, mixing laws, structural recombination."""

import numpy as np
import pytest
from hypothesis import given, settings as hsettings

from pcgp.crossover import (
    aligned_node, apply_crossover, output_graph, proportional, random_node, single_point, subgraph,
)
from pcgp.decode import DecodeSettings, decode, output_trace
from pcgp.errors import ConfigError
from pcgp.execute import run_supervised
from pcgp.functions import default_functions
from pcgp.genome import GenomeMode, SizeBounds, flatten, make_genome, random_genome
from pcgp.mutate import invert_connection_position

from scripted import Scripted
from test_operator_laws import X, check_child, check_determinism, check_handoff, draws

FSET = default_functions()
SET = DecodeSettings(input_start=-1.0)
UNCAPPED = SizeBounds(0, 1000)      # above every child's size here


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


def test_apply_crossover_unknown_name():
    a, b = rnd(GenomeMode.CGP, 5, 0), rnd(GenomeMode.CGP, 5, 1)
    with pytest.raises(ConfigError):
        apply_crossover(a, b, "bogus", np.random.default_rng(0), UNCAPPED)


# ------------------------------------------------------------ single point

def test_single_point_cut_zero_clones_a_parent():
    # offset 0, the first cut drawn, returns the tail parent itself
    a, b = rnd(GenomeMode.CGP, 4, 0), rnd(GenomeMode.CGP, 6, 1)
    for head_draw, tail in ((0, b), (1, a)):
        rng = Scripted(np.random.default_rng(0), integers=[0, head_draw])
        assert single_point(a, b, rng) is tail


def test_single_point_enumerated_cuts():
    a, b = rnd(GenomeMode.PCGP, 2, 3), rnd(GenomeMode.PCGP, 3, 4)
    fa, fb = flatten(a), flatten(b)
    header, stride = 2 + 2, 5
    for j in range(3):  # min(2,3)+1 boundaries
        cut = header + j * stride
        for seed in range(10):
            # the cut is the (j + 1)-th legal cut; offset 0 is the first
            child = single_point(a, b, Scripted(np.random.default_rng(seed), integers=[j + 1]))
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


@pytest.mark.parametrize("sizes", [(7, 10), (8, 8)], ids=["unequal", "equal"])
def test_random_node_keeps_each_parents_stored_order(sizes):
    """a's half of the nodes, then b's, each in its parent's stored
    order, which is CGP's evaluation order."""
    for seed in range(10):
        a, b = rnd(GenomeMode.CGP, sizes[0], seed), rnd(GenomeMode.CGP, sizes[1], seed + 100)
        child = random_node(a, b, np.random.default_rng(seed)).nodes.tolist()
        half_a = a.n_nodes // 2
        for parent, rows in ((a, child[:half_a]), (b, child[half_a:])):
            stored = parent.nodes.tolist()
            index = [stored.index(row) for row in rows]
            assert index == sorted(index)


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


def test_aligned_node_pairs_the_smaller_index_of_a_tie():
    # two distinct rows of b at 0.5; a's node at 0.6 is nearest that
    # position, from above, and pairs with b's node 0 by decode's rule
    a = make_genome(GenomeMode.PCGP, 1, 1, [pnode(0.6, c=0.1)], [0.5], [0.5])
    b = make_genome(GenomeMode.PCGP, 1, 1, [pnode(0.5, c=0.2), pnode(0.5, c=0.3)],
                    [0.5], [0.5])
    # coins: the pair keeps b's node and b's leftover is dropped, then
    # the pair keeps a's node and the leftover is kept (stored first)
    for coins, want in (([0.9, 0.9], b.nodes[:1]), ([0.1, 0.1], [b.nodes[1], a.nodes[0]])):
        for x, y in ((a, b), (b, a)):
            child = aligned_node(x, y, Scripted(np.random.default_rng(0), random=coins))
            assert child.nodes.tolist() == np.array(want).tolist()


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
    keep_a = proportional(a, b, Scripted(np.random.default_rng(0), random=[np.zeros(low)]))
    assert flatten(keep_a).tolist() == sorted_flat(a)
    keep_b = proportional(a, b, Scripted(np.random.default_rng(0), random=[np.ones(low)]))
    assert flatten(keep_b).tolist() == sorted_flat(b)


def sorted_flat(g):
    return flatten(make_genome(g.mode, g.n_in, g.n_out, g.nodes, g.outputs, g.inputs)).tolist()


def test_proportional_midpoint_value():
    a = make_genome(GenomeMode.CGP, 1, 1, np.full((1, 4), 0.2), [0.2])
    b = make_genome(GenomeMode.CGP, 1, 1, np.full((1, 4), 0.6), [0.6])
    child = proportional(a, b, Scripted(np.random.default_rng(0), random=[np.full(5, 0.5)]))
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
    rng = Scripted(np.random.default_rng(0), integers=[0, 1])
    child = output_graph(a, b, graphs_of(a, b), rng, UNCAPPED)
    assert child.n_nodes == 3
    assert sorted(np.round(child.nodes[:, 0], 6).tolist()) == [0.2, 0.6, 0.7]
    assert child.outputs.tolist() == [0.8, (0.7 + 1.0) / 2.0]
    # in0 used only via a's trace, in1 only via b's: both inherited directly
    assert child.inputs.tolist() == [0.9, 0.15]


def test_output_graph_all_from_one_parent():
    a, b = two_trace_parents()
    rng = Scripted(np.random.default_rng(0), integers=[0, 0])
    child = output_graph(a, b, graphs_of(a, b), rng, UNCAPPED)
    for row in child.nodes.tolist():
        assert row in a.nodes.tolist()
    assert child.outputs.tolist() == a.outputs.tolist()
    # b's output 0 reads in0 itself, so in0 is b's too (with rng 0 the coin would pick a's)
    rng = Scripted(np.random.default_rng(0), integers=[1, 1])
    child = output_graph(a, b, graphs_of(a, b), rng, UNCAPPED)
    assert child.inputs.tolist() == b.inputs.tolist()


def test_output_graph_self_cross_keeps_behavior():
    rng = np.random.default_rng(77)
    for _ in range(10):
        a = random_genome(GenomeMode.PCGP, 2, 2, 10, rng)
        s = DecodeSettings(recurrency=float(rng.random() * 0.8), input_start=-0.5)
        child = output_graph(a, a, graphs_of(a, a, s), rng, UNCAPPED)
        x = rng.uniform(-1, 1, (6, 2))
        got = run_supervised(decode(child, s, FSET), x)
        want = run_supervised(decode(a, s, FSET), x)
        assert got.tolist() == want.tolist()
        # traces follow both connections, whatever the function's arity
        d = decode(a, s, FSET)
        both = output_graph(a, a, (d, d), Scripted(rng, integers=[0, 0]), UNCAPPED)
        assert both.n_nodes == len(output_trace(d, 0) | output_trace(d, 1))


def test_output_graph_decodes_only_traced_nodes():
    """The parents' graphs fill the rows of the nodes the chosen traces
    reach, beside the active ones decode filled, and no others."""
    rng = np.random.default_rng(8)
    for _ in range(10):
        a, b = (random_genome(GenomeMode.PCGP, 2, 3, 20, rng) for _ in range(2))
        graphs = graphs_of(a, b)
        choices = rng.integers(0, 2, 3)
        output_graph(a, b, graphs, Scripted(rng, integers=choices.tolist()), UNCAPPED)
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
        assert output_trace(d, k) == nodes
        ends = [d.output_list[k]] + [t for i in nodes for t in d.row(i)[:2]]
        assert {t for t in ends if t < 4} == inputs
    coin_genes = set()
    for choices in ([0, 0], [0, 1], [1, 0], [1, 1]):
        for seed in range(8):
            rng = Scripted(np.random.default_rng(seed), integers=choices)
            child = output_graph(a, b, graphs, rng, UNCAPPED)
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
    bounds = UNCAPPED if size_max is None else SizeBounds(0, size_max)
    for seed in range(12):
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        child = output_graph(a, b, graphs_of(a, b), rng, bounds)
        want = output_graph_oracle(a, b, twin, size_max=size_max)
        assert flatten(child).tobytes() == flatten(want).tobytes()
        assert rng.random() == twin.random()
        assert child.n_nodes <= bounds.size_max
        for choices in ([0, 1], [1, 1]):     # four and three rows
            rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
            child = output_graph(a, b, graphs_of(a, b), Scripted(rng, integers=choices), bounds)
            want = output_graph_oracle(a, b, twin, choices, size_max)
            assert flatten(child).tobytes() == flatten(want).tobytes()
            assert rng.random() == twin.random()


def test_output_graph_truncates_at_size_max():
    rng = np.random.default_rng(5)
    a = random_genome(GenomeMode.PCGP, 2, 2, 30, rng)
    b = random_genome(GenomeMode.PCGP, 2, 2, 30, rng)
    # a narrow input span and recurrency give traces of more than 4 nodes
    graphs = graphs_of(a, b, DecodeSettings(input_start=-0.1, recurrency=0.5))
    child = output_graph(a, b, graphs, rng, SizeBounds(0, 4))
    assert child.n_nodes == 4


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


def picks(rng, select_a, select_b):
    """rng, with the component draws scripted to take exactly the
    components each mask marks (a draw is taken below one half)."""
    return Scripted(rng, random=[np.where(select_a, 0.0, 0.5), np.where(select_b, 0.0, 0.5)])


def test_subgraph_union_of_selected_components():
    a = chain([0.2, 0.4], 1)
    b = chain([0.3, 0.5, 0.7], 2)
    both = subgraph(a, b, graphs_of(a, b), picks(np.random.default_rng(0), [True], [True]),
                    UNCAPPED)
    assert both.n_nodes == 5
    none = subgraph(a, b, graphs_of(a, b), picks(np.random.default_rng(0), [False], [False]),
                    UNCAPPED)
    assert none.n_nodes == 0
    # drawn, each parent's one component is taken when its draw is below 1/2
    draws = np.random.default_rng(8).random(2)
    drawn = subgraph(a, b, graphs_of(a, b), np.random.default_rng(8), UNCAPPED)
    assert drawn.n_nodes == 2 * (draws[0] < 0.5) + 3 * (draws[1] < 0.5)


def test_subgraph_self_cross_under_forced_selection():
    a = chain([0.2, 0.4, 0.6], 3)
    n_comp = len(decode(a, SET, FSET).components)
    rng = picks(np.random.default_rng(9), [True] * n_comp, [False] * n_comp)
    child = subgraph(a, a, graphs_of(a, a), rng, UNCAPPED)
    assert flatten(child).tolist() == flatten(a).tolist()


def test_subgraph_truncates_at_size_max():
    a = chain([0.1, 0.3, 0.5], 4)
    b = chain([0.2, 0.4, 0.6], 5)
    child = subgraph(a, b, graphs_of(a, b), picks(np.random.default_rng(1), [True], [True]),
                     SizeBounds(0, 4))
    assert child.n_nodes == 4


# -------------------------------------------------------- operator laws

@hsettings(max_examples=100, deadline=None)
@given(draws(X))
def test_children_always_valid(draw):
    """Every crossover row gives a valid child whose genes come from its
    parents as the row's provenance law says."""
    check_child(draw)


@hsettings(max_examples=50, deadline=None)
@given(draws(X))
def test_operators_deterministic_under_seed(draw):
    check_determinism(draw)


@hsettings(max_examples=80, deadline=None)
@given(draws(X, reads=True))
def test_given_graphs_match_decoding(draw):
    """Handed the parents' graphs, output_graph and subgraph decode
    nothing and give what the reference decodes of the parents give."""
    check_handoff(draw)
