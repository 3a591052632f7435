"""Crossover operators: fixpoints, mixing laws, structural recombination."""

import numpy as np
import pytest
from hypothesis import given, settings as hsettings, strategies as st

import pcgp.crossover
from pcgp.crossover import (
    _cap_rows,
    _check_mates,
    _coin_mix,
    _node_rows,
    _require_pcgp,
    aligned_node,
    apply_crossover,
    output_graph,
    proportional,
    random_node,
    single_point,
    subgraph,
)
from pcgp.decode import DecodeSettings, component_groups, decode, output_trace
from pcgp.errors import ConfigError, UnsupportedOperatorError
from pcgp.execute import run_supervised
from pcgp.functions import default_functions
from pcgp.genome import GenomeMode, SizeBounds, flatten, make_genome, random_genome, validate_genome
from pcgp.mutate import invert_connection_position

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


# The graph-reading operators as they were when each decoded the
# parents itself when handed no graphs; the oracle for the operators
# that are handed them.

def _old_parent_graphs(a, b, settings, fset, graphs):
    if graphs is None:
        return decode(a, settings, fset), decode(b, settings, fset)
    return graphs


def _old_output_graph(a, b, settings, fset, rng, bounds=None, output_choices=None,
                      graphs=None):
    _require_pcgp(a, "output graph")
    _check_mates(a, b)
    if output_choices is None:
        choices = rng.integers(0, 2, a.n_out)
    else:
        choices = np.asarray(output_choices, dtype=int)
        if choices.shape != (a.n_out,):
            raise ValueError(f"need {a.n_out} output choices")
    graphs = _old_parent_graphs(a, b, settings, fset, graphs)
    picked_nodes = ([], [])
    used_inputs = (set(), set())
    for k, c in enumerate(choices):
        d = graphs[c]
        tr = output_trace(d, k, arity_aware=False)
        picked_nodes[c].extend(tr)
        t = d.output_list[k]
        if t < a.n_in:
            used_inputs[c].add(t)
        for i in tr:
            for t in d.target_list[i]:
                if t < a.n_in:
                    used_inputs[c].add(t)
    rows = np.concatenate([
        _node_rows(a, sorted(set(picked_nodes[0]))),
        _node_rows(b, sorted(set(picked_nodes[1]))),
    ])
    rows = _cap_rows(rows, bounds, rng)
    outputs = np.where(choices == 0, a.outputs, b.outputs)
    flags = np.zeros((2, a.n_in), dtype=bool)
    for side in (0, 1):
        flags[side, list(used_inputs[side])] = True
    coins = rng.random(a.n_in) < 0.5
    inputs = np.where(flags[0] & ~flags[1], a.inputs,
                      np.where(flags[1] & ~flags[0], b.inputs,
                               np.where(coins, b.inputs, a.inputs)))
    return make_genome(a.mode, a.n_in, a.n_out, rows, outputs, inputs)


def _old_subgraph(a, b, settings, fset, rng, bounds=None, select_a=None, select_b=None,
                  graphs=None):
    _require_pcgp(a, "subgraph")
    _check_mates(a, b)
    parts = []
    graphs = _old_parent_graphs(a, b, settings, fset, graphs)
    for g, graph, given in zip((a, b), graphs, (select_a, select_b)):
        comps = component_groups(graph)
        take = (rng.random(len(comps)) < 0.5) if given is None else np.asarray(given, bool)
        if len(take) != len(comps):
            raise ValueError(f"need {len(comps)} component picks, got {len(take)}")
        chosen = [c for c, t in zip(comps, take) if t]
        idx = np.sort(np.concatenate(chosen)) if chosen else np.zeros(0, int)
        parts.append(_node_rows(g, idx))
    rows = _cap_rows(np.concatenate(parts), bounds, rng)
    outputs = _coin_mix(a.outputs, b.outputs, rng)
    inputs = _coin_mix(a.inputs, b.inputs, rng)
    return make_genome(a.mode, a.n_in, a.n_out, rows, outputs, inputs)


def _refuse_decode(*_args):
    raise AssertionError("an operator decoded")


@hsettings(max_examples=80, deadline=None)
@given(st.sampled_from(["output_graph", "subgraph"]),
       st.integers(0, 12), st.integers(0, 12),
       st.sampled_from([0.0, 0.2, 1.0]), st.booleans(), st.integers(0, 2**31 - 1))
def test_given_graphs_match_decoding(op, n_a, n_b, recurrency, capped, seed):
    """Handed the parents' graphs, output_graph and subgraph (directly and
    through apply_crossover) decode nothing and give the child bytes and
    leave the stream state of the old operators, which decoded the
    parents themselves."""
    rng = np.random.default_rng(seed)
    a = random_genome(GenomeMode.PCGP, 2, 3, n_a, rng)
    b = random_genome(GenomeMode.PCGP, 2, 3, n_b, rng)
    s = DecodeSettings(recurrency=recurrency, input_start=-0.5)
    bounds = SizeBounds(0, 4) if capped else None
    graphs = graphs_of(a, b, s)
    old = {"output_graph": _old_output_graph, "subgraph": _old_subgraph}[op]
    direct = {"output_graph": output_graph, "subgraph": subgraph}[op]
    r_old, r_direct, r_apply = (np.random.default_rng(seed + 1) for _ in range(3))
    want = old(a, b, s, FSET, r_old, bounds)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pcgp.crossover, "decode", _refuse_decode)
        got = direct(a, b, graphs, r_direct, bounds)
        applied = apply_crossover(a, b, op, r_apply, bounds, graphs)
    for child, stream in ((got, r_direct), (applied, r_apply)):
        assert flatten(child).tobytes() == flatten(want).tobytes()
        assert child.n_nodes == want.n_nodes
        assert stream.bit_generator.state == r_old.bit_generator.state
