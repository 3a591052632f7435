"""Mutation operators: rates, structural edits, mixed branching."""

import numpy as np
import pytest
from hypothesis import given, settings as hsettings, strategies as st

import pcgp.mutate
from pcgp.decode import DecodeSettings, component_groups, connection_position, decode
from pcgp.errors import ConfigError, UnsupportedOperatorError
from pcgp.functions import default_functions
from pcgp.genome import (
    GenomeMode, SizeBounds, flatten, make_genome, node_position, random_genome,
    validate_genome,
)
from pcgp.mutate import (
    MutationParams, add_probability, apply_mutation, gene_mutation, invert_connection_position,
    mixed_node_mutate, mixed_subgraph_mutate, node_addition, node_deletion, subgraph_addition,
    reads_graph, subgraph_deletion,
)

import reference

FSET = default_functions()
SET = DecodeSettings()


def params(**kw):
    kw.setdefault("bounds", SizeBounds(10, 40))
    return MutationParams(**kw)


# -------------------------------------------------------- gene mutation

def test_zero_rates_identity():
    g = random_genome(GenomeMode.PCGP, 2, 2, 8, np.random.default_rng(0))
    p = params(node_rate=0.0, output_rate=0.0, input_rate=0.0)
    h = gene_mutation(g, p, np.random.default_rng(1))
    assert flatten(h).tolist() == flatten(g).tolist()


@pytest.mark.parametrize("operator", ["gene", "mixed_node", "mixed_subgraph"])
def test_graph_reading_mutation_needs_its_graph(operator):
    g = random_genome(GenomeMode.PCGP, 2, 1, 12, np.random.default_rng(2))
    for require_active in (True, False):
        p = params(operator=operator, require_active=require_active, modify_rate=1.0)
        if not reads_graph(p):
            apply_mutation(g, p, SET, np.random.default_rng(3))
            continue
        with pytest.raises(ValueError, match="graph is None"):
            apply_mutation(g, p, SET, np.random.default_rng(3))
        with pytest.raises(ValueError, match="graph is None"):
            gene_mutation(g, p, np.random.default_rng(3))


def test_gene_change_rate_binomial():
    rng = np.random.default_rng(7)
    g = random_genome(GenomeMode.CGP, 2, 1, 2500, rng)  # 10^4 node genes
    rate = 0.25
    h = gene_mutation(g, params(node_rate=rate), rng)
    changed = int((h.nodes != g.nodes).sum())
    n = g.nodes.size
    sigma = (n * rate * (1 - rate)) ** 0.5
    assert abs(changed - n * rate) <= 3 * sigma


def test_require_active_touches_active_gene():
    rng = np.random.default_rng(11)
    for _ in range(50):
        g = random_genome(GenomeMode.CGP, 2, 1, 10, rng)
        d = decode(g, SET, FSET)
        if not d.active.any():
            continue
        h = gene_mutation(g, params(node_rate=0.02, output_rate=0.0,
                                    require_active=True), rng, d)
        assert (h.nodes[d.active] != g.nodes[d.active]).any()


def test_require_active_without_active_nodes_terminates():
    # outputs point at inputs; no retry loop can ever satisfy the goal
    g = make_genome(GenomeMode.CGP, 1, 1, [[0.9, 0.9, 0.1, 0.5]], [0.1])
    d = decode(g, SET, FSET)
    assert not d.active.any()
    h = gene_mutation(g, params(node_rate=0.0, output_rate=1.0, require_active=True),
                      np.random.default_rng(2), d)
    validate_genome(h)


def test_operator_name_validated():
    with pytest.raises(ConfigError):
        params(operator="nope")
    with pytest.raises(ConfigError):
        params(node_rate=1.4)


# ----------------------------------------------------- structural edits

def test_node_addition_counts():
    rng = np.random.default_rng(3)
    g = random_genome(GenomeMode.CGP, 2, 1, 12, rng)
    assert node_addition(g, params(delta_frac=0.2), rng).n_nodes == 14
    assert node_addition(g, params(delta_frac=0.1, bounds=SizeBounds(5, 40)), rng).n_nodes == 13
    full = random_genome(GenomeMode.CGP, 2, 1, 40, rng)
    assert node_addition(full, params(delta_frac=0.2), rng) is full
    # partial truncation: room for one of the two
    near = random_genome(GenomeMode.CGP, 2, 1, 39, rng)
    assert node_addition(near, params(delta_frac=0.2), rng).n_nodes == 40


def test_node_addition_keeps_pcgp_sorted():
    rng = np.random.default_rng(4)
    g = random_genome(GenomeMode.PCGP, 2, 1, 12, rng)
    h = node_addition(g, params(delta_frac=0.5), rng)
    assert h.n_nodes == 17
    assert np.all(np.diff(h.nodes[:, 0]) >= 0)


def test_node_deletion_counts():
    rng = np.random.default_rng(5)
    g = random_genome(GenomeMode.CGP, 2, 1, 12, rng)
    assert node_deletion(g, params(delta_frac=0.2), rng).n_nodes == 10
    at_min = random_genome(GenomeMode.CGP, 2, 1, 10, rng)
    assert node_deletion(at_min, params(delta_frac=0.2), rng) is at_min
    # unconstrained small genome loses everything
    tiny = random_genome(GenomeMode.CGP, 2, 1, 1, rng)
    gone = node_deletion(tiny, params(delta_frac=0.3, bounds=SizeBounds(0, 40)), rng)
    assert gone.n_nodes == 0


# -------------------------------------------------------- add probability

def test_add_probability_endpoints_exact():
    p = params(modify_rate=0.6)
    assert add_probability(10, p) == 0.0
    assert add_probability(40, p) == 1.0 - 0.6
    assert add_probability(25, p) == pytest.approx(0.2, abs=1e-15)


def test_add_probability_inverted_and_degenerate():
    p = params(modify_rate=0.6, add_inverted=True)
    assert add_probability(10, p) == 1.0 - 0.6
    assert add_probability(40, p) == 0.0
    flat = params(bounds=SizeBounds(10, 10))
    assert add_probability(10, flat) == 0.0


# -------------------------------------------------------- mixed operators

def test_mixed_node_branch_frequencies():
    rng = np.random.default_rng(13)
    g = random_genome(GenomeMode.CGP, 2, 1, 25, rng)
    p = params(modify_rate=0.6, delta_frac=0.2)  # burst size 2
    p_add = add_probability(25, p)
    assert p_add == pytest.approx(0.2, abs=1e-15)
    trials = 10_000
    counts = {0: 0, 2: 0, -2: 0}
    for _ in range(trials):
        h = mixed_node_mutate(g, p, rng)
        counts[h.n_nodes - g.n_nodes] += 1
    for delta, prob in ((0, 0.6), (2, 0.2), (-2, 0.2)):
        sigma = (trials * prob * (1 - prob)) ** 0.5
        assert abs(counts[delta] - trials * prob) <= 3 * sigma, (delta, counts)


def test_mixed_node_always_modifies_when_modify_rate_is_one():
    rng = np.random.default_rng(19)
    g = random_genome(GenomeMode.CGP, 2, 1, 25, rng)
    for _ in range(50):
        assert mixed_node_mutate(g, params(modify_rate=1.0), rng).n_nodes == 25


# ---------------------------------------------------- subgraph operators

def test_subgraph_ops_reject_plain_mode():
    rng = np.random.default_rng(0)
    g = random_genome(GenomeMode.CGP, 2, 1, 12, rng)
    with pytest.raises(UnsupportedOperatorError):
        subgraph_addition(g, params(), SET, rng)
    graph = decode(g, SET, FSET)
    with pytest.raises(UnsupportedOperatorError):
        subgraph_deletion(g, params(), rng, graph)
    with pytest.raises(UnsupportedOperatorError):
        mixed_subgraph_mutate(g, params(), SET, rng, graph)


def test_invert_connection_round_trip():
    rng = np.random.default_rng(21)
    for _ in range(200):
        s = DecodeSettings(recurrency=float(rng.random()),
                           input_start=float(-1.0 + 0.9 * rng.random()))
        node_pos = float(rng.random())
        reach = s.recurrency * (1 - node_pos) + node_pos
        target = float(rng.uniform(s.input_start, reach))
        x = invert_connection_position(target, node_pos, s)
        back = connection_position(x, node_pos, s, GenomeMode.PCGP)
        assert back == pytest.approx(target, abs=1e-9)


def test_invert_connection_clamps():
    s = DecodeSettings(recurrency=0.0, input_start=-0.5)
    assert invert_connection_position(-0.9, 0.5, s) == 0.0
    assert invert_connection_position(0.9, 0.5, s) == 1.0


def test_subgraph_addition_hits_pool_positions():
    rng = np.random.default_rng(29)
    s = DecodeSettings(recurrency=0.3, input_start=-0.5)
    marker = 0.123
    nodes = np.column_stack([
        np.linspace(0.05, 0.95, 8),
        rng.random((8, 3)),
        np.full(8, marker),
    ])
    g = make_genome(GenomeMode.PCGP, 3, 1, nodes, [0.9], [0.2, 0.5, 0.8])
    p = params(delta_frac=0.3, bounds=SizeBounds(10, 40))  # adds 3
    h = subgraph_addition(g, p, s, rng)
    assert h.n_nodes == 11
    positions = np.array([node_position(h, j, s.input_start)
                          for j in range(h.n_in + h.n_nodes)])
    new = h.nodes[h.nodes[:, -1] != marker]
    assert new.shape[0] == 3
    for row in new:
        for gene in (row[1], row[2]):
            point = connection_position(gene, row[0], s, GenomeMode.PCGP)
            assert np.min(np.abs(positions - point)) < 1e-9


def test_subgraph_addition_truncates_at_size_max():
    rng = np.random.default_rng(31)
    g = random_genome(GenomeMode.PCGP, 2, 1, 39, rng)
    h = subgraph_addition(g, params(delta_frac=0.5), SET, rng)
    assert h.n_nodes == 40
    full = random_genome(GenomeMode.PCGP, 2, 1, 40, rng)
    assert subgraph_addition(full, params(), SET, rng) is full


def chain_and_singletons():
    """Component {A at .2, B at .4} plus three singleton nodes."""
    s = DecodeSettings(input_start=-1.0)
    b_to_a = invert_connection_position(0.2, 0.4, s)
    nodes = [
        [0.2, 0.0, 0.0, 0.1, 0.3],       # A -> input
        [0.4, b_to_a, 0.0, 0.1, 0.3],    # B -> A
        [0.6, 0.0, 0.0, 0.1, 0.9],
        [0.7, 0.0, 0.0, 0.1, 0.9],
        [0.8, 0.0, 0.0, 0.1, 0.9],
    ]
    return make_genome(GenomeMode.PCGP, 1, 1, nodes, [0.95], [1.0]), s


def test_subgraph_deletion_removes_only_from_multinode_component():
    g, s = chain_and_singletons()
    d = decode(g, s, FSET)
    assert sorted(np.bincount(d.components).tolist()) == [1, 1, 1, 2]
    p = params(delta_frac=0.5, bounds=SizeBounds(3, 40))  # burst 2
    h = subgraph_deletion(g, p, np.random.default_rng(1), d)
    # only the 2-node component can shrink, and it shrinks entirely
    assert h.n_nodes == 3
    assert h.nodes[:, 0].tolist() == [0.6, 0.7, 0.8]


def test_subgraph_deletion_singleton_fallback():
    s = DecodeSettings(input_start=-1.0)
    nodes = [[x, 0.0, 0.0, 0.1, 0.9] for x in np.linspace(0.1, 0.9, 6)]
    g = make_genome(GenomeMode.PCGP, 1, 1, nodes, [0.95], [1.0])
    p = params(delta_frac=0.5, bounds=SizeBounds(4, 40))  # burst 2
    h = subgraph_deletion(g, p, np.random.default_rng(3), decode(g, s, FSET))
    assert h.n_nodes == 4  # node_deletion fallback removed 2 anywhere


def test_subgraph_deletion_respects_size_min():
    g, s = chain_and_singletons()
    p = params(delta_frac=0.3, bounds=SizeBounds(4, 40))
    h = subgraph_deletion(g, p, np.random.default_rng(5), decode(g, s, FSET))
    assert h.n_nodes == 4


def test_subgraph_deletion_deletes_from_the_drawn_component():
    """The stream's first draw, over the multi-node components in label
    order, names the component that loses a node."""
    s = DecodeSettings(input_start=-1.0)
    pos = [0.2, 0.4, 0.6, 0.7, 0.8]
    aims = [None, 0.2, None, 0.6, 0.7]     # A, B -> A; C, D -> C, E -> D; None aims at the input
    nodes = [[p, 0.0 if t is None else invert_connection_position(t, p, s), 0.0, 0.1, 0.3]
             for p, t in zip(pos, aims)]
    g = make_genome(GenomeMode.PCGP, 1, 1, nodes, [0.95], [1.0])
    d = decode(g, s, FSET)
    comps = [c.tolist() for c in component_groups(d)]
    assert comps == [[0, 1], [2, 3, 4]]
    for seed in range(8):
        k = int(np.random.default_rng(seed).integers(2))
        h = subgraph_deletion(g, params(bounds=SizeBounds(0, 40)), np.random.default_rng(seed), d)
        gone = set(pos) - set(h.nodes[:, 0].tolist())
        assert len(gone) == 1 and gone <= {pos[i] for i in comps[k]}


# ------------------------------------------------------------ properties

@hsettings(max_examples=60, deadline=None)
@given(st.sampled_from(["gene", "mixed_node", "mixed_subgraph"]),
       st.integers(0, 2**31 - 1))
def test_children_always_valid(op, seed):
    rng = np.random.default_rng(seed)
    mode = GenomeMode.PCGP if op == "mixed_subgraph" else \
        (GenomeMode.CGP if rng.random() < 0.5 else GenomeMode.PCGP)
    n = int(rng.integers(5, 20))
    g = random_genome(mode, 2, 2, n, rng)
    p = params(operator=op, bounds=SizeBounds(5, 20),
               node_rate=float(rng.uniform(0.1, 1.0)),
               require_active=bool(rng.integers(0, 2)),
               delta_frac=float(rng.uniform(0.1, 0.5)),
               modify_rate=float(rng.uniform(0.1, 0.9)))
    s = DecodeSettings(recurrency=float(rng.random()), input_start=-0.5)
    h = apply_mutation(g, p, s, rng, decode(g, s, FSET))
    validate_genome(h)
    assert 5 <= h.n_nodes <= 20


def test_operators_deterministic_under_seed():
    g = random_genome(GenomeMode.PCGP, 2, 2, 15, np.random.default_rng(0))
    p = params(operator="mixed_subgraph", bounds=SizeBounds(5, 20))
    s = DecodeSettings(recurrency=0.4, input_start=-0.5)
    graph = decode(g, s, FSET)
    a = apply_mutation(g, p, s, np.random.default_rng(99), graph)
    b = apply_mutation(g, p, s, np.random.default_rng(99), graph)
    assert flatten(a).tolist() == flatten(b).tolist()


def _refuse_decode(*_args):
    raise AssertionError("an operator decoded")


@hsettings(max_examples=80, deadline=None)
@given(st.sampled_from(["gene_mutation", "subgraph_deletion",
                        "gene", "mixed_node", "mixed_subgraph"]),
       st.integers(0, 15), st.sampled_from([0.0, 0.2, 1.0]), st.integers(0, 2**31 - 1))
def test_given_graph_matches_decoding(op, n_nodes, recurrency, seed):
    """Handed the parent's graph, gene_mutation with require_active,
    subgraph_deletion and apply_mutation decode nothing and give the
    child bytes and leave the stream state they give when handed the
    reference decode of the parent."""
    rng = np.random.default_rng(seed)
    g = random_genome(GenomeMode.PCGP, 2, 2, n_nodes, rng)
    p = params(operator="gene" if op in ("gene_mutation", "subgraph_deletion") else op,
               bounds=SizeBounds(0, 20), node_rate=0.05, require_active=True,
               delta_frac=float(rng.uniform(0.1, 0.5)),
               modify_rate=float(rng.uniform(0.1, 0.9)))
    s = DecodeSettings(recurrency=recurrency, input_start=-0.5)
    call = {"gene_mutation": lambda r, graph: gene_mutation(g, p, r, graph),
            "subgraph_deletion": lambda r, graph: subgraph_deletion(g, p, r, graph),
            }.get(op, lambda r, graph: apply_mutation(g, p, s, r, graph))
    r_ref, r_new = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    want = call(r_ref, reference.decode(g, s, FSET))
    graph = decode(g, s, FSET)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pcgp.mutate, "decode", _refuse_decode)
        got = call(r_new, graph)
    assert flatten(got).tobytes() == flatten(want).tobytes()
    assert got.n_nodes == want.n_nodes
    assert r_new.bit_generator.state == r_ref.bit_generator.state
