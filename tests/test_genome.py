"""Genome representation: layout, positions, edits, serialization."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pcgp.errors import ParseError, SizeError
from pcgp.genome import (
    Genome,
    GenomeMode,
    SizeBounds,
    add_nodes,
    flatten,
    from_json,
    ladder_positions,
    make_genome,
    node_position,
    node_stride,
    random_genome,
    remove_nodes,
    to_json,
    unflatten,
    validate_genome,
)


def cgp(nodes, outputs, n_in=2, n_out=None):
    n_out = len(outputs) if n_out is None else n_out
    return make_genome(GenomeMode.CGP, n_in, n_out, nodes, outputs)


def pcgp(nodes, outputs, inputs):
    return make_genome(GenomeMode.PCGP, len(inputs), len(outputs), nodes, outputs, inputs)


# ---------------------------------------------------------------- layout

def test_stride_per_mode():
    assert node_stride(GenomeMode.CGP) == 4
    assert node_stride(GenomeMode.PCGP) == 5


def test_cgp_rejects_input_genes():
    with pytest.raises(ValueError):
        make_genome(GenomeMode.CGP, 1, 1, np.zeros((1, 4)), [0.5], inputs=[0.5])


def test_pcgp_requires_input_genes():
    with pytest.raises(ValueError):
        make_genome(GenomeMode.PCGP, 1, 1, np.zeros((1, 5)), [0.5])


def test_gene_range_enforced():
    with pytest.raises(ValueError):
        cgp([[0.1, 0.2, 1.5, 0.4]], [0.5])
    with pytest.raises(ValueError):
        cgp([[0.1, 0.2, 0.3, 0.4]], [-0.5])
    with pytest.raises(ValueError):
        pcgp([[0.5, 0.1, 0.2, 0.3, 0.4]], [0.5], [1.2])
    # NaN compares false against both bounds; it must still be rejected
    for which, genes in (("node", ([[0.5, 0.1, 0.2, 0.3, np.nan]], [0.5], [0.6])),
                         ("output", ([[0.5, 0.1, 0.2, 0.3, 0.4]], [np.nan], [0.6])),
                         ("input", ([[0.5, 0.1, 0.2, 0.3, 0.4]], [0.5], [np.nan]))):
        with pytest.raises(ValueError, match=f"{which} genes"):
            pcgp(*genes)


def test_zero_nodes_allowed():
    g = cgp(np.zeros((0, 4)), [0.25])
    assert g.n_nodes == 0
    assert flatten(g).tolist() == [0.25]


def test_arrays_read_only():
    g = cgp([[0.1, 0.2, 0.3, 0.4]], [0.5])
    with pytest.raises(ValueError):
        g.nodes[0, 0] = 0.9
    with pytest.raises(ValueError):
        g.outputs[0] = 0.9


def test_pcgp_nodes_sorted_by_position():
    g = pcgp(
        [[0.9, 0.1, 0.1, 0.1, 0.1], [0.2, 0.2, 0.2, 0.2, 0.2], [0.5, 0.3, 0.3, 0.3, 0.3]],
        [0.5],
        [0.5],
    )
    assert g.nodes[:, 0].tolist() == [0.2, 0.5, 0.9]


def test_pcgp_sort_is_stable_on_ties():
    # equal positions keep their original relative order
    g = pcgp(
        [[0.5, 0.9, 0.9, 0.9, 0.9], [0.5, 0.1, 0.1, 0.1, 0.1], [0.2, 0.4, 0.4, 0.4, 0.4]],
        [0.5],
        [0.5],
    )
    assert g.nodes[:, 0].tolist() == [0.2, 0.5, 0.5]
    assert g.nodes[1, 1] == 0.9
    assert g.nodes[2, 1] == 0.1


# ------------------------------------------------------------- positions

def test_cgp_ladder_positions():
    # 2 inputs + 2 nodes -> cell centers eighths apart
    g = cgp(np.full((2, 4), 0.5), [0.5], n_in=2)
    got = [node_position(g, i) for i in range(4)]
    assert got == [0.125, 0.375, 0.625, 0.875]


def test_ladder_positions_helper_matches():
    assert ladder_positions(4).tolist() == [0.125, 0.375, 0.625, 0.875]


def test_pcgp_input_position_scales_by_input_start():
    g = pcgp(np.full((1, 5), 0.5), [0.5], [0.5])
    assert node_position(g, 0, input_start=-1.0) == -0.5
    assert node_position(g, 0, input_start=-0.5) == -0.25
    assert node_position(g, 1) == 0.5  # node position gene, unscaled


def test_position_index_bounds():
    g = cgp(np.full((2, 4), 0.5), [0.5])
    with pytest.raises(IndexError):
        node_position(g, 4)
    with pytest.raises(IndexError):
        node_position(g, -1)


def test_node_positions_property():
    g = cgp(np.full((2, 4), 0.5), [0.5], n_in=2)
    assert g.node_positions().tolist() == [0.625, 0.875]
    h = pcgp([[0.3, 0, 0, 0, 0], [0.7, 0, 0, 0, 0]], [0.5], [0.5])
    assert h.node_positions().tolist() == [0.3, 0.7]


# ----------------------------------------------------------------- edits

def test_add_nodes_appends_for_cgp():
    g = cgp([[0.1, 0.1, 0.1, 0.1]], [0.5])
    h = add_nodes(g, [[0.9, 0.9, 0.9, 0.9]])
    assert h.n_nodes == 2
    assert h.nodes[1].tolist() == [0.9, 0.9, 0.9, 0.9]
    assert g.n_nodes == 1  # original untouched


def test_add_nodes_merges_sorted_for_pcgp():
    g = pcgp([[0.5, 0, 0, 0, 0]], [0.5], [0.5])
    h = add_nodes(g, [[0.2, 1, 1, 1, 1], [0.8, 1, 1, 1, 1]])
    assert h.nodes[:, 0].tolist() == [0.2, 0.5, 0.8]


def test_add_nodes_respects_size_max():
    g = cgp([[0.1, 0.1, 0.1, 0.1]], [0.5])
    with pytest.raises(SizeError):
        add_nodes(g, [[0.2] * 4, [0.3] * 4], bounds=SizeBounds(1, 2))
    assert add_nodes(g, [[0.2] * 4], bounds=SizeBounds(1, 2)).n_nodes == 2


def test_remove_nodes():
    g = cgp([[0.1] * 4, [0.2] * 4, [0.3] * 4], [0.5])
    h = remove_nodes(g, [1])
    assert h.nodes[:, 0].tolist() == [0.1, 0.3]
    with pytest.raises(IndexError):
        remove_nodes(g, [3])


# --------------------------------------------------------- flat layout

def test_flatten_layout_cgp():
    g = cgp([[0.1, 0.2, 0.3, 0.4]], [0.9])
    assert flatten(g).tolist() == [0.9, 0.1, 0.2, 0.3, 0.4]


def test_flatten_layout_pcgp():
    g = pcgp([[0.5, 0.1, 0.2, 0.3, 0.4]], [0.9], [0.6])
    assert flatten(g).tolist() == [0.6, 0.9, 0.5, 0.1, 0.2, 0.3, 0.4]


def test_unflatten_rejects_ragged_tail():
    with pytest.raises(ValueError):
        unflatten(GenomeMode.CGP, 1, 1, np.array([0.5, 0.1, 0.2]))


@settings(max_examples=40)
@given(
    st.sampled_from(list(GenomeMode)),
    st.integers(1, 4),
    st.integers(1, 3),
    st.integers(0, 6),
    st.integers(0, 2**31 - 1),
)
def test_flatten_round_trip(mode, n_in, n_out, n_nodes, seed):
    g = random_genome(mode, n_in, n_out, n_nodes, np.random.default_rng(seed))
    h = unflatten(mode, n_in, n_out, flatten(g))
    assert h.nodes.tolist() == g.nodes.tolist()
    assert h.outputs.tolist() == g.outputs.tolist()
    if mode is GenomeMode.PCGP:
        assert h.inputs.tolist() == g.inputs.tolist()


# --------------------------------------------------------------- random

def test_random_genome_deterministic():
    a = random_genome(GenomeMode.PCGP, 2, 2, 5, np.random.default_rng(7))
    b = random_genome(GenomeMode.PCGP, 2, 2, 5, np.random.default_rng(7))
    assert flatten(a).tolist() == flatten(b).tolist()


def test_random_genome_within_range():
    g = random_genome(GenomeMode.CGP, 3, 2, 50, np.random.default_rng(0))
    f = flatten(g)
    assert f.min() >= 0.0 and f.max() <= 1.0
    assert f.shape == (2 + 50 * 4,)
    validate_genome(g)


# ---------------------------------------------------------------- JSON

def test_json_round_trip_exact():
    g = random_genome(GenomeMode.PCGP, 3, 2, 8, np.random.default_rng(11))
    h = from_json(to_json(g))
    assert flatten(h).tolist() == flatten(g).tolist()
    assert h.mode == g.mode and h.n_in == g.n_in and h.n_out == g.n_out


def test_json_document_shape():
    g = pcgp([[0.5, 0.1, 0.2, 0.3, 0.4]], [0.9], [0.6])
    doc = json.loads(to_json(g))
    assert doc["mode"] == "PCGP"
    assert doc["n_in"] == 1 and doc["n_out"] == 1
    assert doc["inputs"] == [0.6]
    assert doc["outputs"] == [0.9]
    assert doc["nodes"] == [[0.5, 0.1, 0.2, 0.3, 0.4]]
    doc2 = json.loads(to_json(cgp([[0.1, 0.2, 0.3, 0.4]], [0.9], n_in=1)))
    assert "inputs" not in doc2


def test_from_json_rejects_garbage():
    with pytest.raises(ParseError):
        from_json("not json at all {")
    with pytest.raises(ParseError):
        from_json(json.dumps({"mode": "CGP", "n_in": 1}))
    with pytest.raises(ParseError):
        from_json(json.dumps({"mode": "XGP", "n_in": 1, "n_out": 1, "nodes": [], "outputs": [0.5]}))
    # wrong stride for the mode
    with pytest.raises(ParseError):
        from_json(json.dumps({
            "mode": "CGP", "n_in": 1, "n_out": 1,
            "nodes": [[0.5, 0.1, 0.2, 0.3, 0.4]], "outputs": [0.5],
        }))
    # out-of-range gene
    with pytest.raises(ParseError):
        from_json(json.dumps({
            "mode": "CGP", "n_in": 1, "n_out": 1,
            "nodes": [[0.5, 0.1, 0.2, 1.3]], "outputs": [0.5],
        }))
    # NaN or null genes; nodes and rows that are not lists
    pcgp_doc = {"mode": "PCGP", "n_in": 1, "n_out": 1,
                "nodes": [[0.5, 0.1, 0.2, 0.3, 0.4]], "outputs": [0.5], "inputs": [0.6]}
    for bad in ({"nodes": [[0.5, float("nan"), 0.2, 0.3, 0.4]]},
                {"outputs": [float("nan")]},
                {"inputs": [float("nan")]},
                {"nodes": [[0.5, None, 0.2, 0.3, 0.4]]},
                {"outputs": [None]},
                {"nodes": 5},
                {"nodes": [5]},
                {"outputs": {"a": 0.5}}):
        with pytest.raises(ParseError):
            from_json(json.dumps({**pcgp_doc, **bad}))


def test_validate_catches_forged_state():
    g = cgp([[0.1, 0.2, 0.3, 0.4]], [0.5])
    validate_genome(g)
    bad = Genome(GenomeMode.CGP, 1, 1, g.nodes, np.array([1.5]), None)
    with pytest.raises(ValueError):
        validate_genome(bad)
    nan = Genome(GenomeMode.CGP, 1, 1, g.nodes, np.array([np.nan]), None)
    with pytest.raises(ValueError, match="output genes"):
        validate_genome(nan)
