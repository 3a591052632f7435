"""Genome representation: layout, positions, edits, serialization."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pcgp.crossover import proportional
from pcgp.decode import DecodeSettings, ladder_positions
from pcgp.errors import ParseError
from pcgp.genome import (
    Genome,
    GenomeMode,
    SizeBounds,
    derive,
    flatten,
    from_json,
    make_genome,
    node_stride,
    random_genome,
    to_json,
    validate_genome,
)
from pcgp.mutate import MutationParams, node_addition, node_deletion

import reference
from scripted import Scripted


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


@pytest.mark.parametrize("bad", [np.nan, -1e-300, 1.0 + 2.0**-52])
@pytest.mark.parametrize("which", ["node", "output", "input"])
def test_gene_range_names_the_array_at_fault(which, bad):
    # the other two arrays sit at the range's edges, so only `which` fails
    genes = {"node": [[0.0, -0.0, 1.0, 0.5, 1.0]], "output": [-0.0, 1.0], "input": [0.0, 1.0]}
    pcgp(genes["node"], genes["output"], genes["input"])
    if which == "node":
        genes["node"][0][2] = bad
    else:
        genes[which][1] = bad
    with pytest.raises(ValueError, match=f"^{which} genes outside"):
        pcgp(genes["node"], genes["output"], genes["input"])
    if which != "input":
        nodes = [row[1:] for row in genes["node"]]
        with pytest.raises(ValueError, match=f"^{which} genes outside"):
            cgp(nodes, genes["output"])


@pytest.mark.parametrize("edge", [0.0, -0.0, 1.0])
def test_gene_range_edges_accepted(edge):
    g = pcgp([[edge] * 5], [edge], [edge, edge])
    assert flatten(g).tobytes() == np.full(8, edge).tobytes()
    g = cgp(np.zeros((0, 4)), [edge])
    assert g.n_nodes == 0 and g.outputs.tobytes() == np.array([edge]).tobytes()
    assert pcgp(np.zeros((0, 5)), [edge], [edge]).n_nodes == 0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0]), max_size=12),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_pcgp_order_matches_stable_argsort(positions, presort, seed):
    """Nodes come out in stable-argsort order whether or not they went in
    sorted; tied positions (-0.0 beside 0.0 too) keep their order."""
    if presort:
        positions = sorted(positions)
    nodes = np.random.default_rng(seed).random((len(positions), 5))
    nodes[:, 0] = positions
    g = pcgp(nodes, [0.5], [0.5])
    assert g.nodes.tobytes() == nodes[np.argsort(nodes[:, 0], kind="stable")].tobytes()


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
    assert reference.axis(g, DecodeSettings()) == [0.125, 0.375, 0.625, 0.875]


def test_ladder_positions_helper_matches():
    assert list(ladder_positions(4)) == [0.125, 0.375, 0.625, 0.875]


def test_pcgp_input_position_scales_by_input_start():
    g = pcgp(np.full((1, 5), 0.5), [0.5], [0.5])
    assert reference.axis(g, DecodeSettings(input_start=-1.0)) == [-0.5, 0.5]
    # the node's position gene is unscaled
    assert reference.axis(g, DecodeSettings(input_start=-0.5)) == [-0.25, 0.5]


# ----------------------------------------------------------------- edits

def _grow(g, rows):
    """node_addition of g with its fresh rows scripted; the burst is
    len(rows) (delta_frac 1 of size_min)."""
    params = MutationParams(SizeBounds(len(rows), 10), delta_frac=1.0)
    return node_addition(g, params, Scripted(np.random.default_rng(0), random=[np.array(rows)]))


def test_add_nodes_appends_for_cgp():
    g = cgp([[0.1, 0.1, 0.1, 0.1]], [0.5])
    h = _grow(g, [[0.9, 0.9, 0.9, 0.9]])
    assert h.n_nodes == 2
    assert h.nodes[1].tolist() == [0.9, 0.9, 0.9, 0.9]
    assert g.n_nodes == 1  # original untouched


def test_add_nodes_merges_sorted_for_pcgp():
    g = pcgp([[0.5, 0, 0, 0, 0]], [0.5], [0.5])
    h = _grow(g, [[0.8, 1, 1, 1, 1], [0.2, 1, 1, 1, 1]])
    assert h.nodes[:, 0].tolist() == [0.2, 0.5, 0.8]


def test_remove_nodes():
    """node_deletion drops distinct rows and keeps the rest in order."""
    g = cgp([[v] * 4 for v in (0.1, 0.2, 0.3, 0.4, 0.5)], [0.5])
    params = MutationParams(SizeBounds(2, 5), delta_frac=1.0)     # deletes 2
    seen = set()
    for seed in range(100):
        kept = node_deletion(g, params, np.random.default_rng(seed)).nodes[:, 0].tolist()
        assert len(kept) == 3 and kept == sorted(set(kept))
        assert set(kept) <= {0.1, 0.2, 0.3, 0.4, 0.5}
        seen.add(tuple(kept))
    assert len(seen) == 10      # every pair of the five was deleted


def test_derive_shares_what_it_is_not_given():
    g = pcgp([[0.5, 0.1, 0.2, 0.3, 0.4]], [0.5, 0.6], [0.7])
    assert derive(g) is g
    nodes = np.full((2, 5), 0.25)
    h = derive(g, nodes=nodes)
    assert h.outputs is g.outputs and h.inputs is g.inputs
    assert np.shares_memory(h.nodes, nodes) and not h.nodes.flags.writeable
    outputs = np.array([0.0, 1.0])
    h = derive(g, outputs=outputs)
    assert h.nodes is g.nodes and h.outputs is outputs and not outputs.flags.writeable


def test_derive_sorts_pcgp_nodes_stably():
    g = pcgp(np.zeros((0, 5)), [0.5], [0.5])
    nodes = np.array([[0.5, 0.9, 0.9, 0.9, 0.9], [0.5, 0.1, 0.1, 0.1, 0.1],
                      [0.2, 0.4, 0.4, 0.4, 0.4]])
    want = nodes[np.argsort(nodes[:, 0], kind="stable")].tobytes()
    assert derive(g, nodes=nodes).nodes.tobytes() == want


def test_derive_checks_shapes():
    g = pcgp([[0.5, 0.1, 0.2, 0.3, 0.4]], [0.5], [0.5, 0.5])
    for given in ({"nodes": np.full((1, 4), 0.5)}, {"nodes": np.full(5, 0.5)},
                  {"outputs": np.full(2, 0.5)}, {"inputs": np.full(1, 0.5)}):
        with pytest.raises(ValueError, match="expected"):
            derive(g, **given)


def test_derive_checks_the_ranges_of_shared_arrays():
    g = cgp([[0.1, 0.2, 0.3, 0.4]], [0.5])
    outputs = np.array([1.5])
    outputs.setflags(write=False)       # frozen, as every genome array is
    forged = Genome(GenomeMode.CGP, 2, 1, g.nodes, outputs, None)
    with pytest.raises(ValueError, match="output genes outside"):
        derive(forged, nodes=np.full((1, 4), 0.5))
    with pytest.raises(ValueError, match="node genes outside"):
        derive(g, nodes=np.full((1, 4), np.nan))


# --------------------------------------------------------- flat layout

def test_flatten_layout_cgp():
    g = cgp([[0.1, 0.2, 0.3, 0.4]], [0.9])
    assert flatten(g).tolist() == [0.9, 0.1, 0.2, 0.3, 0.4]


def test_flatten_layout_pcgp():
    g = pcgp([[0.5, 0.1, 0.2, 0.3, 0.4]], [0.9], [0.6])
    assert flatten(g).tolist() == [0.6, 0.9, 0.5, 0.1, 0.2, 0.3, 0.4]


@settings(max_examples=40)
@given(
    st.sampled_from(list(GenomeMode)),
    st.integers(1, 4),
    st.integers(1, 3),
    st.integers(0, 6),
    st.integers(0, 2**31 - 1),
)
def test_flatten_round_trip(mode, n_in, n_out, n_nodes, seed):
    """proportional reads its parents through flatten and builds its
    child from the flat vector, so crossing g with itself gives g's
    genes back: the inverse of flatten, 0 nodes and CGP included."""
    g = random_genome(mode, n_in, n_out, n_nodes, np.random.default_rng(seed))
    h = proportional(g, g, np.random.default_rng(seed))
    assert h.nodes.tolist() == g.nodes.tolist()
    assert h.outputs.tolist() == g.outputs.tolist()
    if mode is GenomeMode.PCGP:
        assert h.inputs.tolist() == g.inputs.tolist()
    else:
        assert h.inputs is None


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


@pytest.mark.parametrize("key", ["n_in", "n_out"])
@pytest.mark.parametrize("count", [1.9, True, "2", 2.0])
def test_from_json_counts_must_be_integers(key, count):
    doc = json.loads(to_json(random_genome(GenomeMode.CGP, 2, 2, 3,
                                           np.random.default_rng(5))))
    doc[key] = count
    with pytest.raises(ParseError, match=f"{key} must be an integer"):
        from_json(json.dumps(doc))
    doc[key] = 2
    g = from_json(json.dumps(doc))
    assert (g.n_in, g.n_out) == (2, 2)


def test_validate_catches_forged_state():
    g = cgp([[0.1, 0.2, 0.3, 0.4]], [0.5])
    validate_genome(g)
    bad = Genome(GenomeMode.CGP, 1, 1, g.nodes, np.array([1.5]), None)
    with pytest.raises(ValueError):
        validate_genome(bad)
    nan = Genome(GenomeMode.CGP, 1, 1, g.nodes, np.array([np.nan]), None)
    with pytest.raises(ValueError, match="output genes"):
        validate_genome(nan)
    p = pcgp([[0.5, 0.1, 0.2, 0.3, 0.4]], [0.5], [0.6, 0.7])
    column = Genome(GenomeMode.PCGP, 2, 1, p.nodes, p.outputs, p.inputs.reshape(2, 1))
    with pytest.raises(ValueError, match="input position genes"):
        validate_genome(column)
