"""Decoding: connection geometry, snapping, activity, components."""

import graphlib
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pcgp.decode import (
    DecodeSettings, _nearest, _sorted_entities, component_groups, connection_position, decode,
    output_position, output_trace, snap,
)
from pcgp.dot import to_dot
from pcgp.errors import DecodeError
from pcgp.functions import FunctionSet, default_functions
from pcgp.genome import GenomeMode, make_genome, node_position, random_genome

import reference

DECODE = sys.modules["pcgp.decode"]   # the package exports a function of that name

FSET = default_functions()


def cgp(nodes, outputs, n_in=1):
    return make_genome(GenomeMode.CGP, n_in, len(outputs), nodes, outputs)


def pcgp(nodes, outputs, inputs):
    return make_genome(GenomeMode.PCGP, len(inputs), len(outputs), nodes, outputs, inputs)


# ----------------------------------------------------- connection points

def test_connection_position_cgp_endpoints():
    s0 = DecodeSettings(recurrency=0.0)
    s1 = DecodeSettings(recurrency=1.0)
    assert connection_position(0.5, 0.4, s0, GenomeMode.CGP) == pytest.approx(0.2, abs=1e-12)
    assert connection_position(0.5, 0.4, s1, GenomeMode.CGP) == pytest.approx(0.5, abs=1e-12)


def test_connection_position_pcgp_endpoints():
    s = DecodeSettings(recurrency=0.7, input_start=-1.0)
    assert connection_position(0.0, 0.3, s, GenomeMode.PCGP) == pytest.approx(-1.0, abs=1e-12)
    s2 = DecodeSettings(recurrency=0.0, input_start=-0.5)
    assert connection_position(1.0, 0.6, s2, GenomeMode.PCGP) == pytest.approx(0.6, abs=1e-12)


def test_positional_formula_degenerates_at_zero_input_start():
    x = np.linspace(0.0, 1.0, 100)
    p = np.linspace(0.0, 1.0, 100)
    for r in np.linspace(0.0, 1.0, 10):
        s = DecodeSettings(recurrency=float(r), input_start=0.0)
        xx, pp = np.meshgrid(x, p)
        a = connection_position(xx, pp, s, GenomeMode.CGP)
        b = connection_position(xx, pp, s, GenomeMode.PCGP)
        assert np.max(np.abs(a - b)) <= 1e-12


def test_connection_position_monotone_in_x():
    rng = np.random.default_rng(3)
    for _ in range(50):
        s = DecodeSettings(recurrency=float(rng.random()), input_start=float(-rng.random()))
        p = float(rng.random())
        x = np.sort(rng.random(20))
        for mode in GenomeMode:
            y = connection_position(x, p, s, mode)
            assert np.all(np.diff(y) >= 0)


def test_output_position():
    s = DecodeSettings(input_start=-0.5)
    assert output_position(0.3, s, GenomeMode.CGP) == 0.3
    assert output_position(0.0, s, GenomeMode.PCGP) == -0.5
    assert output_position(1.0, s, GenomeMode.PCGP) == 1.0


def test_settings_validation():
    with pytest.raises(ValueError):
        DecodeSettings(recurrency=1.2)
    with pytest.raises(ValueError):
        DecodeSettings(input_start=0.5)
    with pytest.raises(ValueError):
        DecodeSettings(input_start=-1.5)


# --------------------------------------------------------------- snapping

def snap_oracle(point, cands):
    best_key, best_i = None, None
    for i, p in cands:
        key = (abs(p - point), p, i)
        if best_key is None or key < best_key:
            best_key, best_i = key, i
    return best_i


def test_snap_examples():
    assert snap(0.4, [(0, 0.25), (1, 0.75)]) == 0
    assert snap(0.5, [(0, 0.25), (1, 0.75)]) == 0  # tie -> smaller position
    assert snap(0.9, [(7, 0.33)]) == 7


def test_snap_equal_position_tie_takes_smaller_index():
    assert snap(0.5, [(3, 0.5), (1, 0.5), (2, 0.5)]) == 1


def test_snap_empty_candidates():
    with pytest.raises(DecodeError):
        snap(0.5, [])


@settings(max_examples=200)
@given(
    st.lists(st.integers(0, 1000), min_size=1, max_size=30, unique=True),
    st.lists(st.integers(0, 40), min_size=1, max_size=31),
    st.floats(-2, 2),
)
def test_snap_matches_linear_oracle(indices, raw_pos, point):
    cands = [(i, raw_pos[k % len(raw_pos)] / 40.0) for k, i in enumerate(indices)]
    assert snap(point, cands) == snap_oracle(point, cands)


@settings(max_examples=100)
@given(st.integers(1, 40), st.integers(0, 2**31 - 1))
def test_snap_field_matches_oracle(n, seed):
    rng = np.random.default_rng(seed)
    # unsorted inputs at or left of -0.0, then ascending nodes at or right
    # of 0.0, on a coarse grid so duplicate positions occur, across the
    # boundary too
    n_in = int(rng.integers(0, n + 1))
    positions = ((rng.integers(0, 8, n_in) / -8.0).tolist()
                 + np.sort(rng.integers(0, 8, n - n_in) / 8.0).tolist())
    ordered, entity = _sorted_entities(positions, n_in)
    points = rng.uniform(-1.5, 1.5, 16).tolist()
    cands = list(enumerate(positions))
    for t in points:
        assert entity[_nearest(ordered, t, n)] == snap_oracle(t, cands)


# ------------------------------------------------------------ decode: CGP

def f_gene(name):
    """Gene value that lands in the middle of a function's index slot."""
    i = FSET.names.index(name)
    return (i + 0.5) / len(FSET)


def chain_fixture():
    """in(0.125) n0(0.375) n1(0.625) n2(0.875); out -> n2(sin) -> n1,
    with n2's ignored second connection pointing at n0."""
    nodes = [
        [0.1, 0.1, f_gene("add"), 0.5],    # n0 -> (in, in)
        [0.1, 0.1, f_gene("abs"), 0.5],    # n1 -> (in, in)
        [0.72, 0.43, f_gene("sin"), 0.5],  # n2 -> (n1, n0)
    ]
    return cgp(nodes, [0.9])


def test_chain_fixture_targets():
    g = chain_fixture()
    d = decode(g, DecodeSettings(), FSET)
    assert [node_position(g, j) for j in range(4)] == [0.125, 0.375, 0.625, 0.875]
    assert d.targets.tolist() == [[0, 0], [0, 0], [2, 1]]
    assert d.output_targets.tolist() == [3]


def test_chain_fixture_activity_is_arity_aware():
    d = decode(chain_fixture(), DecodeSettings(), FSET)
    # sin has arity 1: its second connection (to n0) does not activate n0
    assert d.active.tolist() == [False, True, True]


def test_chain_fixture_output_trace_ignoring_arity():
    d = decode(chain_fixture(), DecodeSettings(), FSET)
    assert output_trace(d, 0, arity_aware=False) == {0, 1, 2}
    assert output_trace(d, 0, arity_aware=True) == {1, 2}


def test_chain_fixture_components_single():
    d = decode(chain_fixture(), DecodeSettings(), FSET)
    assert d.components.tolist() == [0, 0, 0]


def test_disconnected_nodes_form_singleton_components():
    # both nodes connect only to the input -> no node-node edges
    g = cgp([[0.2, 0.2, f_gene("add"), 0.5], [0.2, 0.2, f_gene("add"), 0.5]], [0.2])
    d = decode(g, DecodeSettings(), FSET)
    assert d.components.tolist() == [0, 1]
    assert [c.tolist() for c in component_groups(d)] == [[0], [1]]


def test_zero_nodes_outputs_snap_to_inputs():
    g = make_genome(GenomeMode.CGP, 2, 2, np.zeros((0, 4)), [0.1, 0.9])
    d = decode(g, DecodeSettings(), FSET)
    assert d.output_targets.tolist() == [0, 1]
    assert d.active.shape == (0,)


def test_function_index_floor_and_clamp():
    fset4 = FunctionSet.from_names(("add", "sub", "mult", "pdiv"))
    g = cgp([[0.1, 0.1, 0.99, 0.5], [0.1, 0.1, 1.0, 0.5]], [0.9])
    d = decode(g, DecodeSettings(), fset4)
    assert d.function_index.tolist() == [3, 3]


def test_self_loop_at_full_recurrency():
    # K=2: in at 0.25, node at 0.75; reach is the whole axis at r=1
    g = cgp([[0.8, 0.1, f_gene("add"), 0.5]], [0.9])
    d = decode(g, DecodeSettings(recurrency=1.0), FSET)
    assert d.targets.tolist() == [[1, 0]]
    assert not d.plan.feedforward           # the self-read is previous-row
    assert output_trace(d, 0) == {0}


def test_output_to_input_trace_empty():
    g = cgp([[0.1, 0.1, f_gene("add"), 0.5]], [0.1])
    d = decode(g, DecodeSettings(), FSET)
    assert d.output_targets.tolist() == [0]
    assert output_trace(d, 0) == set()
    assert not d.active.any()


# ----------------------------------------------------------- decode: PCGP

def test_pcgp_input_positions_scale():
    # inputs at -0.25 and -0.5; output points -0.5, -0.35 and 0.85
    g = pcgp([[0.5, 0.1, 0.1, f_gene("add"), 0.5]], [0.0, 0.1, 0.9], [0.5, 1.0])
    assert [node_position(g, j, -0.5) for j in range(3)] == [-0.25, -0.5, 0.5]
    d = decode(g, DecodeSettings(input_start=-0.5), FSET)
    assert d.output_list == [1, 0, 2]


def test_pcgp_tied_positions_not_candidates_at_zero_recurrency():
    # two nodes at the same position: neither may target the other at r=0
    g = pcgp(
        [[0.5, 1.0, 1.0, f_gene("add"), 0.5], [0.5, 1.0, 1.0, f_gene("add"), 0.5]],
        [1.0],
        [0.5],
    )
    d = decode(g, DecodeSettings(input_start=-1.0), FSET)
    assert d.targets.tolist() == [[0, 0], [0, 0]]  # forced to the input


def test_pcgp_self_candidate_at_positive_recurrency():
    g = pcgp([[1.0, 1.0, 1.0, f_gene("add"), 0.5]], [1.0], [0.5])
    d = decode(g, DecodeSettings(recurrency=0.5, input_start=-1.0), FSET)
    assert d.targets.tolist() == [[1, 1]]
    assert not d.plan.feedforward


# ------------------------------------------------------------- properties

def random_settings(rng, zero_r=False):
    return DecodeSettings(
        recurrency=0.0 if zero_r else float(rng.random()),
        input_start=float(-1.0 + 0.9 * rng.random()),
    )


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(list(GenomeMode)), st.integers(0, 2**31 - 1))
def test_feedforward_at_zero_recurrency(mode, seed):
    rng = np.random.default_rng(seed)
    g = random_genome(mode, int(rng.integers(1, 4)), int(rng.integers(1, 3)),
                      int(rng.integers(0, 20)), rng)
    d = decode(g, random_settings(rng, zero_r=True), FSET)
    assert d.plan.feedforward
    # every target is strictly earlier in stored order
    order = np.arange(d.n_nodes) + d.n_in
    assert np.all(d.targets < order[:, None]) or d.n_nodes == 0
    ts = graphlib.TopologicalSorter(
        {i: [t - d.n_in for t in d.row(i)[:d.row(i)[3]] if t >= d.n_in]
         for i in range(d.n_nodes) if d.active[i]}
    )
    ts.static_order()  # raises CycleError on failure


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(list(GenomeMode)), st.integers(0, 2**31 - 1))
def test_decode_matches_snap_oracle_per_connection(mode, seed):
    rng = np.random.default_rng(seed)
    g = random_genome(mode, int(rng.integers(1, 4)), int(rng.integers(1, 3)),
                      int(rng.integers(1, 12)), rng)
    s = random_settings(rng, zero_r=bool(rng.integers(0, 2)))
    d = decode(g, s, FSET)
    want = reference.decode_lists(g, s, FSET, snap=snap_oracle)
    assert [d.row(i)[:2] for i in range(d.n_nodes)] == want.targets
    assert d.output_list == want.outputs


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(list(GenomeMode)), st.integers(0, 2**31 - 1))
def test_decode_deterministic_and_components_partition(mode, seed):
    rng = np.random.default_rng(seed)
    g = random_genome(mode, 2, 2, int(rng.integers(0, 15)), rng)
    s = random_settings(rng)
    d1 = decode(g, s, FSET)
    d2 = decode(g, s, FSET)
    for name in ("targets", "output_targets", "function_index", "active", "components"):
        assert np.array_equal(getattr(d1, name), getattr(d2, name)), name
    assert d1._full_rows() == d2._full_rows()
    groups = component_groups(d1)
    if d1.n_nodes:
        flat = np.sort(np.concatenate(groups))
        assert flat.tolist() == list(range(d1.n_nodes))


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(list(GenomeMode)), st.integers(0, 2**31 - 1))
def test_arity_aware_output_traces_cover_exactly_the_active_nodes(mode, seed):
    rng = np.random.default_rng(seed)
    g = random_genome(mode, 2, int(rng.integers(1, 4)), int(rng.integers(0, 15)), rng)
    d = decode(g, random_settings(rng), FSET)
    union = set().union(*(output_trace(d, k, arity_aware=True) for k in range(d.n_out)))
    assert sorted(union) == np.flatnonzero(d.active).tolist()


def test_params_and_plan_come_from_decode():
    rng = np.random.default_rng(4)
    g = random_genome(GenomeMode.PCGP, 2, 1, 8, rng)
    d = decode(g, DecodeSettings(recurrency=0.5, use_weights=True), FSET)
    params = [d.row(i)[4] for i in range(d.n_nodes)]
    assert params == g.nodes[:, -1].tolist()
    assert not d.targets.flags.writeable
    assert d.plan is d.plan and d.components is d.components
    assert [node[0] for node in d.plan.nodes] == np.flatnonzero(d.active).tolist()
    assert [node[4] for node in d.plan.nodes] == [params[i] for i in np.flatnonzero(d.active)]
    assert d.plan.outputs == d.output_targets.tolist()


LAZY = ("targets", "function_index", "output_targets", "active", "plan", "program_key",
        "components")


def test_lazy_attributes_are_built_once_and_kept():
    """Each lazy attribute is computed on its first read, kept in the
    graph's __dict__ and returned as that same object afterwards; the
    class attribute is the descriptor, carrying the docstring."""
    g = random_genome(GenomeMode.PCGP, 2, 2, 8, np.random.default_rng(6))
    d = decode(g, DecodeSettings(recurrency=0.5), FSET)
    assert sorted(n for n, v in vars(type(d)).items()
                  if isinstance(v, DECODE._once)) == sorted(LAZY)
    for name in LAZY:
        assert name not in vars(d)
        value = getattr(d, name)
        assert vars(d)[name] is value and getattr(d, name) is value
    assert "canonical" in type(d).program_key.__doc__


def _dot_edges(text):
    """(source, node, dashed) per node edge that to_dot draws."""
    edges = []
    for line in text.splitlines():
        if "-> n" in line:
            source, rest = line.strip().split(" -> ")
            edges.append((source, rest.split(" ")[0].rstrip(";"), "dashed" in rest))
    return edges


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(list(GenomeMode)), st.integers(1, 3), st.integers(1, 3),
       st.integers(0, 12), st.sampled_from([-1.0, -0.5, 0.0]),
       st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.integers(0, 2**31 - 1))
def test_previous_row_reads_follow_the_index_rule(mode, n_in, n_out, n_nodes, input_start,
                                                   recurrency, seed):
    """A read of the node itself or a later node is previous-row.  On
    genes on a 1/8 grid, with an input gene of 0 and so ties at 0, the
    plan's feedforward flag and to_dot's dashed edges agree with the
    reference's rule by position: the target sits at or right of the
    node."""
    g = random_genome(mode, n_in, n_out, n_nodes, np.random.default_rng(seed))
    inputs = None if g.inputs is None else np.round(g.inputs * 8) / 8
    if inputs is not None:
        inputs[0] = 0.0
    g = make_genome(mode, n_in, n_out, np.round(g.nodes * 8) / 8,
                    np.round(g.outputs * 8) / 8, inputs)
    s = DecodeSettings(recurrency=recurrency, input_start=input_start)
    ref = reference.decode_lists(g, s, FSET)
    (_, _, feedforward), _ = reference.plan_and_key_oracle(ref, s.use_weights)
    assert decode(g, s, FSET).plan.feedforward is feedforward
    pos = ref.positions

    def name(t):
        return f"in{t}" if t < n_in else f"n{t - n_in}"

    want = [(name(t), f"n{i}", pos[t] >= pos[n_in + i])
            for i, ts in enumerate(ref.targets) if ref.active[i]
            for t in ts[:ref.arity[i]]]
    assert _dot_edges(to_dot(g, s, FSET)) == want


# ------------------------------------------------ the reference decode
# reference.decode_lists decodes every node with snap over explicit
# candidate lists and pins every row and array attribute; the
# reference's oracles pin the plan, key, components and traces.  decode
# fills a node's row when something first reads it, so each genome is
# read in two orders: the program first, and the full tables first.

ARRAYS = dict(output_targets=("outputs", int), function_index=("findex", int),
              active=("active", bool))


def _array(a):
    return a.dtype, a.shape, a.tobytes(), a.flags.writeable


def _observe(d, program_first):
    """Everything d shows, floats as hex so -0.0 and 0.0 differ."""
    seen = {}

    def program():
        plan = d.plan
        seen["plan"] = ([(i, fn, ta, tb, param.hex()) for i, fn, ta, tb, param in plan.nodes],
                        plan.outputs, plan.feedforward)
        seen["key"] = d.program_key
        seen["traces"] = [output_trace(d, k, aware) for k in range(d.n_out)
                          for aware in (False, True)]

    def tables():
        seen["rows"] = [(*row[:4], row[4].hex()) for row in map(d.row, range(d.n_nodes))]
        for name in ("output_list", "active_list"):
            seen[name] = getattr(d, name)
        for name in (*ARRAYS, "targets", "components"):
            seen[name] = _array(getattr(d, name))

    for read in (program, tables) if program_first else (tables, program):
        read()
    return seen


def _expected(g, s):
    """_observe's view of g, computed by the reference."""
    ref = reference.decode_lists(g, s, FSET)
    n_in = g.n_in
    (nodes, outputs, feedforward), key = reference.plan_and_key_oracle(ref, s.use_weights)

    def frozen(values, dtype, shape):
        a = np.array(values, dtype=dtype).reshape(shape)
        a.setflags(write=False)
        return _array(a)

    want = {
        "plan": ([(i, FSET[ref.findex[i]].apply, ta, tb, param.hex())
                  for i, ta, tb, param in nodes], outputs, feedforward),
        "key": key,
        "traces": [reference.trace_oracle(n_in, ref.targets, ref.arity, ref.outputs[k], aware)
                   for k in range(g.n_out) for aware in (False, True)],
        "rows": [(*t, f, k, c.hex())
                 for t, f, k, c in zip(ref.targets, ref.findex, ref.arity, ref.params)],
        "output_list": ref.outputs, "active_list": ref.active,
        "targets": frozen(ref.targets, int, (-1, 2)),
        "components": frozen(reference.components_oracle(n_in, ref.targets), int, -1),
    }
    for name, (field, dtype) in ARRAYS.items():
        want[name] = frozen(getattr(ref, field), dtype, -1)
    return want


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(list(GenomeMode)),
    st.integers(1, 4), st.integers(1, 3), st.integers(0, 30),
    st.booleans(),
    st.sampled_from([0.0, 0.2, 0.5, 1.0]),
    st.sampled_from([-1.0, -0.3, 0.0]),
    st.booleans(), st.booleans(), st.booleans(),
    st.integers(0, 2**31 - 1),
)
def test_decode_matches_reference_in_either_reading_order(
        mode, n_in, n_out, n_nodes, grid, recurrency, input_start, use_weights, zero_tie,
        output_to_input, seed):
    rng = np.random.default_rng(seed)
    g = random_genome(mode, n_in, n_out, n_nodes, rng)
    nodes, outputs = g.nodes.copy(), g.outputs.copy()
    inputs = None if g.inputs is None else g.inputs.copy()
    if grid:
        # genes on a 1/8 grid: equal positions, points midway between
        # entities and function genes at exactly 1.0 all occur
        nodes, outputs = np.round(nodes * 8) / 8, np.round(outputs * 8) / 8
        inputs = None if inputs is None else np.round(inputs * 8) / 8
    if zero_tie and inputs is not None and n_nodes:
        # an input at -0.0 (0.0 when input_start is 0) beside a node at 0.0
        inputs[0] = nodes[0, 0] = 0.0
    if output_to_input:
        outputs[0] = 0.0            # the leftmost entity, always an input
    g = make_genome(mode, n_in, n_out, nodes, outputs, inputs)
    s = DecodeSettings(recurrency=recurrency, input_start=input_start,
                       use_weights=use_weights)
    want = _expected(g, s)
    if output_to_input:
        assert want["output_list"][0] < n_in
    d = decode(g, s, FSET)
    assert d.n_nodes == n_nodes and type(d.n_nodes) is int
    assert _observe(d, program_first=True) == want
    assert _observe(decode(g, s, FSET), program_first=False) == want


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(list(GenomeMode)), st.integers(1, 3), st.integers(0, 30),
       st.sampled_from([0.0, 0.5, 1.0]), st.integers(0, 2**31 - 1))
def test_decode_snaps_only_the_nodes_read(mode, n_out, n_nodes, recurrency, seed):
    """decode and program_key snap the outputs and both connections of
    each active node; an output trace snaps only the traced nodes not
    yet decoded, and no node is ever snapped twice."""
    g = random_genome(mode, 2, n_out, n_nodes, np.random.default_rng(seed))
    s = DecodeSettings(recurrency=recurrency, input_start=-0.5)
    with mock.patch.object(DECODE, "_nearest", wraps=DECODE._nearest) as snaps:
        d = decode(g, s, FSET)
        decoded = set(np.flatnonzero(d.active_list).tolist())
        assert snaps.call_count == n_out + 2 * len(decoded)
        d.program_key
        assert snaps.call_count == n_out + 2 * len(decoded)
        for k in range(n_out):
            for aware in (True, False):
                before = snaps.call_count
                trace = output_trace(d, k, aware)
                assert snaps.call_count - before == 2 * len(trace - decoded)
                decoded |= trace
        d.targets, d.components
        assert snaps.call_count == n_out + 2 * n_nodes
