"""Laws every genetic operator obeys, checked from one hand-written table.

LAWS has a row for each operator in each genome mode it supports.  The
rule: an operator change proves itself against this table, and a new
operator adds a row.

Each law is a check_* function over a drawn row.  The tests that drive
validity, determinism and the graph hand-off over one kind's rows sit
with that kind's unit tests in test_mutate.py and test_crossover.py;
the size law and the unread-graph law, over every row, are in
test_evolve.py.
"""

from collections import Counter, namedtuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pcgp.crossover
import pcgp.mutate
from pcgp.crossover import apply_crossover, output_graph, subgraph
from pcgp.decode import DecodeSettings, decode
from pcgp.errors import UnsupportedOperatorError
from pcgp.execute import run_supervised
from pcgp.functions import default_functions
from pcgp.genome import (
    GenomeMode, SizeBounds, flatten, random_genome, validate_genome,
)
from pcgp.mutate import (
    MutationParams, apply_mutation, reads_graph, subgraph_addition, subgraph_deletion,
)

import reference

FSET = default_functions()
SET = DecodeSettings(input_start=-0.5)
M, X = "mutation", "crossover"
CGP, PCGP = GenomeMode.CGP, GenomeMode.PCGP
NO, YES, ACTIVE = (False, False), (True, True), (False, True)

# reads: whether the operator reads a graph, (without, with) require_active.
# size: "bounds" (mutation) keeps a size inside the bounds inside them, keeps a size
#   below size_min unless add_inverted lets it only grow, and never grows a size above
#   size_max; "between" lies between the parents' sizes; "capped" is at most size_max
#   and can fall below size_min.
# provenance: "mutant" keeps the parent's row count, or its rows contain the parent's
#   or are contained in them; "rows" takes every node row from the parents' rows and
#   every output and input gene from a parent at that index; "blend" keeps every gene
#   within its two parents' genes, and the longer parent's tail rows.
# self-cross: crossed with itself, "identity" gives the parent's bytes, "permutation"
#   its rows reordered, and "outputs" its outputs on data.
Law = namedtuple("Law", "kind op mode reads size provenance self_cross")
LAWS = [
    #   kind op                mode  reads   size       provenance self-cross
    Law(M, "gene",           CGP,  ACTIVE, "bounds",  "mutant",  None),
    Law(M, "gene",           PCGP, ACTIVE, "bounds",  "mutant",  None),
    Law(M, "mixed_node",     CGP,  ACTIVE, "bounds",  "mutant",  None),
    Law(M, "mixed_node",     PCGP, ACTIVE, "bounds",  "mutant",  None),
    Law(M, "mixed_subgraph", PCGP, YES,    "bounds",  "mutant",  None),
    Law(X, "single_point",   CGP,  NO,     "between", "rows",    "identity"),
    Law(X, "single_point",   PCGP, NO,     "between", "rows",    "identity"),
    Law(X, "random_node",    CGP,  NO,     "between", "rows",    "permutation"),
    Law(X, "random_node",    PCGP, NO,     "between", "rows",    "identity"),
    Law(X, "aligned_node",   PCGP, NO,     "between", "rows",    "identity"),
    Law(X, "proportional",   CGP,  NO,     "between", "blend",   "identity"),
    Law(X, "proportional",   PCGP, NO,     "between", "blend",   "identity"),
    Law(X, "output_graph",   PCGP, YES,    "capped",  "rows",    "outputs"),
    Law(X, "subgraph",       PCGP, YES,    "capped",  "rows",    None),
]
# (row, require_active): mutation with and without it; crossover has no such flag
CASES = [(law, active) for law in LAWS for active in ((False, True) if law.kind == M else (False,))]


def case_id(case):
    law, active = case
    return f"{law.kind}-{law.op}-{active}-{law.mode.value}"


def positional_only(op):
    return all(law.mode is PCGP for law in LAWS if law.op == op)


def first(graphs):
    return None if graphs is None else graphs[0]


def vary(law, active, a, b, s, bounds, rng, graphs, **rates):
    """One child of the row's operator through apply_mutation or apply_crossover."""
    if law.kind == M:
        p = MutationParams(bounds, operator=law.op, require_active=active, **rates)
        return apply_mutation(a, p, s, rng, first(graphs))
    return apply_crossover(a, b, law.op, rng, bounds, graphs)


def test_the_package_tables_equal_this_one():
    for module, kind in ((pcgp.mutate, M), (pcgp.crossover, X)):
        ops = tuple(dict.fromkeys(law.op for law in LAWS if law.kind == kind))
        assert module.OPERATORS == ops
        assert module.POSITIONAL_ONLY == tuple(filter(positional_only, ops))
    assert pcgp.crossover.READS_GRAPHS == tuple(
        law.op for law in LAWS if law.kind == X and law.mode is PCGP and law.reads[0])
    for law, active in CASES:
        if law.kind == M:
            p = MutationParams(SizeBounds(0, 1), operator=law.op, require_active=active)
            assert reads_graph(p) == law.reads[active], (law.op, active)


class Watched:
    """A decoded graph that counts the reads made through it; without one,
    a graph the row says is unread, which fails on any read."""

    def __init__(self, graph=None):
        self.graph, self.count = graph, 0

    def __getattr__(self, name):
        assert self.graph is not None, f"read .{name} of a graph the row says is unread"
        self.count += 1
        return getattr(self.graph, name)


def _refuse_decode(*_args):
    raise AssertionError("an operator decoded")


def rows(nodes):
    return Counter(map(tuple, nodes.tolist()))


def check_provenance(law, a, b, child):
    if law.provenance == "mutant":
        had, kept = rows(a.nodes), rows(child.nodes)
        assert child.n_nodes == a.n_nodes or kept >= had or kept <= had
        return
    end = flatten(a).size - a.nodes.size     # the input and output genes
    got, ga, gb = (flatten(g)[:end] for g in (child, a, b))
    if law.provenance == "rows":
        assert np.all((got == ga) | (got == gb))
        assert rows(child.nodes) <= rows(a.nodes) + rows(b.nodes)
        return
    assert np.all((np.minimum(ga, gb) <= got) & (got <= np.maximum(ga, gb)))
    k = min(a.n_nodes, b.n_nodes)
    tail = max(a, b, key=lambda g: g.n_nodes).nodes[k:]
    lo, hi = np.minimum(a.nodes[:k], b.nodes[:k]), np.maximum(a.nodes[:k], b.nodes[:k])
    if law.mode is CGP:     # rows stay in place: the blended ones, then the tail
        assert np.all((lo <= child.nodes[:k]) & (child.nodes[:k] <= hi))
        assert child.nodes[k:].tobytes() == tail.tobytes()
        return
    cand = child.nodes[:, None, :]      # PCGP rows come sorted by position
    blended = ((lo <= cand) & (cand <= hi)).all(axis=2).any(axis=1)
    from_tail = (cand == tail).all(axis=2).any(axis=1)
    assert child.n_nodes == k + len(tail) and np.all(blended | from_tail)


Draw = namedtuple("Draw", "case size_min span recurrency inverted seed")
Trial = namedtuple("Trial", "law active a b s bounds rates seed")


def draws(kind=None, reads=None):
    """Draws over the rows of one kind, or of both, that read a graph, or
    that do not, or either; the tests that drive the laws over them sit
    with each kind's unit tests and in test_evolve.py."""
    cases = [c for c in CASES if kind in (None, c[0].kind) and reads in (None, c[0].reads[c[1]])]
    return st.builds(Draw, st.sampled_from(cases), st.integers(0, 12), st.integers(0, 12),
                     st.sampled_from([0.0, 0.5, 1.0]), st.booleans(), st.integers(0, 2**32 - 1))


# Draws that force the three size caps, which drawn genomes alone rarely reach
SIZE_CAPS = [
    # the mixed_subgraph row: a 14-node parent whose multi-node components have 2 to 4
    # nodes meets a deletion burst of 7, which subgraph_deletion must cut to the component
    Draw((LAWS[4], False), size_min=8, span=8, recurrency=0.0, inverted=False, seed=342),
    # the capped rows: parents whose inherited rows outnumber size_max 3
    Draw((LAWS[12], False), size_min=0, span=3, recurrency=0.5, inverted=False, seed=4),
    Draw((LAWS[13], False), size_min=0, span=3, recurrency=0.5, inverted=False, seed=1),
]


def setup(draw):
    """The parents, settings, bounds and rates a draw stands for: 0 to
    size_max + 2 nodes each."""
    law, active = draw.case
    rng = np.random.default_rng(draw.seed)
    bounds = SizeBounds(draw.size_min, draw.size_min + draw.span)
    n_in, n_out = (int(k) for k in rng.integers(1, 4, 2))
    a, b = (random_genome(law.mode, n_in, n_out, int(rng.integers(0, bounds.size_max + 3)), rng)
            for _ in range(2))
    s = DecodeSettings(recurrency=draw.recurrency,
                       input_start=-float(rng.choice([0.25, 0.5, 1.0])))
    rates = dict(zip(("node_rate", "output_rate", "input_rate", "delta_frac", "modify_rate"),
                     rng.random(5).tolist()), add_inverted=draw.inverted)
    return Trial(law, active, a, b, s, bounds, rates, draw.seed)


def graphs_of(t, dec=decode):
    """The parents' graphs by dec where the row reads them, else None."""
    return tuple(dec(g, t.s, FSET) for g in (t.a, t.b)) if t.law.reads[t.active] else None


def offspring(t, graphs, rng=None):
    rng = np.random.default_rng(t.seed + 1) if rng is None else rng
    return vary(t.law, t.active, t.a, t.b, t.s, t.bounds, rng, graphs, **t.rates)


def check_child(draw):
    """The child is valid, every array of it is read-only, since children
    share the arrays they did not change, and it keeps the row's
    provenance law."""
    t = setup(draw)
    child = offspring(t, graphs_of(t))
    validate_genome(child)
    assert not any(arr.flags.writeable for arr in (child.nodes, child.outputs, child.inputs)
                   if arr is not None)
    check_provenance(t.law, t.a, t.b, child)


def check_size(draw):
    """The child keeps the row's size law."""
    t = setup(draw)
    n, m, bounds = offspring(t, graphs_of(t)).n_nodes, t.a.n_nodes, t.bounds
    if t.law.size == "between":
        assert min(m, t.b.n_nodes) <= n <= max(m, t.b.n_nodes)
    elif t.law.size == "capped":
        assert n <= bounds.size_max
    elif m < bounds.size_min:
        assert m <= n <= max(m, bounds.size_max) if draw.inverted else n == m
    else:
        assert bounds.size_min <= n <= max(m, bounds.size_max)


def check_determinism(draw):
    """Equal generator states give equal children and stream states, and
    the parents stay untouched."""
    t = setup(draw)
    parents = flatten(t.a).tobytes(), flatten(t.b).tobytes()
    graphs = graphs_of(t)
    streams = [np.random.default_rng(t.seed + 1) for _ in range(2)]
    child, twin = (offspring(t, graphs, r) for r in streams)
    assert flatten(child).tobytes() == flatten(twin).tobytes()
    assert streams[0].bit_generator.state == streams[1].bit_generator.state
    assert (flatten(t.a).tobytes(), flatten(t.b).tobytes()) == parents


def check_handoff(draw):
    """A graph reader handed the package's graphs, with decode refused,
    gives the child bytes and stream state it gives when handed
    reference.decode's graphs."""
    t = setup(draw)
    streams = [np.random.default_rng(t.seed + 1) for _ in range(2)]
    want = offspring(t, graphs_of(t, reference.decode), streams[0])
    graphs = graphs_of(t)
    with pytest.MonkeyPatch.context() as mp:
        for module in (pcgp.mutate, pcgp.crossover):
            mp.setattr(module, "decode", _refuse_decode)
        got = offspring(t, graphs, streams[1])
    assert flatten(got).tobytes() == flatten(want).tobytes()
    assert streams[1].bit_generator.state == streams[0].bit_generator.state


def check_unread(draw):
    """A row that reads no graph decodes nothing and reads no attribute
    of the graphs it is handed."""
    t = setup(draw)
    with pytest.MonkeyPatch.context() as mp:
        for module in (pcgp.mutate, pcgp.crossover):
            mp.setattr(module, "decode", _refuse_decode)
        validate_genome(offspring(t, (Watched(), Watched())))


@settings(max_examples=100, deadline=None)
@given(law=st.sampled_from([law for law in LAWS if law.self_cross]),
       recurrency=st.sampled_from([0.0, 0.5, 1.0]), seed=st.integers(0, 2**32 - 1))
def test_self_cross(law, recurrency, seed):
    rng = np.random.default_rng(seed)
    a = random_genome(law.mode, int(rng.integers(1, 4)), 2, int(rng.integers(0, 16)), rng)
    s = DecodeSettings(recurrency=recurrency, input_start=-0.5)
    graph = decode(a, s, FSET)
    # no cap: a child has at most both parents' rows
    child = apply_crossover(a, a, law.op, rng, SizeBounds(0, 2 * a.n_nodes), (graph, graph))
    if law.self_cross == "identity":
        assert flatten(child).tobytes() == flatten(a).tobytes()
    elif law.self_cross == "permutation":
        assert rows(child.nodes) == rows(a.nodes)
        assert child.outputs.tobytes() == a.outputs.tobytes()
    else:
        x = rng.uniform(-1, 1, (6, a.n_in))
        assert run_supervised(decode(child, s, FSET), x).tobytes() == \
            run_supervised(graph, x).tobytes()


@pytest.mark.parametrize("case", [c for c in CASES if c[0].reads[c[1]]], ids=case_id)
def test_row_witnesses(case):
    """A graph reader reads its graph within 20 seeds."""
    law, active = case
    reads = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        a, b = (random_genome(law.mode, 2, 2, 10, rng) for _ in range(2))
        graphs = tuple(Watched(decode(g, SET, FSET)) for g in (a, b))
        vary(law, active, a, b, SET, SizeBounds(10, 30), rng, graphs, delta_frac=0.3,
             modify_rate=0.5)
        reads += sum(g.count for g in graphs)
    assert reads


# (name, positional only, reads a graph, call(a, b, graphs, rng, params)): every row
# through apply_*, then the operators called directly
GUARDS = [(f"apply_{law.kind}-{law.op}" + (f"-{active}" if law.kind == M else ""),
           positional_only(law.op), law.reads[active],
           lambda a, b, gs, rng, p, law=law, active=active:
               vary(law, active, a, b, SET, p.bounds, rng, gs, modify_rate=p.modify_rate))
          for law, active in CASES if law.mode is PCGP] + [
    ("subgraph_addition", True, False, lambda a, b, gs, rng, p: subgraph_addition(a, p, SET, rng)),
    ("subgraph_deletion", True, True,
     lambda a, b, gs, rng, p: subgraph_deletion(a, p, rng, first(gs))),
    ("output_graph", True, True, lambda a, b, gs, rng, p: output_graph(a, b, gs, rng, p.bounds)),
    ("subgraph", True, True, lambda a, b, gs, rng, p: subgraph(a, b, gs, rng, p.bounds)),
]


@pytest.mark.parametrize("guard", GUARDS, ids=lambda guard: guard[0])
def test_guards(guard):
    """A graph reader called without its graph raises ValueError, whatever
    the genome mode and the branch a mixed operator would draw; a
    positional-only operator raises UnsupportedOperatorError on CGP.
    Otherwise the call gives a valid child."""
    _, positional, reads, call = guard
    rng = np.random.default_rng(0)
    for mode in GenomeMode:
        a, b = (random_genome(mode, 2, 2, 6, rng) for _ in range(2))
        graphs = tuple(decode(g, SET, FSET) for g in (a, b))
        for modify_rate in (0.0, 1.0):
            p = MutationParams(SizeBounds(0, 20), require_active=True, modify_rate=modify_rate)
            if reads:
                with pytest.raises(ValueError, match="is None"):
                    call(a, b, None, rng, p)
            if positional and mode is CGP:
                with pytest.raises(UnsupportedOperatorError):
                    call(a, b, graphs, rng, p)
            else:
                validate_genome(call(a, b, graphs if reads else None, rng, p))
