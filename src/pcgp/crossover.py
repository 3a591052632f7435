"""Crossover operators.

All six take two parents of identical mode and input/output counts and
return one child.  Three of them (aligned_node, output_graph, subgraph)
rely on node positions or decoded structure and therefore exist only for
positional genomes; applying them to plain genomes raises instead of
silently degrading.

Every random choice is drawn from the rng passed in.

Those in READS_GRAPHS read the parents' decoded graphs, which the
caller hands them as a pair; without them they raise ValueError, before
any other check.  No operator decodes.

Crossover enforces only size_max.  The four operators that do not read
graphs give a child whose node count lies between its parents' counts.
output_graph and subgraph keep the nodes they inherit and drop random
rows only above size_max (_cap_rows), so their children can fall below
size_min; mutation does not grow them back unless add_inverted is set
(see SizeBounds).
"""

from __future__ import annotations

import numpy as np

from .decode import _nearest, _sorted_entities, output_trace, require_graph
from .decode import decode  # noqa: F401 - unused; evobench wraps pcgp.<module>.decode
from .errors import ConfigError
from .genome import Genome, GenomeMode, SizeBounds, derive, flatten, require_positional

OPERATORS = ("single_point", "random_node", "aligned_node",
             "proportional", "output_graph", "subgraph")
POSITIONAL_ONLY = ("aligned_node", "output_graph", "subgraph")
READS_GRAPHS = ("output_graph", "subgraph")


def _check_mates(a: Genome, b: Genome):
    if a.mode is not b.mode or a.n_in != b.n_in or a.n_out != b.n_out:
        raise ValueError(
            f"incompatible parents: {a.mode.value}/{a.n_in}/{a.n_out} vs "
            f"{b.mode.value}/{b.n_in}/{b.n_out}")


def _coin_mix(av: np.ndarray, bv: np.ndarray, rng) -> np.ndarray:
    """Each gene from a or b with equal probability."""
    return np.where(rng.random(av.shape) < 0.5, bv, av)


def _cap_rows(rows: np.ndarray, bounds: SizeBounds, rng) -> np.ndarray:
    """Drop uniformly chosen rows until within size_max."""
    if rows.shape[0] <= bounds.size_max:
        return rows
    keep = np.sort(rng.choice(rows.shape[0], size=bounds.size_max, replace=False))
    return rows[keep]


def single_point(a: Genome, b: Genome, rng) -> Genome:
    """Swap flat-gene suffixes at a node-block boundary.

    Cut j >= 0, drawn up to the shorter parent's node count, gives the
    head's input and output genes and first j nodes, then the tail's
    nodes from j on.  Cut -1 stands for offset 0: the tail parent itself.
    """
    _check_mates(a, b)
    cut = rng.integers(min(a.n_nodes, b.n_nodes) + 2) - 1
    head, tail = (a, b) if rng.integers(2) == 0 else (b, a)
    if cut < 0:
        return tail
    return derive(head, np.concatenate([head.nodes[:cut], tail.nodes[cut:]]))


def random_node(a: Genome, b: Genome, rng) -> Genome:
    """Take half the nodes of each parent; every input/output gene is a
    coin flip.

    Equal-sized parents contribute complementary index sets (each side's
    draw is still uniform), so crossing a genome with itself permutes
    its own nodes instead of duplicating some and dropping others.
    """
    _check_mates(a, b)
    half_a, half_b = a.n_nodes // 2, (b.n_nodes + 1) // 2
    sel_a = np.sort(rng.choice(a.n_nodes, half_a, replace=False))
    if a.n_nodes == b.n_nodes:
        mask = np.ones(b.n_nodes, dtype=bool)
        mask[sel_a] = False
        sel_b = np.flatnonzero(mask)
    else:
        sel_b = np.sort(rng.choice(b.n_nodes, half_b, replace=False))
    rows = np.concatenate([a.nodes[sel_a], b.nodes[sel_b]])
    outputs = _coin_mix(a.outputs, b.outputs, rng)
    inputs = _coin_mix(a.inputs, b.inputs, rng) if a.mode is GenomeMode.PCGP else None
    return derive(a, rows, outputs, inputs)


def aligned_node(a: Genome, b: Genome, rng) -> Genome:
    """Pair nodes across parents by position and keep one per pair.

    Greedy pairing walks the smaller parent left to right and snaps each
    node's position among the still-unpaired nodes of the other parent,
    along its stored (sorted) axis by decode's rule.  Leftover nodes of
    the larger parent each survive with probability one half.
    """
    require_positional(a, "aligned node crossover")
    _check_mates(a, b)
    short, long_ = (a, b) if a.n_nodes <= b.n_nodes else (b, a)
    free = long_.nodes[:, 0].tolist()       # ascending, as is unpaired
    unpaired = list(range(long_.n_nodes))
    rows = []
    for i, p in enumerate(short.nodes[:, 0].tolist()):
        ordered, entity = _sorted_entities(free, 0)
        k = entity[_nearest(ordered, p, len(free))]
        del free[k]
        j = unpaired.pop(k)
        rows.append(short.nodes[i] if rng.random() < 0.5 else long_.nodes[j])
    for j in unpaired:
        if rng.random() < 0.5:
            rows.append(long_.nodes[j])
    rows = np.array(rows) if rows else np.zeros((0, 5))
    outputs = _coin_mix(a.outputs, b.outputs, rng)
    inputs = _coin_mix(a.inputs, b.inputs, rng)
    return derive(a, rows, outputs, inputs)


def proportional(a: Genome, b: Genome, rng) -> Genome:
    """Per-gene convex blend of the flat vectors up to the shorter
    length; the longer parent's tail is appended unchanged.

    Each blended gene is clamped into the interval spanned by its two
    parents, so weight 0/1 reproduces a parent gene exactly and blending
    a genome with itself is the identity.  The child is built by derive
    from slices of the one fresh vector, in flatten's layout.
    """
    _check_mates(a, b)
    fa, fb = flatten(a), flatten(b)
    low = min(fa.size, fb.size)
    w = rng.random(low)
    lo = np.minimum(fa[:low], fb[:low])
    hi = np.maximum(fa[:low], fb[:low])
    mix = np.clip((1.0 - w) * fa[:low] + w * fb[:low], lo, hi)
    tail = fa if fa.size >= fb.size else fb
    flat = np.concatenate([mix, tail[low:]])
    head = fa.size - a.nodes.size       # the input and output genes
    inputs = flat[:a.n_in] if a.mode is GenomeMode.PCGP else None
    return derive(a, flat[head:].reshape(-1, a.nodes.shape[1]), flat[head - a.n_out:head], inputs)


def output_graph(a: Genome, b: Genome, graphs, rng, bounds: SizeBounds) -> Genome:
    """Recombine whole per-output program graphs, read off graphs.

    Each output is inherited from one parent together with every node
    its trace reaches (arity ignored).  Inputs referenced by only one
    parent's traces keep that parent's position gene; the rest flip a
    coin.  The draws come in this order: one integers(0, 2) per output
    for its parent (the numbers integers(0, 2, n_out) gives, without its
    size set-up), the choice of _cap_rows, then random(n_in) for the
    input coins.
    """
    require_graph(graphs, "output graph crossover")
    require_positional(a, "output graph crossover")
    _check_mates(a, b)
    choices = [int(rng.integers(0, 2)) for _ in range(a.n_out)]
    n_in = a.n_in
    picked, used = (set(), set()), (set(), set())
    for k, c in enumerate(choices):
        d = graphs[c]
        tr = output_trace(d, k)
        picked[c].update(tr)
        ends = [d.output_list[k]] + [t for i in tr for t in d.row(i)[:2]]
        used[c].update(t for t in ends if t < n_in)
    parents = (a, b)
    # one gather per parent that gives nodes; with one output only one does
    parts = [g.nodes[sorted(p)] for g, p in zip(parents, picked) if p]
    rows = parts[0] if len(parts) == 1 else np.concatenate(parts) if parts else np.empty((0, 5))
    rows = _cap_rows(rows, bounds, rng)
    outputs = np.array([parents[c].outputs[k] for k, c in enumerate(choices)])
    inputs = np.empty(n_in)
    for i, coin in enumerate(rng.random(n_in).tolist()):
        in_a, in_b = i in used[0], i in used[1]
        inputs[i] = parents[in_b if in_a != in_b else coin < 0.5].inputs[i]
    return derive(a, rows, outputs, inputs)


def subgraph(a: Genome, b: Genome, graphs, rng, bounds: SizeBounds) -> Genome:
    """Union of coin-flipped weakly-connected components of both parents.

    Input and output genes are per-gene coin flips.
    """
    require_graph(graphs, "subgraph crossover")
    require_positional(a, "subgraph crossover")
    _check_mates(a, b)
    parts = []
    for g, graph in zip((a, b), graphs):
        take = rng.random(len(graph.components)) < 0.5
        chosen = [c for c, t in zip(graph.components, take) if t]
        idx = np.sort(np.concatenate(chosen)) if chosen else np.zeros(0, int)
        parts.append(g.nodes[idx])
    rows = _cap_rows(np.concatenate(parts), bounds, rng)
    outputs = _coin_mix(a.outputs, b.outputs, rng)
    inputs = _coin_mix(a.inputs, b.inputs, rng)
    return derive(a, rows, outputs, inputs)


def apply_crossover(a: Genome, b: Genome, operator: str, rng, bounds: SizeBounds,
                    graphs=None) -> Genome:
    """A child of a and b by operator; graphs, the parents' decoded
    graphs as a pair, must be given when operator is in READS_GRAPHS."""
    if operator == "single_point":
        return single_point(a, b, rng)
    if operator == "random_node":
        return random_node(a, b, rng)
    if operator == "aligned_node":
        return aligned_node(a, b, rng)
    if operator == "proportional":
        return proportional(a, b, rng)
    if operator == "output_graph":
        return output_graph(a, b, graphs, rng, bounds)
    if operator == "subgraph":
        return subgraph(a, b, graphs, rng, bounds)
    raise ConfigError(f"unknown crossover operator {operator!r}; expected one of {OPERATORS}")
