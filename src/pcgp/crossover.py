"""Crossover operators.

All six take two parents of identical mode and input/output counts and
return one child.  Three of them (aligned_node, output_graph, subgraph)
rely on node positions or decoded structure and therefore exist only for
positional genomes; applying them to plain genomes raises instead of
silently degrading.

Operators whose random choices matter for exactness expose injection
seams (explicit cut offset, weight vector, output choices, component
picks) so tests can pin them down.

Those in READS_GRAPHS read the parents' decoded graphs, which the
caller hands them as a pair; no operator decodes.

Crossover enforces only size_max.  The four operators that do not read
graphs give a child whose node count lies between its parents' counts.
output_graph and subgraph keep the nodes they inherit and drop random
rows only above size_max (_cap_rows), so their children can fall below
size_min; mutation does not grow them back unless add_inverted is set
(see SizeBounds).
"""

from __future__ import annotations

import numpy as np

from .decode import component_groups, output_trace
from .decode import decode  # noqa: F401 - unused; evobench wraps pcgp.<module>.decode
from .errors import ConfigError, UnsupportedOperatorError
from .genome import (
    Genome,
    GenomeMode,
    SizeBounds,
    flatten,
    header_length,
    make_genome,
    node_stride,
    unflatten,
)

OPERATORS = ("single_point", "random_node", "aligned_node",
             "proportional", "output_graph", "subgraph")
POSITIONAL_ONLY = ("aligned_node", "output_graph", "subgraph")
READS_GRAPHS = ("output_graph", "subgraph")


def _check_mates(a: Genome, b: Genome):
    if a.mode is not b.mode or a.n_in != b.n_in or a.n_out != b.n_out:
        raise ValueError(
            f"incompatible parents: {a.mode.value}/{a.n_in}/{a.n_out} vs "
            f"{b.mode.value}/{b.n_in}/{b.n_out}")


def _require_pcgp(a: Genome, what: str):
    if a.mode is not GenomeMode.PCGP:
        raise UnsupportedOperatorError(f"{what} crossover is defined only for positional genomes")


def _coin_mix(av: np.ndarray, bv: np.ndarray, rng) -> np.ndarray:
    """Each gene from a or b with equal probability."""
    return np.where(rng.random(av.shape) < 0.5, bv, av)


def _cap_rows(rows: np.ndarray, bounds: SizeBounds | None, rng) -> np.ndarray:
    """Drop uniformly chosen rows until within size_max."""
    if bounds is None or rows.shape[0] <= bounds.size_max:
        return rows
    keep = np.sort(rng.choice(rows.shape[0], size=bounds.size_max, replace=False))
    return rows[keep]


def single_point(a: Genome, b: Genome, rng, cut: int | None = None) -> Genome:
    """Swap flat-gene suffixes at a node-block boundary.

    Legal cuts are offset 0 (child becomes one parent wholesale) and the
    start of every node block present in both parents, including the end
    of the shorter parent's vector.
    """
    _check_mates(a, b)
    header = header_length(a.mode, a.n_in, a.n_out)
    stride = node_stride(a.mode)
    cuts = [0] + [header + j * stride for j in range(min(a.n_nodes, b.n_nodes) + 1)]
    if cut is None:
        cut = cuts[rng.integers(len(cuts))]
    elif cut not in cuts:
        raise ValueError(f"cut {cut} is not a node boundary (choose from {cuts})")
    head, tail = (a, b) if rng.integers(2) == 0 else (b, a)
    child = np.concatenate([flatten(head)[:cut], flatten(tail)[cut:]])
    return unflatten(a.mode, a.n_in, a.n_out, child)


def random_node(a: Genome, b: Genome, rng) -> Genome:
    """Take half the nodes of each parent; every input/output gene is a
    coin flip.

    Equal-sized parents contribute complementary index sets (each side's
    draw is still uniform), so crossing a genome with itself permutes
    its own nodes instead of duplicating some and dropping others.
    """
    _check_mates(a, b)
    half_a, half_b = a.n_nodes // 2, (b.n_nodes + 1) // 2
    sel_a = np.sort(rng.choice(a.n_nodes, half_a, replace=False)) if a.n_nodes else np.zeros(0, int)
    if a.n_nodes == b.n_nodes:
        mask = np.ones(b.n_nodes, dtype=bool)
        mask[sel_a] = False
        sel_b = np.flatnonzero(mask)
    else:
        sel_b = np.sort(rng.choice(b.n_nodes, half_b, replace=False)) if b.n_nodes else np.zeros(0, int)
    rows = np.concatenate([a.nodes[sel_a], b.nodes[sel_b]])
    outputs = _coin_mix(a.outputs, b.outputs, rng)
    inputs = _coin_mix(a.inputs, b.inputs, rng) if a.mode is GenomeMode.PCGP else None
    return make_genome(a.mode, a.n_in, a.n_out, rows, outputs, inputs)


def aligned_node(a: Genome, b: Genome, rng) -> Genome:
    """Pair nodes across parents by position and keep one per pair.

    Greedy pairing walks the smaller parent left to right, grabbing the
    nearest still-unpaired node of the other parent (distance ties break
    toward smaller position, then smaller index).  Leftover nodes of the
    larger parent each survive with probability one half.
    """
    _require_pcgp(a, "aligned node")
    _check_mates(a, b)
    short, long_ = (a, b) if a.n_nodes <= b.n_nodes else (b, a)
    unpaired = np.ones(long_.n_nodes, dtype=bool)
    rows = []
    for i in range(short.n_nodes):
        cand = np.flatnonzero(unpaired)
        pos = long_.nodes[cand, 0]
        dist = np.abs(pos - short.nodes[i, 0])
        j = cand[np.lexsort((cand, pos, dist))[0]]
        unpaired[j] = False
        rows.append(short.nodes[i] if rng.random() < 0.5 else long_.nodes[j])
    for j in np.flatnonzero(unpaired):
        if rng.random() < 0.5:
            rows.append(long_.nodes[j])
    rows = np.array(rows) if rows else np.zeros((0, 5))
    outputs = _coin_mix(a.outputs, b.outputs, rng)
    inputs = _coin_mix(a.inputs, b.inputs, rng)
    return make_genome(a.mode, a.n_in, a.n_out, rows, outputs, inputs)


def proportional(a: Genome, b: Genome, rng, weights=None) -> Genome:
    """Per-gene convex blend of the flat vectors up to the shorter
    length; the longer parent's tail is appended unchanged.

    Each blended gene is clamped into the interval spanned by its two
    parents, so weight 0/1 reproduces a parent gene exactly and blending
    a genome with itself is the identity.
    """
    _check_mates(a, b)
    fa, fb = flatten(a), flatten(b)
    low = min(fa.size, fb.size)
    if weights is None:
        w = rng.random(low)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != (low,):
            raise ValueError(f"need {low} weights, got shape {w.shape}")
    lo = np.minimum(fa[:low], fb[:low])
    hi = np.maximum(fa[:low], fb[:low])
    mix = np.clip((1.0 - w) * fa[:low] + w * fb[:low], lo, hi)
    tail = fa if fa.size >= fb.size else fb
    return unflatten(a.mode, a.n_in, a.n_out, np.concatenate([mix, tail[low:]]))


def output_graph(a: Genome, b: Genome, graphs, rng, bounds: SizeBounds | None = None,
                 output_choices=None) -> Genome:
    """Recombine whole per-output program graphs, read off graphs.

    Each output is inherited from one parent together with every node
    its trace reaches (arity ignored).  Inputs referenced by only one
    parent's traces keep that parent's position gene; the rest flip a
    coin.  The draws come in this order: one integers(0, 2) per output
    for its parent (the numbers integers(0, 2, n_out) gives, without its
    size set-up; none when output_choices is given), the choice of
    _cap_rows, then random(n_in) for the input coins.
    """
    _require_pcgp(a, "output graph")
    _check_mates(a, b)
    if output_choices is None:
        choices = [int(rng.integers(0, 2)) for _ in range(a.n_out)]
    else:
        choices = np.asarray(output_choices, dtype=int)
        if choices.shape != (a.n_out,):
            raise ValueError(f"need {a.n_out} output choices")
        choices = choices.tolist()
    n_in = a.n_in
    picked, used = (set(), set()), (set(), set())
    for k, c in enumerate(choices):
        d = graphs[c]
        tr = output_trace(d, k, arity_aware=False)
        picked[c].update(tr)
        ends = [d.output_list[k]] + [t for i in tr for t in d.row(i)[:2]]
        used[c].update(t for t in ends if t < n_in)
    picks = sorted(picked[0]) + [a.n_nodes + i for i in sorted(picked[1])]
    rows = _cap_rows(np.concatenate((a.nodes, b.nodes))[picks], bounds, rng)
    parents = (a, b)
    outputs = [parents[c].outputs[k] for k, c in enumerate(choices)]
    inputs = []
    for i, coin in enumerate(rng.random(n_in).tolist()):
        in_a, in_b = i in used[0], i in used[1]
        inputs.append(parents[in_b if in_a != in_b else coin < 0.5].inputs[i])
    return make_genome(a.mode, n_in, a.n_out, rows, outputs, inputs)


def subgraph(a: Genome, b: Genome, graphs, rng, bounds: SizeBounds | None = None,
             select_a=None, select_b=None) -> Genome:
    """Union of coin-flipped weakly-connected components of both parents.

    Component selection masks can be injected for tests; input and
    output genes are per-gene coin flips.
    """
    _require_pcgp(a, "subgraph")
    _check_mates(a, b)
    parts = []
    for g, graph, given in zip((a, b), graphs, (select_a, select_b)):
        comps = component_groups(graph)
        take = (rng.random(len(comps)) < 0.5) if given is None else np.asarray(given, bool)
        if len(take) != len(comps):
            raise ValueError(f"need {len(comps)} component picks, got {len(take)}")
        chosen = [c for c, t in zip(comps, take) if t]
        idx = np.sort(np.concatenate(chosen)) if chosen else np.zeros(0, int)
        parts.append(g.nodes[idx])
    rows = _cap_rows(np.concatenate(parts), bounds, rng)
    outputs = _coin_mix(a.outputs, b.outputs, rng)
    inputs = _coin_mix(a.inputs, b.inputs, rng)
    return make_genome(a.mode, a.n_in, a.n_out, rows, outputs, inputs)


def apply_crossover(a: Genome, b: Genome, operator: str, rng,
                    bounds: SizeBounds | None = None, graphs=None) -> Genome:
    """A child of a and b by operator; graphs, the parents' decoded
    graphs as a pair, must be given when operator is in READS_GRAPHS."""
    if graphs is None and operator in READS_GRAPHS:
        raise ValueError(f"{operator} crossover reads the parents' decoded graphs, "
                         "but graphs is None")
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
