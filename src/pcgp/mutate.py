"""Mutation operators: pure gene noise, node-count edits, and the two
mixed operators that pick between them by probability.

All operators take a parent and return a fresh child; size bounds are
enforced by truncating the edit rather than failing, so application
always succeeds.  The subgraph pair works only on positional genomes.

Operators that read the parent's decoded graph (reads_graph says
which) are handed it by the caller; no operator decodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decode import DecodeSettings, component_groups
from .decode import decode  # noqa: F401 - unused; evobench wraps pcgp.<module>.decode
from .errors import ConfigError, UnsupportedOperatorError
from .genome import Genome, GenomeMode, SizeBounds, add_nodes, make_genome, remove_nodes

OPERATORS = ("gene", "mixed_node", "mixed_subgraph")
POSITIONAL_ONLY = ("mixed_subgraph",)


@dataclass(frozen=True)
class MutationParams:
    bounds: SizeBounds
    node_rate: float = 0.1        # per node gene
    output_rate: float = 0.3      # per output gene
    input_rate: float = 0.0       # per input position gene (PCGP)
    require_active: bool = False  # retry until an active node gene changed
    delta_frac: float = 0.2       # sizes structural edits, relative to size_min
    modify_rate: float = 0.6      # mixed operators: chance of plain gene noise
    operator: str = "gene"
    add_inverted: bool = False    # flip the growth bias of mixed operators

    def __post_init__(self):
        for name in ("node_rate", "output_rate", "input_rate", "delta_frac", "modify_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name}={v} outside [0, 1]")
        if self.operator not in OPERATORS:
            raise ConfigError(
                f"operator must be one of {OPERATORS}, got {self.operator!r}")


def reads_graph(params: MutationParams) -> bool:
    """Whether apply_mutation with params may read the parent's graph."""
    return params.require_active or params.operator == "mixed_subgraph"


def _require_graph(graph, params: MutationParams):
    if graph is None and reads_graph(params):
        raise ValueError(f"{params.operator} mutation (require_active={params.require_active})"
                         " reads the parent's decoded graph, but graph is None")


def _require_pcgp(g: Genome, what: str):
    if g.mode is not GenomeMode.PCGP:
        raise UnsupportedOperatorError(f"{what} is defined only for positional genomes")


def _mutate_array(arr: np.ndarray, rate: float, rng) -> np.ndarray:
    out = np.array(arr)
    mask = rng.random(arr.shape) < rate
    n = int(np.count_nonzero(mask))
    if n:
        out[mask] = rng.random(n)
    return out


def gene_mutation(g: Genome, params: MutationParams, rng, graph=None) -> Genome:
    """Replace genes independently at the per-kind rates.

    With require_active set, the draw repeats on the original parent
    until some gene of an active computational node changed (at most 100
    attempts), so offspring are never behaviorally silent copies; graph,
    the parent's decoded graph, is read only then.
    """
    _require_graph(graph, params)
    active = None
    if params.require_active and g.n_nodes:
        flags = graph.active
        if flags.any():
            active = flags
    nodes, outputs, inputs = g.nodes, g.outputs, g.inputs
    for _ in range(100):
        nodes = _mutate_array(g.nodes, params.node_rate, rng)
        outputs = _mutate_array(g.outputs, params.output_rate, rng)
        if g.mode is GenomeMode.PCGP:
            inputs = _mutate_array(g.inputs, params.input_rate, rng)
        if active is None or bool(np.any(nodes[active] != g.nodes[active])):
            break
    return make_genome(g.mode, g.n_in, g.n_out, nodes, outputs, inputs)


def _burst_size(params: MutationParams) -> int:
    """Node count touched by one structural edit; never zero."""
    return max(1, round(params.delta_frac * params.bounds.size_min))


def node_addition(g: Genome, params: MutationParams, rng) -> Genome:
    k = min(_burst_size(params), params.bounds.size_max - g.n_nodes)
    if k <= 0:
        return g
    return add_nodes(g, rng.random((k, g.stride)))


def node_deletion(g: Genome, params: MutationParams, rng) -> Genome:
    k = min(_burst_size(params), max(0, g.n_nodes - params.bounds.size_min))
    if k <= 0:
        return g
    return remove_nodes(g, rng.choice(g.n_nodes, size=k, replace=False))


def add_probability(n_nodes: int, params: MutationParams) -> float:
    """Chance that a mixed operator grows rather than shrinks the genome.

    Scales linearly across the size range, sharing the non-modify
    probability mass: exactly 0 at one end and 1 - modify_rate at the
    other (which end grows depends on add_inverted).
    """
    span = params.bounds.size_max - params.bounds.size_min
    if span <= 0:
        return 0.0
    if params.add_inverted:
        frac = (params.bounds.size_max - n_nodes) / span
    else:
        frac = (n_nodes - params.bounds.size_min) / span
    return min(1.0, max(0.0, frac)) * (1.0 - params.modify_rate)


def mixed_node_mutate(g: Genome, params: MutationParams, rng, graph=None) -> Genome:
    u = rng.random()
    if u < params.modify_rate:
        return gene_mutation(g, params, rng, graph)
    if u < params.modify_rate + add_probability(g.n_nodes, params):
        return node_addition(g, params, rng)
    return node_deletion(g, params, rng)


def invert_connection_position(target_pos: float, node_pos: float,
                               settings: DecodeSettings) -> float:
    """Connection gene whose decoded point lands exactly on target_pos.

    Inverse of the positional connection formula, clamped into the gene
    range.  Degenerate zero reach (only possible at input_start 0) maps
    to gene 0.
    """
    reach = settings.recurrency * (1.0 - node_pos) + node_pos
    denom = reach - settings.input_start
    if denom <= 0.0:
        return 0.0
    return min(1.0, max(0.0, (target_pos - settings.input_start) / denom))


def subgraph_addition(g: Genome, params: MutationParams,
                      settings: DecodeSettings, rng) -> Genome:
    """Grow a batch of nodes wired to a pool of nearby-left entities.

    Each new node (taken in ascending position) pools all earlier new
    nodes, matched counts of random parent nodes and inputs from its
    left, and aims each connection gene exactly at one pooled position.
    """
    _require_pcgp(g, "subgraph addition")
    k = min(_burst_size(params), params.bounds.size_max - g.n_nodes)
    if k <= 0:
        return g
    rows = rng.random((k, 5))
    rows = rows[np.argsort(rows[:, 0], kind="stable")]
    parent_pos = g.nodes[:, 0]
    input_pos = g.inputs * settings.input_start
    for i in range(k):
        left_new = rows[:i, 0][rows[:i, 0] < rows[i, 0]]
        pool = list(left_new)
        m = max(len(pool), 1)
        eligible = parent_pos[parent_pos < rows[i, 0]]
        if eligible.size:
            pool += list(rng.choice(eligible, size=m, replace=eligible.size < m))
        pool += list(rng.choice(input_pos, size=m, replace=input_pos.size < m))
        for col in (1, 2):
            target = pool[rng.integers(len(pool))]
            rows[i, col] = invert_connection_position(target, rows[i, 0], settings)
    return add_nodes(g, rows)


def subgraph_deletion(g: Genome, params: MutationParams, rng, graph) -> Genome:
    """Delete nodes from one multi-node weakly-connected component of graph.

    Falls back to plain node deletion when every component is a
    singleton.
    """
    _require_pcgp(g, "subgraph deletion")
    multi = [c for c in component_groups(graph) if c.size > 1]
    if not multi:
        return node_deletion(g, params, rng)
    comp = multi[rng.integers(len(multi))]
    k = min(_burst_size(params), comp.size, max(0, g.n_nodes - params.bounds.size_min))
    if k <= 0:
        return g
    return remove_nodes(g, rng.choice(comp, size=k, replace=False))


def mixed_subgraph_mutate(g: Genome, params: MutationParams, settings: DecodeSettings,
                          rng, graph) -> Genome:
    _require_pcgp(g, "mixed subgraph mutation")
    u = rng.random()
    if u < params.modify_rate:
        return gene_mutation(g, params, rng, graph)
    if u < params.modify_rate + add_probability(g.n_nodes, params):
        return subgraph_addition(g, params, settings, rng)
    return subgraph_deletion(g, params, rng, graph)


def apply_mutation(g: Genome, params: MutationParams, settings: DecodeSettings,
                   rng, graph=None) -> Genome:
    """A child of g by params.operator; graph, g's decoded graph, must be
    given when reads_graph(params) is true."""
    _require_graph(graph, params)
    if params.operator == "gene":
        return gene_mutation(g, params, rng, graph)
    if params.operator == "mixed_node":
        return mixed_node_mutate(g, params, rng, graph)
    return mixed_subgraph_mutate(g, params, settings, rng, graph)
