"""Genome → program graph: connection geometry, snapping, activity.

A genome addresses program entities on a 1-D axis (inputs, then
computational nodes).  Each node's two connection genes and each output
gene produce a real-valued point on that axis, which snaps to the
nearest eligible entity.  Recurrency widens a connection's reach to the
right of its source node; at recurrency 0 every connection lands
strictly left and the program is feedforward.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DecodeError
from .functions import FunctionSet
from .genome import C_OFF, F_OFF, X_OFF, Y_OFF, Genome, GenomeMode, ladder_positions


@dataclass(frozen=True)
class DecodeSettings:
    """Knobs shared by decoding and execution.

    recurrency 0 keeps programs feedforward; larger values extend
    connection reach rightward.  input_start places PCGP inputs on the
    negative axis (0.0 is allowed and degenerates to the CGP formula;
    configs keep it strictly negative).  use_weights multiplies each
    node's output by its parameter gene during execution.
    """

    recurrency: float = 0.0
    input_start: float = -1.0
    use_weights: bool = False

    def __post_init__(self):
        if not 0.0 <= self.recurrency <= 1.0:
            raise ValueError(f"recurrency {self.recurrency} outside [0, 1]")
        if not -1.0 <= self.input_start <= 0.0:
            raise ValueError(f"input_start {self.input_start} outside [-1, 0]")


class Plan(NamedTuple):
    """A graph's active nodes in evaluation order, flat for the interpreter."""

    nodes: list         # (node, fn, target_a, target_b, param) per active node
    outputs: list       # output target indices
    feedforward: bool   # no followed connection of an active node recurs


@dataclass(frozen=True, eq=False)
class DecodedGraph:
    """The program decoded from one genome; execution needs nothing else.

    Indices in targets/output_targets address the unified space: values
    below n_in are program inputs, the rest are computational nodes in
    stored order.  plan and components are derived on first access.
    components labels every node (active or not) with its
    weakly-connected component, numbered by first appearance.
    """

    n_in: int
    n_out: int
    positions: np.ndarray        # (n_in + n_nodes,) entity positions
    targets: np.ndarray          # (n_nodes, 2) int
    output_targets: np.ndarray   # (n_out,) int
    recurrent_flags: np.ndarray  # (n_nodes, 2) bool
    function_index: np.ndarray   # (n_nodes,) int
    arity: np.ndarray            # (n_nodes,) int, from the function set
    params: np.ndarray           # (n_nodes,) parameter genes: const value or weight
    active: np.ndarray           # (n_nodes,) bool
    fset: FunctionSet
    use_weights: bool

    @property
    def n_nodes(self) -> int:
        return self.function_index.shape[0]

    @cached_property
    def plan(self) -> Plan:
        targets = self.targets.tolist()
        recurrent = self.recurrent_flags.tolist()
        findex = self.function_index.tolist()
        arities = self.arity.tolist()
        params = self.params.tolist()
        functions = self.fset.functions
        nodes = []
        feedforward = True
        for i in np.flatnonzero(self.active).tolist():
            ta, tb = targets[i]
            nodes.append((i, functions[findex[i]].apply, ta, tb, params[i]))
            k = arities[i]
            if (k >= 1 and recurrent[i][0]) or (k >= 2 and recurrent[i][1]):
                feedforward = False
        return Plan(nodes, self.output_targets.tolist(), feedforward)

    @cached_property
    def program_key(self) -> tuple:
        """The canonical active program: graphs with equal keys compute
        the same outputs from the same inputs and state history.

        Active nodes are renumbered in plan order, which keeps the
        fresh-versus-previous-step reading of every connection.  Each
        contributes its function index, the targets its arity uses and,
        as float.hex so -0.0 and 0.0 differ, its parameter where it is
        read: by a nullary function, or by every node when weighted.
        """
        n_in = self.n_in
        plan = self.plan
        findex = self.function_index.tolist()
        arity = self.arity.tolist()
        rank = {n_in + node[0]: n_in + k for k, node in enumerate(plan.nodes)}
        nodes = []
        for i, _fn, ta, tb, param in plan.nodes:
            k = arity[i]
            used = (ta, tb)[:k]
            nodes.append((findex[i], *[rank.get(t, t) for t in used],
                          param.hex() if self.use_weights or k == 0 else None))
        return (plan.feedforward, tuple(nodes),
                tuple(rank.get(t, t) for t in plan.outputs))

    @cached_property
    def components(self) -> np.ndarray:
        """(n_nodes,) int component label per node."""
        labels = _components(self.n_in, self.n_nodes, self.targets)
        labels.setflags(write=False)
        return labels


def connection_position(x, node_pos, settings: DecodeSettings, mode: GenomeMode):
    """Point on the axis addressed by connection gene x of a node.

    Works elementwise on arrays.  The reach interpolates between the
    region left of the node (recurrency 0) and the whole node axis
    (recurrency 1); PCGP additionally spans down into the input region.
    """
    reach = settings.recurrency * (1.0 - node_pos) + node_pos
    if mode is GenomeMode.CGP:
        return x * reach
    return x * (reach - settings.input_start) + settings.input_start


def output_position(o, settings: DecodeSettings, mode: GenomeMode):
    """Point addressed by an output gene; spans the whole entity axis."""
    if mode is GenomeMode.CGP:
        return o
    return o * (1.0 - settings.input_start) + settings.input_start


def snap(point: float, candidates) -> int:
    """Index of the candidate (index, position) pair nearest to point.

    Distance ties break toward the smaller position, then the smaller
    index.
    """
    items = list(candidates)
    if not items:
        raise DecodeError("empty candidate set")
    idx = np.array([i for i, _ in items])
    pos = np.array([p for _, p in items], dtype=float)
    best = np.lexsort((idx, pos, np.abs(pos - point)))[0]
    return int(idx[best])


class _SnapField:
    """All entities sorted by position, for batched nearest lookups.

    Ties in position keep ascending entity index, and run_start maps any
    entry to the first (smallest-index) entry at the same position, so
    lookups reproduce snap's tie-breaking exactly.
    """

    def __init__(self, positions: np.ndarray, assume_sorted: bool = False):
        n = positions.shape[0]
        if assume_sorted or n <= 1 or bool(np.all(positions[1:] > positions[:-1])):
            # Strictly increasing (always true for the CGP ladder): sort
            # order and run starts are both the identity.
            self.pos = positions
            self.idx = None
            self.run_start = None
            return
        order = np.argsort(positions, kind="stable")
        self.pos = positions[order]
        self.idx = order
        starts = np.arange(n)
        same = self.pos[1:] == self.pos[:-1]
        starts[1:][same] = 0
        self.run_start = np.maximum.accumulate(starts)

    def lookup(self, points: np.ndarray, hi) -> np.ndarray:
        """Nearest entity per point among the first `hi` sorted entries."""
        points = np.asarray(points, dtype=float)
        hi = np.asarray(hi)
        if hi.shape != points.shape:
            hi = np.broadcast_to(hi, points.shape)
        j = np.minimum(np.searchsorted(self.pos, points, side="left"), hi)
        left = np.maximum(j - 1, 0)
        right = np.minimum(j, self.pos.shape[0] - 1)
        have_right = j < hi
        d_left = points - self.pos[left]
        d_right = self.pos[right] - points
        take_left = (j > 0) & (~have_right | (d_left <= d_right))
        k = np.where(take_left, left, right)
        if self.idx is None:
            return k
        return self.idx[self.run_start[k]]


def entity_positions(g: Genome, settings: DecodeSettings) -> np.ndarray:
    """Positions of all addressable entities, inputs first."""
    if g.mode is GenomeMode.CGP:
        return ladder_positions(g.n_in + g.n_nodes)
    return np.concatenate([g.inputs * settings.input_start, g.nodes[:, 0]])


def decode(g: Genome, settings: DecodeSettings, fset: FunctionSet) -> DecodedGraph:
    n_in, n_nodes, n_out = g.n_in, g.n_nodes, g.n_out
    positions = entity_positions(g, settings)
    # the CGP ladder is strictly increasing by construction
    field = _SnapField(positions, assume_sorted=g.mode is GenomeMode.CGP)
    node_pos = positions[n_in:]

    n_f = len(fset)
    function_index = np.minimum(
        np.floor(g.nodes[:, F_OFF] * n_f).astype(int), n_f - 1
    ) if n_nodes else np.zeros(0, dtype=int)
    arity = fset.arities[function_index]

    total = n_in + n_nodes
    out_points = output_position(g.outputs, settings, g.mode)
    if n_nodes:
        conn = connection_position(
            g.nodes[:, (X_OFF, Y_OFF)], node_pos[:, None], settings, g.mode
        )
        if settings.recurrency > 0.0:
            hi_conn = np.full(2 * n_nodes, total)
        else:
            # strictly-left entities only: prefix up to the first position
            # tie (for the CGP ladder that is simply the node's own rank)
            bound = (
                np.arange(n_nodes)
                if g.mode is GenomeMode.CGP
                else np.searchsorted(node_pos, node_pos, side="left")
            )
            hi_conn = np.repeat(n_in + bound, 2)
        snapped = field.lookup(
            np.concatenate([conn.ravel(), out_points]),
            np.concatenate([hi_conn, np.full(n_out, total)]),
        )
        targets = snapped[: 2 * n_nodes].reshape(n_nodes, 2)
        output_targets = snapped[2 * n_nodes :]
        recurrent_flags = positions[targets] >= node_pos[:, None]
    else:
        targets = np.zeros((0, 2), dtype=int)
        recurrent_flags = np.zeros((0, 2), dtype=bool)
        output_targets = field.lookup(out_points, total)

    params = g.nodes[:, C_OFF]
    active = np.array(_reachable(n_in, targets.tolist(), np.minimum(arity, 2).tolist(),
                                 output_targets.tolist()), dtype=bool)

    for a in (positions, targets, output_targets, recurrent_flags,
              function_index, arity, params, active):
        a.setflags(write=False)
    return DecodedGraph(n_in, n_out, positions, targets, output_targets,
                        recurrent_flags, function_index, arity, params, active,
                        fset, settings.use_weights)


def _reachable(n_in, target_rows, fans, roots) -> list[bool]:
    """Backward reachability over computational nodes; cycle-safe.

    Starts from the root entities (inputs among them end the walk) and
    follows the first fans[i] connections of every visited node i.
    Returns one visited flag per node.
    """
    seen = [False] * len(target_rows)
    stack = [t - n_in for t in roots if t >= n_in]
    while stack:
        i = stack.pop()
        if seen[i]:
            continue
        seen[i] = True
        row = target_rows[i]
        for k in range(fans[i]):
            t = row[k] - n_in
            if t >= 0 and not seen[t]:
                stack.append(t)
    return seen


def _components(n_in, n_nodes, targets):
    """Weakly-connected component labels, ignoring arity and direction."""
    parent = list(range(n_nodes))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(n_nodes):
        for t in targets[i]:
            if t >= n_in:
                ra, rb = find(i), find(t - n_in)
                if ra != rb:
                    parent[rb] = ra
    labels = np.full(n_nodes, -1, dtype=int)
    next_label = 0
    for i in range(n_nodes):
        r = find(i)
        if labels[r] < 0:
            labels[r] = next_label
            next_label += 1
        labels[i] = labels[r]
    return labels


def component_groups(graph: DecodedGraph) -> list[np.ndarray]:
    """Node indices of each component, in label order."""
    if graph.n_nodes == 0:
        return []
    return [np.flatnonzero(graph.components == c)
            for c in range(graph.components.max() + 1)]


def output_trace(graph: DecodedGraph, output: int, arity_aware: bool = False) -> set[int]:
    """Computational nodes reachable backward from one output's target.

    With arity_aware false, both connections of every visited node are
    followed even when its function consumes fewer; cycle-safe either
    way.
    """
    fans = np.minimum(graph.arity, 2).tolist() if arity_aware else [2] * graph.n_nodes
    seen = _reachable(graph.n_in, graph.targets.tolist(), fans,
                      [int(graph.output_targets[output])])
    return {i for i, hit in enumerate(seen) if hit}
