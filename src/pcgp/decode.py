"""Genome → program graph: connection geometry, snapping, activity.

A genome addresses program entities on a 1-D axis (inputs, then
computational nodes).  Each node's two connection genes and each output
gene produce a real-valued point on that axis, which snaps to the
nearest eligible entity.  Recurrency widens a connection's reach to the
right of its source node; at recurrency 0 every connection lands
strictly left and the program is feedforward.

decode is active-first.  It sets up the entity axis, sorting the
inputs (nodes are stored sorted, right of them) only when the axis is
not already strictly increasing, and snaps the outputs.  Then it walks
backward from the outputs and decodes a node only when the walk
reaches it: both targets, function index, arity and parameter.  The
walk yields the active flags together with exactly the rows that the
plan and the program key read, so scoring a genome, memo hit or miss,
never snaps an inactive node.  Every other node, most of a
genome in practice, is decoded by the same per-node routine when an
attribute that needs it is first read.  A node's row depends only on
the genome, so what an attribute holds does not depend on when or in
what order it is read.

Each point snaps with bisect.  The nearest entity wins; at equal
distance the one on the left wins, and of several entities at one
position the one with the smallest index wins.  python floats apply
* + - in the same order as numpy's elementwise ops, so every point, and
with it every target, is what the array formulas connection_position
and output_position give.

At recurrency 0 a node's connections snap among a prefix of the sorted
entities: the inputs and the nodes strictly left of it.  Inputs sit at
or left of 0 and nodes at or right of it, and PCGP nodes are stored
sorted by position, so the sorted order is the inputs, then the nodes
in stored order.  The prefix for node i therefore ends at n_in + i for
CGP, whose ladder is strictly increasing, and for PCGP before the first
node at node i's position, which bisect_left finds among the stored
node positions.  Nodes tied with node i are thus never its candidates.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .errors import DecodeError
from .functions import FunctionSet
from .genome import Genome, GenomeMode, ladder_positions


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


def _frozen(values, dtype, shape) -> np.ndarray:
    a = np.array(values, dtype=dtype).reshape(shape)
    a.setflags(write=False)
    return a


class _once:
    """functools.cached_property without the lock it takes on every
    first read under Python 3.11: the first read stores the value in
    the instance __dict__, where later reads find it."""

    def __init__(self, compute):
        self.compute, self.__doc__ = compute, compute.__doc__

    def __get__(self, graph, owner=None):
        if graph is None:
            return self
        value = graph.__dict__[self.compute.__name__] = self.compute(graph)
        return value


@dataclass(frozen=True, eq=False)
class DecodedGraph:
    """The program decoded from one genome; execution needs nothing else.

    Indices in rows and output_list address the unified space: values
    below n_in are program inputs, the rest are computational nodes in
    stored order.  rows, the only per-node record, holds per node
    (target_a, target_b, function index, arity, parameter gene) once the
    node is decoded and None before.  fill(i) decodes node i, stores its
    row in rows[i] and returns it; row(i) reads a row, filling it first
    if need be.

    The graph keeps no positions.  Node i's read of target t is
    previous-row when t >= n_in + i (the node itself or a later one), the
    rule the interpreter runs.  On an active node it agrees with the
    position rule (the target sits at or right of the node): a point at
    a tied position snaps to the smallest index, so a node tied with an
    earlier entity is never read.

    decode fills the rows of the active nodes, and plan and program_key
    read no other row.  output_targets and active are read-only numpy
    views of output_list and active_list; targets, function_index and
    components need every node, and the first read of any of them fills
    every remaining row.  All of these are built on first read and then
    kept; reads are serial, as nothing guards a first read or a filled
    row against concurrent readers.  components labels every node
    (active or not) with its weakly-connected component, numbered by
    first appearance.
    """

    n_in: int
    n_out: int
    n_nodes: int
    output_list: list     # target per output
    active_list: list     # reachable from an output, per node
    rows: list            # per node: (target_a, target_b, fn index, arity, param) or None
    fill: Callable        # node index -> its row, stored in rows (None if no row is None)
    fset: FunctionSet
    use_weights: bool

    def row(self, i: int) -> tuple:
        """Node i's row, decoded on first read."""
        row = self.rows[i]
        return self.fill(i) if row is None else row

    def _full_rows(self) -> list:
        """Every node's row, filling those not yet decoded."""
        fill = self.fill
        return [fill(i) if row is None else row for i, row in enumerate(self.rows)]

    @_once
    def targets(self) -> np.ndarray:
        return _frozen([row[:2] for row in self._full_rows()], int, (self.n_nodes, 2))

    @_once
    def function_index(self) -> np.ndarray:
        return _frozen([row[2] for row in self._full_rows()], int, (self.n_nodes,))

    @_once
    def output_targets(self) -> np.ndarray:
        return _frozen(self.output_list, int, (self.n_out,))

    @_once
    def active(self) -> np.ndarray:
        return _frozen(self.active_list, bool, (self.n_nodes,))

    @_once
    def plan(self) -> Plan:
        n_in, rows = self.n_in, self.rows
        functions = self.fset.functions
        nodes = []
        feedforward = True
        for i, on in enumerate(self.active_list):
            if not on:
                continue
            ta, tb, fi, k, param = rows[i]
            nodes.append((i, functions[fi].apply, ta, tb, param))
            here = n_in + i       # a read of here or a later entity is previous-row
            if (k >= 1 and ta >= here) or (k >= 2 and tb >= here):
                feedforward = False
        return Plan(nodes, self.output_list, feedforward)

    @_once
    def program_key(self) -> tuple:
        """The canonical active program: graphs with equal keys compute
        the same outputs from the same inputs and state history.

        Active nodes are renumbered in plan order, which keeps the
        fresh-versus-previous-step reading of every connection.  Each
        contributes its function index, the targets its arity uses and,
        as float.hex so -0.0 and 0.0 differ, its parameter where it is
        read: by a nullary function, or by every node when weighted.
        """
        n_in, rows = self.n_in, self.rows
        plan = self.plan
        rank = {n_in + node[0]: n_in + k for k, node in enumerate(plan.nodes)}
        nodes = []
        for i, *_ in plan.nodes:
            row = rows[i]
            k = row[3]
            nodes.append((row[2], *[rank.get(t, t) for t in row[:k]],
                          row[4].hex() if self.use_weights or k == 0 else None))
        return (plan.feedforward, tuple(nodes),
                tuple(rank.get(t, t) for t in plan.outputs))

    @_once
    def components(self) -> np.ndarray:
        """(n_nodes,) int component label per node."""
        return _frozen(_components(self.n_in, self.n_nodes, self._full_rows()), int,
                       (self.n_nodes,))


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


def _nearest(sorted_pos, point: float, hi: int) -> int:
    """Slot of the entry nearest to point among the first hi (>= 1)
    entries of the ascending list sorted_pos; a distance tie takes the
    left entry."""
    j = bisect_left(sorted_pos, point, 0, hi)
    if j and (j == hi or point - sorted_pos[j - 1] <= sorted_pos[j] - point):
        return j - 1
    return j


def _sorted_entities(positions: list, n_in: int):
    """Positions in ascending order and, per sorted slot, the entity it
    stands for: the smallest index among the entities at that position,
    so _nearest followed by this map reproduces snap's tie-breaking.
    Entities from n_in on (the nodes) must already be ascending and at
    or right of every earlier one, so only the first n_in are sorted;
    a tie across that boundary still maps to the input."""
    order = sorted(range(n_in), key=positions.__getitem__)   # stable
    order += range(n_in, len(positions))
    ordered = [positions[i] for i in order]
    for k in range(1, len(order)):
        if ordered[k] == ordered[k - 1]:
            order[k] = order[k - 1]
    return ordered, order


@lru_cache(maxsize=64)
def _ladder(count: int) -> tuple:
    """ladder_positions(count) as python floats."""
    return tuple(ladder_positions(count).tolist())


def decode(g: Genome, settings: DecodeSettings, fset: FunctionSet) -> DecodedGraph:
    """g's program graph, with the outputs and the active nodes decoded.
    Positions are read only here: the graph keeps the snapped indices."""
    n_in = g.n_in
    genes = g.nodes.tolist()
    n_nodes = len(genes)
    total = n_in + n_nodes
    r, start = settings.recurrency, settings.input_start
    cgp = g.mode is GenomeMode.CGP
    if cgp:
        positions = _ladder(total)
    else:
        positions = [x * start for x in g.inputs.tolist()] + [row[0] for row in genes]
    # the CGP ladder is strictly increasing by construction
    if cgp or all(a < b for a, b in zip(positions, positions[1:])):
        ordered, entity = positions, None
    else:
        ordered, entity = _sorted_entities(positions, n_in)
    n_f = len(fset)
    functions = fset.functions
    rows = [None] * n_nodes

    def fill(i):
        *_, x, y, f, c = genes[i]
        p = positions[n_in + i]
        # the sorted prefix this node's connections snap among
        if r != 0.0:
            hi = total
        elif cgp:
            hi = n_in + i
        else:
            hi = bisect_left(positions, p, n_in, n_in + i)
        # connection_position, point by point
        reach = r * (1.0 - p) + p
        if cgp:
            a, b = _nearest(ordered, x * reach, hi), _nearest(ordered, y * reach, hi)
        else:
            span = reach - start
            a = _nearest(ordered, x * span + start, hi)
            b = _nearest(ordered, y * span + start, hi)
        if entity is not None:
            a, b = entity[a], entity[b]
        fi = int(f * n_f)
        if fi == n_f:
            fi -= 1
        row = rows[i] = (a, b, fi, functions[fi].arity, c)
        return row

    out_span = 1.0 - start        # output_position, point by point
    outputs = [_nearest(ordered, o if cgp else o * out_span + start, total)
               for o in g.outputs.tolist()]
    if entity is not None:
        outputs = [entity[k] for k in outputs]
    # the walk reaches each node once, so each active node is filled once
    active = _reachable(n_in, n_nodes, fill, outputs, arity_aware=True)
    return DecodedGraph(n_in, g.n_out, n_nodes, outputs, active, rows, fill, fset,
                        settings.use_weights)


def _reachable(n_in, n_nodes, row, roots, arity_aware) -> list[bool]:
    """Backward reachability over computational nodes; cycle-safe.

    Starts from the root entities (inputs among them end the walk) and
    follows the connections of every visited node i, read off row(i):
    the first arity of them, or both when arity_aware is false.  row is
    called once per visited node and for no other, so a walk reads only
    the nodes it reaches.  Returns one visited flag per node.
    """
    seen = [False] * n_nodes
    stack = [t - n_in for t in roots if t >= n_in]
    while stack:
        i = stack.pop()
        if seen[i]:
            continue
        seen[i] = True
        r = row(i)
        for t in r[:r[3] if arity_aware else 2]:
            t -= n_in
            if t >= 0 and not seen[t]:
                stack.append(t)
    return seen


def _components(n_in, n_nodes, rows) -> list:
    """Weakly-connected component labels, ignoring arity and direction,
    numbered by first appearance."""
    parent = list(range(n_nodes))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(n_nodes):
        for t in rows[i][:2]:
            if t >= n_in:
                ra, rb = find(i), find(t - n_in)
                if ra != rb:
                    parent[rb] = ra
    label = {}
    return [label.setdefault(find(i), len(label)) for i in range(n_nodes)]


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
    seen = _reachable(graph.n_in, graph.n_nodes, graph.row, [graph.output_list[output]],
                      arity_aware)
    return {i for i, hit in enumerate(seen) if hit}
