"""Genome → program graph: the entity axis, snapping, activity.

A genome addresses program entities on a 1-D axis: the inputs, then
the computational nodes.  The axis starts at input_start for PCGP and
at 0.0 for CGP.  CGP places its inputs and nodes, in that order, on the
evenly spaced cell centres of [0, 1] (ladder_positions); a PCGP input
sits at its gene times input_start, a PCGP node at its position gene.
A node at position p reaches r * (1 - p) + p, where r is the
recurrency: its own position at r = 0 and the axis end, 1.0, at r = 1.
Its connection gene x points x of the way from the axis start to that
reach, and an output gene o points o of the way from the axis start to
1.0.  Each point snaps to the nearest eligible entity, so at recurrency
0 every connection lands strictly left of its node and the program is
feedforward, and with no nodes every output snaps to an input.  decode
is the one place that states these rules; invert_connection_position
inverts the connection rule for PCGP.

decode is active-first.  It sets up the entity axis, for PCGP always
sorting the inputs (nodes are stored sorted, right of them), and snaps
the outputs.  Then it walks backward from the outputs and decodes a
node only when the walk reaches it: both targets, function index, arity
and parameter.  The walk yields the active flags together with exactly
the rows that the plan and the program key read, so scoring a genome,
memo hit or miss, never snaps an inactive node, and a memo hit builds
no plan either.  Every other node, most of a genome in practice, is
decoded by the same per-node routine when an attribute that needs it is
first read.  A node's row depends only on the genome, so what an
attribute holds does not depend on when or in what order it is read.

Every point snaps by one rule, _nearest over _sorted_entities, and
aligned_node crossover pairs nodes by it too.  Take the nearest
position below the point and the nearest position at or above it; the
nearer one wins, and a tie in (float) distance takes the lower
position.  Among entities at one position the smallest index wins;
-0.0 and 0.0 count as one position.

CGP's axis is its ladder, sorted like a PCGP axis and cached.  At
recurrency 0 a node's connections snap among a prefix of the sorted
entities: the inputs and the nodes strictly left of it.  Inputs sit at
or left of 0 and nodes, stored in position order, at or right of it, so
the sorted order is the inputs, then the nodes in stored order.  The
prefix ends at the first entity at the node's position, or at n_in if
that is an input; the tie map holds that entity, so nodes tied with the
node are never its candidates.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .functions import FunctionSet
from .genome import Genome, GenomeMode


@dataclass(frozen=True)
class DecodeSettings:
    """Knobs shared by decoding and execution.

    recurrency 0 keeps programs feedforward; larger values extend
    connection reach rightward.  input_start is where the PCGP axis
    starts, placing PCGP inputs on the negative axis (configs keep it
    strictly negative); CGP's axis starts at 0.0 (module docstring).
    use_weights multiplies each node's output by its parameter gene
    during execution.
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
    """A graph's active nodes in evaluation order, flat for the
    interpreter, and feedforward; it runs to the graph's output_list."""

    nodes: list         # (node, fn, target_a, target_b, param) per active node
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


@dataclass(eq=False)
class DecodedGraph:
    """The program decoded from one genome; execution needs nothing else.
    Treat its fields as read-only.  It is not frozen: a frozen __init__
    sets each field through object.__setattr__, about 2 us a graph.

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
    read no other row; the key reads them without the plan, which is
    built on the program's first run.  output_targets and active are
    read-only numpy views of output_list and active_list; targets,
    function_index and components need every node, and the first read of
    any of them fills every remaining row.  All of these are built on
    first read and then kept; reads are serial, as nothing guards a first
    read or a filled row against concurrent readers.
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
        return Plan(nodes, feedforward)

    @_once
    def program_key(self) -> tuple:
        """The canonical active program: graphs with equal keys compute
        the same outputs from the same inputs and state history.

        Read off the active rows in ascending index order, without the
        plan.  Active nodes are renumbered in that order, which keeps
        the fresh-versus-previous-row reading of every connection, so
        the key needs no feedforward flag.  Each contributes its
        function index, the targets its arity uses and, as float.hex so
        -0.0 and 0.0 differ, its parameter where it is read: by a
        nullary function, or by every node when weighted.
        """
        n_in, rows, weighted = self.n_in, self.rows, self.use_weights
        rank = list(range(n_in + self.n_nodes))
        active = [i for i, on in enumerate(self.active_list) if on]
        for k, i in enumerate(active, n_in):
            rank[n_in + i] = k
        nodes = []
        for i in active:
            ta, tb, fi, k, param = rows[i]
            used = param.hex() if weighted or k == 0 else None
            nodes.append((fi, rank[ta], rank[tb], used) if k == 2 else
                         (fi, rank[ta], used) if k == 1 else (fi, used))
        return tuple(nodes), tuple([rank[t] for t in self.output_list])

    @_once
    def components(self) -> list:
        """The weakly-connected components of every node, active or not,
        ignoring arity and direction: read-only int arrays of node
        indices, each ascending, ordered by their first node."""
        n_in = self.n_in
        links = {i: [] for i in range(self.n_nodes)}
        for i, (a, b, *_) in enumerate(self._full_rows()):
            for t in (a, b):
                if t >= n_in:       # linked both ways, so strong is weak
                    links[i].append(t - n_in)
                    links[t - n_in].append(i)
        groups = sorted(sorted(c) for c in _strong_components(links))
        return [_frozen(members, int, -1) for members in groups]


def ladder_positions(count: int) -> tuple:
    """Evenly spaced cell-centre positions for `count` rungs on [0, 1],
    as a tuple of python floats: CGP's entity axis."""
    return tuple(((np.arange(count) + 0.5) / count).tolist())


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
    stands for: the smallest index among the entities at that position
    (-0.0 and 0.0 are one), which is the rule's last tie-break.
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
def _ladder_axis(n_in: int, total: int) -> tuple:
    """_sorted_entities of CGP's ladder, read-only: the ladder is
    strictly increasing, so each slot is its own entity."""
    ordered, entity = _sorted_entities(list(ladder_positions(total)), n_in)
    return tuple(ordered), tuple(entity)


def decode(g: Genome, settings: DecodeSettings, fset: FunctionSet) -> DecodedGraph:
    """g's program graph, with the outputs and the active nodes decoded.
    Positions are read only here: the graph keeps the snapped indices."""
    n_in = g.n_in
    genes = g.nodes.tolist()
    n_nodes = len(genes)
    total = n_in + n_nodes
    r = settings.recurrency
    if g.mode is GenomeMode.CGP:
        start = 0.0
        ordered, entity = _ladder_axis(n_in, total)
    else:
        start = settings.input_start
        positions = [x * start for x in g.inputs.tolist()] + [row[0] for row in genes]
        ordered, entity = _sorted_entities(positions, n_in)
    n_f = len(fset)
    functions = fset.functions
    rows = [None] * n_nodes

    def fill(i):
        *_, x, y, f, c = genes[i]
        p = ordered[n_in + i]       # only the inputs are reordered
        # the sorted prefix this node's connections snap among: at r = 0
        # up to the first entity at the node's position, the inputs at least
        if r != 0.0:
            hi = total
        else:
            hi = entity[n_in + i]
            if hi < n_in:
                hi = n_in
        span = r * (1.0 - p) + p - start
        a = entity[_nearest(ordered, x * span + start, hi)]
        b = entity[_nearest(ordered, y * span + start, hi)]
        fi = int(f * n_f)
        if fi == n_f:
            fi -= 1
        row = rows[i] = (a, b, fi, functions[fi].arity, c)
        return row

    out_span = 1.0 - start
    outputs = [entity[_nearest(ordered, o * out_span + start, total)]
               for o in g.outputs.tolist()]
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
        a, b, _, k, _ = row(i)
        if k or not arity_aware:
            a -= n_in
            if a >= 0 and not seen[a]:
                stack.append(a)
            if k == 2 or not arity_aware:
                b -= n_in
                if b >= 0 and not seen[b]:
                    stack.append(b)
    return seen


def _strong_components(reads: dict) -> list:
    """Strongly connected components of the graph whose node i has an
    edge to each node in reads[i], each listed after every component it
    reaches: iterative Tarjan, so no recursion limit applies."""
    index, low = {}, {}
    stack, on_stack = [], set()
    components = []
    for root in reads:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        walk = [(root, iter(reads[root]))]
        while walk:
            v, edges = walk[-1]
            for w in edges:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    walk.append((w, iter(reads[w])))
                    break
                if w in on_stack and index[w] < low[v]:
                    low[v] = index[w]
            else:
                walk.pop()
                if walk:
                    u = walk[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                if low[v] == index[v]:
                    component = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        component.append(w)
                        if w == v:
                            break
                    components.append(component)
    return components


def output_trace(graph: DecodedGraph, output: int) -> set[int]:
    """Computational nodes reachable backward from one output's target.

    Both connections of every visited node are followed, even when its
    function consumes fewer; cycle-safe.
    """
    seen = _reachable(graph.n_in, graph.n_nodes, graph.row, [graph.output_list[output]],
                      arity_aware=False)
    return {i for i, hit in enumerate(seen) if hit}


def require_graph(graph, what: str) -> None:
    """Raise ValueError if graph, the decoded graph or pair that operator what reads, is None."""
    if graph is None:
        raise ValueError(f"{what} reads decoded graphs, but its graph argument is None")
