"""Evaluating decoded program graphs with one interpreter.

The interpreter runs a plan on a sequence of input rows, node values
carrying over from row to row.  step is one row of input scalars;
run_batch is one row of input columns, valid only for a feedforward
plan, which never reads a previous row, holding its columns in a list;
run_feedback is all rows in one call, computed on python floats,
whose + - * / round and overflow to inf exactly as numpy's float64
does, on rows that may be made one at a time from the outputs of the
row before, such as a cart-pole episode.

run_sequence, for data given in full, schedules by columns.  It splits
the active nodes into the strongly connected components of their reads,
in dependency order.  A node on no cycle (a node reading itself is a
cycle of one) is a column step: it is computed for all rows at once,
and its previous-row read of a node is that node's column shifted down
one row, 0.0 first.  Only the nodes on a cycle run row by row, a cycle
at a time, on python floats; their reads from outside the cycle come
in as columns.  Column steps and cycle steps are sub-plans run by the
same interpreter.  All of these are bitwise-identical where they
overlap.

Within a row, nodes are evaluated in stored (ascending-position) order.
A connection to an earlier node reads this row's fresh value; a
connection to the node itself or a later node reads the previous row's
value, which is what makes recurrent programs stateful.

Everything needed comes from the DecodedGraph, and only active nodes
are ever computed — inactive genetic material cannot influence outputs.
The state step takes and returns is a plain array holding one value
per computational node.  Any non-finite node value is replaced by 0.0.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np

from .decode import DecodedGraph, _strong_components


# (finite, zeroed): a node value v that finite(v) rejects becomes
# zeroed(v).  The scalar rule is math.isfinite itself, so step and
# run_sequence make no extra call per node.  The column rule checks the
# column's sum: zeroed returns a finite column whose sum overflows as is.
_SCALAR_RULE = (math.isfinite, lambda v: 0.0)
_COLUMN_RULE = (lambda v: math.isfinite(np.add.reduce(v, axis=None)),
                lambda v: np.where(np.isfinite(v), v, 0.0))


def _evaluate(n_in, nodes, outputs, weighted, rows, cur, rule, outs: list) -> list:
    """The node loop: runs a plan's or a step's nodes on each input row
    in turn, appends each row's list of output values to outs as the
    row finishes, and returns outs.  nodes holds (slot, fn, target_a,
    target_b, param) and outputs holds targets; a target below n_in
    reads the row, any other reads cur[target - n_in].  A cycle step's
    outputs are all its slots in order, so it passes outputs None and
    each row appends a copy of cur, a list there.  A row holds n_in
    scalars (step, run_feedback, a cycle step) or n_in columns
    (run_batch, a column step).  cur holds one value per slot, last
    row's values on entry, and is updated in place; weighted multiplies
    each node's value by its param; rule is one of the pairs above."""
    finite, zeroed = rule
    # non-finite results are defined to become 0.0 and underflow to a tiny
    # or zero value is a result like any other, so numpy's IEEE warnings
    # on the way are expected noise
    with np.errstate(all="ignore"):
        for x in rows:
            for i, fn, ta, tb, param in nodes:
                # a plan's or a cycle's nodes run in ascending order, so
                # cur[j] is this row's value for j < i and last row's for j >= i
                a = x[ta] if ta < n_in else cur[ta - n_in]
                b = x[tb] if tb < n_in else cur[tb - n_in]
                v = fn(a, b, param)
                if weighted:
                    v = v * param
                cur[i] = v if finite(v) else zeroed(v)
            outs.append(cur[:] if outputs is None
                        else [x[t] if t < n_in else cur[t - n_in] for t in outputs])
    return outs


def step(graph: DecodedGraph, state: np.ndarray, inputs):
    """One synchronous update; returns (outputs, new state).  state is
    an array of shape (n_nodes,), as step returns it; a run starts from
    np.zeros(graph.n_nodes).  The update runs on a float copy of state,
    so an int or bool state gives what the equal float state gives."""
    if len(inputs) != graph.n_in:
        raise ValueError(f"expected {graph.n_in} inputs, got {len(inputs)}")
    if not isinstance(state, np.ndarray) or state.shape != (graph.n_nodes,):
        raise ValueError(f"state must be an array of shape ({graph.n_nodes},)")
    cur = state.astype(float)
    plan = graph.plan
    (out,) = _evaluate(graph.n_in, plan.nodes, graph.output_list, graph.use_weights,
                       (inputs,), cur, _SCALAR_RULE, [])
    return np.array(out, dtype=float), cur


def run_batch(graph: DecodedGraph, batch: np.ndarray) -> np.ndarray:
    """Evaluate a feedforward graph on all rows of batch at once.

    batch is (rows, n_in); the result is (n_out, rows).  Raises
    ValueError when the active graph has recurrent data flow (use
    run_sequence for that).  Node columns are held in a list as
    computed, so a nullary node's scalar is broadcast only into an output.
    """
    plan = graph.plan
    if not plan.feedforward:
        raise ValueError("graph has recurrent connections; run_batch needs feedforward flow")
    batch = np.asarray(batch, dtype=float)
    if batch.ndim != 2 or batch.shape[1] != graph.n_in:
        raise ValueError(f"batch must be (rows, {graph.n_in})")
    # a feedforward plan never reads last row's values
    cur = [0.0] * graph.n_nodes
    (row,) = _evaluate(graph.n_in, plan.nodes, graph.output_list, graph.use_weights,
                       (batch.T,), cur, _COLUMN_RULE, [])
    out = np.empty((graph.n_out, batch.shape[0]))
    for k, column in enumerate(row):
        out[k] = column
    return out


def _schedule(graph: DecodedGraph) -> list:
    """run_sequence's steps, (members, nodes, external), in dependency
    order.

    A node's reads are the targets within its arity; the read of an
    earlier node is fresh, of the node itself or a later one
    previous-row.  Consecutive nodes on no cycle of reads make one
    column step, members None, whose nodes address run_sequence's
    entity columns: node i's slot is entity n_in + i, a fresh read of
    entity t is n_in + n_nodes + t and a previous-row read is t.  A
    cycle is one step whose members are its entities in stored order;
    external lists its reads from outside the cycle as (previous-row,
    entity) pairs, and its nodes put member k in slot k, address the
    external reads by their place in that list and a member after them.
    """
    n_in, rows = graph.n_in, graph.rows
    total = n_in + graph.n_nodes
    entry, reads = {}, {}               # keyed by entity
    for node in graph.plan.nodes:
        i, _, ta, tb, _ = node
        targets = (ta, tb)[:rows[i][3]]
        entry[n_in + i] = node, targets
        reads[n_in + i] = [t for t in targets if t >= n_in]
    steps, columns = [], []
    for component in _strong_components(reads):
        here = component[0]
        if len(component) == 1 and here not in reads[here]:
            (_, fn, ta, tb, param), _ = entry[here]
            columns.append((here, fn, ta + total if ta < here else ta,
                            tb + total if tb < here else tb, param))
            continue
        if columns:
            steps.append((None, columns, None))
            columns = []
        members = sorted(component)
        slot = {t: k for k, t in enumerate(members)}
        external = {}                   # (previous-row, entity) -> place
        for here in members:
            for t in entry[here][1]:
                if t not in slot:
                    external.setdefault((t >= here, t), len(external))
        n_ext, nodes = len(external), []
        for k, here in enumerate(members):
            (_, fn, _, _, param), targets = entry[here]
            # a read past the arity is ignored, so it reads the node's own slot
            ta, tb = [n_ext + slot[t] if t in slot else external[t >= here, t]
                      for t in targets] + [n_ext + k] * (2 - len(targets))
            nodes.append((k, fn, ta, tb, param))
        steps.append((members, nodes, list(external)))
    if columns:
        steps.append((None, columns, None))
    return steps


def run_sequence(graph: DecodedGraph, rows: np.ndarray) -> np.ndarray:
    """Feed rows through the program in order, node values carrying
    over from row to row; state starts zeroed.  rows is (rows, n_in);
    the result is (n_out, rows).

    The program runs by columns, one step per _schedule entry.  A node
    on no cycle of reads is computed for all rows at once: a
    previous-row read of node j is j's column shifted down one row,
    0.0 first, and a nullary node's scalar fills its column.  Only the
    nodes on a cycle run row by row, one cycle at a time, on python
    floats with the scalar rule; reads from outside the cycle come in
    as columns.  Both kinds of step run through _evaluate, and every
    value is the one stepping the rows through the whole plan gives.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != graph.n_in:
        raise ValueError(f"rows must be (rows, {graph.n_in})")
    n_in, weighted = graph.n_in, graph.use_weights
    total = n_in + graph.n_nodes
    # entity t's column is buf[t, 1:] and buf[t, :-1] is that column a
    # row late, 0.0 first: what a previous-row read of t sees
    buf = np.zeros((total, len(rows) + 1))
    buf[:n_in, 1:] = rows.T
    columns, late = buf[:, 1:], buf[:, :-1]
    for members, nodes, external in _schedule(graph):
        if members is None:
            _evaluate(total, nodes, (), weighted, (late,), columns, _COLUMN_RULE, [])
            continue
        read = [(late if lagged else columns)[t].tolist() for lagged, t in external]
        n_ext, m = len(read), len(members)
        outs = _evaluate(n_ext, nodes, None, weighted,
                         zip(*read) if read else [()] * len(rows), [0.0] * m, _SCALAR_RULE, [])
        columns[members] = np.fromiter(chain.from_iterable(outs), float,
                                       len(rows) * m).reshape(len(rows), m).T
    # indexing copies into C order, so reductions over the result sum row-major
    return columns[graph.output_list]


def run_feedback(graph: DecodedGraph, rows, outs: list) -> list:
    """Feed rows through the program in order, node values carrying over
    from row to row; state starts zeroed.  rows is an iterable of n_in
    floats each, and each row's list of outputs is appended to outs
    before the next row is drawn, so rows may be a generator that reads
    outs[-1] to make its next row.  Returns outs."""
    plan = graph.plan
    return _evaluate(graph.n_in, plan.nodes, graph.output_list, graph.use_weights,
                     rows, [0.0] * graph.n_nodes, _SCALAR_RULE, outs)


def run_supervised(graph: DecodedGraph, batch: np.ndarray) -> np.ndarray:
    """Batch evaluation when the data flow allows it, sequential otherwise."""
    if graph.plan.feedforward:
        return run_batch(graph, batch)
    return run_sequence(graph, batch)
