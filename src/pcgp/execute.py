"""Evaluating decoded program graphs with one interpreter.

The interpreter runs a sequence of input rows, node values carrying
over from row to row.  step is one row of input scalars; run_batch is
one row of input columns, valid only for a feedforward plan, which never
reads a previous row; run_sequence is all rows in one call, computed on
python floats, whose + - * / round and overflow to inf exactly as
numpy's float64 does; run_feedback is the same on rows that may be
made one at a time from the outputs of the row before, such as a
cart-pole episode.  All of them are bitwise-identical where they
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

import numpy as np

from .decode import DecodedGraph


def new_state(graph: DecodedGraph) -> np.ndarray:
    """Zeroed recurrent memory: one value per computational node."""
    return np.zeros(graph.n_nodes)


def reset(state: np.ndarray) -> np.ndarray:
    return np.zeros_like(state)


# (finite, zeroed): a node value v that finite(v) rejects becomes
# zeroed(v).  The scalar rule is math.isfinite itself, so step and
# run_sequence make no extra call per node.
_SCALAR_RULE = (math.isfinite, lambda v: 0.0)
_COLUMN_RULE = (lambda v: np.isfinite(v).all(),
                lambda v: np.where(np.isfinite(v), v, 0.0))


def _evaluate(graph: DecodedGraph, rows, cur, rule, outs: list) -> list:
    """The node loop: runs the plan on each input row in turn, appends
    each row's list of output values to outs as the row finishes, and
    returns outs.  A row holds n_in scalars (step, run_feedback) or n_in
    columns (run_batch).  cur holds one value per node, last row's
    values on entry, and is updated in place; rule is one of the pairs
    above."""
    finite, zeroed = rule
    n_in = graph.n_in
    plan = graph.plan
    nodes, outputs = plan.nodes, plan.outputs
    weighted = graph.use_weights
    # non-finite results are defined to become 0.0 and underflow to a tiny
    # or zero value is a result like any other, so numpy's IEEE warnings
    # on the way are expected noise
    with np.errstate(all="ignore"):
        for x in rows:
            for i, fn, ta, tb, param in nodes:
                # nodes run in ascending order, so cur[j] is this row's
                # value for j < i and last row's for j >= i
                a = x[ta] if ta < n_in else cur[ta - n_in]
                b = x[tb] if tb < n_in else cur[tb - n_in]
                v = fn(a, b, param)
                if weighted:
                    v = v * param
                cur[i] = v if finite(v) else zeroed(v)
            outs.append([x[t] if t < n_in else cur[t - n_in] for t in outputs])
    return outs


def step(graph: DecodedGraph, state: np.ndarray, inputs):
    """One synchronous update; returns (outputs, new state)."""
    if len(inputs) != graph.n_in:
        raise ValueError(f"expected {graph.n_in} inputs, got {len(inputs)}")
    cur = state.copy()
    (out,) = _evaluate(graph, (inputs,), cur, _SCALAR_RULE, [])
    return np.array(out, dtype=float), cur


def run_batch(graph: DecodedGraph, batch: np.ndarray) -> np.ndarray:
    """Evaluate a feedforward graph on all rows of batch at once.

    batch is (rows, n_in); the result is (n_out, rows).  Raises
    ValueError when the active graph has recurrent data flow (use
    run_sequence for that).
    """
    if not graph.plan.feedforward:
        raise ValueError("graph has recurrent connections; run_batch needs feedforward flow")
    batch = np.asarray(batch, dtype=float)
    if batch.ndim != 2 or batch.shape[1] != graph.n_in:
        raise ValueError(f"batch must be (rows, {graph.n_in})")
    # a feedforward plan never reads last row's values, so cur starts as
    # zeros; assigning into its rows broadcasts a nullary node's scalar
    cur = np.zeros((graph.n_nodes, batch.shape[0]))
    (row,) = _evaluate(graph, (batch.T,), cur, _COLUMN_RULE, [])
    return np.array(row, dtype=float)


def run_sequence(graph: DecodedGraph, rows: np.ndarray) -> np.ndarray:
    """Feed rows through the program in order, node values carrying
    over from row to row; state starts zeroed.  rows is (rows, n_in);
    the result is (n_out, rows)."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != graph.n_in:
        raise ValueError(f"rows must be (rows, {graph.n_in})")
    outs = run_feedback(graph, rows.tolist(), [])
    # copied into C order, so reductions over the result sum row-major
    return np.array(outs, dtype=float).reshape(len(outs), graph.n_out).T.copy()


def run_feedback(graph: DecodedGraph, rows, outs: list) -> list:
    """Feed rows through the program in order, node values carrying over
    from row to row; state starts zeroed.  rows is an iterable of n_in
    floats each, and each row's list of outputs is appended to outs
    before the next row is drawn, so rows may be a generator that reads
    outs[-1] to make its next row.  Returns outs."""
    return _evaluate(graph, rows, [0.0] * graph.n_nodes, _SCALAR_RULE, outs)


def run_supervised(graph: DecodedGraph, batch: np.ndarray) -> np.ndarray:
    """Batch evaluation when the data flow allows it, sequential otherwise."""
    if graph.plan.feedforward:
        return run_batch(graph, batch)
    return run_sequence(graph, batch)
