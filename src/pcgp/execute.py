"""Evaluating decoded program graphs.

Nodes are evaluated in stored (ascending-position) order.  A connection
to an earlier node reads this step's fresh value; a connection to the
node itself or a later node reads the previous step's value, which is
what makes recurrent programs stateful.  Feedforward graphs can instead
be evaluated on a whole input batch at once; both paths produce
bitwise-identical results.

Everything needed comes from the DecodedGraph, and only active nodes
are ever computed — inactive genetic material cannot influence outputs.
State is a plain array holding one value per computational node.  Any
non-finite node value is replaced by 0.0.
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


def step(graph: DecodedGraph, state: np.ndarray, inputs):
    """One synchronous update; returns (outputs, new state)."""
    n_in = graph.n_in
    if len(inputs) != n_in:
        raise ValueError(f"expected {n_in} inputs, got {len(inputs)}")
    plan = graph.plan
    cur = state.copy()
    weighted = graph.use_weights
    # non-finite results are defined to become 0.0, so the IEEE warnings
    # on the way there are expected noise
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for i, fn, ta, tb, param in plan.nodes:
            a = inputs[ta] if ta < n_in else (cur[ta - n_in] if ta - n_in < i else state[ta - n_in])
            b = inputs[tb] if tb < n_in else (cur[tb - n_in] if tb - n_in < i else state[tb - n_in])
            v = fn(a, b, param)
            if weighted:
                v = v * param
            cur[i] = v if math.isfinite(v) else 0.0
    out = np.array([inputs[t] if t < n_in else cur[t - n_in] for t in plan.outputs],
                   dtype=float)
    return out, cur


def run_batch(graph: DecodedGraph, batch: np.ndarray) -> np.ndarray:
    """Evaluate a feedforward graph on all rows of batch at once.

    batch is (rows, n_in); the result is (n_out, rows).  Raises
    ValueError when the active graph has recurrent data flow (use
    run_sequence for that).
    """
    plan = graph.plan
    if not plan.feedforward:
        raise ValueError("graph has recurrent connections; run_batch needs feedforward flow")
    batch = np.asarray(batch, dtype=float)
    if batch.ndim != 2 or batch.shape[1] != graph.n_in:
        raise ValueError(f"batch must be (rows, {graph.n_in})")
    n_in = graph.n_in
    cols = batch.T
    vals = np.zeros((graph.n_nodes, batch.shape[0]))
    weighted = graph.use_weights
    # non-finite results are defined to become 0.0, so the IEEE warnings
    # on the way there are expected noise
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for i, fn, ta, tb, param in plan.nodes:
            a = cols[ta] if ta < n_in else vals[ta - n_in]
            b = cols[tb] if tb < n_in else vals[tb - n_in]
            v = fn(a, b, param)
            if weighted:
                v = v * param
            finite = np.isfinite(v)
            vals[i] = v if finite.all() else np.where(finite, v, 0.0)
    return np.stack([cols[t] if t < n_in else vals[t - n_in] for t in plan.outputs])


def run_sequence(graph: DecodedGraph, rows: np.ndarray) -> np.ndarray:
    """Feed rows through the program one step at a time, state carrying
    over between rows; state starts zeroed.  Returns (n_out, rows)."""
    rows = np.asarray(rows, dtype=float)
    state = new_state(graph)
    outs = np.empty((graph.n_out, rows.shape[0]))
    for k in range(rows.shape[0]):
        out, state = step(graph, state, rows[k])
        outs[:, k] = out
    return outs


def run_supervised(graph: DecodedGraph, batch: np.ndarray) -> np.ndarray:
    """Batch evaluation when the data flow allows it, sequential otherwise."""
    if graph.plan.feedforward:
        return run_batch(graph, batch)
    return run_sequence(graph, batch)
