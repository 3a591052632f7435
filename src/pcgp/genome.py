"""Gene-vector representation of CGP and PCGP individuals.

Every gene is a float in [0.0, 1.0].  A CGP node carries four genes
(x, y, function, parameter); a PCGP node carries five (position first).
PCGP genomes additionally carry one position gene per program input, and
store their nodes sorted by position gene (stable on ties).

Genomes are immutable values: every edit returns a new genome and the
backing arrays are marked read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
import json

import numpy as np

from .errors import ParseError, SizeError


class GenomeMode(Enum):
    CGP = "CGP"
    PCGP = "PCGP"


def node_stride(mode: GenomeMode) -> int:
    """Number of genes per computational node (5 with a position gene)."""
    return 5 if mode is GenomeMode.PCGP else 4


# Per-node gene columns, counted from the end so both modes share them.
# PCGP rows are [p, x, y, f, c]; CGP rows are [x, y, f, c].
X_OFF, Y_OFF, F_OFF, C_OFF = -4, -3, -2, -1


@dataclass(frozen=True)
class SizeBounds:
    """Inclusive bounds on the computational-node count."""

    size_min: int
    size_max: int

    def __post_init__(self):
        if not (0 <= self.size_min <= self.size_max):
            raise ValueError(f"invalid size bounds [{self.size_min}, {self.size_max}]")


@dataclass(frozen=True)
class Genome:
    mode: GenomeMode
    n_in: int
    n_out: int
    nodes: np.ndarray            # (n_nodes, stride)
    outputs: np.ndarray          # (n_out,)
    inputs: np.ndarray | None    # (n_in,), PCGP only

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def stride(self) -> int:
        return node_stride(self.mode)

    def node_positions(self) -> np.ndarray:
        """Positions of the computational nodes, in stored order (read-only)."""
        if self.mode is GenomeMode.PCGP:
            return self.nodes[:, 0]
        return ladder_positions(self.n_in + self.n_nodes)[self.n_in:]


@lru_cache(maxsize=64)
def ladder_positions(count: int) -> np.ndarray:
    """Evenly spaced cell-center positions for `count` rungs on [0, 1].

    The returned array is cached and read-only; copy before mutating.
    """
    pos = (np.arange(count) + 0.5) / count
    pos.setflags(write=False)
    return pos


def _check_ranges(nodes, outputs, inputs):
    """Every gene in [0, 1]; the comparisons are written so NaN fails."""
    for name, arr in (("node", nodes), ("output", outputs), ("input", inputs)):
        if arr is not None and arr.size and not (arr.min() >= 0.0 and arr.max() <= 1.0):
            raise ValueError(f"{name} genes outside [0, 1]")


def make_genome(mode: GenomeMode, n_in: int, n_out: int, nodes, outputs,
                inputs=None) -> Genome:
    """Validating constructor; copies arrays, sorts PCGP nodes, freezes."""
    if n_in < 1 or n_out < 1:
        raise ValueError(f"need n_in >= 1 and n_out >= 1, got {n_in}/{n_out}")
    stride = node_stride(mode)
    nodes = np.array(nodes, dtype=float).reshape(-1, stride)
    outputs = np.array(outputs, dtype=float).reshape(-1)
    if outputs.shape[0] != n_out:
        raise ValueError(f"expected {n_out} output genes, got {outputs.shape[0]}")
    if mode is GenomeMode.PCGP:
        if inputs is None:
            raise ValueError("PCGP genomes need input position genes")
        inputs = np.array(inputs, dtype=float).reshape(-1)
        if inputs.shape[0] != n_in:
            raise ValueError(f"expected {n_in} input genes, got {inputs.shape[0]}")
        # stable sort keeps prior order on position ties
        nodes = nodes[np.argsort(nodes[:, 0], kind="stable")]
    else:
        if inputs is not None:
            raise ValueError("CGP genomes carry no input position genes")
    _check_ranges(nodes, outputs, inputs)
    nodes.setflags(write=False)
    outputs.setflags(write=False)
    if inputs is not None:
        inputs.setflags(write=False)
    return Genome(mode, n_in, n_out, nodes, outputs, inputs)


def random_genome(mode: GenomeMode, n_in: int, n_out: int, n_nodes: int,
                  rng: np.random.Generator) -> Genome:
    """Genome with every gene drawn independently uniform on [0, 1]."""
    if n_nodes < 0:
        raise ValueError("n_nodes must be non-negative")
    stride = node_stride(mode)
    nodes = rng.random((n_nodes, stride))
    outputs = rng.random(n_out)
    inputs = rng.random(n_in) if mode is GenomeMode.PCGP else None
    return make_genome(mode, n_in, n_out, nodes, outputs, inputs)


def node_position(g: Genome, index: int, input_start: float = -1.0) -> float:
    """Position of addressable entity `index` (inputs first, then nodes).

    CGP places inputs and nodes on one evenly spaced ladder of cell
    centers.  PCGP nodes sit at their position gene; PCGP input k sits at
    its gene times `input_start` (a value in [input_start, 0]).
    """
    total = g.n_in + g.n_nodes
    if not 0 <= index < total:
        raise IndexError(f"index {index} out of range for {total} positions")
    if g.mode is GenomeMode.CGP:
        return float(ladder_positions(total)[index])
    if index < g.n_in:
        return float(g.inputs[index] * input_start)
    return float(g.nodes[index - g.n_in, 0])


def add_nodes(g: Genome, new_nodes, bounds: SizeBounds | None = None) -> Genome:
    """Append nodes (CGP) or merge them by position (PCGP).

    Raises SizeError when the result would exceed `bounds.size_max`.
    """
    new_nodes = np.array(new_nodes, dtype=float).reshape(-1, g.stride)
    total = g.n_nodes + new_nodes.shape[0]
    if bounds is not None and total > bounds.size_max:
        raise SizeError(f"{total} nodes would exceed size_max={bounds.size_max}")
    merged = np.concatenate([g.nodes, new_nodes]) if new_nodes.size else g.nodes
    return make_genome(g.mode, g.n_in, g.n_out, merged, g.outputs, g.inputs)


def remove_nodes(g: Genome, indices) -> Genome:
    """Drop the listed node indices, preserving the order of the rest."""
    indices = sorted(set(int(i) for i in indices))
    for i in indices:
        if not 0 <= i < g.n_nodes:
            raise IndexError(f"node index {i} out of range for {g.n_nodes} nodes")
    keep = np.ones(g.n_nodes, dtype=bool)
    keep[indices] = False
    return make_genome(g.mode, g.n_in, g.n_out, g.nodes[keep], g.outputs, g.inputs)


def flatten(g: Genome) -> np.ndarray:
    """Flat gene vector: input genes (PCGP), output genes, node genes."""
    parts = [] if g.inputs is None else [g.inputs]
    parts += [g.outputs, g.nodes.ravel()]
    return np.concatenate(parts)


def header_length(mode: GenomeMode, n_in: int, n_out: int) -> int:
    """Genes before the first node block in the flat layout."""
    return (n_in if mode is GenomeMode.PCGP else 0) + n_out


def unflatten(mode: GenomeMode, n_in: int, n_out: int, flat: np.ndarray) -> Genome:
    """Inverse of flatten; the trailing genes must form whole node blocks."""
    flat = np.asarray(flat, dtype=float)
    header = header_length(mode, n_in, n_out)
    body = flat.shape[0] - header
    stride = node_stride(mode)
    if body < 0 or body % stride:
        raise ValueError(f"flat genome of length {flat.shape[0]} does not fit the layout")
    inputs = flat[:n_in] if mode is GenomeMode.PCGP else None
    outputs = flat[header - n_out:header]
    nodes = flat[header:].reshape(-1, stride)
    return make_genome(mode, n_in, n_out, nodes, outputs, inputs)


def to_json(g: Genome) -> str:
    """Serialize to a JSON document; round-trips bit-exactly."""
    doc = {
        "mode": g.mode.value,
        "n_in": g.n_in,
        "n_out": g.n_out,
        "outputs": g.outputs.tolist(),
        "nodes": g.nodes.tolist(),
    }
    if g.mode is GenomeMode.PCGP:
        doc["inputs"] = g.inputs.tolist()
    return json.dumps(doc)


def from_json(text: str) -> Genome:
    """Parse a genome JSON document, enforcing all genome invariants.

    n_in and n_out must be JSON integers, as to_json writes them: 1.9,
    2.0, "2" and true are all rejected rather than converted.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"not valid JSON: {e}") from e
    try:
        mode = GenomeMode(doc["mode"])
        n_in = doc["n_in"]
        n_out = doc["n_out"]
        nodes = doc["nodes"]
        outputs = doc["outputs"]
        inputs = doc.get("inputs")
    except (KeyError, ValueError, TypeError) as e:
        raise ParseError(f"malformed genome document: {e}") from e
    for key, count in (("n_in", n_in), ("n_out", n_out)):
        if type(count) is not int:      # bool is a subclass of int
            raise ParseError(f"{key} must be an integer, got {count!r}")
    stride = node_stride(mode)
    if not isinstance(nodes, list) or not all(isinstance(row, list) for row in nodes):
        raise ParseError("nodes must be a list of gene lists")
    for i, row in enumerate(nodes):
        if len(row) != stride:
            raise ParseError(f"node {i} has {len(row)} genes, expected {stride}")
    try:
        return make_genome(mode, n_in, n_out, nodes, outputs, inputs)
    except (ValueError, TypeError) as e:
        raise ParseError(str(e)) from e


def validate_genome(g: Genome) -> None:
    """Raise ValueError if any genome invariant is violated."""
    if g.n_in < 1 or g.n_out < 1:
        raise ValueError("n_in and n_out must be at least 1")
    if g.nodes.shape != (g.n_nodes, g.stride):
        raise ValueError("node array shape inconsistent with mode")
    if g.outputs.shape != (g.n_out,):
        raise ValueError("output array shape inconsistent with n_out")
    _check_ranges(g.nodes, g.outputs, g.inputs)
    if g.mode is GenomeMode.PCGP:
        if g.inputs is None or g.inputs.shape != (g.n_in,):
            raise ValueError("PCGP genome missing input position genes")
        p = g.nodes[:, 0]
        if p.size and np.any(np.diff(p) < 0):
            raise ValueError("PCGP nodes not sorted by position gene")
    elif g.inputs is not None:
        raise ValueError("CGP genome carries input position genes")
