"""Gene-vector representation of CGP and PCGP individuals.

Every gene is a float in [0.0, 1.0].  A CGP node carries four genes
(x, y, function, parameter); a PCGP node carries five (position first).
PCGP genomes additionally carry one position gene per program input, and
store their nodes sorted by position gene (stable on ties).  Where the
genes place entities on the axis is stated in decode.

Genomes are immutable values: an edit returns a new genome that shares
the arrays it did not change; every array is read-only.  Each
constructor has one source of genes: random_genome draws the first
population, derive builds every child from its parent and the fresh
arrays an operator made, and make_genome (from_json through it) copies
genes from outside the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
import json

import numpy as np

from .errors import ParseError, UnsupportedOperatorError


class GenomeMode(Enum):
    CGP = "CGP"
    PCGP = "PCGP"


def node_stride(mode: GenomeMode) -> int:
    """Number of genes per computational node (5 with a position gene)."""
    return 5 if mode is GenomeMode.PCGP else 4


# The parameter gene's column, counted from the end so both modes share
# it; no module here reads it, evobench does.
C_OFF = -1


@dataclass(frozen=True)
class SizeBounds:
    """Inclusive bounds on the computational-node count.

    Mutation keeps a size that is inside the bounds inside them, but
    crossover enforces only size_max.  single_point, random_node,
    aligned_node and proportional give a child whose size lies between
    its parents' sizes.  output_graph and subgraph keep only the nodes
    they inherit, cut down to size_max, so their children can fall
    below size_min.  Below size_min, and at size_min == size_max,
    node_deletion and subgraph_deletion remove nothing and
    add_probability is 0, so mixed_node and mixed_subgraph never change
    the size there.  Below size_min, add_inverted makes the add
    probability 1 - modify_rate, so they only grow it.
    """

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


def require_positional(g: Genome, what: str) -> None:
    """Raise UnsupportedOperatorError unless g is positional; what names the operator."""
    if g.mode is not GenomeMode.PCGP:
        raise UnsupportedOperatorError(f"{what} is defined only for positional genomes")


def _check(mode: GenomeMode, n_in: int, n_out: int, nodes, outputs, inputs) -> None:
    """Raise ValueError unless the arrays have the shapes of mode, n_in
    and n_out and every gene is in [0, 1].  NaN fails every range
    check, and a failure names its array: "node genes outside [0, 1]",
    and likewise "output" and "input" (tests/test_hostile.py pins each).
    The node block takes one numpy min and max, the short 1-d vectors
    are read as python floats."""
    if n_in < 1 or n_out < 1:
        raise ValueError(f"need n_in >= 1 and n_out >= 1, got {n_in}/{n_out}")
    stride = node_stride(mode)
    if nodes.ndim != 2 or nodes.shape[1] != stride:
        raise ValueError(f"expected nodes of {stride} genes, got shape {nodes.shape}")
    if outputs.shape != (n_out,):
        raise ValueError(f"expected {n_out} output genes, got shape {outputs.shape}")
    if mode is GenomeMode.PCGP:
        if inputs is None:
            raise ValueError("PCGP genomes need input position genes")
        if inputs.shape != (n_in,):
            raise ValueError(f"expected {n_in} input position genes, got shape {inputs.shape}")
    elif inputs is not None:
        raise ValueError("CGP genomes carry no input position genes")
    if nodes.size and not (np.minimum.reduce(nodes, None) >= 0.0
                           and np.maximum.reduce(nodes, None) <= 1.0):
        raise ValueError("node genes outside [0, 1]")
    for name, arr in (("output", outputs), ("input", inputs)):
        if arr is not None and not all(0.0 <= v <= 1.0 for v in arr.tolist()):
            raise ValueError(f"{name} genes outside [0, 1]")


def _build(mode: GenomeMode, n_in: int, n_out: int, nodes, outputs, inputs) -> Genome:
    """The genome of these arrays, kept as they are: checks them, sorts
    PCGP nodes, freezes."""
    _check(mode, n_in, n_out, nodes, outputs, inputs)
    if mode is GenomeMode.PCGP:
        # stable sort keeps prior order on position ties (so skip it if sorted)
        positions = nodes[:, 0].tolist()
        if positions != sorted(positions):
            nodes = nodes[np.argsort(nodes[:, 0], kind="stable")]
    for arr in (nodes, outputs, inputs):
        if arr is not None:
            arr.setflags(write=False)
    return Genome(mode, n_in, n_out, nodes, outputs, inputs)


def make_genome(mode: GenomeMode, n_in: int, n_out: int, nodes, outputs,
                inputs=None) -> Genome:
    """Validating constructor: copies the caller's arrays, then checks,
    sorts and freezes them as derive does.  from_json keeps its own row
    checks, since its document comes from outside."""
    nodes = np.array(nodes, dtype=float)
    if nodes.shape == (0,):         # only the empty list is shaped: to no rows
        nodes = nodes.reshape(0, node_stride(mode))
    outputs = np.array(outputs, dtype=float)
    if inputs is not None:
        inputs = np.array(inputs, dtype=float)
    return _build(mode, n_in, n_out, nodes, outputs, inputs)


def derive(g: Genome, nodes=None, outputs=None, inputs=None) -> Genome:
    """A genome like g with each given array in place of g's own.

    A given array must be a fresh float array that the caller owns: it
    is not copied, and is frozen.  An array not given is g's own, shared
    because it is read-only; with none given, g itself is returned.
    Every array of the result is range-checked, shared ones too.
    """
    if nodes is None and outputs is None and inputs is None:
        return g
    return _build(g.mode, g.n_in, g.n_out, g.nodes if nodes is None else nodes,
                  g.outputs if outputs is None else outputs,
                  g.inputs if inputs is None else inputs)


def random_genome(mode: GenomeMode, n_in: int, n_out: int, n_nodes: int,
                  rng: np.random.Generator) -> Genome:
    """Genome with every gene drawn independently uniform on [0, 1];
    the fresh arrays are taken over, not copied."""
    if n_nodes < 0:
        raise ValueError("n_nodes must be non-negative")
    stride = node_stride(mode)
    nodes = rng.random((n_nodes, stride))
    outputs = rng.random(n_out)
    inputs = rng.random(n_in) if mode is GenomeMode.PCGP else None
    return _build(mode, n_in, n_out, nodes, outputs, inputs)


def flatten(g: Genome) -> np.ndarray:
    """Flat gene vector: input genes (PCGP), output genes, node genes."""
    parts = [] if g.inputs is None else [g.inputs]
    parts += [g.outputs, g.nodes.ravel()]
    return np.concatenate(parts)


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
    _check(g.mode, g.n_in, g.n_out, g.nodes, g.outputs, g.inputs)
    if g.mode is GenomeMode.PCGP and g.n_nodes and np.any(np.diff(g.nodes[:, 0]) < 0):
        raise ValueError("PCGP nodes not sorted by position gene")
