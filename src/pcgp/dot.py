"""Graphviz DOT export of decoded programs.

Inputs are boxes, outputs double circles.  Computational nodes are
ellipses labeled with their function (plus the node weight when weights
are enabled); inactive nodes are dashed and drawn without edges, and
previous-row reads (of the node itself or a later one) are dashed edges.
"""

from __future__ import annotations

from .decode import DecodeSettings, decode
from .functions import FunctionSet
from .genome import Genome


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(g: Genome, settings: DecodeSettings, fset: FunctionSet) -> str:
    graph = decode(g, settings, fset)
    n_in = graph.n_in
    rows = [graph.row(i) for i in range(graph.n_nodes)]
    name = [f"in{k}" for k in range(n_in)] + [f"n{i}" for i in range(graph.n_nodes)]
    lines = ["digraph program {", "  rankdir=LR;"]
    for k in range(n_in):
        lines.append(f"  in{k} [shape=box, label={_quote(f'x{k}')}];")
    for i, (_, _, fi, _, param) in enumerate(rows):
        label = graph.fset[fi].name
        if graph.use_weights:
            label += f" w={param:.3g}"
        style = "" if graph.active_list[i] else ", style=dashed"
        lines.append(f"  n{i} [shape=ellipse, label={_quote(label)}{style}];")
    for j in range(graph.n_out):
        lines.append(f"  out{j} [shape=doublecircle, label={_quote(f'y{j}')}];")
    for i, row in enumerate(rows):
        if graph.active_list[i]:
            for t in row[:row[3]]:
                style = " [style=dashed]" if t >= n_in + i else ""
                lines.append(f"  {name[t]} -> n{i}{style};")
    for j, t in enumerate(graph.output_list):
        lines.append(f"  {name[t]} -> out{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
