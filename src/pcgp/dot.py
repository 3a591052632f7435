"""Graphviz DOT export of decoded programs.

Inputs are boxes, outputs double circles.  Computational nodes are
ellipses labeled with their function (plus the node weight when weights
are enabled); inactive nodes are dashed and drawn without edges, and
recurrent connections are dashed edges.
"""

from __future__ import annotations

from .decode import DecodeSettings, decode
from .functions import FunctionSet
from .genome import Genome


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(g: Genome, settings: DecodeSettings, fset: FunctionSet) -> str:
    graph = decode(g, settings, fset)

    def entity(target: int) -> str:
        if target < graph.n_in:
            return f"in{target}"
        return f"n{target - graph.n_in}"

    lines = ["digraph program {", "  rankdir=LR;"]
    for k in range(graph.n_in):
        lines.append(f"  in{k} [shape=box, label={_quote(f'x{k}')}];")
    for i in range(graph.n_nodes):
        fn = graph.fset[graph.function_index[i]]
        label = fn.name
        if graph.use_weights:
            label += f" w={graph.params[i]:.3g}"
        style = "" if graph.active[i] else ", style=dashed"
        lines.append(f"  n{i} [shape=ellipse, label={_quote(label)}{style}];")
    for j in range(graph.n_out):
        lines.append(f"  out{j} [shape=doublecircle, label={_quote(f'y{j}')}];")
    for i in range(graph.n_nodes):
        if not graph.active[i]:
            continue
        for slot in range(graph.arity[i]):
            style = " [style=dashed]" if graph.recurrent_flags[i, slot] else ""
            lines.append(f"  {entity(graph.targets[i, slot])} -> n{i}{style};")
    for j in range(graph.n_out):
        lines.append(f"  {entity(graph.output_targets[j])} -> out{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
