"""Graph visualization: export a graph to Graphviz dot text.

Part of the "more tools for user convenience" extension; render with
``dot -Tpng model.dot -o model.png`` if graphviz is installed.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..ir.graph import Graph
from ..ir.ops import Op

__all__ = ["to_dot"]

#: Node fill colors by op family (kept dot-safe / X11 names).
_COLORS = {
    Op.CONV2D: "lightblue",
    Op.DEPTHWISE_CONV2D: "lightskyblue",
    Op.CONV_TRANSPOSE2D: "lightblue",
    Op.FULLY_CONNECTED: "lightsalmon",
    Op.MATMUL: "lightsalmon",
    Op.LSTM: "plum",
    Op.BATCH_NORM: "lightyellow",
    Op.LAYER_NORM: "lightyellow",
    Op.CONCAT: "lightgrey",
    Op.SPLIT: "lightgrey",
    Op.ADD: "palegreen",
}


def _escape(text: str) -> str:
    return text.replace('"', '\\"')


def to_dot(graph: Graph, schemes: Optional[Dict] = None) -> str:
    """Render ``graph`` as Graphviz dot text.

    Args:
        schemes: optional per-conv :class:`SchemeDecision` map; when given,
            conv nodes are annotated with their selected scheme.
    """
    lines = [f'digraph "{_escape(graph.name)}" {{', "  rankdir=TB;",
             '  node [shape=box, style=filled, fillcolor=white, fontsize=10];']
    for name in graph.inputs:
        desc = graph.desc(name)
        lines.append(
            f'  "{_escape(name)}" [label="{_escape(name)}\\n{desc.shape}", '
            f'shape=ellipse, fillcolor=honeydew];'
        )
    producers = graph.producer_map()
    for node in graph.nodes:
        label = f"{node.op_type}"
        if node.op_type in (Op.CONV2D, Op.DEPTHWISE_CONV2D):
            label += f"\\nk={tuple(node.attrs['kernel'])} s={tuple(node.attrs['stride'])}"
        if schemes and node.name in schemes:
            label += f"\\n[{schemes[node.name].label}]"
        out_desc = graph.tensor_descs.get(node.outputs[0])
        if out_desc is not None:
            label += f"\\n{out_desc.shape}"
        color = _COLORS.get(node.op_type, "white")
        lines.append(
            f'  "{_escape(node.name)}" [label="{_escape(label)}", fillcolor={color}];'
        )
        for inp in node.inputs:
            if inp in graph.constants:
                continue
            source = producers[inp].name if inp in producers else inp
            lines.append(f'  "{_escape(source)}" -> "{_escape(node.name)}";')
    for name in graph.outputs:
        if name in producers:
            lines.append(
                f'  "out_{_escape(name)}" [label="{_escape(name)}", '
                f'shape=ellipse, fillcolor=mistyrose];'
            )
            lines.append(f'  "{_escape(producers[name].name)}" -> "out_{_escape(name)}";')
    lines.append("}")
    return "\n".join(lines)
