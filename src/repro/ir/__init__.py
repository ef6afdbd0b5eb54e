"""Intermediate representation: tensors, operators, graphs, serialization."""

from .tensor import DataType, TensorDesc, buffer_nbytes, element_count
from .ops import Op, OpSchema, all_op_types, get_schema, register_op
from .graph import Graph, GraphBuilder, GraphError, Node
from .shape_inference import conv_output_hw, infer_node, infer_shapes, resolve_padding
from .serialization import (
    FormatError,
    dumps,
    graph_signature,
    load_model,
    loads,
    save_model,
)

__all__ = [
    "DataType",
    "TensorDesc",
    "buffer_nbytes",
    "element_count",
    "Op",
    "OpSchema",
    "all_op_types",
    "get_schema",
    "register_op",
    "Graph",
    "GraphBuilder",
    "GraphError",
    "Node",
    "conv_output_hw",
    "infer_node",
    "infer_shapes",
    "resolve_padding",
    "FormatError",
    "dumps",
    "graph_signature",
    "load_model",
    "loads",
    "save_model",
]
