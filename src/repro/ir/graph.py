"""Computational graph: nodes, validation, topological ordering and a builder.

A :class:`Graph` is a flat SSA-style structure, close to the paper's ``.mnn``
model format: every tensor has a unique string name, nodes consume and
produce tensor names, weights live in a constant table keyed by tensor name.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .ops import Op, get_schema
from .tensor import DataType, TensorDesc

__all__ = ["Node", "Graph", "GraphBuilder", "GraphError", "toposort"]


class GraphError(ValueError):
    """Raised when a graph is structurally invalid.

    ``diagnostics`` carries the structured findings
    (:class:`repro.analysis.Diagnostic`) when the error aggregates several
    problems — :meth:`Graph.validate` reports *all* violations at once
    rather than stopping at the first.
    """

    def __init__(self, message: str, diagnostics: Optional[Sequence[Any]] = None) -> None:
        super().__init__(message)
        self.diagnostics = list(diagnostics or [])


@dataclass
class Node:
    """One operator instance in the graph.

    Attributes:
        name: unique node name (defaults to its first output's name).
        op_type: registered operator type (see :mod:`repro.ir.ops`).
        inputs: tensor names consumed, in schema order (weights included).
        outputs: tensor names produced.
        attrs: attribute dict, validated against the op schema.
    """

    name: str
    op_type: str
    inputs: List[str]
    outputs: List[str]
    attrs: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        schema = get_schema(self.op_type)
        n_data_inputs = len(self.inputs)
        if not (schema.min_inputs <= n_data_inputs <= schema.max_inputs):
            raise GraphError(
                f"node {self.name!r} ({self.op_type}): {n_data_inputs} inputs, "
                f"schema allows [{schema.min_inputs}, {schema.max_inputs}]"
            )
        self.attrs = schema.validate_attrs(self.attrs)


def toposort(nodes: Sequence[Node], producers: Mapping[str, Node]) -> List[Node]:
    """Kahn's algorithm: ``nodes`` ordered so each runs after its producers.

    ``producers`` maps a tensor name to the node that writes it; an input
    it does not name (a graph input, a constant, an undefined tensor) adds
    no edge.  Ties keep list order.  Nodes on a cycle never become ready
    and are left out, so a caller detects a cycle by comparing lengths.
    """
    index = {id(node): i for i, node in enumerate(nodes)}
    indegree: List[int] = []
    dependents: List[List[int]] = [[] for _ in nodes]
    for i, node in enumerate(nodes):
        deps = {index[id(p)] for p in map(producers.get, node.inputs)
                if p is not None and p is not node}
        indegree.append(len(deps))
        for dep in deps:
            dependents[dep].append(i)
    ready = deque(i for i, deg in enumerate(indegree) if deg == 0)
    order: List[Node] = []
    while ready:
        i = ready.popleft()
        order.append(nodes[i])
        for j in dependents[i]:
            indegree[j] -= 1
            if indegree[j] == 0:
                ready.append(j)
    return order


class Graph:
    """A dataflow graph over named tensors.

    The constant table holds weights/parameters as numpy arrays; tensor
    descriptors (``tensor_descs``) are filled in by shape inference and are
    keyed by tensor name.
    """

    def __init__(self, name: str = "graph") -> None:
        self.name = name
        self.nodes: List[Node] = []
        self.inputs: List[str] = []
        self.outputs: List[str] = []
        self.constants: Dict[str, np.ndarray] = {}
        self.tensor_descs: Dict[str, TensorDesc] = {}

    # -- construction -------------------------------------------------------
    def add_input(self, name: str, shape: Sequence[int], dtype: DataType = DataType.FLOAT32) -> str:
        if name in self.tensor_descs or name in self.constants:
            raise GraphError(f"duplicate tensor name {name!r}")
        self.inputs.append(name)
        self.tensor_descs[name] = TensorDesc(name, tuple(shape), dtype)
        return name

    def add_constant(self, name: str, value: np.ndarray) -> str:
        if name in self.tensor_descs or name in self.constants:
            raise GraphError(f"duplicate tensor name {name!r}")
        value = np.asarray(value)
        self.constants[name] = value
        self.tensor_descs[name] = TensorDesc(name, value.shape, DataType.from_numpy(value.dtype))
        return name

    def add_node(
        self,
        op_type: str,
        inputs: Sequence[str],
        outputs: Sequence[str],
        attrs: Optional[Mapping[str, Any]] = None,
        name: Optional[str] = None,
    ) -> Node:
        node = Node(
            name=name or outputs[0],
            op_type=op_type,
            inputs=list(inputs),
            outputs=list(outputs),
            attrs=dict(attrs or {}),
        )
        self.nodes.append(node)
        # Incremental shape inference keeps descriptors live during
        # construction (GraphBuilder needs channel counts mid-build).  If an
        # input descriptor is not known yet, the final infer_shapes() pass
        # will fill it in (or raise).
        from .shape_inference import infer_node

        try:
            infer_node(self, node)
        except GraphError:
            pass
        return node

    def mark_output(self, name: str) -> None:
        if name not in self.outputs:
            self.outputs.append(name)

    def shallow_clone(self) -> "Graph":
        """A structural alias with independent descriptor/IO containers.

        Nodes and the constant table are *shared* (they are treated as
        immutable by inference); ``inputs``/``outputs``/``tensor_descs``
        are copied so shape inference on the clone — e.g. a
        :meth:`~repro.core.Session.resize` — cannot corrupt descriptors
        seen by other sessions holding the original graph.
        """
        clone = Graph(self.name)
        clone.nodes = self.nodes
        clone.constants = self.constants
        clone.inputs = list(self.inputs)
        clone.outputs = list(self.outputs)
        clone.tensor_descs = dict(self.tensor_descs)
        return clone

    # -- queries -------------------------------------------------------------
    def producer_map(self) -> Dict[str, Node]:
        """Map each tensor name to the node that produces it."""
        producers: Dict[str, Node] = {}
        for node in self.nodes:
            for out in node.outputs:
                if out in producers:
                    raise GraphError(f"tensor {out!r} produced by two nodes")
                producers[out] = node
        return producers

    def consumer_map(self) -> Dict[str, List[Node]]:
        """Map each tensor name to the nodes consuming it."""
        consumers: Dict[str, List[Node]] = {}
        for node in self.nodes:
            for inp in node.inputs:
                consumers.setdefault(inp, []).append(node)
        return consumers

    def desc(self, tensor: str) -> TensorDesc:
        """The :class:`TensorDesc` for ``tensor`` (requires shape inference)."""
        try:
            return self.tensor_descs[tensor]
        except KeyError:
            raise GraphError(f"no descriptor for tensor {tensor!r}; run shape inference") from None

    # -- validation & ordering ------------------------------------------------
    def check_feeds(self, feeds: Mapping[str, np.ndarray]) -> None:
        """Validate feeds against the input descriptors (shape *and* dtype).

        Raises :class:`GraphError` on a missing input or a shape or dtype
        mismatch; extra feeds are ignored.
        """
        for name in self.inputs:
            if name not in feeds:
                raise GraphError(f"missing input {name!r}")
            desc = self.desc(name)
            array = feeds[name]
            if tuple(array.shape) != desc.shape:
                raise GraphError(
                    f"input {name!r}: expected shape {desc.shape}, got {array.shape}"
                )
            if array.dtype != desc.dtype.np_dtype:
                raise GraphError(
                    f"input {name!r}: expected dtype {desc.dtype.value}, "
                    f"got {array.dtype}"
                )

    def check(self) -> List[Any]:
        """Collect *all* structural violations as diagnostics.

        Unlike :meth:`validate` this never raises.  It runs the linter's
        structural rules (:data:`repro.analysis.lint.STRUCTURAL_RULES`:
        undefined inputs, unproduced outputs, double-produced tensors,
        duplicate node names and cycles), the one implementation of each,
        and returns their :class:`repro.analysis.Diagnostic` records (empty
        when the graph is structurally sound).
        """
        return self._structural_lint()[0]

    def validate(self) -> List[Node]:
        """Check structural invariants; raise :class:`GraphError` on failure.

        All violations are gathered first and raised together: the
        exception message joins every finding's
        :meth:`~repro.analysis.Diagnostic.format` and ``exc.diagnostics``
        holds the structured records.  A sound graph returns the
        execution order the check proved (what :meth:`toposort` returns),
        so a caller needs no second sort.
        """
        diags, order = self._structural_lint()
        if diags:
            raise GraphError("; ".join(d.format() for d in diags), diags)
        return order

    def _structural_lint(self) -> Tuple[List[Any], List[Node]]:
        """The structural rules' diagnostics and the order they ran over."""
        # Deferred: repro.analysis imports this module.
        from ..analysis.lint import STRUCTURAL_RULES, LintContext, run_rules

        ctx = LintContext(self)
        return run_rules(ctx, STRUCTURAL_RULES), ctx.order

    def toposort(self) -> List[Node]:
        """Nodes in a valid execution order (:func:`toposort` over
        :meth:`producer_map`).

        Raises :class:`GraphError` on a double-produced tensor.  Nodes
        involved in a cycle are omitted; :meth:`validate` turns that into
        an error.
        """
        return toposort(self.nodes, self.producer_map())

    # -- misc ------------------------------------------------------------------
    def op_histogram(self) -> Dict[str, int]:
        """Count of nodes per op type (used by Table 4 style reports)."""
        hist: Dict[str, int] = {}
        for node in self.nodes:
            hist[node.op_type] = hist.get(node.op_type, 0) + 1
        return hist

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Graph({self.name!r}, nodes={len(self.nodes)}, "
            f"inputs={self.inputs}, outputs={self.outputs})"
        )


class GraphBuilder:
    """Convenience API for constructing graphs in model-zoo code.

    Every method returns the output tensor name so calls can be chained::

        b = GraphBuilder("net")
        x = b.input("data", (1, 3, 224, 224))
        x = b.conv(x, oc=32, kernel=3, stride=2, pad_mode="same", activation="relu")
        b.output(b.softmax(b.fc(b.global_avg_pool(x), units=1000)))
        graph = b.finish()
    """

    def __init__(self, name: str = "graph", seed: int = 0) -> None:
        self.graph = Graph(name)
        self._rng = np.random.default_rng(seed)
        self._counter = 0

    # -- internals ---------------------------------------------------------
    def _fresh(self, hint: str) -> str:
        self._counter += 1
        return f"{hint}_{self._counter}"

    def _weight(self, hint: str, shape: Tuple[int, ...], scale: Optional[float] = None) -> str:
        if scale is None:
            fan_in = int(np.prod(shape[1:])) or 1
            scale = float(np.sqrt(2.0 / fan_in))
        value = self._rng.standard_normal(shape, dtype=np.float32) * np.float32(scale)
        return self.graph.add_constant(self._fresh(hint), value)

    @staticmethod
    def _pair(v) -> Tuple[int, int]:
        if isinstance(v, (tuple, list)):
            return int(v[0]), int(v[1])
        return int(v), int(v)

    # -- graph I/O ------------------------------------------------------------
    def input(self, name: str, shape: Sequence[int], dtype: DataType = DataType.FLOAT32) -> str:
        return self.graph.add_input(name, shape, dtype)

    def constant(self, value: np.ndarray, name: Optional[str] = None) -> str:
        return self.graph.add_constant(name or self._fresh("const"), value)

    def output(self, *names: str) -> None:
        for name in names:
            self.graph.mark_output(name)

    def finish(self) -> Graph:
        from .shape_inference import infer_shapes

        self.graph.validate()
        infer_shapes(self.graph)
        return self.graph

    # -- layers ------------------------------------------------------------
    def conv(
        self,
        x: str,
        oc: int,
        kernel,
        stride=1,
        pad_mode: str = "same",
        pad=(0, 0, 0, 0),
        dilation=1,
        groups: int = 1,
        bias: bool = True,
        activation: Optional[str] = None,
        ic: Optional[int] = None,
        name: Optional[str] = None,
    ) -> str:
        kh, kw = self._pair(kernel)
        if ic is None:
            ic = self.graph.desc(x).shape[1] if x in self.graph.tensor_descs else None
        if ic is None:
            raise GraphError("conv: input channel count unknown; pass ic=")
        w = self._weight("weight", (oc, ic // groups, kh, kw))
        inputs = [x, w]
        if bias:
            inputs.append(self._weight("bias", (oc,), scale=0.01))
        out = name or self._fresh("conv")
        self.graph.add_node(
            Op.CONV2D,
            inputs,
            [out],
            {
                "kernel": (kh, kw),
                "stride": self._pair(stride),
                "dilation": self._pair(dilation),
                "pad": tuple(pad),
                "pad_mode": pad_mode,
                "groups": groups,
                "has_bias": bias,
                "activation": activation,
            },
        )
        return out

    def depthwise_conv(
        self,
        x: str,
        kernel,
        stride=1,
        pad_mode: str = "same",
        pad=(0, 0, 0, 0),
        dilation=1,
        bias: bool = True,
        activation: Optional[str] = None,
        name: Optional[str] = None,
    ) -> str:
        kh, kw = self._pair(kernel)
        channels = self.graph.desc(x).shape[1]
        w = self._weight("dw_weight", (channels, 1, kh, kw))
        inputs = [x, w]
        if bias:
            inputs.append(self._weight("dw_bias", (channels,), scale=0.01))
        out = name or self._fresh("dwconv")
        self.graph.add_node(
            Op.DEPTHWISE_CONV2D,
            inputs,
            [out],
            {
                "kernel": (kh, kw),
                "stride": self._pair(stride),
                "dilation": self._pair(dilation),
                "pad": tuple(pad),
                "pad_mode": pad_mode,
                "groups": channels,
                "has_bias": bias,
                "activation": activation,
            },
        )
        return out

    def batch_norm(self, x: str, name: Optional[str] = None) -> str:
        channels = self.graph.desc(x).shape[1]
        gamma = self.constant(np.ones(channels, np.float32))
        beta = self.constant(np.zeros(channels, np.float32))
        mean = self.constant(self._rng.standard_normal(channels).astype(np.float32) * 0.05)
        var = self.constant(np.abs(self._rng.standard_normal(channels).astype(np.float32)) + 0.9)
        out = name or self._fresh("bn")
        self.graph.add_node(Op.BATCH_NORM, [x, gamma, beta, mean, var], [out])
        return out

    def _unary(self, op_type: str, x: str, attrs=None, name: Optional[str] = None) -> str:
        out = name or self._fresh(op_type.lower())
        self.graph.add_node(op_type, [x], [out], attrs or {})
        return out

    def relu(self, x: str, name: Optional[str] = None) -> str:
        return self._unary(Op.RELU, x, name=name)

    def relu6(self, x: str, name: Optional[str] = None) -> str:
        return self._unary(Op.RELU6, x, name=name)

    def sigmoid(self, x: str, name: Optional[str] = None) -> str:
        return self._unary(Op.SIGMOID, x, name=name)

    def tanh(self, x: str, name: Optional[str] = None) -> str:
        return self._unary(Op.TANH, x, name=name)

    def softmax(self, x: str, axis: int = 1, name: Optional[str] = None) -> str:
        return self._unary(Op.SOFTMAX, x, {"axis": axis}, name=name)

    def dropout(self, x: str, ratio: float = 0.5, name: Optional[str] = None) -> str:
        return self._unary(Op.DROPOUT, x, {"ratio": ratio}, name=name)

    def max_pool(self, x: str, kernel, stride=None, pad_mode="valid", pad=(0, 0, 0, 0),
                 ceil_mode: bool = False, name: Optional[str] = None) -> str:
        stride = stride if stride is not None else kernel
        out = name or self._fresh("maxpool")
        self.graph.add_node(
            Op.MAX_POOL,
            [x],
            [out],
            {"kernel": self._pair(kernel), "stride": self._pair(stride),
             "pad": tuple(pad), "pad_mode": pad_mode, "ceil_mode": ceil_mode},
        )
        return out

    def avg_pool(self, x: str, kernel, stride=None, pad_mode="valid", pad=(0, 0, 0, 0),
                 ceil_mode: bool = False, count_include_pad: bool = False,
                 name: Optional[str] = None) -> str:
        stride = stride if stride is not None else kernel
        out = name or self._fresh("avgpool")
        self.graph.add_node(
            Op.AVG_POOL,
            [x],
            [out],
            {"kernel": self._pair(kernel), "stride": self._pair(stride),
             "pad": tuple(pad), "pad_mode": pad_mode, "ceil_mode": ceil_mode,
             "count_include_pad": count_include_pad},
        )
        return out

    def global_avg_pool(self, x: str, name: Optional[str] = None) -> str:
        return self._unary(Op.GLOBAL_AVG_POOL, x, name=name)

    def add(self, a: str, b: str, name: Optional[str] = None) -> str:
        out = name or self._fresh("add")
        self.graph.add_node(Op.ADD, [a, b], [out])
        return out

    def mul(self, a: str, b: str, name: Optional[str] = None) -> str:
        out = name or self._fresh("mul")
        self.graph.add_node(Op.MUL, [a, b], [out])
        return out

    def split(self, x: str, sizes: Sequence[int], axis: int = 1,
              name: Optional[str] = None) -> List[str]:
        base = name or self._fresh("split")
        outputs = [f"{base}_{i}" for i in range(len(sizes))]
        self.graph.add_node(
            Op.SPLIT, [x], outputs, {"axis": axis, "sizes": tuple(sizes)}, name=base
        )
        return outputs

    def concat(self, xs: Sequence[str], axis: int = 1, name: Optional[str] = None) -> str:
        out = name or self._fresh("concat")
        self.graph.add_node(Op.CONCAT, list(xs), [out], {"axis": axis})
        return out

    def identity(self, x: str, name: Optional[str] = None) -> str:
        return self._unary(Op.IDENTITY, x, name=name)

    def slice(self, x: str, axis: int, start: int, end: int,
              name: Optional[str] = None) -> str:
        return self._unary(Op.SLICE, x, {"axis": axis, "start": start, "end": end}, name=name)

    def flatten(self, x: str, axis: int = 1, name: Optional[str] = None) -> str:
        return self._unary(Op.FLATTEN, x, {"axis": axis}, name=name)

    def reshape(self, x: str, shape: Sequence[int], name: Optional[str] = None) -> str:
        return self._unary(Op.RESHAPE, x, {"shape": tuple(shape)}, name=name)

    def transpose(self, x: str, perm: Sequence[int], name: Optional[str] = None) -> str:
        return self._unary(Op.TRANSPOSE, x, {"perm": tuple(perm)}, name=name)

    def gather(self, data: str, indices: str, axis: int = 0,
               name: Optional[str] = None) -> str:
        out = name or self._fresh("gather")
        self.graph.add_node(Op.GATHER, [data, indices], [out], {"axis": axis})
        return out

    def layer_norm(self, x: str, axis: int = -1, name: Optional[str] = None) -> str:
        dim = self.graph.desc(x).shape[axis]
        gamma = self.constant(np.ones(dim, np.float32))
        beta = self.constant(np.zeros(dim, np.float32))
        out = name or self._fresh("ln")
        self.graph.add_node(Op.LAYER_NORM, [x, gamma, beta], [out], {"axis": axis})
        return out

    def gelu(self, x: str, name: Optional[str] = None) -> str:
        return self._unary(Op.GELU, x, name=name)

    def matmul(self, a: str, b: str, transpose_a: bool = False,
               transpose_b: bool = False, rowwise: bool = False,
               name: Optional[str] = None) -> str:
        out = name or self._fresh("matmul")
        self.graph.add_node(
            Op.MATMUL, [a, b], [out],
            {"transpose_a": transpose_a, "transpose_b": transpose_b,
             "rowwise": rowwise},
        )
        return out

    def attention(self, q: str, k: str, v: str, lengths: Optional[str] = None,
                  k_cache: Optional[str] = None, v_cache: Optional[str] = None,
                  causal: bool = True, scale: Optional[float] = None,
                  name: Optional[str] = None) -> str:
        """Fused scaled-dot-product attention over (N, H, T, dh) tensors.

        With ``lengths``/``k_cache``/``v_cache`` the op attends over the
        valid cache prefix followed by the fresh k/v rows (autoregressive
        decode); without them it is plain (optionally causal) attention.
        """
        if (lengths is None) != (k_cache is None) or (k_cache is None) != (v_cache is None):
            raise GraphError(
                "attention: lengths, k_cache and v_cache must be given together"
            )
        inputs = [q, k, v]
        if lengths is not None:
            inputs += [lengths, k_cache, v_cache]
        out = name or self._fresh("attn")
        self.graph.add_node(
            Op.ATTENTION, inputs, [out], {"causal": causal, "scale": scale}
        )
        return out

    def lstm(self, x: str, hidden_size: int, return_sequences: bool = False,
             bias: bool = True, name: Optional[str] = None) -> str:
        features = self.graph.desc(x).shape[-1]
        w_ih = self._weight("lstm_w_ih", (4 * hidden_size, features))
        w_hh = self._weight("lstm_w_hh", (4 * hidden_size, hidden_size))
        inputs = [x, w_ih, w_hh]
        if bias:
            inputs.append(self._weight("lstm_bias", (4 * hidden_size,), scale=0.01))
        out = name or self._fresh("lstm")
        self.graph.add_node(
            Op.LSTM, inputs, [out],
            {"hidden_size": hidden_size, "return_sequences": return_sequences},
        )
        return out

    def fc(self, x: str, units: int, bias: bool = True, name: Optional[str] = None) -> str:
        desc = self.graph.desc(x)
        in_features = int(np.prod(desc.shape[1:]))
        w = self._weight("fc_weight", (units, in_features))
        inputs = [x, w]
        if bias:
            inputs.append(self._weight("fc_bias", (units,), scale=0.01))
        out = name or self._fresh("fc")
        self.graph.add_node(Op.FULLY_CONNECTED, inputs, [out], {"units": units})
        return out
