"""Converter-time weight quantization and the quantization fingerprint.

:func:`quantize_graph` is the one entry point for producing an int8
model (Figure 2's "Model Compressor" stage, behind ``cli quantize``):
per-channel symmetric weight quantization for ``MatMul`` (the
decoder/GEMM path — weight-only, activations are quantized dynamically
per row inside :mod:`repro.kernels.qgemm`) and, when calibration feeds
are supplied, for ``Conv2D``/``FullyConnected`` (which need a static
activation scale, measured by :func:`calibrate`).  Depthwise
convolutions stay float: they are memory-bound (no GEMM to accelerate)
and quantizing them costs accuracy for no speedup.  Scale metadata is
stamped into node attrs (``weight_scales``, and ``input_scale`` for the
calibrated ops) and the result is pushed through a full serialization
round-trip, so every quantized graph is by construction one the RMNN
format can persist and reload losslessly.

Sibling int8 MatMuls — a decoder layer's Q/K/V projections — then merge
into one GEMM over the column-concatenated weight, followed by one
last-axis Slice per sibling (:func:`_merge_sibling_matmuls`), so the
shared activation is quantized once.  The merge is exact: integer sums
are order-independent and dequantization is per cell, so every column is
bitwise the separate product.  fp32 MatMuls never merge, because a wider
BLAS call may sum in another order.

:func:`quantization_fingerprint` summarizes exactly the facts that make
a quantized graph a *different computation* from its fp twin — every
tensor's dtype plus a digest of all scale metadata — and is folded into
the pre-inference cache key so the two variants can never collide.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from ..ir.graph import Graph, GraphError, Node
from ..ir.ops import Op
from ..ir.serialization import dumps, loads
from ..ir.shape_inference import infer_node
from ..ir.tensor import DataType, TensorDesc
from ..kernels.quantized import quantize_weights_per_channel

__all__ = [
    "CalibrationResult",
    "calibrate",
    "quantization_fingerprint",
    "quantize_graph",
    "weight_bytes",
]


@dataclass
class CalibrationResult:
    """Per-tensor activation scales measured on calibration data."""

    scales: Dict[str, float]

    def scale_for(self, tensor: str) -> float:
        try:
            return self.scales[tensor]
        except KeyError:
            raise GraphError(f"tensor {tensor!r} was not calibrated") from None


def calibrate(graph: Graph, feeds_batches: Sequence[Dict[str, np.ndarray]]) -> CalibrationResult:
    """Measure activation ranges by running the float graph.

    Args:
        feeds_batches: one feed dict per calibration sample (>= 1 required).
    """
    from ..core.reference import execute_reference  # late: keep repro.quant import-light

    if not feeds_batches:
        raise ValueError("calibration requires at least one input batch")
    max_abs: Dict[str, float] = {}
    for feeds in feeds_batches:
        env = execute_reference(graph, feeds)
        for name, value in env.items():
            if not np.issubdtype(np.asarray(value).dtype, np.floating):
                continue
            peak = float(np.abs(value).max()) if value.size else 0.0
            max_abs[name] = max(max_abs.get(name, 0.0), peak)
    scales = {
        name: (peak / 127.0 if peak > 0 else 1.0) for name, peak in max_abs.items()
    }
    return CalibrationResult(scales)


def weight_bytes(graph: Graph) -> int:
    """Total bytes of all constants — the model-size metric quantization shrinks."""
    return sum(int(v.nbytes) for v in graph.constants.values())


def _store_int8(graph: Graph, name: str, weights: np.ndarray, axis: int) -> List[float]:
    """Replace constant ``name`` by its per-channel int8 codes; return the scales."""
    q, scales = quantize_weights_per_channel(weights, axis)
    graph.constants[name] = q
    graph.tensor_descs[name] = TensorDesc(name, graph.tensor_descs[name].shape, DataType.INT8)
    return [float(s) for s in scales]


def _quantize_matmul_weights(graph: Graph) -> int:
    """Quantize every eligible 2-D MatMul weight constant in place.

    Eligible means: a rank-2 float constant consumed *only* by MatMul
    nodes that agree on ``transpose_b`` (the output-channel axis must be
    unambiguous).  Scales are per output channel; every consumer gets
    the same ``weight_scales`` attr.
    """
    matmul_consumers: Dict[str, List] = {}
    other_consumers = set()
    for node in graph.nodes:
        for i, name in enumerate(node.inputs):
            if name not in graph.constants:
                continue
            if node.op_type == Op.MATMUL and i == 1:
                matmul_consumers.setdefault(name, []).append(node)
            else:
                other_consumers.add(name)

    count = 0
    for wname, nodes in matmul_consumers.items():
        if wname in other_consumers:
            continue  # shared with a non-GEMM consumer: stays float
        weights = graph.constants[wname]
        if weights.ndim != 2 or weights.dtype == np.int8:
            continue
        if not np.issubdtype(weights.dtype, np.floating):
            continue
        transposes = {bool(n.attrs.get("transpose_b", False)) for n in nodes}
        if len(transposes) != 1:
            continue  # ambiguous output-channel axis
        scale_list = _store_int8(graph, wname, weights, axis=0 if transposes.pop() else 1)
        for node in nodes:
            node.attrs["weight_scales"] = scale_list
        count += 1
    return count


def _merge_sibling_matmuls(graph: Graph) -> None:
    """Merge int8 MatMuls that share an activation into one GEMM, in place.

    Siblings read the same non-constant activation (so one depth ``K``)
    with the same ``rowwise`` flag and no transposes, and their 2-D int8
    weights carry scales and have no other consumer.  Each group of two
    or more becomes one MatMul over the column-concatenated weight and
    scales, placed where the group's first member was, and one Slice of
    its last axis per member, which keeps the member's output name — so
    every consumer and graph output is untouched, and the Slices are
    views.
    """
    consumers = graph.consumer_map()
    groups: Dict[tuple, List[Node]] = {}
    for node in graph.nodes:
        if node.op_type != Op.MATMUL or node.attrs.get("transpose_a") \
                or node.attrs.get("transpose_b"):
            continue
        x, w = node.inputs
        weights = graph.constants.get(w)
        if weights is None or weights.dtype != np.int8 or weights.ndim != 2 \
                or node.attrs.get("weight_scales") is None or x in graph.constants \
                or len(consumers[w]) != 1 or w in graph.outputs:
            continue
        groups.setdefault((x, bool(node.attrs.get("rowwise"))), []).append(node)

    for (x, rowwise), members in groups.items():
        if len(members) < 2:
            continue
        first = members[0]
        weights = [graph.constants.pop(n.inputs[1]) for n in members]
        for n in members:
            del graph.tensor_descs[n.inputs[1]]
        out, w_name = f"{first.name}_siblings", f"{first.name}_siblings_w"
        graph.add_constant(w_name, np.concatenate(weights, axis=1))
        scales = [s for n in members for s in n.attrs["weight_scales"]]
        rank = len(graph.desc(first.outputs[0]).shape)
        new_nodes = [Node(out, Op.MATMUL, [x, w_name], [out],
                          {"rowwise": rowwise, "weight_scales": scales})]
        start = 0
        for n, w in zip(members, weights):
            end = start + w.shape[1]
            new_nodes.append(Node(n.name, Op.SLICE, [out], list(n.outputs),
                                  {"axis": rank - 1, "start": start, "end": end}))
            start = end
        at = graph.nodes.index(first)
        drop = {id(n) for n in members}
        graph.nodes = graph.nodes[:at] + new_nodes + [
            n for n in graph.nodes[at:] if id(n) not in drop
        ]
        for node in new_nodes:
            infer_node(graph, node)


def _quantize_calibrated(graph: Graph, original: Graph,
                         feeds_batches: Sequence[Dict[str, np.ndarray]]) -> int:
    """Conv2D/FullyConnected weight quantization (needs activation scales)."""
    calibration = calibrate(original, feeds_batches)
    count = 0
    for node in graph.nodes:
        if node.op_type not in (Op.CONV2D, Op.FULLY_CONNECTED):
            continue
        weights_name = node.inputs[1]
        weights = graph.constants.get(weights_name)
        if weights is None or weights.dtype == np.int8:
            continue
        node.attrs["input_scale"] = calibration.scale_for(node.inputs[0])
        node.attrs["weight_scales"] = _store_int8(graph, weights_name, weights, axis=0)
        count += 1
    return count


def quantize_graph(
    graph: Graph,
    feeds_batches: Optional[Sequence[Dict[str, np.ndarray]]] = None,
) -> Graph:
    """Per-channel symmetric int8 weight quantization (original untouched).

    MatMul weights are always quantized (their activations quantize
    dynamically at run time, so no calibration is needed); Conv2D and
    FullyConnected weights are quantized only when ``feeds_batches``
    supplies calibration data for their static ``input_scale``.

    Sibling MatMuls — int8, untransposed, reading one activation with
    one ``rowwise`` flag, over weights of one depth that nothing else
    reads — then merge into one MatMul plus a last-axis Slice per
    sibling that keeps its output name.  Every output is bitwise what
    the separate int8 MatMuls compute; the activation is quantized once.

    Returns a **serialization round-tripped** copy: the quantized graph
    you get back has been through :func:`repro.ir.dumps` /
    :func:`repro.ir.loads`, proving the int8 constants and scale attrs
    survive the model format.

    Raises:
        ValueError: ``feeds_batches`` is given but empty.
        GraphError: nothing in the graph was quantizable.
    """
    quantized = loads(dumps(graph))  # deep copy through the model format
    count = _quantize_matmul_weights(quantized)
    if feeds_batches is not None:
        count += _quantize_calibrated(quantized, graph, feeds_batches)
    if count == 0:
        raise GraphError(
            "graph contains no quantizable weights (2-D MatMul constants, "
            "or Conv2D/FullyConnected with calibration feeds)"
        )
    _merge_sibling_matmuls(quantized)
    return loads(dumps(quantized))  # the round-trip is part of the contract


def quantization_fingerprint(graph: Graph) -> Dict[str, Any]:
    """Digest of everything that distinguishes a quantized graph variant.

    Two components:

    * ``dtypes`` — every tensor's dtype, explicitly (a quantized and an
      fp variant of the same topology differ here by construction);
    * ``scales`` — a sha256 over all per-node scale metadata
      (``input_scale`` / ``weight_scales``), so even two int8 variants
      quantized with different calibration never collide.

    The pre-inference cache folds this into its key payload.
    """
    dtypes = {
        name: desc.dtype.value
        for name, desc in sorted(graph.tensor_descs.items())
    }
    h = hashlib.sha256()
    for node in graph.nodes:
        input_scale = node.attrs.get("input_scale")
        weight_scales = node.attrs.get("weight_scales")
        if input_scale is None and weight_scales is None:
            continue
        h.update(json.dumps(
            [node.name, input_scale,
             list(weight_scales) if weight_scales is not None else None],
            separators=(",", ":"), sort_keys=True,
        ).encode())
    return {"dtypes": dtypes, "scales": h.hexdigest()}
