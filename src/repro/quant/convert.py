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

from ..ir.graph import Graph, GraphError
from ..ir.ops import Op
from ..ir.serialization import dumps, loads
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
