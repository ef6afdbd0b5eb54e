"""Post-training int8 quantization (the converter's model compressor).

Pipeline (all offline, matching Figure 2's "Model Compressor" stage):

1. **Calibrate** — run the float graph on representative inputs and record
   the maximum absolute value of every convolution input.
2. **Quantize** — per-output-channel symmetric int8 weights plus one
   activation scale per conv; weights in the model file shrink ~4x.
3. At inference the conv runner detects int8 weights and takes the exact
   integer-accumulation path (:mod:`repro.kernels.quantized`).

Depthwise convolutions are left in float: they are memory-bound (no GEMM
to accelerate) and quantization there costs accuracy for no speedup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence

import numpy as np

from ..core.reference import execute_reference
from ..ir.graph import Graph, GraphError
from ..ir.ops import Op
from ..ir.serialization import dumps, loads
from ..kernels.quantized import quantize_weights_per_channel

__all__ = ["CalibrationResult", "calibrate", "quantize_model", "weight_bytes"]


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


def quantize_model(
    graph: Graph,
    feeds_batches: Sequence[Dict[str, np.ndarray]],
    quantize_fc: bool = True,
) -> Graph:
    """Produce an int8 copy of ``graph`` (the original is untouched).

    Standard ``Conv2D`` layers are always quantized; ``FullyConnected``
    layers too unless ``quantize_fc=False`` (see module docstring for why
    depthwise stays float).
    """
    from ..ir.tensor import DataType, TensorDesc

    calibration = calibrate(graph, feeds_batches)
    quantized = loads(dumps(graph))  # deep copy through the model format
    count = 0
    for node in quantized.nodes:
        if node.op_type == Op.CONV2D:
            weights_name = node.inputs[1]
            weights = quantized.constants.get(weights_name)
            if weights is None or weights.dtype == np.int8:
                continue
            wq, w_scales = quantize_weights_per_channel(weights)
        elif node.op_type == Op.FULLY_CONNECTED and quantize_fc:
            weights_name = node.inputs[1]
            weights = quantized.constants.get(weights_name)
            if weights is None or weights.dtype == np.int8:
                continue
            # (units, in_features) quantizes per-unit via the same helper
            wq4, w_scales = quantize_weights_per_channel(
                weights.reshape(weights.shape[0], weights.shape[1], 1, 1)
            )
            wq = wq4.reshape(weights.shape)
        else:
            continue
        quantized.constants[weights_name] = wq
        desc = quantized.tensor_descs[weights_name]
        quantized.tensor_descs[weights_name] = TensorDesc(
            weights_name, desc.shape, DataType.INT8
        )
        node.attrs["input_scale"] = calibration.scale_for(node.inputs[0])
        node.attrs["weight_scales"] = [float(s) for s in w_scales]
        count += 1
    if count == 0:
        raise GraphError("graph contains no quantizable Conv2D layers")
    return quantized


def weight_bytes(graph: Graph) -> int:
    """Total bytes of all constants — the model-size metric quantization shrinks."""
    return sum(int(v.nbytes) for v in graph.constants.values())
