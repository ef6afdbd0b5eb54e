"""Offline conversion: frontends, graph optimizer, pruning, fp16 (Figure 2).

Int8 quantization, the converter's model compressor, lives in
:mod:`repro.quant` (:func:`repro.quant.quantize_graph`).
"""

from .frontends.onnx_like import ConversionError, convert_onnx_like
from .frontends.caffe_like import convert_caffe_like
from .frontends.tflite_like import convert_tflite_like
from .optimizer.passes import (
    FoldConstants,
    FuseConvActivation,
    FuseConvBatchNorm,
    Pass,
    PassManager,
    RemoveIdentity,
    ReplaceOps,
    default_passes,
    optimize,
)
from .prune import PruneReport, prune_model, sparsity_report
from .fp16 import convert_to_fp16, fp16_savings

__all__ = [
    "PruneReport",
    "prune_model",
    "sparsity_report",
    "convert_to_fp16",
    "fp16_savings",
    "ConversionError",
    "convert_onnx_like",
    "convert_caffe_like",
    "convert_tflite_like",
    "FoldConstants",
    "FuseConvActivation",
    "FuseConvBatchNorm",
    "Pass",
    "PassManager",
    "RemoveIdentity",
    "ReplaceOps",
    "default_passes",
    "optimize",
]
