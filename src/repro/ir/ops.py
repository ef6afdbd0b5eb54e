"""Operator definitions and the operator registry.

Every operator the engine understands is described by an :class:`OpSchema`:
its type name, how many inputs it takes, the attributes it accepts (with
defaults), and a rough multiply-count formula used by the pre-inference cost
model (paper Eq. 5 measures operator complexity in MULs).

The registry is the single source of truth shared by the converter, shape
inference, kernels, backends (which declare *which* of these ops they
support — paper Table 4) and the baseline engines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

__all__ = ["OpSchema", "register_op", "get_schema", "all_op_types", "Op"]


# ---------------------------------------------------------------------------
# Operator type names.  Kept as plain strings (like ONNX) so that user
# extensions can register new types without touching an enum.
# ---------------------------------------------------------------------------
class Op:
    """Namespace of built-in operator type names."""

    INPUT = "Input"
    CONSTANT = "Constant"
    CONV2D = "Conv2D"
    DEPTHWISE_CONV2D = "DepthwiseConv2D"
    CONV_TRANSPOSE2D = "ConvTranspose2D"
    MATMUL = "MatMul"
    FULLY_CONNECTED = "FullyConnected"
    BATCH_NORM = "BatchNorm"
    RELU = "ReLU"
    RELU6 = "ReLU6"
    PRELU = "PReLU"
    SIGMOID = "Sigmoid"
    TANH = "Tanh"
    SOFTMAX = "Softmax"
    MAX_POOL = "MaxPool"
    AVG_POOL = "AvgPool"
    GLOBAL_AVG_POOL = "GlobalAvgPool"
    ADD = "Add"
    SUB = "Sub"
    MUL = "Mul"
    CONCAT = "Concat"
    SLICE = "Slice"
    RESHAPE = "Reshape"
    FLATTEN = "Flatten"
    PAD = "Pad"
    RESIZE = "Resize"
    REDUCE_MEAN = "ReduceMean"
    DROPOUT = "Dropout"
    IDENTITY = "Identity"
    SCALE = "Scale"
    ELTWISE_MAX = "EltwiseMax"
    QUANTIZE = "Quantize"
    DEQUANTIZE = "Dequantize"
    # sequence/attention operators (the paper's Figure 1 lists RNN/LSTM/
    # Transformer among the model families a universal engine must run)
    SPLIT = "Split"
    TRANSPOSE = "Transpose"
    GATHER = "Gather"
    LAYER_NORM = "LayerNorm"
    GELU = "Gelu"
    LSTM = "LSTM"
    ATTENTION = "Attention"


MulFn = Callable[[Sequence[Tuple[int, ...]], Tuple[int, ...], Mapping[str, Any]], int]


@dataclass(frozen=True)
class OpSchema:
    """Static description of an operator type.

    Attributes:
        op_type: registry key, e.g. ``"Conv2D"``.
        min_inputs / max_inputs: accepted input arity (weights count as
            inputs, matching ONNX convention).
        attrs: attribute names mapped to default values (``...`` marks a
            required attribute with no default).
        mul_count: optional callable ``(input_shapes, output_shape, attrs)``
            returning the number of multiplications the op performs — the
            complexity measure used by the paper's cost model (Eq. 5).
        compute_intensive: whether the op should be considered for
            scheme-selection during pre-inference.
    """

    op_type: str
    min_inputs: int
    max_inputs: int
    attrs: Mapping[str, Any] = field(default_factory=dict)
    mul_count: Optional[MulFn] = None
    compute_intensive: bool = False

    def validate_attrs(self, given: Mapping[str, Any]) -> Dict[str, Any]:
        """Merge ``given`` attributes over the schema defaults.

        Raises:
            ValueError: on unknown attributes or missing required ones.
        """
        merged: Dict[str, Any] = {}
        for key, default in self.attrs.items():
            if key in given:
                merged[key] = given[key]
            elif default is ...:
                raise ValueError(f"{self.op_type}: missing required attribute {key!r}")
            else:
                merged[key] = default
        unknown = set(given) - set(self.attrs)
        if unknown:
            raise ValueError(f"{self.op_type}: unknown attributes {sorted(unknown)}")
        return merged


_REGISTRY: Dict[str, OpSchema] = {}


def register_op(schema: OpSchema) -> OpSchema:
    """Add ``schema`` to the global registry (overwriting is an error)."""
    if schema.op_type in _REGISTRY:
        raise ValueError(f"operator {schema.op_type!r} already registered")
    _REGISTRY[schema.op_type] = schema
    return schema


def get_schema(op_type: str) -> OpSchema:
    """Look up the schema for ``op_type``.

    Raises:
        KeyError: if the operator type was never registered.
    """
    try:
        return _REGISTRY[op_type]
    except KeyError:
        raise KeyError(f"unknown operator type {op_type!r}") from None


def all_op_types() -> Tuple[str, ...]:
    """All registered operator type names, sorted."""
    return tuple(sorted(_REGISTRY))


# ---------------------------------------------------------------------------
# MUL-count formulas (paper Eq. 5: Cop = MUL / FLOPS).
# ---------------------------------------------------------------------------

def _conv_muls(input_shapes, output_shape, attrs) -> int:
    ic = input_shapes[0][1]
    groups = attrs.get("groups", 1)
    kh, kw = attrs["kernel"]
    n, oc, oh, ow = output_shape
    return n * oc * oh * ow * (ic // groups) * kh * kw


def _depthwise_muls(input_shapes, output_shape, attrs) -> int:
    kh, kw = attrs["kernel"]
    n, oc, oh, ow = output_shape
    return n * oc * oh * ow * kh * kw


def _deconv_muls(input_shapes, output_shape, attrs) -> int:
    n, ic, ih, iw = input_shapes[0]
    oc = output_shape[1]
    kh, kw = attrs["kernel"]
    return n * ic * ih * iw * oc * kh * kw


def _matmul_muls(input_shapes, output_shape, attrs) -> int:
    k = input_shapes[0][-1]
    out = 1
    for d in output_shape:
        out *= d
    return out * k


def _fc_muls(input_shapes, output_shape, attrs) -> int:
    in_features = 1
    for d in input_shapes[0][1:]:
        in_features *= d
    n, out_features = output_shape
    return n * out_features * in_features


def _elementwise_muls(input_shapes, output_shape, attrs) -> int:
    out = 1
    for d in output_shape:
        out *= d
    return out


def _pool_muls(input_shapes, output_shape, attrs) -> int:
    kh, kw = attrs.get("kernel", (1, 1))
    out = 1
    for d in output_shape:
        out *= d
    return out * kh * kw


def _zero_muls(input_shapes, output_shape, attrs) -> int:
    return 0


# ---------------------------------------------------------------------------
# Built-in schemas.
# ---------------------------------------------------------------------------
_CONV_ATTRS = {
    "kernel": ...,          # (kh, kw)
    "stride": (1, 1),
    "dilation": (1, 1),
    "pad": (0, 0, 0, 0),    # (top, bottom, left, right)
    "pad_mode": "explicit",  # "explicit" | "same" | "valid"
    "groups": 1,
    "has_bias": True,
    "activation": None,      # fused activation: None | "relu" | "relu6"
    # int8 post-training quantization (set by repro.quant.quantize_graph):
    "input_scale": None,     # activation scale; weights are int8 when set
    "weight_scales": None,   # per-output-channel weight scales
}

register_op(OpSchema(Op.INPUT, 0, 0, {"shape": ..., "dtype": "float32"}, _zero_muls))
register_op(OpSchema(Op.CONSTANT, 0, 0, {"value_name": ...}, _zero_muls))
register_op(OpSchema(Op.CONV2D, 2, 3, _CONV_ATTRS, _conv_muls, compute_intensive=True))
register_op(
    OpSchema(Op.DEPTHWISE_CONV2D, 2, 3, _CONV_ATTRS, _depthwise_muls, compute_intensive=True)
)
register_op(
    OpSchema(
        Op.CONV_TRANSPOSE2D,
        2,
        3,
        {**_CONV_ATTRS, "output_padding": (0, 0)},
        _deconv_muls,
        compute_intensive=True,
    )
)
register_op(
    OpSchema(
        Op.MATMUL,
        2,
        2,
        # rowwise: compute each output row as an independent vector-matrix
        # product.  Slower, but bitwise invariant to the leading (token)
        # dimension — required by autoregressive decode, where step t must
        # reproduce row t of the full-sequence product exactly.
        # weight_scales: per-output-channel scales when the rhs constant is
        # int8 (set by repro.quant.quantize_graph); activations quantize
        # dynamically per row, so no input_scale is needed here.
        {"transpose_a": False, "transpose_b": False, "rowwise": False,
         "weight_scales": None},
        _matmul_muls,
        compute_intensive=True,
    )
)
register_op(
    OpSchema(
        Op.FULLY_CONNECTED,
        2,
        3,
        {"units": ..., "input_scale": None, "weight_scales": None},
        _fc_muls,
        compute_intensive=True,
    )
)
register_op(OpSchema(Op.BATCH_NORM, 1, 5, {"epsilon": 1e-5}, _elementwise_muls))
register_op(OpSchema(Op.RELU, 1, 1, {}, _zero_muls))
register_op(OpSchema(Op.RELU6, 1, 1, {}, _zero_muls))
register_op(OpSchema(Op.PRELU, 2, 2, {}, _elementwise_muls))
register_op(OpSchema(Op.SIGMOID, 1, 1, {}, _elementwise_muls))
register_op(OpSchema(Op.TANH, 1, 1, {}, _elementwise_muls))
register_op(OpSchema(Op.SOFTMAX, 1, 1, {"axis": 1}, _elementwise_muls))
_POOL_ATTRS = {
    "kernel": ...,
    "stride": (1, 1),
    "pad": (0, 0, 0, 0),
    "pad_mode": "explicit",
    "ceil_mode": False,
    "count_include_pad": False,
}
register_op(OpSchema(Op.MAX_POOL, 1, 1, _POOL_ATTRS, _pool_muls))
register_op(OpSchema(Op.AVG_POOL, 1, 1, _POOL_ATTRS, _pool_muls))
register_op(OpSchema(Op.GLOBAL_AVG_POOL, 1, 1, {}, _elementwise_muls))
register_op(OpSchema(Op.ADD, 2, 2, {}, _elementwise_muls))
register_op(OpSchema(Op.SUB, 2, 2, {}, _elementwise_muls))
register_op(OpSchema(Op.MUL, 2, 2, {}, _elementwise_muls))
register_op(OpSchema(Op.ELTWISE_MAX, 2, 2, {}, _elementwise_muls))
register_op(OpSchema(Op.CONCAT, 1, 64, {"axis": 1}, _zero_muls))
register_op(
    OpSchema(Op.SLICE, 1, 1, {"axis": ..., "start": ..., "end": ...}, _zero_muls)
)
register_op(OpSchema(Op.RESHAPE, 1, 1, {"shape": ...}, _zero_muls))
register_op(OpSchema(Op.FLATTEN, 1, 1, {"axis": 1}, _zero_muls))
register_op(OpSchema(Op.PAD, 1, 1, {"pads": ..., "value": 0.0}, _zero_muls))
register_op(
    OpSchema(Op.RESIZE, 1, 1, {"scale": ..., "mode": "nearest"}, _elementwise_muls)
)
register_op(OpSchema(Op.REDUCE_MEAN, 1, 1, {"axes": ..., "keepdims": True}, _elementwise_muls))
register_op(OpSchema(Op.DROPOUT, 1, 1, {"ratio": 0.5}, _zero_muls))
register_op(OpSchema(Op.IDENTITY, 1, 1, {}, _zero_muls))
register_op(OpSchema(Op.SCALE, 1, 3, {}, _elementwise_muls))
register_op(OpSchema(Op.QUANTIZE, 1, 1, {"scale": ..., "zero_point": 0}, _elementwise_muls))
register_op(OpSchema(Op.DEQUANTIZE, 1, 1, {"scale": ..., "zero_point": 0}, _elementwise_muls))


def _lstm_muls(input_shapes, output_shape, attrs) -> int:
    n, t, features = input_shapes[0]
    hidden = int(attrs["hidden_size"])
    # four gates, each an (features + hidden) x hidden product per step
    return n * t * 4 * hidden * (features + hidden)


register_op(OpSchema(Op.SPLIT, 1, 1, {"axis": 1, "sizes": ...}, _zero_muls))
register_op(OpSchema(Op.TRANSPOSE, 1, 1, {"perm": ...}, _zero_muls))
register_op(OpSchema(Op.GATHER, 2, 2, {"axis": 0}, _zero_muls))
register_op(OpSchema(Op.LAYER_NORM, 3, 3, {"axis": -1, "epsilon": 1e-5}, _elementwise_muls))
register_op(OpSchema(Op.GELU, 1, 1, {}, _elementwise_muls))
register_op(
    OpSchema(
        Op.LSTM,
        3,
        4,
        {"hidden_size": ..., "return_sequences": False},
        _lstm_muls,
        compute_intensive=True,
    )
)


def _attention_muls(input_shapes, output_shape, attrs) -> int:
    n, h, tq, dh = input_shapes[0]
    cached = input_shapes[4][2] if len(input_shapes) >= 5 else 0
    # scores (q . k) plus context (weights . v) per visible key, averaged
    # over the causal ramp: roughly keys_visible = cached + tq/2 per row.
    visible = cached + max(1, tq // 2)
    return n * h * tq * visible * dh * 2


register_op(
    OpSchema(
        Op.ATTENTION,
        # q, k, v [, lengths, k_cache, v_cache]
        3,
        6,
        {"causal": True, "scale": None},
        _attention_muls,
        compute_intensive=True,
    )
)
