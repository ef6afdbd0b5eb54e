"""Optimized compute kernels (the paper's Section 3.3)."""

import numpy as _np

from .layout import conv2d_1x1_packed, pack_nc4hw4, packed_shape, unpack_nc4hw4
from .matmul import (
    DEFAULT_TILE,
    GemmStats,
    matmul,
    strassen_matmul,
    strassen_should_recurse,
    tiled_matmul,
)
from .winograd import (
    WinogradTransforms,
    generate_transforms,
    interpolation_points,
    transform_kernel,
    winograd_conv2d,
    winograd_conv2d_rect,
    winograd_conv2d_with_kernel,
)
from .conv import apply_activation, conv2d, conv2d_1x1, conv2d_im2col, im2col
from .depthwise import depthwise_conv2d
from .pooling import avg_pool2d, global_avg_pool2d, max_pool2d
from .elementwise import (
    add,
    batch_norm,
    eltwise_max,
    mul,
    prelu,
    relu,
    relu6,
    scale,
    sigmoid,
    softmax,
    sub,
    tanh,
)
from .misc import conv_transpose2d, fully_connected, pad_nd, reduce_mean, resize2d
from .sequence import attention, attention_step, gelu, layer_norm, layer_norm_bound, lstm_forward
from .qgemm import (
    exact_int_gemm,
    prepack_int8,
    qmatmul,
    quantize_rowwise,
    quantize_symmetric,
)
from .quantized import (
    qconv2d,
    quantize_float,
    quantize_tensor,
    quantize_weights_per_channel,
)


def nonfinite_count(arrays) -> int:
    """Total NaN/Inf elements across ``arrays`` (the numeric-guard test).

    Fast-path: integer/bool arrays cannot hold non-finite values and are
    skipped without a scan.
    """
    total = 0
    for arr in arrays:
        if arr is None or not _np.issubdtype(arr.dtype, _np.floating):
            continue
        total += int(arr.size - _np.count_nonzero(_np.isfinite(arr)))
    return total


__all__ = [
    "nonfinite_count",
    "conv2d_1x1_packed",
    "pack_nc4hw4",
    "packed_shape",
    "unpack_nc4hw4",
    "DEFAULT_TILE",
    "GemmStats",
    "matmul",
    "strassen_matmul",
    "strassen_should_recurse",
    "tiled_matmul",
    "WinogradTransforms",
    "generate_transforms",
    "interpolation_points",
    "transform_kernel",
    "winograd_conv2d",
    "winograd_conv2d_rect",
    "winograd_conv2d_with_kernel",
    "apply_activation",
    "conv2d",
    "conv2d_1x1",
    "conv2d_im2col",
    "im2col",
    "depthwise_conv2d",
    "avg_pool2d",
    "global_avg_pool2d",
    "max_pool2d",
    "add",
    "batch_norm",
    "eltwise_max",
    "mul",
    "prelu",
    "relu",
    "relu6",
    "scale",
    "sigmoid",
    "softmax",
    "sub",
    "tanh",
    "conv_transpose2d",
    "fully_connected",
    "pad_nd",
    "reduce_mean",
    "resize2d",
    "attention",
    "attention_step",
    "gelu",
    "layer_norm",
    "layer_norm_bound",
    "lstm_forward",
    "exact_int_gemm",
    "prepack_int8",
    "qconv2d",
    "qmatmul",
    "quantize_float",
    "quantize_rowwise",
    "quantize_symmetric",
    "quantize_tensor",
    "quantize_weights_per_channel",
]
