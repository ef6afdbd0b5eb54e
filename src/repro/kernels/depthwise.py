"""Depthwise convolution kernel.

Depthwise conv applies one k x k filter per channel.  It is memory-bound, so
no Winograd/Strassen variant exists in MNN's scheme pool either; the kernel
is a direct vectorized sweep over the (small) kernel window.  It runs
channels-last (NCHW in, transposed back out), with the taps packed to
match: each tap is repeated along the output width once at build time, so
a stride-1 tap's multiply-add streams over a whole contiguous ``ow * C``
output row instead of NCHW planes a few elements wide or a ``C``-long
channel run.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from .workspace import Spec, carve, pad_into

__all__ = [
    "depthwise_conv2d", "depthwise_conv2d_packed", "depthwise_workspace",
    "pack_depthwise_weights",
]


def pack_depthwise_weights(weights: np.ndarray, ow: int = 1) -> np.ndarray:
    """(C, 1, kh, kw) per-channel filters -> contiguous (kh, kw, ow, C) taps.

    Each tap's ``C`` values are repeated ``ow`` times, one per output
    column, so :func:`depthwise_conv2d_packed` multiplies whole output rows
    by one contiguous operand; ``ow = 1`` broadcasts along the row instead.
    """
    if weights.ndim != 4 or weights.shape[1] != 1:
        raise ValueError(f"depthwise weights {weights.shape} are not (C, 1, kh, kw)")
    return np.repeat(weights[:, 0].transpose(1, 2, 0)[:, :, None], ow, axis=2)


def depthwise_workspace(
    x_shape: Tuple[int, ...],
    kernel: Tuple[int, int],
    stride: Tuple[int, int] = (1, 1),
    pads: Tuple[int, int, int, int] = (0, 0, 0, 0),
    dilation: Tuple[int, int] = (1, 1),
    dtype=np.float32,
) -> List[Spec]:
    """Temporaries of :func:`depthwise_conv2d_packed`: the zero-bordered
    (N, H', W', C) input, the accumulator and the product buffer."""
    n, c, h, w = x_shape
    top, bottom, left, right = pads
    hp, wp = h + top + bottom, w + left + right
    oh = (hp - (kernel[0] - 1) * dilation[0] - 1) // stride[0] + 1
    ow = (wp - (kernel[1] - 1) * dilation[1] - 1) // stride[1] + 1
    dtype = np.dtype(dtype)
    return [((n, hp, wp, c), dtype), ((n, oh, ow, c), dtype), ((n, oh, ow, c), dtype)]


def depthwise_conv2d_packed(
    x: np.ndarray,
    packed: np.ndarray,
    bias: Optional[np.ndarray] = None,
    stride: Tuple[int, int] = (1, 1),
    pads: Tuple[int, int, int, int] = (0, 0, 0, 0),
    dilation: Tuple[int, int] = (1, 1),
    out: Optional[np.ndarray] = None,
    scratch: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Depthwise convolution with taps from :func:`pack_depthwise_weights`.

    The input is copied once into a zero-bordered (N, H', W', C) buffer;
    the kh*kw taps multiply-add over whole (ow, C) output rows in row-major
    tap order through one reused product buffer (taps packed for the
    output width ``ow`` make the rows one contiguous loop; taps packed
    with ``ow = 1`` broadcast), the bias is added last, and the
    result is transposed once back to NCHW into ``out`` (fresh when not
    given).  Each output element sees the same float operations in the
    same order as an NCHW tap sweep, so the result is bitwise equal to it.
    The temporaries of :func:`depthwise_workspace` come from ``scratch``
    when it is given.
    """
    n, c, h, w = x.shape
    kh, kw, pw, pc = packed.shape
    if pc != c:
        raise ValueError(f"depthwise weights for {pc} channels do not match {c} channels")
    sh, sw = stride
    dh, dw = dilation
    top, _, left, _ = pads
    dtype = np.result_type(x.dtype, packed.dtype)
    xp, acc, prod = carve(
        scratch, depthwise_workspace(x.shape, (kh, kw), stride, pads, dilation, dtype)
    )
    pad_into(xp, x.transpose(0, 2, 3, 1), (0, top, left, 0))
    _, oh, ow, _ = acc.shape
    if pw not in (1, ow):
        raise ValueError(f"depthwise taps packed for width {pw} do not match width {ow}")
    acc[...] = 0
    for i in range(kh):
        for j in range(kw):
            di, dj = i * dh, j * dw
            patch = xp[:, di : di + (oh - 1) * sh + 1 : sh, dj : dj + (ow - 1) * sw + 1 : sw]
            np.multiply(patch, packed[i, j], out=prod)
            acc += prod
    if bias is not None:
        acc += bias
    if out is None:
        out = np.empty((n, c, oh, ow), dtype=dtype)
    out[...] = acc.transpose(0, 3, 1, 2)
    return out


def depthwise_conv2d(
    x: np.ndarray,
    weights: np.ndarray,
    bias: Optional[np.ndarray] = None,
    stride: Tuple[int, int] = (1, 1),
    pads: Tuple[int, int, int, int] = (0, 0, 0, 0),
    dilation: Tuple[int, int] = (1, 1),
) -> np.ndarray:
    """Depthwise convolution.

    Args:
        x: (N, C, H, W) input.
        weights: (C, 1, kh, kw) per-channel filters.
        bias: optional (C,) bias.
    """
    return depthwise_conv2d_packed(x, pack_depthwise_weights(weights), bias, stride, pads, dilation)
