"""Remaining kernels: fully-connected, deconvolution, resize, padding, reduce."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .matmul import GemmStats

__all__ = ["fully_connected", "conv_transpose2d", "resize2d", "pad_nd", "reduce_mean"]


def fully_connected(
    x: np.ndarray,
    weights: np.ndarray,
    bias: Optional[np.ndarray] = None,
    stats: Optional[GemmStats] = None,
) -> np.ndarray:
    """FC layer: flatten trailing dims, then ``x @ W^T + b``.

    ``W^T`` is a view that BLAS reads through its transpose flag, so the
    weights are copied neither per call nor when a runner is built.  Each
    row is one BLAS call written straight into its row of the result: BLAS
    sums a 1-row and an n-row product in different orders, and row ``i``
    of a batch must be bitwise the single-sample call (as in
    :func:`~repro.kernels.conv.conv2d_1x1`).  A one-row product is below
    Eq. 9's reach, so FC never runs Strassen; ``stats`` counts the base
    tiles the tiled substrate would issue for it.

    Args:
        x: (N, ...) input, flattened to (N, in_features).
        weights: (units, in_features).
    """
    x2d = x.reshape(x.shape[0], -1)
    units, features = weights.shape
    out = np.empty((x2d.shape[0], units), dtype=np.result_type(x.dtype, weights.dtype))
    for row, y in zip(x2d, out):
        np.matmul(row[None], weights.T, out=y[None])
        if stats is not None:
            stats.record_tiles(1, features, units)
    if bias is not None:
        out += bias
    return out


def conv_transpose2d(
    x: np.ndarray,
    weights: np.ndarray,
    bias: Optional[np.ndarray] = None,
    stride: Tuple[int, int] = (1, 1),
    pads: Tuple[int, int, int, int] = (0, 0, 0, 0),
    output_padding: Tuple[int, int] = (0, 0),
) -> np.ndarray:
    """Transposed convolution (deconvolution) by input scattering.

    Args:
        x: (N, ic, H, W) input.
        weights: (ic, oc, kh, kw) kernel (note the transposed channel order).
    """
    n, ic, ih, iw = x.shape
    _, oc, kh, kw = weights.shape
    sh, sw = stride
    top, bottom, left, right = pads
    oph, opw = output_padding
    full_h = (ih - 1) * sh + kh
    full_w = (iw - 1) * sw + kw
    # Accumulate each kernel tap over the strided output canvas.
    canvas = np.zeros((n, oc, full_h, full_w), dtype=np.result_type(x.dtype, weights.dtype))
    contrib = np.tensordot(x, weights, axes=([1], [0]))  # (N, H, W, oc, kh, kw)
    for i in range(kh):
        for j in range(kw):
            canvas[:, :, i : i + (ih - 1) * sh + 1 : sh, j : j + (iw - 1) * sw + 1 : sw] += (
                contrib[:, :, :, :, i, j].transpose(0, 3, 1, 2)
            )
    oh = full_h - top - bottom + oph
    ow = full_w - left - right + opw
    out = np.zeros((n, oc, oh, ow), dtype=canvas.dtype)
    crop = canvas[:, :, top : top + oh, left : left + ow]
    out[:, :, : crop.shape[2], : crop.shape[3]] = crop
    if bias is not None:
        out += bias.reshape(1, -1, 1, 1)
    return out


def resize2d(x: np.ndarray, scale: Tuple[int, int], mode: str = "nearest") -> np.ndarray:
    """Integer-factor spatial upsampling (nearest or bilinear)."""
    sh, sw = int(scale[0]), int(scale[1])
    if mode == "nearest":
        return np.repeat(np.repeat(x, sh, axis=2), sw, axis=3)
    if mode == "bilinear":
        n, c, h, w = x.shape
        oh, ow = h * sh, w * sw
        # align_corners=False sampling grid
        ys = (np.arange(oh) + 0.5) / sh - 0.5
        xs = (np.arange(ow) + 0.5) / sw - 0.5
        y0 = np.clip(np.floor(ys).astype(int), 0, h - 1)
        y1 = np.clip(y0 + 1, 0, h - 1)
        x0 = np.clip(np.floor(xs).astype(int), 0, w - 1)
        x1 = np.clip(x0 + 1, 0, w - 1)
        wy = np.clip(ys - y0, 0, 1).reshape(1, 1, -1, 1)
        wx = np.clip(xs - x0, 0, 1).reshape(1, 1, 1, -1)
        top = x[:, :, y0][:, :, :, x0] * (1 - wx) + x[:, :, y0][:, :, :, x1] * wx
        bot = x[:, :, y1][:, :, :, x0] * (1 - wx) + x[:, :, y1][:, :, :, x1] * wx
        return (top * (1 - wy) + bot * wy).astype(x.dtype, copy=False)
    raise ValueError(f"unknown resize mode {mode!r}")


def pad_nd(x: np.ndarray, pads, value: float = 0.0) -> np.ndarray:
    """N-d constant padding; ``pads`` is flat (before_0, after_0, before_1, ...)."""
    if len(pads) != 2 * x.ndim:
        raise ValueError(f"pads length {len(pads)} != 2 * rank {x.ndim}")
    width = [(pads[2 * i], pads[2 * i + 1]) for i in range(x.ndim)]
    return np.pad(x, width, constant_values=value)


def reduce_mean(x: np.ndarray, axes, keepdims: bool = True) -> np.ndarray:
    return x.mean(axis=tuple(axes), keepdims=keepdims)
