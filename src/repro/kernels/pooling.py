"""Pooling kernels: max, average and global-average pooling."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = ["max_pool2d", "avg_pool2d", "pool_counts", "global_avg_pool2d"]


def _pad_for_pool(
    x: np.ndarray,
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    pads: Tuple[int, int, int, int],
    out_hw: Tuple[int, int],
    pad_value: float,
) -> np.ndarray:
    """Pad ``x`` with ``pad_value`` so every output window lies inside it.

    The padded extent is grown on the bottom/right if ``ceil_mode`` produced
    an output larger than the exactly-covered input.
    """
    kh, kw = kernel
    sh, sw = stride
    top, bottom, left, right = pads
    oh, ow = out_hw
    need_h = (oh - 1) * sh + kh
    need_w = (ow - 1) * sw + kw
    grow_h = max(0, need_h - (x.shape[2] + top + bottom))
    grow_w = max(0, need_w - (x.shape[3] + left + right))
    return np.pad(
        x,
        ((0, 0), (0, 0), (top, bottom + grow_h), (left, right + grow_w)),
        constant_values=pad_value,
    )


def _pool_windows(
    x: np.ndarray,
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    pads: Tuple[int, int, int, int],
    out_hw: Tuple[int, int],
    pad_value: float,
) -> np.ndarray:
    """Extract (N, C, oh, ow, kh, kw) pooling windows, padding with ``pad_value``."""
    xp = _pad_for_pool(x, kernel, stride, pads, out_hw, pad_value)
    windows = np.lib.stride_tricks.sliding_window_view(xp, kernel, axis=(2, 3))
    return windows[:, :, :: stride[0], :: stride[1]][:, :, : out_hw[0], : out_hw[1]]


def max_pool2d(
    x: np.ndarray,
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    pads: Tuple[int, int, int, int],
    out_hw: Tuple[int, int],
) -> np.ndarray:
    """Max pooling; padding contributes -inf so it never wins.

    Integer inputs pad with the dtype's minimum.  The result is a running
    ``np.maximum`` over the ``kh * kw`` strided tap slices, each an
    ``(N, C, oh, ow)`` view of the padded input; max is exact, so this
    equals reducing every window.
    """
    neg = -np.inf if np.issubdtype(x.dtype, np.floating) else np.iinfo(x.dtype).min
    xp = _pad_for_pool(x, kernel, stride, pads, out_hw, neg)
    (kh, kw), (sh, sw), (oh, ow) = kernel, stride, out_hw
    taps = (
        xp[:, :, i : i + (oh - 1) * sh + 1 : sh, j : j + (ow - 1) * sw + 1 : sw]
        for i in range(kh)
        for j in range(kw)
    )
    out = next(taps).copy()
    for tap in taps:
        np.maximum(out, tap, out=out)
    return out


def pool_counts(
    in_hw: Tuple[int, int],
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    pads: Tuple[int, int, int, int],
    out_hw: Tuple[int, int],
    dtype=np.float32,
) -> np.ndarray:
    """(1, 1, oh, ow) count of *real* input elements under each window.

    The divisor of ``avg_pool2d(count_include_pad=False)``; it depends on
    static shapes only, so a runner computes it once.
    """
    ones = np.ones((1, 1, *in_hw), dtype=dtype)
    return _pool_windows(ones, kernel, stride, pads, out_hw, 0.0).sum(axis=(4, 5))


def avg_pool2d(
    x: np.ndarray,
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    pads: Tuple[int, int, int, int],
    out_hw: Tuple[int, int],
    count_include_pad: bool = False,
    counts: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Average pooling.

    With ``count_include_pad=False`` (the common convention) border windows
    divide by the number of *real* elements they cover: ``counts``, as
    computed by :func:`pool_counts`, or derived here when not given.
    """
    windows = _pool_windows(x, kernel, stride, pads, out_hw, 0.0)
    sums = windows.sum(axis=(4, 5))
    if count_include_pad:
        return sums / (kernel[0] * kernel[1])
    if counts is None:
        counts = pool_counts(x.shape[2:], kernel, stride, pads, out_hw, x.dtype)
    return sums / counts


def global_avg_pool2d(x: np.ndarray) -> np.ndarray:
    """Global average pooling to (N, C, 1, 1)."""
    return x.mean(axis=(2, 3), keepdims=True)
