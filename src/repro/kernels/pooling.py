"""Pooling kernels: max, average and global-average pooling."""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from .workspace import Spec, carve, pad_into

__all__ = ["max_pool2d", "avg_pool2d", "pool_counts", "pool_workspace", "global_avg_pool2d"]


def pool_workspace(
    x_shape: Tuple[int, ...],
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    pads: Tuple[int, int, int, int],
    out_hw: Tuple[int, int],
    dtype=np.float32,
) -> List[Spec]:
    """The one temporary of the pooling kernels: the padded input, grown
    on the bottom/right when ``ceil_mode`` produced an output larger than
    the exactly-covered input, so every output window lies inside it."""
    n, c, h, w = x_shape
    top, bottom, left, right = pads
    hp = max(h + top + bottom, (out_hw[0] - 1) * stride[0] + kernel[0])
    wp = max(w + left + right, (out_hw[1] - 1) * stride[1] + kernel[1])
    return [((n, c, hp, wp), np.dtype(dtype))]


def _pad_for_pool(
    x: np.ndarray,
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    pads: Tuple[int, int, int, int],
    out_hw: Tuple[int, int],
    pad_value: float,
    scratch: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``x`` padded with ``pad_value`` into :func:`pool_workspace`'s buffer."""
    (xp,) = carve(scratch, pool_workspace(x.shape, kernel, stride, pads, out_hw, x.dtype))
    return pad_into(xp, x, (0, 0, pads[0], pads[2]), pad_value)


def _pool_windows(
    x: np.ndarray,
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    pads: Tuple[int, int, int, int],
    out_hw: Tuple[int, int],
    pad_value: float,
    scratch: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Extract (N, C, oh, ow, kh, kw) pooling windows, padding with ``pad_value``."""
    xp = _pad_for_pool(x, kernel, stride, pads, out_hw, pad_value, scratch)
    windows = np.lib.stride_tricks.sliding_window_view(xp, kernel, axis=(2, 3))
    return windows[:, :, :: stride[0], :: stride[1]][:, :, : out_hw[0], : out_hw[1]]


def max_pool2d(
    x: np.ndarray,
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    pads: Tuple[int, int, int, int],
    out_hw: Tuple[int, int],
    out: Optional[np.ndarray] = None,
    scratch: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Max pooling; padding contributes -inf so it never wins.

    Integer inputs pad with the dtype's minimum.  The result is a running
    ``np.maximum`` over the ``kh * kw`` strided tap slices, each an
    ``(N, C, oh, ow)`` view of the padded input, into ``out`` (fresh when
    not given); max is exact, so this equals reducing every window.  The
    padded input comes from ``scratch`` when it is given.
    """
    neg = -np.inf if np.issubdtype(x.dtype, np.floating) else np.iinfo(x.dtype).min
    xp = _pad_for_pool(x, kernel, stride, pads, out_hw, neg, scratch)
    (kh, kw), (sh, sw), (oh, ow) = kernel, stride, out_hw
    taps = (
        xp[:, :, i : i + (oh - 1) * sh + 1 : sh, j : j + (ow - 1) * sw + 1 : sw]
        for i in range(kh)
        for j in range(kw)
    )
    if out is None:
        out = np.empty((x.shape[0], x.shape[1], oh, ow), dtype=x.dtype)
    out[...] = next(taps)
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
    out: Optional[np.ndarray] = None,
    scratch: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Average pooling.

    With ``count_include_pad=False`` (the common convention) border windows
    divide by the number of *real* elements they cover: ``counts``, as
    computed by :func:`pool_counts`, or derived here when not given.  The
    window sums land in ``out`` (fresh when not given) and are divided in
    place; the padded input comes from ``scratch`` when it is given.
    """
    windows = _pool_windows(x, kernel, stride, pads, out_hw, 0.0, scratch)
    sums = windows.sum(axis=(4, 5), out=out)
    if count_include_pad:
        return np.divide(sums, kernel[0] * kernel[1], out=sums)
    if counts is None:
        counts = pool_counts(x.shape[2:], kernel, stride, pads, out_hw, x.dtype)
    return np.divide(sums, counts, out=sums)


def global_avg_pool2d(x: np.ndarray) -> np.ndarray:
    """Global average pooling to (N, C, 1, 1)."""
    return x.mean(axis=(2, 3), keepdims=True)
