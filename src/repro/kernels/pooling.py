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
    """The pooling kernels' temporaries: the padded input, grown on the
    bottom/right when ``ceil_mode`` produced an output larger than the
    exactly-covered input, so every output window lies inside it; then
    max pooling's row maxima, ``(N, C, H', ow)`` for the ``H'`` padded
    rows its windows reach (average pooling carves only the first)."""
    n, c, h, w = x_shape
    top, bottom, left, right = pads
    rows = (out_hw[0] - 1) * stride[0] + kernel[0]
    hp = max(h + top + bottom, rows)
    wp = max(w + left + right, (out_hw[1] - 1) * stride[1] + kernel[1])
    return [((n, c, hp, wp), np.dtype(dtype)), ((n, c, rows, out_hw[1]), np.dtype(dtype))]


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
    (xp,) = carve(scratch, pool_workspace(x.shape, kernel, stride, pads, out_hw, x.dtype)[:1])
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

    Integer inputs pad with the dtype's minimum.  Separable: a running
    ``np.maximum`` over the ``kw`` column-strided slices of the padded
    input gives every reached row's window maxima ``(N, C, H', ow)``,
    then one over that array's ``kh`` row-strided slices gives ``out``
    (fresh when not given).  Each pass keeps the earliest of equal
    values and the first NaN, so the result is bitwise the earliest
    maximum of each window in row-major order, as a sweep over its
    ``kh * kw`` taps would give.  The padded input and the row maxima
    come from ``scratch`` when it is given.
    """
    neg = -np.inf if np.issubdtype(x.dtype, np.floating) else np.iinfo(x.dtype).min
    xp, rows = carve(scratch, pool_workspace(x.shape, kernel, stride, pads, out_hw, x.dtype))
    if xp.shape != x.shape:  # else every window lies inside x: no copy
        x = pad_into(xp, x, (0, 0, pads[0], pads[2]), neg)
    (kh, kw), (sh, sw), (oh, ow) = kernel, stride, out_hw
    h = rows.shape[2]
    _running_max([x[:, :, :h, j : j + (ow - 1) * sw + 1 : sw] for j in range(kw)], rows)
    if out is None:
        out = np.empty((x.shape[0], x.shape[1], oh, ow), dtype=x.dtype)
    return _running_max([rows[:, :, i : i + (oh - 1) * sh + 1 : sh] for i in range(kh)], out)


def _running_max(views: List[np.ndarray], out: np.ndarray) -> np.ndarray:
    """``out`` = ``np.maximum`` folded over ``views`` first to last, which
    keeps the earliest of equal values and the first NaN."""
    if len(views) == 1:
        out[...] = views[0]
    else:
        np.maximum(views[0], views[1], out=out)
    for view in views[2:]:
        np.maximum(out, view, out=out)
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
