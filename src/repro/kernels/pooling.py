"""Pooling kernels: max, average and global-average pooling."""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from .workspace import Spec, bind_pad, carve

__all__ = [
    "bind_max_pool2d", "max_pool2d", "bind_avg_pool2d", "avg_pool2d", "pool_counts",
    "pool_workspace", "global_avg_pool2d",
]


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


def _pool_windows(
    xp: np.ndarray, kernel: Tuple[int, int], stride: Tuple[int, int], out_hw: Tuple[int, int],
) -> np.ndarray:
    """The (N, C, oh, ow, kh, kw) pooling windows of a padded input."""
    windows = np.lib.stride_tricks.sliding_window_view(xp, kernel, axis=(2, 3))
    return windows[:, :, :: stride[0], :: stride[1]][:, :, : out_hw[0], : out_hw[1]]


def bind_max_pool2d(
    x_shape: Tuple[int, ...],
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    pads: Tuple[int, int, int, int],
    out_hw: Tuple[int, int],
    dtype=np.float32,
    out: Optional[np.ndarray] = None,
    scratch: Optional[np.ndarray] = None,
) -> Callable[[np.ndarray], np.ndarray]:
    """Bind :func:`max_pool2d` for an ``x_shape`` input: carve the padded
    input and the row maxima from ``scratch`` (fresh when ``None``) and
    build the ``kw`` column-strided slices of the padded input and the
    ``kh`` row-strided slices of the row maxima.  Returns the run step
    ``run(x)``, which writes into ``out`` (a fresh array per call when
    ``None``); when every window lies inside the input, a run slices its
    live input instead of padding it."""
    dtype = np.dtype(dtype)
    neg = -np.inf if np.issubdtype(dtype, np.floating) else np.iinfo(dtype).min
    xp, rows = carve(scratch, pool_workspace(x_shape, kernel, stride, pads, out_hw, dtype))
    (kh, kw), (sh, sw), (oh, ow) = kernel, stride, out_hw
    h = rows.shape[2]

    def columns(src: np.ndarray) -> List[np.ndarray]:
        return [src[:, :, :h, j : j + (ow - 1) * sw + 1 : sw] for j in range(kw)]

    pad = bound = None
    if xp.shape != tuple(x_shape):  # else every window lies inside x: no copy
        pad = bind_pad(xp, x_shape, (0, 0, pads[0], pads[2]), neg)
        bound = columns(xp)
    row_views = [rows[:, :, i : i + (oh - 1) * sh + 1 : sh] for i in range(kh)]

    def run(x: np.ndarray) -> np.ndarray:
        if pad is not None:
            pad(x)
            _running_max(bound, rows)
        else:
            _running_max(columns(x), rows)
        y = np.empty((x_shape[0], x_shape[1], oh, ow), dtype=dtype) if out is None else out
        return _running_max(row_views, y)

    return run


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
    come from ``scratch`` when it is given.  :func:`bind_max_pool2d`
    once, then its run step once.
    """
    return bind_max_pool2d(x.shape, kernel, stride, pads, out_hw, x.dtype, out, scratch)(x)


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
    x_shape = (1, 1) + tuple(in_hw)
    (xp,) = carve(None, pool_workspace(x_shape, kernel, stride, pads, out_hw, dtype)[:1])
    bind_pad(xp, x_shape, (0, 0, pads[0], pads[2]))(np.ones(x_shape, dtype=dtype))
    return _pool_windows(xp, kernel, stride, out_hw).sum(axis=(4, 5))


def bind_avg_pool2d(
    x_shape: Tuple[int, ...],
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    pads: Tuple[int, int, int, int],
    out_hw: Tuple[int, int],
    count_include_pad: bool = False,
    counts: Optional[np.ndarray] = None,
    dtype=np.float32,
    out: Optional[np.ndarray] = None,
    scratch: Optional[np.ndarray] = None,
) -> Callable[[np.ndarray], np.ndarray]:
    """Bind :func:`avg_pool2d` for an ``x_shape`` input: carve the padded
    input from ``scratch`` (fresh when ``None``), build its windows and
    fix the divisor (``counts`` derived here when not given).  Returns
    the run step ``run(x)``, which writes into ``out`` (a fresh array per
    call when ``None``)."""
    (xp,) = carve(scratch, pool_workspace(x_shape, kernel, stride, pads, out_hw, dtype)[:1])
    pad = bind_pad(xp, x_shape, (0, 0, pads[0], pads[2]), 0.0)
    windows = _pool_windows(xp, kernel, stride, out_hw)
    if count_include_pad:
        divisor = kernel[0] * kernel[1]
    elif counts is None:
        divisor = pool_counts(x_shape[2:], kernel, stride, pads, out_hw, dtype)
    else:
        divisor = counts

    def run(x: np.ndarray) -> np.ndarray:
        pad(x)
        sums = windows.sum(axis=(4, 5), out=out)
        return np.divide(sums, divisor, out=sums)

    return run


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
    :func:`bind_avg_pool2d` once, then its run step once.
    """
    return bind_avg_pool2d(x.shape, kernel, stride, pads, out_hw, count_include_pad, counts,
                           x.dtype, out, scratch)(x)


def global_avg_pool2d(x: np.ndarray) -> np.ndarray:
    """Global average pooling to (N, C, 1, 1)."""
    return x.mean(axis=(2, 3), keepdims=True)
