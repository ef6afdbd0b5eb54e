"""Convolution kernels: sliding-window (im2col) and 1x1-as-GEMM.

The scheme names follow the paper's convolution scheme pool (Section 3.2):

* ``sliding``  — direct sliding-window convolution, realized as a tap
  gather plus one NCHW GEMM per sample (the vectorized equivalent of
  MNN's NEON sliding kernels).
* ``winograd`` — F(nh x nw, kh x kw) Winograd (see :mod:`repro.kernels.winograd`).
* 1x1 kernels are a plain matrix multiplication and route through Strassen
  (Section 3.3.2) when the size makes it worthwhile.

Which scheme runs is decided by pre-inference (:mod:`repro.core.schemes`);
:func:`repro.backends.op_runners.build_runner` turns that decision into
the runner a session executes, and these functions are its kernels.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from .matmul import GemmStats, strassen_matmul, strassen_recurses
from .workspace import Spec, carve, pad_into

__all__ = [
    "tap_view", "im2col", "im2col_workspace", "conv2d_im2col", "conv2d_1x1",
    "apply_activation",
]


def apply_activation(
    y: np.ndarray, activation: Optional[str], out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Apply a fused activation produced by the graph optimizer.

    ``out=y`` applies it in place (a runner's epilogue on its own result).
    """
    if activation is None:
        return y
    if activation == "relu":
        return np.maximum(y, 0, out=out)
    if activation == "relu6":
        return np.clip(y, 0, 6, out=out)
    raise ValueError(f"unknown fused activation {activation!r}")


def tap_view(
    x: np.ndarray,
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    dilation: Tuple[int, int],
) -> np.ndarray:
    """The conv windows of zero-bordered ``x`` as one read-only strided view.

    Shape ``(N, C, kh, kw, oh, ow)``: tap ``(i, j)`` of a sample is the
    ``(C, oh, ow)`` slice of its input that starts at ``(i*dh, j*dw)`` and
    steps by the stride.  Copying one sample's view gives its tap matrix
    ``(C*kh*kw, oh*ow)``, the right-hand side of an NCHW ``W @ T`` GEMM.
    """
    n, c, h, w = x.shape
    kh, kw = kernel
    sh, sw = stride
    dh, dw = dilation
    oh = (h - (kh - 1) * dh - 1) // sh + 1
    ow = (w - (kw - 1) * dw - 1) // sw + 1
    if oh < 1 or ow < 1:
        raise ValueError(f"{kh}x{kw} window (dilation {dilation}) exceeds input {h}x{w}")
    sn, sc, sy, sx = x.strides
    return np.lib.stride_tricks.as_strided(
        x, (n, c, kh, kw, oh, ow), (sn, sc, sy * dh, sx * dw, sy * sh, sx * sw),
        writeable=False,
    )


def im2col(
    x: np.ndarray,
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    pads: Tuple[int, int, int, int],
    dilation: Tuple[int, int] = (1, 1),
) -> np.ndarray:
    """Unfold conv windows into a matrix.

    Returns an array of shape ``(N, oh, ow, C, kh, kw)`` (a strided view
    reshaped lazily by callers into GEMM operands).
    """
    top, bottom, left, right = pads
    if any(pads):
        x = np.pad(x, ((0, 0), (0, 0), (top, bottom), (left, right)))
    # (N, C, kh, kw, oh, ow) -> (N, oh, ow, C, kh, kw)
    return tap_view(x, kernel, stride, dilation).transpose(0, 4, 5, 1, 2, 3)


def im2col_workspace(
    x_shape: Tuple[int, ...],
    weights_shape: Tuple[int, ...],
    stride: Tuple[int, int],
    pads: Tuple[int, int, int, int],
    dilation: Tuple[int, int] = (1, 1),
    groups: int = 1,
    dtype=np.float32,
) -> List[Spec]:
    """Temporaries of :func:`conv2d_im2col`: one sample's tap matrix
    ``(C, kh, kw, oh*ow)``, and the zero-bordered input when there is
    padding."""
    n, ic, h, w = x_shape
    _, _, kh, kw = weights_shape
    top, bottom, left, right = pads
    hp, wp = h + top + bottom, w + left + right
    oh = (hp - (kh - 1) * dilation[0] - 1) // stride[0] + 1
    ow = (wp - (kw - 1) * dilation[1] - 1) // stride[1] + 1
    specs = [((ic, kh, kw, oh * ow), dtype)]
    if any(pads):
        specs.append(((n, ic, hp, wp), dtype))
    return specs


def conv2d_im2col(
    x: np.ndarray,
    weights: np.ndarray,
    bias: Optional[np.ndarray] = None,
    stride: Tuple[int, int] = (1, 1),
    pads: Tuple[int, int, int, int] = (0, 0, 0, 0),
    dilation: Tuple[int, int] = (1, 1),
    groups: int = 1,
    stats: Optional[GemmStats] = None,
    out: Optional[np.ndarray] = None,
    scratch: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Sliding-window convolution: a tap gather plus one GEMM per sample
    and group.

    Supports arbitrary kernel/stride/dilation/groups — this is the
    universally-applicable scheme the selector falls back to.  Each
    sample's ``kh*kw`` taps are copied into one tap matrix ``T``; each
    group then runs ``W_g(ocg, icg*kh*kw) @ T_g(icg*kh*kw, oh*ow)``
    straight into its channels of ``out`` (fresh when not given), so the
    result is NCHW without a transpose and row ``i`` of a batched call is
    bitwise the single-sample call.  The temporaries of
    :func:`im2col_workspace` come from ``scratch`` when it is given.
    """
    n, ic, _, _ = x.shape
    oc, _, kh, kw = weights.shape
    if ic % groups or oc % groups:
        raise ValueError(f"channels ({ic}, {oc}) not divisible by groups={groups}")
    dtype = np.result_type(x.dtype, weights.dtype)
    taps, *padded = carve(
        scratch, im2col_workspace(x.shape, weights.shape, stride, pads, dilation, groups, dtype)
    )
    if padded:
        top, _, left, _ = pads
        x = pad_into(padded[0], x, (0, 0, top, left))
    windows = tap_view(x, (kh, kw), stride, dilation)
    oh, ow = windows.shape[4:]
    icg, ocg = ic // groups, oc // groups
    k, p = icg * kh * kw, oh * ow
    # A reshape view of the constant: no per-call copy of the weights.
    w2d = weights.reshape(groups, ocg, k)
    t2d = taps.reshape(groups, k, p)
    t5d = taps.reshape(windows.shape[1:])
    if out is None:
        out = np.empty((n, oc, oh, ow), dtype=dtype)
    for window, y in zip(windows, out):
        t5d[...] = window
        y = y.reshape(groups, ocg, p)
        for g in range(groups):
            np.matmul(w2d[g], t2d[g], out=y[g])
            if stats is not None:
                stats.record_base(ocg, k, p)
    if bias is not None:
        out += bias.reshape(1, -1, 1, 1)
    return out


def conv2d_1x1(
    x: np.ndarray,
    weights: np.ndarray,
    bias: Optional[np.ndarray] = None,
    stride: Tuple[int, int] = (1, 1),
    use_strassen: bool = True,
    stats: Optional[GemmStats] = None,
    pads: Tuple[int, int, int, int] = (0, 0, 0, 0),
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """1x1 convolution as a GEMM, on Strassen where Eq. 9 pays (Section 3.3.2).

    Computed straight in NCHW: each sample is ``W(oc, ic) @ X(ic, h*w)``,
    so neither the activation, the weights nor the result is transposed.
    Eq. 9 and the tile count are symmetric in the outer dimensions, so the
    Strassen decision and :class:`GemmStats` match the NHWC orientation
    ``X^T @ W^T``.  Where Strassen would recurse (only with
    ``use_strassen``), each sample runs :func:`strassen_matmul`; everywhere
    else it is one BLAS call, and ``stats`` counts the base tiles the
    tiled substrate would issue.  The direct product differs from the
    tiled one by rounding only: BLAS may sum a whole row and a 256-wide
    tile in different orders.  One GEMM per sample makes row ``i`` of a
    batched call bitwise equal to the single-sample call.  Each sample's GEMM
    writes straight into its plane of ``out`` (fresh when not given).

    ``weights`` is ``(oc, ic, 1, 1)`` or its ``(oc, ic)`` reshape, which a
    runner binds once as a view of the graph constant.  ``pads`` (top,
    bottom, left, right) zero-pads the input before the stride is applied,
    as for every other scheme.
    """
    if weights.shape[2:] not in ((), (1, 1)) or weights.ndim not in (2, 4):
        raise ValueError(f"conv2d_1x1 needs a 1x1 kernel, got {weights.shape}")
    if any(pads):
        top, bottom, left, right = pads
        x = np.pad(x, ((0, 0), (0, 0), (top, bottom), (left, right)))
    if stride != (1, 1):
        x = x[:, :, :: stride[0], :: stride[1]]
    n, ic, h, w = x.shape
    oc = weights.shape[0]
    w2d = weights.reshape(oc, ic)
    if out is None:
        out = np.empty((n, oc, h, w), dtype=np.result_type(x.dtype, weights.dtype))
    strassen = use_strassen and strassen_recurses(oc, ic, h * w)
    for xi, yi in zip(x, out):
        xi, yi = xi.reshape(ic, h * w), yi.reshape(oc, h * w)
        if strassen:
            strassen_matmul(w2d, xi, stats=stats, out=yi)
        else:
            np.matmul(w2d, xi, out=yi)
            if stats is not None:
                stats.record_tiles(oc, ic, h * w)
    if bias is not None:
        out += bias.reshape(1, -1, 1, 1)
    return out
