"""Int8 quantized convolution (the converter's model-compression path).

Symmetric linear quantization: activations use one scale per tensor,
weights one scale per output channel.  Accumulation is exact integer
arithmetic through BLAS (:func:`repro.kernels.qgemm.exact_int_gemm`) —
the same contract as MNN's int8 kernels — and the result is dequantized
back to float32.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .conv import tap_view
from .qgemm import exact_int_gemm

__all__ = ["quantize_float", "quantize_weights_per_channel", "qconv2d"]


def quantize_float(x: np.ndarray, scale: float) -> np.ndarray:
    """Symmetric int8 codes (zero point 0), float-held for the exact GEMM."""
    if scale <= 0:
        raise ValueError(f"quantization scale must be positive, got {scale}")
    return np.clip(np.round(x / scale), -127, 127)


def quantize_weights_per_channel(
    weights: np.ndarray, axis: int = 0
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-output-channel symmetric int8 quantization of GEMM weights.

    Channel ``c`` gets the float32 scale ``max|w_c| / 127`` (1.0 for an
    all-zero channel) and codes ``rint(w / scale)`` clipped to ±127.

    Args:
        weights: float weights of any rank: a conv kernel (oc, ic, kh, kw),
            an FC matrix (oc, ic) or a MatMul ``B`` (its output channels on
            axis 1, or on axis 0 under ``transpose_b``).
        axis: the output-channel axis.

    Returns:
        (int8 weights, per-channel float32 scales of shape (weights.shape[axis],)).
    """
    others = tuple(a for a in range(weights.ndim) if a != axis)
    max_abs = np.abs(weights).max(axis=others)
    scales = np.where(max_abs > 0, max_abs / 127.0, 1.0).astype(np.float32)
    shape = [1] * weights.ndim
    shape[axis] = -1
    q = np.clip(np.rint(weights / scales.reshape(shape)), -127, 127).astype(np.int8)
    return q, scales


def qconv2d(
    x: np.ndarray,
    weights_q: np.ndarray,
    weight_scales: np.ndarray,
    input_scale: float,
    bias: Optional[np.ndarray] = None,
    stride: Tuple[int, int] = (1, 1),
    pads: Tuple[int, int, int, int] = (0, 0, 0, 0),
    dilation: Tuple[int, int] = (1, 1),
    groups: int = 1,
) -> np.ndarray:
    """Quantized conv over int8 (or ``prepack_int8``-ed) weights: exact
    integer accumulation at depth ``icg * kh * kw``, float32 output.

    The unfold is the sliding-window kernel's: each sample's taps are
    gathered into one tap matrix ``T`` and each group runs
    ``W_g(ocg, icg*kh*kw) @ T_g`` straight into its NCHW channels.
    """
    n, ic = x.shape[:2]
    oc, _, kh, kw = weights_q.shape
    top, bottom, left, right = pads
    xq = quantize_float(x, input_scale)
    if any(pads):
        xq = np.pad(xq, ((0, 0), (0, 0), (top, bottom), (left, right)))
    windows = tap_view(xq, (kh, kw), stride, dilation)  # (N, C, kh, kw, oh, ow)
    oh, ow = windows.shape[4:]
    icg, ocg = ic // groups, oc // groups
    k, p = icg * kh * kw, oh * ow
    w2d = weights_q.reshape(groups, ocg, k)
    taps = np.empty(windows.shape[1:], xq.dtype)
    t2d = taps.reshape(groups, k, p)
    out = np.empty((n, oc, oh, ow), dtype=np.float32)
    for window, y in zip(windows, out):
        taps[...] = window
        y = y.reshape(groups, ocg, p)
        for g in range(groups):
            y[g] = exact_int_gemm(w2d[g], t2d[g])
    out *= input_scale * weight_scales.reshape(1, -1, 1, 1)
    if bias is not None:
        out += bias.reshape(1, -1, 1, 1)
    return out
