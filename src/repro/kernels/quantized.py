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

from .conv import im2col
from .qgemm import exact_int_gemm

__all__ = ["quantize_float", "quantize_tensor", "quantize_weights_per_channel", "qconv2d"]


def quantize_float(x: np.ndarray, scale: float) -> np.ndarray:
    """Symmetric int8 codes (zero point 0), float-held for the exact GEMM."""
    if scale <= 0:
        raise ValueError(f"quantization scale must be positive, got {scale}")
    return np.clip(np.round(x / scale), -127, 127)


def quantize_tensor(x: np.ndarray, scale: float) -> np.ndarray:
    """Quantize to int8 with a symmetric scale (zero point 0)."""
    return quantize_float(x, scale).astype(np.int8)


def quantize_weights_per_channel(weights: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-output-channel symmetric int8 quantization of conv weights.

    Args:
        weights: (oc, ic, kh, kw) float kernel.

    Returns:
        (int8 weights, per-channel float scales of shape (oc,)).
    """
    oc = weights.shape[0]
    flat = np.abs(weights.reshape(oc, -1))
    max_abs = flat.max(axis=1)
    scales = np.where(max_abs > 0, max_abs / 127.0, 1.0).astype(np.float32)
    q = np.clip(np.round(weights / scales.reshape(-1, 1, 1, 1)), -127, 127).astype(np.int8)
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
    integer accumulation at depth ``icg * kh * kw``, float32 output."""
    n, ic = x.shape[:2]
    oc = weights_q.shape[0]
    kh, kw = weights_q.shape[2], weights_q.shape[3]
    cols = im2col(quantize_float(x, input_scale), (kh, kw), stride, pads, dilation)
    _, oh, ow, _, _, _ = cols.shape  # (N, oh, ow, C, kh, kw)
    icg, ocg = ic // groups, oc // groups
    out = np.empty((n, oc, oh, ow), dtype=np.float32)
    for g in range(groups):
        lhs = np.ascontiguousarray(
            cols[:, :, :, g * icg : (g + 1) * icg]
        ).reshape(n * oh * ow, icg * kh * kw)
        rhs = weights_q[g * ocg : (g + 1) * ocg].reshape(ocg, icg * kh * kw).T
        prod = exact_int_gemm(lhs, rhs)
        out[:, g * ocg : (g + 1) * ocg] = prod.reshape(n, oh, ow, ocg).transpose(0, 3, 1, 2)
    out *= input_scale * weight_scales.reshape(1, -1, 1, 1)
    if bias is not None:
        out += bias.reshape(1, -1, 1, 1)
    return out
