"""Elementwise, activation and normalization kernels."""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = [
    "relu",
    "relu6",
    "prelu",
    "sigmoid",
    "tanh",
    "softmax",
    "batch_norm",
    "add",
    "sub",
    "mul",
    "eltwise_max",
    "scale",
]


def relu(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    return np.maximum(x, 0, out=out)


def relu6(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    return np.clip(x, 0, 6, out=out)


def prelu(x: np.ndarray, slope: np.ndarray) -> np.ndarray:
    """Parametric ReLU with per-channel slope (broadcast over N, H, W)."""
    slope = slope.reshape(1, -1, *([1] * (x.ndim - 2)))
    return np.where(x >= 0, x, x * slope)


def sigmoid(x: np.ndarray) -> np.ndarray:
    # Split by sign for numerical stability.
    out = np.empty_like(x, dtype=np.result_type(x.dtype, np.float32))
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out.astype(x.dtype, copy=False)


def tanh(x: np.ndarray) -> np.ndarray:
    return np.tanh(x)


def softmax(x: np.ndarray, axis: int = 1) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=axis, keepdims=True)


def batch_norm(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    mean: np.ndarray,
    var: np.ndarray,
    epsilon: float = 1e-5,
) -> np.ndarray:
    """Inference-mode batch normalization over the channel axis."""
    shape = (1, -1) + (1,) * (x.ndim - 2)
    inv = gamma.reshape(shape) / np.sqrt(var.reshape(shape) + epsilon)
    return x * inv + (beta.reshape(shape) - mean.reshape(shape) * inv)


def add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a + b


def sub(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a - b


def mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a * b


def eltwise_max(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.maximum(a, b)


def scale(x: np.ndarray, weight: np.ndarray, bias: Optional[np.ndarray] = None) -> np.ndarray:
    """Per-channel affine scale (Caffe's Scale layer)."""
    shape = (1, -1) + (1,) * (x.ndim - 2)
    out = x * weight.reshape(shape)
    if bias is not None:
        out = out + bias.reshape(shape)
    return out
