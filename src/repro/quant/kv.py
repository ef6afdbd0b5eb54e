"""The quantized KV-cache codec: deterministic per-row symmetric int8.

The quantized KV mode stores K/V rows as int8 payload plus one float32
scale per (layer, k|v, token row).  The scale granularity is the *row*,
not the page, for one load-bearing reason: a row's quantized bytes must
be a pure function of that row's float content alone.  Coarser scales
(per page, per slab) make the stored bytes depend on *write history* —
which rows happened to land in the same page first — and that breaks
the engine's path-invariance contracts: copy-on-write prefix sharing,
preemption replay and the chaos storm all compare token streams across
different allocation histories and expect them equal.

Determinism: ``np.rint`` (round-half-to-even) over a float32 scale that
is itself stored and re-read as float32, so quantize and dequantize see
bit-identical scale values on every path (write, grow-copy, COW
materialize, replay).

A row of zeros gets scale 0.0 — the "unwritten" sentinel — and
dequantizes to exact zeros, which is also what an unwritten row reads
as.  That coincidence is sound: the decode kernels mask by ``lengths``,
so rows at or past a sequence's length are never attended.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..kernels.qgemm import quantize_symmetric

__all__ = ["KV_DTYPES", "kv_itemsize", "quantize_rows", "dequantize_rows"]

#: KV-cache storage dtypes the allocator accepts.
KV_DTYPES = ("float32", "int8")

_ITEMSIZE = {"float32": 4, "int8": 1}


def kv_itemsize(kv_dtype: str) -> int:
    """Payload bytes per stored K/V element for ``kv_dtype``.

    Raises:
        ValueError: for a dtype outside :data:`KV_DTYPES`.
    """
    try:
        return _ITEMSIZE[kv_dtype]
    except KeyError:
        raise ValueError(
            f"unsupported kv_dtype {kv_dtype!r}; expected one of {KV_DTYPES}"
        ) from None


def quantize_rows(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row symmetric int8 quantization of K/V rows.

    Args:
        values: ``(heads, rows, d_head)`` float array; axis 1 is the
            token-row axis that owns the scales.

    Returns:
        ``(q, scales)``: int8 payload of the same shape and one float32
        scale per row (``max_abs / 127``; all-zero rows get scale 0.0).
        The codes come from the float32-rounded scale the table will
        store, so a later dequant multiplies by bit-identically the same
        value; a row's bytes never depend on the other rows in the call.
    """
    vals = np.asarray(values, dtype=np.float32)
    if vals.ndim != 3:
        raise ValueError(f"expected (heads, rows, d_head), got shape {vals.shape}")
    q, scales = quantize_symmetric(vals, (0, 2))
    return q.astype(np.int8), scales.reshape(-1)


def dequantize_rows(
    q: np.ndarray, scales: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Inverse of :func:`quantize_rows`: int8 payload back to float32.

    ``scales`` broadcasts over axis 1 (the token-row axis); scale-0.0
    rows come back as exact zeros.  ``out`` receives the rows in place
    (the decode feed buffer) instead of a fresh array.
    """
    return np.multiply(q, np.asarray(scales, np.float32).reshape(1, -1, 1), out=out)
