"""Int8 GEMM/MatMul kernels: exact integer arithmetic through BLAS.

int8 is the *at-rest* form (weights in the ``.rmnn`` file, K/V rows in
the arena); the multiply runs on integer-valued **float** operands,
because NumPy's integer ``@`` is a scalar loop and its float ``@`` is
``sgemm``/``dgemm``.  That is exact, not approximate:

* operands are integers with ``|v| <= 127``, so every partial sum of a
  depth-``K`` reduction is an integer ``<= K * 127 * 127``;
* float32 holds every integer up to ``2**24``, so while
  ``K * 127 * 127 < 2**24`` (``K <= 1040``) no addition ever rounds;
  deeper reductions run in float64 (exact to ``2**53``).  ``K`` is the
  only thing that selects the dtype;
* exact sums are order-independent, so BLAS may block and reorder
  freely: row ``t`` of a batched product is *bitwise* the single-row
  product, and a ``rowwise`` MatMul needs no per-row loop on this path.

Activations quantize **dynamically per row** (symmetric, zero-point 0 —
the MNN-LLM weight-only recipe) straight into the float operand;
dequantization multiplies each cell by ``row_scale x col_scale`` in
float32, element-wise, in place, so a column's bits never depend on the
other columns of the GEMM (``quantize_graph`` relies on that when it
merges sibling MatMuls into one).  Constant weights are converted to the
compute dtype once, at pre-inference (:func:`prepack_int8`), and an op
runner calls :func:`qmatmul_prepacked` with no per-call checks.

The quantizer clips to +-127 only when it has to.  With a *normal*
float32 scale ``s = fl(max|x| / 127)``, ``|x / s| <= 127 (1 + eps)^2 <
127.5``, so ``rint`` never leaves +-127 and the clip is a no-op.  A
zero, subnormal or NaN scale breaks that bound (a subnormal row max
gives ``x / s`` up to ~190, and a nonzero row can round to scale 0), so
those calls take the guarded path, which clips.
Winograd/Strassen stay fp-only: their float transforms would forfeit
exactness, so :mod:`repro.core.schemes` excludes them for int8 layers.
"""

from __future__ import annotations

import hashlib
import threading
import weakref
from typing import Optional, Tuple

import numpy as np

from .matmul import GemmStats

__all__ = ["exact_int_gemm", "prepack_int8", "quantize_symmetric",
           "quantize_rowwise", "qmatmul", "qmatmul_prepacked"]

_PACKED: "weakref.WeakValueDictionary[tuple, np.ndarray]" = weakref.WeakValueDictionary()
_PACKED_LOCK = threading.Lock()

_Q_MAX = np.float32(127.0)
_SMALLEST_NORMAL = np.finfo(np.float32).tiny


def _exact_dtype(k: int) -> type:
    return np.float32 if k * 127 * 127 < 2**24 else np.float64


def exact_int_gemm(a: np.ndarray, b: np.ndarray, stats: Optional[GemmStats] = None) -> np.ndarray:
    """``a @ b`` for integer-valued operands (int8 or float-held), exactly.

    The product comes back in the compute dtype (float32 for
    ``K <= 1040``, else float64) with every cell an exact integer.
    """
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"bad GEMM shapes {a.shape} x {b.shape}")
    dtype = _exact_dtype(a.shape[1])
    if stats is not None:
        stats.record_base(a.shape[0], a.shape[1], b.shape[1])
    return np.asarray(a, dtype) @ np.asarray(b, dtype)


def prepack_int8(wq: np.ndarray, k: int) -> np.ndarray:
    """Read-only float-held copy of int8 weights for depth-``k`` GEMMs.

    Runners call this once when they are built.  Copies are interned by
    content — every session over the same constant (decode prepares one
    per batch x capacity cell) shares one copy per process — and held
    weakly, so a copy dies with its last runner.
    """
    dtype = np.dtype(_exact_dtype(k))
    key = (wq.shape, dtype.char, hashlib.sha1(np.ascontiguousarray(wq)).digest())
    with _PACKED_LOCK:
        packed = _PACKED.get(key)
        if packed is None:
            packed = wq.astype(dtype)
            packed.flags.writeable = False
            _PACKED[key] = packed
    return packed


def quantize_symmetric(x: np.ndarray, axis) -> Tuple[np.ndarray, np.ndarray]:
    """Symmetric int8 codes of float32 ``x``, float-held, one scale per ``axis`` slice.

    Returns ``q = clip(rint(x / scale), +-127)`` as float32 (``astype(int8)``
    is the at-rest form) and ``scales = max_abs / 127`` with the reduced
    axes kept; all-zero slices get scale 0.0 and zero codes.  A pure
    function of ``x``, and max/rint/clip are order-independent, so a
    slice's codes never depend on what else shares the call.

    When every scale is a normal float the clip cannot change a code
    (module docstring), so it runs only on the guarded path: some scale
    is zero (divide by 1 instead), subnormal (codes reach ~190 before
    the clip) or NaN.  Both paths give the same bits as dividing by
    ``where(scale > 0, scale, 1)`` and clipping every time.
    """
    q = np.abs(x)
    scales = np.maximum.reduce(q, axis, keepdims=True, initial=0)
    scales /= _Q_MAX
    if np.minimum.reduce(scales, None) >= _SMALLEST_NORMAL:
        np.divide(x, scales, out=q)
        return np.rint(q, out=q), scales
    np.divide(x, np.where(scales > 0, scales, np.float32(1.0)), out=q)
    np.rint(q, out=q)
    np.maximum(q, -127, out=q)      # min/max pair: np.clip's wrapper costs more
    return np.minimum(q, 127, out=q), scales


def quantize_rowwise(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Dynamic per-row quantization of a 2-D activation: int8 codes, (rows,) scales."""
    x = np.asarray(x, np.float32)
    if x.ndim != 2:
        raise ValueError(f"expected a 2-D activation, got shape {x.shape}")
    q, scales = quantize_symmetric(x, 1)
    return q.astype(np.int8), scales.reshape(-1)


def qmatmul_prepacked(x: np.ndarray, wq: np.ndarray, col_scales: np.ndarray,
                      stats: Optional[GemmStats] = None) -> np.ndarray:
    """:func:`qmatmul` minus its checks: the int8 MatMul runner's per-call core.

    ``x`` is float32 ``(..., K)``, ``wq`` the :func:`prepack_int8` copy
    (``(K, N)`` in the compute dtype) and ``col_scales`` float32
    ``(N,)``; the runner validates all three when it is built.
    """
    xq, row_scales = quantize_symmetric(x.reshape(-1, x.shape[-1]), 1)
    if stats is not None:
        stats.record_base(xq.shape[0], xq.shape[1], wq.shape[1])
    out = (xq.astype(wq.dtype, copy=False) @ wq).astype(np.float32, copy=False)
    out *= row_scales * col_scales  # (rows, 1) x (cols,): float32, element-wise
    return out.reshape(*x.shape[:-1], wq.shape[1])


def qmatmul(x: np.ndarray, wq: np.ndarray, col_scales: np.ndarray,
            stats: Optional[GemmStats] = None) -> np.ndarray:
    """Float-in/float-out MatMul over int8 weights.

    Flattens leading axes to rows, quantizes each row dynamically, runs
    the exact GEMM and dequantizes.  ``wq`` is the int8 matrix or its
    :func:`prepack_int8` copy.  Row ``t`` of the result is bitwise the
    same whether ``x`` carries one token or a whole sequence, which
    decode-step pre-inference relies on.  Validates its operands, then
    runs :func:`qmatmul_prepacked`.
    """
    wq = np.asarray(wq)
    if wq.ndim != 2:
        raise ValueError(f"qmatmul weights must be 2-D, got shape {wq.shape}")
    cs = np.asarray(col_scales, np.float32)
    if cs.shape != (wq.shape[1],):
        raise ValueError(
            f"weight_scales shape {cs.shape} != output channels ({wq.shape[1]},)"
        )
    x = np.asarray(x, np.float32)
    if x.shape[-1] != wq.shape[0]:
        raise ValueError(f"bad GEMM shapes {x.shape} x {wq.shape}")
    wq = np.asarray(wq, _exact_dtype(wq.shape[0]))
    return qmatmul_prepacked(x, wq, cs, stats)
