"""Sequence-model kernels: LayerNorm, GELU, LSTM, attention.

These back the Transformer/LSTM operators (paper Figure 1 lists RNN, LSTM
and Transformer among the model families a universal engine must cover).
All kernels are vectorized over batch and, where possible, time.

Attention is vectorized over heads but deliberately *not* over the query
axis: each (sequence, query row) attends over exactly the keys visible
to it.  BLAS GEMM is not bitwise batch-invariant (row ``t`` of an
``M = T`` GEMM can differ in the last ulp from the same row computed with
``M = 1``), so a GEMM-shaped prefill and a row-at-a-time decode would
drift apart.  A *stacked* ``np.matmul`` is different: NumPy issues one
GEMV per stacked item, the same BLAS call a Python loop over the items
would make, so batching the heads of one query row into a
``(h, valid, dh) @ (h, dh, 1)`` call is bitwise equal to the per-head
loop.  A cached decode step therefore issues byte-for-byte the same GEMV
calls as the corresponding row of a full-sequence recompute —
bit-identity by construction, which ``repro.genai`` relies on.  What
must never happen is padding the keys (to a common length across
sequences or to cache capacity): that changes each GEMV's ``M`` and with
it the scores' bits.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = [
    "gelu", "layer_norm", "layer_norm_bound", "lstm_forward", "attention", "attention_step",
]

_SQRT_2_OVER_PI = float(np.sqrt(2.0 / np.pi))


def gelu(x: np.ndarray) -> np.ndarray:
    """GELU activation (tanh approximation, as in BERT).

    The cube is two multiplies, not ``x**3``: NumPy's float power calls
    ``powf`` per element (~100x slower), and the result stays within
    1e-6 of the float64 formula over [-10, 10] either way.
    """
    inner = _SQRT_2_OVER_PI * (x + 0.044715 * (x * x * x))
    return 0.5 * x * (1.0 + np.tanh(inner))


def layer_norm(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    axis: int = -1,
    epsilon: float = 1e-5,
) -> np.ndarray:
    """Layer normalization over one axis with affine parameters."""
    axis = axis % x.ndim
    shape = [1] * x.ndim
    shape[axis] = x.shape[axis]
    return layer_norm_bound(
        x, gamma.reshape(shape), beta.reshape(shape), axis,
        np.intp(x.shape[axis]), epsilon,
    )


def layer_norm_bound(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    axis: int,
    n: np.intp,
    epsilon: float,
) -> np.ndarray:
    """:func:`layer_norm` with its static work done by the caller.

    ``axis`` is non-negative, ``gamma``/``beta`` are already shaped to
    broadcast along it and ``n`` is ``np.intp(x.shape[axis])`` — all fixed
    at pre-inference.  The reductions are the arithmetic of NumPy's own
    ``mean``/``var`` (``add.reduce``, then a true divide by the intp
    count with ``casting="unsafe"``) without their Python-level
    wrappers, so the result is bitwise that of ``x.mean``/``x.var``.
    ``epsilon`` is a Python float, which never widens ``var``.  The
    affine step works in place only where the dtypes already match, so
    mixed float32/float64 parameters promote as ``normed * gamma + beta``
    does.
    """
    mean = np.add.reduce(x, axis=axis, keepdims=True)
    np.true_divide(mean, n, out=mean, casting="unsafe")
    centered = x - mean
    var = np.add.reduce(np.square(centered), axis=axis, keepdims=True)
    np.true_divide(var, n, out=var, casting="unsafe")
    var += epsilon
    np.sqrt(var, out=var)
    centered /= var
    out = centered
    if gamma.dtype == out.dtype:
        out *= gamma
    else:
        out = out * gamma
    if beta.dtype == out.dtype:
        out += beta
    else:
        out = out + beta
    return out


def _attend(
    q_rows: np.ndarray, keys: np.ndarray, values: np.ndarray, scale: np.float32
) -> np.ndarray:
    """One query row per head attending over ``keys``/``values`` (the GEMV core).

    ``q_rows`` is ``(h, dh)``; ``keys``/``values`` are ``(h, valid, dh)``
    with each head's ``(valid, dh)`` block contiguous.  Both matmuls are
    stacked GEMVs (one per head) and the softmax max/exp/sum run along
    the last axis, where NumPy reduces each head's ``valid`` scores
    exactly as it would a 1-D array — so each head's row is bitwise the
    row a per-head loop computes.  Every caller (full-sequence, bucketed
    prefill, single-token decode) funnels through here, which is what
    makes cached decode bitwise equal to a full recompute.
    """
    h, valid = keys.shape[:2]
    scores = (keys @ q_rows[:, :, None]).reshape(h, valid) * scale
    scores -= scores.max(axis=-1, keepdims=True)
    weights = np.exp(scores, out=scores)
    weights /= weights.sum(axis=-1, keepdims=True, dtype=weights.dtype)
    return (weights[:, None, :] @ values)[:, 0, :]


def attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    lengths: Optional[np.ndarray] = None,
    k_cache: Optional[np.ndarray] = None,
    v_cache: Optional[np.ndarray] = None,
    causal: bool = True,
    scale: Optional[float] = None,
) -> np.ndarray:
    """Multi-head scaled-dot-product attention with optional cached K/V.

    Args:
        q: (N, H, Tq, dh) query rows for the current tokens.
        k / v: (N, H, Tq, dh) keys/values for the *same* current tokens.
        lengths: optional (N,) int — how many tokens are already cached
            per sequence (0 when absent).
        k_cache / v_cache: optional (N, H, cap, dh) cache; rows
            ``[:lengths[n]]`` are valid, rows beyond are ignored.
        causal: query row ``t`` sees keys ``[: lengths[n] + t + 1]``;
            non-causal rows see every valid key.
        scale: score scale, default ``dh ** -0.5``.

    Returns:
        (N, H, Tq, dh) context rows, dtype of ``q``.

    Each sequence's valid cache rows and new rows are concatenated once
    for all heads; each query row then attends all heads in one
    :func:`_attend` call over exactly its visible keys.  Rows past
    ``lengths[n]`` are never read, so a cache feed holding only the
    written rows (zeros beyond) gives the same bits as a full one.
    """
    n, h, tq, dh = q.shape
    if k.shape != v.shape:
        raise ValueError(f"k/v shape mismatch: {k.shape} vs {v.shape}")
    if (k_cache is None) != (v_cache is None):
        raise ValueError("k_cache and v_cache must be given together")
    scale_f = np.float32(dh**-0.5 if scale is None else scale)
    out = np.empty_like(q)
    for ni in range(n):
        base = 0 if lengths is None else int(lengths[ni])
        if k_cache is None or base == 0:
            keys = np.ascontiguousarray(k[ni])
            values = np.ascontiguousarray(v[ni])
        else:
            keys = np.concatenate([k_cache[ni, :, :base], k[ni]], axis=1)
            values = np.concatenate([v_cache[ni, :, :base], v[ni]], axis=1)
        for t in range(tq):
            valid = base + t + 1 if causal else base + tq
            out[ni, :, t] = _attend(
                q[ni, :, t], keys[:, :valid], values[:, :valid], scale_f
            )
    return out


def attention_step(
    q: np.ndarray,
    k_new: np.ndarray,
    v_new: np.ndarray,
    k_cache: np.ndarray,
    v_cache: np.ndarray,
    lengths: np.ndarray,
    scale: Optional[float] = None,
) -> np.ndarray:
    """Incremental single-query attention against a K/V cache.

    Args:
        q: (N, H, dh) — the one new query row per sequence.
        k_new / v_new: (N, H, dh) — the new token's key/value rows.
        k_cache / v_cache: (N, H, cap, dh) with ``lengths[n]`` valid rows.
        lengths: (N,) cached-token counts (the new token excluded).

    Returns:
        (N, H, dh) context rows, bit-identical to row ``lengths[n]`` of a
        causal full-sequence :func:`attention` over the same tokens.
    """
    out = attention(
        q[:, :, None, :],
        k_new[:, :, None, :],
        v_new[:, :, None, :],
        lengths=lengths,
        k_cache=k_cache,
        v_cache=v_cache,
        causal=True,
        scale=scale,
    )
    return out[:, :, 0, :]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def lstm_forward(
    x: np.ndarray,
    w_ih: np.ndarray,
    w_hh: np.ndarray,
    bias: Optional[np.ndarray] = None,
    return_sequences: bool = False,
) -> np.ndarray:
    """Single-layer LSTM over a batched sequence.

    Args:
        x: (N, T, features) input sequence.
        w_ih: (4*H, features) input weights, gate order [i, f, g, o].
        w_hh: (4*H, H) recurrent weights.
        bias: optional (4*H,) bias.
        return_sequences: return all hidden states (N, T, H) instead of
            just the final one (N, H).
    """
    n, t, features = x.shape
    hidden = w_hh.shape[1]
    if w_ih.shape != (4 * hidden, features):
        raise ValueError(f"w_ih {w_ih.shape} != ({4 * hidden}, {features})")
    # Every GEMM runs one sequence at a time, at the shapes a batch-1 call
    # has, so batch row i is bitwise its own batch-1 run (a batched
    # (N, H) GEMM takes another BLAS path and rounds differently).
    # Input projections: one (T, features) GEMM per sequence.
    proj = np.empty((n, t, 4 * hidden), dtype=np.result_type(x, w_ih))
    for row in range(n):
        np.matmul(x[row], w_ih.T, out=proj[row])
    if bias is not None:
        proj += bias

    h = np.zeros((n, hidden), dtype=x.dtype)
    c = np.zeros((n, hidden), dtype=x.dtype)
    outputs = np.empty((n, t, hidden), dtype=x.dtype) if return_sequences else None
    w_hh_t = w_hh.T
    recurrent = np.empty((n, 4 * hidden), dtype=np.result_type(h, w_hh))
    for step in range(t):
        for row in range(n):
            np.matmul(h[row:row + 1], w_hh_t, out=recurrent[row:row + 1])
        gates = proj[:, step] + recurrent
        i = _sigmoid(gates[:, :hidden])
        f = _sigmoid(gates[:, hidden : 2 * hidden])
        g = np.tanh(gates[:, 2 * hidden : 3 * hidden])
        o = _sigmoid(gates[:, 3 * hidden :])
        c = f * c + i * g
        h = o * np.tanh(c)
        if outputs is not None:
            outputs[:, step] = h
    return outputs if outputs is not None else h
