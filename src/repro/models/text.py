"""Sequence models: a Transformer encoder and an LSTM text classifier.

The paper's Figure 1 lists RNN/LSTM/Transformer among the model families a
universal engine must handle; these builders exercise the engine's
non-CNN path: Gather embeddings, LayerNorm, multi-head attention built
from Transpose/MatMul/Softmax, GELU FFNs, and a recurrent LSTM kernel.
"""

from __future__ import annotations

import numpy as np

from ..ir.graph import Graph, GraphBuilder
from ..ir.tensor import DataType

__all__ = ["tiny_transformer", "lstm_classifier", "tiny_decoder"]


def _attention(b: GraphBuilder, x: str, d_model: int, heads: int, prefix: str) -> str:
    """Multi-head self-attention block (pre-LN residual)."""
    n, t, _ = b.graph.desc(x).shape
    d_head = d_model // heads
    normed = b.layer_norm(x)

    def project(name: str) -> str:
        w = b._weight(f"{prefix}_{name}_w", (d_model, d_model), scale=d_model**-0.5)
        p = b.matmul(normed, w)                                  # (N, T, D)
        p = b.reshape(p, (n, t, heads, d_head))
        return b.transpose(p, (0, 2, 1, 3))                      # (N, H, T, dh)

    q, k, v = project("q"), project("k"), project("v")
    scores = b.matmul(q, k, transpose_b=True)                    # (N, H, T, T)
    scale = b.constant(np.full((1,), d_head**-0.5, np.float32))
    scores = b.mul(scores, scale)
    attn = b.softmax(scores, axis=-1)
    ctx = b.matmul(attn, v)                                      # (N, H, T, dh)
    ctx = b.transpose(ctx, (0, 2, 1, 3))
    ctx = b.reshape(ctx, (n, t, d_model))
    w_out = b._weight(f"{prefix}_out_w", (d_model, d_model), scale=d_model**-0.5)
    return b.add(x, b.matmul(ctx, w_out))


def _ffn(b: GraphBuilder, x: str, d_model: int, prefix: str) -> str:
    """Position-wise feed-forward block with GELU (pre-LN residual)."""
    normed = b.layer_norm(x)
    w1 = b._weight(f"{prefix}_ffn_w1", (d_model, 4 * d_model), scale=d_model**-0.5)
    w2 = b._weight(f"{prefix}_ffn_w2", (4 * d_model, d_model), scale=(4 * d_model) ** -0.5)
    hidden = b.gelu(b.matmul(normed, w1))
    return b.add(x, b.matmul(hidden, w2))


def tiny_transformer(
    vocab: int = 1000,
    seq_len: int = 64,
    d_model: int = 128,
    heads: int = 4,
    layers: int = 2,
    classes: int = 10,
    batch: int = 1,
    seed: int = 0,
) -> Graph:
    """A BERT-style encoder classifier over integer token ids.

    Input: ``tokens`` of shape (batch, seq_len), dtype int32.
    """
    if d_model % heads:
        raise ValueError(f"d_model {d_model} not divisible by heads {heads}")
    b = GraphBuilder(f"tiny_transformer_L{layers}_D{d_model}", seed=seed)
    tokens = b.input("tokens", (batch, seq_len), DataType.INT32)

    embedding = b._weight("tok_embed", (vocab, d_model), scale=0.02)
    x = b.gather(embedding, tokens, axis=0)              # (N, T, D)
    positions = b._weight("pos_embed", (seq_len, d_model), scale=0.02)
    x = b.add(x, positions)

    for layer in range(layers):
        x = _attention(b, x, d_model, heads, f"l{layer}")
        x = _ffn(b, x, d_model, f"l{layer}")
    x = b.layer_norm(x)

    # classify from the first ([CLS]) token
    cls = b.graph.add_node(
        "Slice", [x], [b._fresh("cls")], {"axis": 1, "start": 0, "end": 1}
    ).outputs[0]
    cls = b.flatten(cls)
    logits = b.fc(cls, units=classes)
    b.output(b.softmax(logits))
    return b.finish()


def tiny_decoder(
    vocab: int = 256,
    max_seq: int = 64,
    d_model: int = 64,
    heads: int = 4,
    layers: int = 2,
    batch: int = 1,
    seed: int = 0,
    mode: str = "full",
    seq_len: int = None,
    cache_len: int = None,
) -> Graph:
    """A decoder-only (GPT-style, pre-LN, causal) transformer LM.

    The same builder produces the two graph variants ``repro.genai`` needs:

    * ``mode="full"`` — run ``seq_len`` tokens at once with no cache (the
      full-recompute reference).  Outputs ``logits`` (N, T, vocab) plus
      per-layer K/V rows ``l{i}_k`` / ``l{i}_v`` (N, H, T, dh).
    * ``mode="decode"`` — append ``seq_len`` (default 1) new tokens per
      sequence to cached K/V.  Extra inputs: ``lengths`` (N,) int32
      cached-token counts and per-layer ``l{i}_k_cache`` /
      ``l{i}_v_cache`` (N, H, cache_len, dh); outputs the new tokens'
      logits and K/V rows.  New rows attend to the valid cache rows and,
      causally, to each other.

    Every projection is a ``rowwise`` MatMul and attention is the fused
    per-query-row op (both stacked GEMVs), so token ``t`` issues the same
    per-row BLAS calls whether it runs in a full recompute, in a
    multi-token decode call or as a one-token step — decode is
    *bit-identical* to recompute.
    Weights depend only on ``seed`` and the architecture (the RNG draw
    order is the same in both modes), and the position table always has
    ``max_seq`` rows gathered by an explicit ``positions`` input, so both
    variants share one set of parameters.
    """
    if d_model % heads:
        raise ValueError(f"d_model {d_model} not divisible by heads {heads}")
    if mode not in ("full", "decode"):
        raise ValueError(f"mode must be 'full' or 'decode', got {mode!r}")
    decode = mode == "decode"
    t = seq_len or (1 if decode else max_seq)
    if t > max_seq:
        raise ValueError(f"seq_len {t} exceeds max_seq {max_seq}")
    cap = cache_len if cache_len is not None else max_seq
    d_head = d_model // heads

    name = f"tiny_decoder_L{layers}_D{d_model}_{mode}{t}" + (f"x{cap}" if decode else "")
    b = GraphBuilder(name, seed=seed)
    tokens = b.input("tokens", (batch, t), DataType.INT32)
    positions = b.input("positions", (batch, t), DataType.INT32)
    lengths = b.input("lengths", (batch,), DataType.INT32) if decode else None

    embedding = b._weight("tok_embed", (vocab, d_model), scale=0.02)
    pos_table = b._weight("pos_embed", (max_seq, d_model), scale=0.02)
    x = b.add(b.gather(embedding, tokens, axis=0),
              b.gather(pos_table, positions, axis=0))         # (N, T, D)

    for layer in range(layers):
        prefix = f"l{layer}"
        normed = b.layer_norm(x)

        def project(name: str, out_name: str = None) -> str:
            w = b._weight(f"{prefix}_{name}_w", (d_model, d_model),
                          scale=d_model**-0.5)
            p = b.matmul(normed, w, rowwise=True)             # (N, T, D)
            p = b.reshape(p, (batch, t, heads, d_head))
            return b.transpose(p, (0, 2, 1, 3), name=out_name)  # (N, H, T, dh)

        q = project("q")
        k = project("k", out_name=f"{prefix}_k")
        v = project("v", out_name=f"{prefix}_v")
        if decode:
            k_cache = b.input(f"{prefix}_k_cache", (batch, heads, cap, d_head))
            v_cache = b.input(f"{prefix}_v_cache", (batch, heads, cap, d_head))
            ctx = b.attention(q, k, v, lengths, k_cache, v_cache,
                              causal=True, scale=d_head**-0.5)
        else:
            ctx = b.attention(q, k, v, causal=True, scale=d_head**-0.5)
        b.output(k, v)
        ctx = b.transpose(ctx, (0, 2, 1, 3))
        ctx = b.reshape(ctx, (batch, t, d_model))
        w_out = b._weight(f"{prefix}_out_w", (d_model, d_model),
                          scale=d_model**-0.5)
        x = b.add(x, b.matmul(ctx, w_out, rowwise=True))

        normed = b.layer_norm(x)
        w1 = b._weight(f"{prefix}_ffn_w1", (d_model, 4 * d_model),
                       scale=d_model**-0.5)
        w2 = b._weight(f"{prefix}_ffn_w2", (4 * d_model, d_model),
                       scale=(4 * d_model) ** -0.5)
        hidden = b.gelu(b.matmul(normed, w1, rowwise=True))
        x = b.add(x, b.matmul(hidden, w2, rowwise=True))

    x = b.layer_norm(x)
    w_lm = b._weight("lm_head_w", (d_model, vocab), scale=d_model**-0.5)
    logits = b.matmul(x, w_lm, rowwise=True, name="logits")   # (N, T, vocab)
    b.output(logits)
    return b.finish()


def lstm_classifier(
    vocab: int = 1000,
    seq_len: int = 64,
    d_model: int = 96,
    hidden: int = 128,
    classes: int = 5,
    batch: int = 1,
    seed: int = 0,
) -> Graph:
    """Embedding -> LSTM -> FC text classifier over integer token ids."""
    b = GraphBuilder(f"lstm_classifier_H{hidden}", seed=seed)
    tokens = b.input("tokens", (batch, seq_len), DataType.INT32)
    embedding = b._weight("tok_embed", (vocab, d_model), scale=0.02)
    x = b.gather(embedding, tokens, axis=0)              # (N, T, D)
    h = b.lstm(x, hidden_size=hidden)                    # (N, H) final state
    logits = b.fc(h, units=classes)
    b.output(b.softmax(logits))
    return b.finish()
