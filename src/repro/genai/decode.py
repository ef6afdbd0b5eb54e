"""One token path: every model call appends rows to KV slabs through one
cached-attention graph, prepared once per (batch, tokens, capacity) cell.

Autoregressive serving seems to contradict the paper's core premise —
pre-inference (Section 3.2) assumes fixed shapes, generation does not.
The resolution is *shape bucketing*.  A call's shape is fully determined
by three bucketed quantities: how many sequences share it (padded up to
a power-of-two batch bucket), how many new tokens each appends (1 for a
decode step, a doubling length bucket for a prompt) and the KV-slab
capacity bucket the cached rows are fed in.  The whole shape space is a
small grid, and each cell's session is prepared exactly once (scheme
search, placement, memory plan) then reused for millions of calls: the
paper's prepare/execute split stretched over dynamic sequence lengths.

The grid has two schedules of the same graph:

* :meth:`DecodeRunner.run` appends a whole prompt — or a prefix-cache
  hit's suffix — to one sequence.  Over an empty slab it reads no cache
  rows and runs the cold cell ``(1, T, T)``, one per length bucket,
  which :meth:`DecodeRunner.warm` prepares up front.
* :meth:`DecodeRunner.step` advances every live sequence by one token in
  one call per token boundary, in the cell of the largest slab.

Padding is free correctness-wise.  Pad rows come after the real rows,
so causal attention hides them; they feed token 0 at a position clamped
below ``max_seq`` and their K/V rows are never written back.  A slab
smaller than the cell feeds only its written rows; attention masks by
true ``lengths``, so the extra capacity is never read.

Bit-identity contract: the decode graph's kernels are per-row (rowwise
MatMul and head-batched Attention as stacked GEMVs, per-row
LayerNorm/GELU).  Cached rows are read through the slab, rows produced
in the same call attend to each other in-graph, and every new row's
logits and K/V are bitwise equal to the same position in a
``full``-mode recompute of the whole sequence — padding, cell shape and
batch composition cannot perturb a neighbour's arithmetic.  Feed
validation is the one per-run overhead turned off
(``check_feeds=False``): feeds here are machine-built from
already-validated slabs, and a decode step is short enough for the
check to matter.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..core.session import Session, SessionConfig
from ..ir.graph import Graph
from ..quant.kv import quantize_rows
from ..runtime import Runtime
from .kvcache import KVSlab, bucket_for, doubling_buckets

__all__ = ["SMALLEST_TOKEN_BUCKET", "DecodeRunner"]

#: The smallest prompt-length bucket: shorter prompts pad up to 8 tokens.
SMALLEST_TOKEN_BUCKET = 8


class DecodeRunner:
    """Prompt runs and one-token steps over prepared (batch, tokens, capacity) cells."""

    def __init__(
        self,
        build_graph: Callable[[int, int, int], Graph],
        layers: int,
        max_batch: int,
        max_seq: int,
        session_config: Optional[SessionConfig] = None,
        *,
        runtime: Optional[Runtime] = None,
    ) -> None:
        self.build_graph = build_graph        # (batch, tokens, capacity) -> Graph
        self.layers = layers
        self.max_seq = max_seq
        self.buckets = doubling_buckets(max_batch, 1)
        self.token_buckets = doubling_buckets(max_seq, SMALLEST_TOKEN_BUCKET)
        base = session_config if session_config is not None else SessionConfig()
        self.session_config = replace(base, check_feeds=False)
        self.runtime = runtime if runtime is not None else Runtime.resolve()
        self.metrics = self.runtime.metrics
        self.tracer = self.runtime.tracer
        self._sessions: Dict[Tuple[int, int, int], Session] = {}

    def _session(self, batch: int, tokens: int, capacity: int) -> Session:
        key = (batch, tokens, capacity)
        session = self._sessions.get(key)
        if session is None:
            session = Session(self.build_graph(batch, tokens, capacity),
                              self.session_config, runtime=self.runtime)
            self._sessions[key] = session
        return session

    @property
    def prepared(self) -> List[Tuple[int, int, int]]:
        """The (batch, tokens, capacity) grid cells prepared so far."""
        return sorted(self._sessions)

    def warm(self) -> None:
        """Prepare the cold cell ``(1, T, T)`` of every length bucket (the
        Figure-3 prepare phase for cold prompts).  Step cells depend on
        observed batch sizes and capacities, so they prepare on first use."""
        for t in self.token_buckets:
            self._session(1, t, t)

    def run(self, tokens: List[int], slab: KVSlab) -> np.ndarray:
        """Append ``tokens`` to one sequence, starting at ``slab.length``.

        Over an empty slab this is a cold prompt; over a non-empty one it
        is a prefix hit's suffix.  The tokens pad up to their length
        bucket.  Returns the last token's logits row ``(vocab,)``; as a
        side effect the slab gains ``len(tokens)`` K/V rows.
        """
        n = len(tokens)
        if n < 1:
            raise ValueError("empty prompt")
        if slab.length + n > slab.capacity:
            raise ValueError(
                f"slab capacity {slab.capacity} cannot hold {n} more tokens "
                f"after {slab.length}"
            )
        t = bucket_for(n, self.token_buckets)
        feed = np.zeros((1, t), np.int32)
        feed[0, :n] = tokens
        # An empty slab reads no cache rows: the cold cell's capacity is T.
        capacity = slab.capacity if slab.length else t
        logits = self._forward(feed, n, [slab], capacity, "genai.prefill")
        self.metrics.counter("genai.prefill_tokens").inc(n)
        return logits[0, n - 1]

    def step(self, tokens: List[int], slabs: List[KVSlab]) -> np.ndarray:
        """Advance every sequence by one token.

        Args:
            tokens: the last sampled token of each live sequence.
            slabs: the sequences' KV slabs, each with room for one more
                row.  Capacities may differ: the step runs the cell of
                the largest, and each slab feeds only its ``length``
                written rows (the rest of its feed stays zero and is
                never attended).

        Returns:
            ``(len(tokens), vocab)`` logits for the new positions.  As a
            side effect each slab gains its new K/V row and ``length``
            advances by one.
        """
        n = len(tokens)
        if n == 0 or n != len(slabs):
            raise ValueError(f"tokens/slabs mismatch: {n} vs {len(slabs)}")
        for slab in slabs:
            if slab.length >= slab.capacity:
                raise ValueError(
                    f"slab {slab.seq_id!r} full at {slab.length}/{slab.capacity}; "
                    "grow first"
                )
        feed = np.zeros((bucket_for(n, self.buckets), 1), np.int32)
        feed[:n, 0] = tokens
        capacity = max(slab.capacity for slab in slabs)
        logits = self._forward(feed, 1, slabs, capacity, "genai.decode_step")
        self.metrics.counter("genai.decode_tokens").inc(n)
        return logits[:n, 0, :]

    def _forward(
        self, tokens: np.ndarray, rows: int, slabs: List[KVSlab], capacity: int,
        span: str,
    ) -> np.ndarray:
        """Run cell ``(*tokens.shape, capacity)``, appending ``rows`` rows per slab.

        ``tokens`` is the padded ``(batch, T)`` feed: row ``i`` belongs to
        ``slabs[i]`` and its first ``rows`` columns are real.  Returns the
        cell's whole ``(batch, T, vocab)`` logits.
        """
        batch, t = tokens.shape
        n = len(slabs)
        cfg = slabs[0].config
        lengths = np.zeros((batch,), np.int32)
        lengths[:n] = [slab.length for slab in slabs]
        feeds: Dict[str, np.ndarray] = {
            "tokens": tokens,
            "positions": np.minimum(
                lengths[:, None] + np.arange(t, dtype=np.int32), self.max_seq - 1
            ),
            "lengths": lengths,
        }
        for layer in range(self.layers):
            k_feed = np.zeros((batch, cfg.heads, capacity, cfg.d_head), np.float32)
            v_feed = np.zeros_like(k_feed)
            for i, slab in enumerate(slabs):
                slab.k_read(layer, out=k_feed[i], rows=slab.length)
                slab.v_read(layer, out=v_feed[i], rows=slab.length)
            feeds[f"l{layer}_k_cache"] = k_feed
            feeds[f"l{layer}_v_cache"] = v_feed

        with self.tracer.span(
            span, "genai", batch=n, batch_bucket=batch, tokens=rows,
            token_bucket=t, capacity=capacity,
        ):
            out = self._session(batch, t, capacity).run(feeds)

        if cfg.quantized:
            # One codec call per K/V plane covers every sequence's new
            # rows (a row's bytes never depend on its neighbours in the
            # call); payload and scales then scatter to the slabs verbatim.
            for layer in range(self.layers):
                for which, name in enumerate("kv"):
                    new = out[f"l{layer}_{name}"][:n, :, :rows, :]   # (n, heads, rows, dh)
                    q, scales = quantize_rows(
                        new.transpose(1, 0, 2, 3).reshape(cfg.heads, n * rows, cfg.d_head)
                    )
                    for i, slab in enumerate(slabs):
                        part = slice(i * rows, (i + 1) * rows)
                        slab.write_quantized(layer, which, slab.length, q[:, part], scales[part])
        else:
            for i, slab in enumerate(slabs):
                for layer in range(self.layers):
                    slab.write_k(layer, slab.length, out[f"l{layer}_k"][i, :, :rows, :])
                    slab.write_v(layer, slab.length, out[f"l{layer}_v"][i, :, :rows, :])
        for slab in slabs:
            slab.length += rows
        return out["logits"]

    def close(self) -> None:
        self._sessions.clear()
