"""Decode-step pre-inference: one prepared graph per (batch, capacity).

A decode step is the engine's steady state: every live sequence advances
by exactly one token against its cached K/V, all of them in **one** step
per token boundary.  The step's shape is fully determined by two
bucketed quantities — how many sequences share the batch (padded up to
a power-of-two batch bucket) and the largest KV-slab capacity bucket
among them — so the whole shape space is a small grid, and each cell's
session is prepared exactly once (scheme search, placement, memory
plan) then reused for millions of steps: the paper's prepare/execute
split stretched over dynamic sequence lengths.  A slab smaller than the
cell feeds only its written rows; attention masks by true ``lengths``,
so the extra capacity is never read.

Bit-identity contract: the decode graph's kernels are per-row (rowwise
MatMul and head-batched Attention as stacked GEMVs, per-row
LayerNorm/GELU), so the new token's logits are bitwise equal to the same
position's logits in a ``full``-mode recompute of the whole sequence —
padding rows, cell capacity and batch composition cannot perturb a
neighbour's arithmetic.  Feed validation is the one per-run overhead
turned off (``check_feeds=False``): feeds here are machine-built from
already-validated slabs, and a decode step is short enough for the check
to matter.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..core.session import Session, SessionConfig
from ..ir.graph import Graph
from ..quant.kv import quantize_rows
from ..runtime import Runtime
from ..serving.cache import PreInferenceCache, warm_session
from .kvcache import KVSlab

__all__ = ["batch_buckets", "bucket_for_batch", "DecodeRunner"]


def batch_buckets(max_batch: int) -> List[int]:
    """Power-of-two batch buckets ending exactly at ``max_batch``."""
    buckets: List[int] = []
    cap = 1
    while cap < max_batch:
        buckets.append(cap)
        cap *= 2
    buckets.append(max_batch)
    return buckets


def bucket_for_batch(n: int, buckets: List[int]) -> int:
    for cap in buckets:
        if cap >= n:
            return cap
    raise ValueError(f"batch {n} exceeds largest bucket {buckets[-1]}")


class DecodeRunner:
    """Single-token steps over prepared (batch, capacity) sessions."""

    def __init__(
        self,
        build_graph: Callable[[int, int], Graph],
        layers: int,
        max_batch: int,
        session_config: Optional[SessionConfig] = None,
        cache: Optional[PreInferenceCache] = None,
        retries: int = 3,
        *,
        runtime: Optional[Runtime] = None,
    ) -> None:
        self.build_graph = build_graph        # (batch, capacity) -> Graph
        self.layers = layers
        self.buckets = batch_buckets(max_batch)
        base = session_config if session_config is not None else SessionConfig()
        self.session_config = replace(base, check_feeds=False)
        self.cache = cache
        self.runtime = runtime if runtime is not None else Runtime.resolve()
        self.metrics = self.runtime.metrics
        self.tracer = self.runtime.tracer
        self.retries = retries
        self._sessions: Dict[Tuple[int, int], Session] = {}

    def _session(self, batch: int, capacity: int) -> Session:
        key = (batch, capacity)
        session = self._sessions.get(key)
        if session is None:
            graph = self.build_graph(batch, capacity)
            config = self.session_config
            cache_key = self.cache.key(graph, config) if self.cache is not None else None
            session, _ = warm_session(
                graph, config, self.cache, cache_key, self.runtime, self.retries
            )
            self._sessions[key] = session
        return session

    @property
    def prepared(self) -> List[Tuple[int, int]]:
        """The (batch, capacity) grid cells prepared so far."""
        return sorted(self._sessions)

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
        capacity = max(slab.capacity for slab in slabs)
        cfg = slabs[0].config
        batch = bucket_for_batch(n, self.buckets)

        feed_tokens = np.zeros((batch, 1), np.int32)
        feed_tokens[:n, 0] = tokens
        lengths = np.zeros((batch,), np.int32)
        lengths[:n] = [slab.length for slab in slabs]
        feeds: Dict[str, np.ndarray] = {
            "tokens": feed_tokens,
            "positions": lengths[:, None].copy(),
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
            "genai.decode_step", "genai", batch=n, batch_bucket=batch, capacity=capacity
        ):
            out = self._session(batch, capacity).run(feeds)

        if cfg.quantized:
            # One codec call per K/V plane covers every live sequence (a
            # row's bytes never depend on its neighbours in the call);
            # payload and scales then scatter to the slabs verbatim.
            for layer in range(self.layers):
                for which, name in enumerate("kv"):
                    rows = out[f"l{layer}_{name}"][:n, :, 0, :]     # (n, heads, d_head)
                    q, scales = quantize_rows(rows.transpose(1, 0, 2))
                    for i, slab in enumerate(slabs):
                        slab.write_quantized(
                            layer, which, slab.length, q[:, i : i + 1], scales[i : i + 1]
                        )
        else:
            for i, slab in enumerate(slabs):
                for layer in range(self.layers):
                    slab.write_k(layer, slab.length, out[f"l{layer}_k"][i, :, 0:1, :])
                    slab.write_v(layer, slab.length, out[f"l{layer}_v"][i, :, 0:1, :])
        for slab in slabs:
            slab.length += 1
        self.metrics.counter("genai.decode_tokens").inc(n)
        return out["logits"][:n, 0, :]

    def close(self) -> None:
        self._sessions.clear()
