"""Prefill: run a whole prompt through a bucketed, pre-prepared graph.

Autoregressive serving seems to contradict the paper's core premise —
pre-inference (Section 3.2) assumes fixed shapes, generation does not.
The resolution is *shape bucketing*: prompts run on the smallest prepared
``full``-mode graph whose length bucket fits, padded up.  Padding is free
correctness-wise because the decoder is causal — logits and K/V rows
``[:prompt_len]`` never see the padding positions — and cheap
latency-wise because buckets double, bounding overwork at 2x.

Each bucket's session is created once (the prepare/execute split of
Figure 3, amortized across every prompt that lands in the bucket),
warmed through the :class:`~repro.serving.PreInferenceCache`, and shared
through a :class:`~repro.serving.SessionPool`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from ..core.memory import MemoryPlan
from ..core.session import Session, SessionConfig
from ..ir.graph import Graph
from ..runtime import Runtime
from ..serving.cache import PreInferenceCache, warm_session
from ..serving.pool import SessionPool
from .kvcache import KVSlab

__all__ = ["length_buckets", "bucket_for_length", "PrefillRunner"]


def length_buckets(max_seq: int, smallest: int = 8) -> List[int]:
    """Doubling prompt-length buckets ending exactly at ``max_seq``."""
    buckets: List[int] = []
    cap = min(smallest, max_seq)
    while cap < max_seq:
        buckets.append(cap)
        cap *= 2
    buckets.append(max_seq)
    return buckets


def bucket_for_length(length: int, buckets: List[int]) -> int:
    """Smallest bucket >= ``length``; raises past the largest."""
    for cap in buckets:
        if cap >= length:
            return cap
    raise ValueError(f"length {length} exceeds largest bucket {buckets[-1]}")


class PrefillRunner:
    """Bucketed prompt execution writing K/V rows straight into a slab."""

    def __init__(
        self,
        build_graph: Callable[[int], Graph],
        max_seq: int,
        layers: int,
        pool_size: int = 1,
        smallest_bucket: int = 8,
        session_config: Optional[SessionConfig] = None,
        cache: Optional[PreInferenceCache] = None,
        retries: int = 3,
        *,
        runtime: Optional[Runtime] = None,
    ) -> None:
        self.build_graph = build_graph
        self.layers = layers
        self.buckets = length_buckets(max_seq, smallest_bucket)
        self.pool_size = pool_size
        self.session_config = session_config if session_config is not None else SessionConfig()
        self.cache = cache
        self.runtime = runtime if runtime is not None else Runtime.resolve()
        self.metrics = self.runtime.metrics
        self.tracer = self.runtime.tracer
        self.retries = retries
        self._pools: Dict[int, SessionPool] = {}
        # Largest memory plan built by any bucket so far: donated to the
        # next bucket's sessions so adjacent buckets share one arena
        # layout instead of re-planning per bucket.
        self._donor_plan: Optional[MemoryPlan] = None

    def _offer_donor(self, plan: Optional[MemoryPlan]) -> None:
        if plan is None:
            return
        if self._donor_plan is None or plan.arena_bytes > self._donor_plan.arena_bytes:
            self._donor_plan = plan

    def _pool(self, bucket: int) -> SessionPool:
        pool = self._pools.get(bucket)
        if pool is None:
            graph = self.build_graph(bucket)
            config = self.session_config
            key = self.cache.key(graph, config) if self.cache is not None else None

            def factory() -> Session:
                session, _ = warm_session(
                    graph, config, self.cache, key, self.runtime,
                    self.retries, donor=self._donor_plan,
                )
                self._offer_donor(session.memory_plan)
                return session

            pool = SessionPool(
                factory, self.pool_size, self.retries, runtime=self.runtime
            )
            self._pools[bucket] = pool
        return pool

    def warm(self) -> None:
        """Prepare every bucket up front (the Figure-3 prepare phase).

        Largest bucket first: its memory plan becomes the donor every
        smaller bucket adapts (same tensors, same liveness intervals,
        smaller sizes), so the whole bucket ladder shares one arena
        layout and plans memory exactly once.
        """
        for bucket in reversed(self.buckets):
            self._pool(bucket)

    def run(self, prompt: List[int], slab: KVSlab) -> np.ndarray:
        """Execute the prompt; fill ``slab`` rows ``[:len(prompt)]``.

        Returns the last prompt token's logits row ``(vocab,)`` — the
        distribution the first generated token is sampled from.
        """
        n = len(prompt)
        if n < 1:
            raise ValueError("empty prompt")
        if slab.capacity < n:
            raise ValueError(
                f"slab capacity {slab.capacity} cannot hold a {n}-token prompt"
            )
        bucket = bucket_for_length(n, self.buckets)
        tokens = np.zeros((1, bucket), np.int32)
        tokens[0, :n] = np.asarray(prompt, np.int32)
        positions = np.arange(bucket, dtype=np.int32).reshape(1, bucket)
        with self.tracer.span("genai.prefill", "genai", tokens=n, bucket=bucket):
            with self._pool(bucket).acquire() as session:
                out = session.run({"tokens": tokens, "positions": positions})
        for layer in range(self.layers):
            slab.write_k(layer, 0, out[f"l{layer}_k"][0, :, :n, :])
            slab.write_v(layer, 0, out[f"l{layer}_v"][0, :, :n, :])
        slab.length = n
        self.metrics.counter("genai.prefill_tokens").inc(n)
        return out["logits"][0, n - 1]

    def close(self) -> None:
        self._pools.clear()
