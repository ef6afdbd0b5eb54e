"""GenerationEngine: the autoregressive front door.

Mirrors :class:`repro.serving.Engine`'s shape — one config object, one
entry point, shared observability/fault plumbing — but swaps the
request-in/logits-out contract for prompt-in/tokens-out.  Construction
is the prepare phase: the KV arena and the runner come up before the
first prompt, and :meth:`GenerationEngine.warm` prepares the cold prompt
cell of every length bucket, so ``generate`` is pure execute (paper
Figure 3, stretched across the decode loop).  Every session the engine
builds runs the one cached-attention ``decode`` graph; ``full`` mode is
only the recompute oracle of the tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from ..core.session import SessionConfig
from ..faults.plan import FaultPlan
from ..ir.graph import Graph
from ..models.text import tiny_decoder
from ..obs.metrics import MetricsRegistry
from ..obs.requests import RequestTracker
from ..obs.resources import ResourceSampler
from ..obs.tracer import Tracer
from ..runtime import Runtime
from ..sanitize import Sanitizer
from .decode import DecodeRunner
from .kvcache import KVCacheAllocator, KVCacheConfig
from .prefix import PrefixCache
from .sampling import SamplingParams
from .scheduler import ContinuousBatchScheduler, GenRequest, GenResult

__all__ = ["GenerationConfig", "GenerationEngine"]


@dataclass
class GenerationConfig:
    """Everything the generation engine needs, in one place.

    The model fields parameterize :func:`repro.models.tiny_decoder`; the
    serving fields mirror :class:`repro.serving.EngineConfig`.
    ``capacity_tokens`` defaults to two full batches of ``max_seq`` —
    enough that admission control, not raw capacity, is the common case.
    Prompts pad up to length buckets doubling from 8 tokens, and
    transient KV-allocation faults are retried 3 times.
    """

    vocab: int = 256
    max_seq: int = 64
    d_model: int = 64
    heads: int = 4
    layers: int = 2
    seed: int = 0

    max_batch: int = 4
    page_tokens: int = 8
    capacity_tokens: Optional[int] = None
    #: Serve common prompt prefixes from retired sequences' KV slabs
    #: (copy-on-write) instead of re-prefilling.  Opt-in.  Token outputs
    #: are bit-identical with the cache on or off.
    prefix_cache: bool = False
    #: Shortest prefix worth sharing; shorter matches re-prefill.
    min_prefix_tokens: int = 4
    #: KV-cache storage dtype: ``"float32"`` (verbatim rows) or
    #: ``"int8"`` (per-row symmetric quantization, dequant-on-read —
    #: ~3-4x more tokens per arena byte; see :mod:`repro.quant.kv`).
    #: Quantized decode stays deterministic and seeded-replayable: the
    #: quantized bytes are a pure function of each row, and admission
    #: samples the first token from a one-token step over dequantized
    #: rows, as every later step does.
    kv_dtype: str = "float32"
    #: Quantize the decoder's MatMul weights to int8 at build time via
    #: :func:`repro.quant.quantize_graph` (weight-only; activations
    #: quantize dynamically per row inside the int8 GEMM).  Orthogonal
    #: to ``kv_dtype``.
    quantize_weights: bool = False

    session: SessionConfig = field(default_factory=SessionConfig)
    trace: Optional[Tracer] = None
    metrics: Optional[MetricsRegistry] = None
    faults: Optional[FaultPlan] = None
    #: ``True`` builds one enabled :class:`repro.sanitize.Sanitizer` and
    #: threads it through the allocator, scheduler and every decode
    #: session, so races/lock cycles/KV lifecycle bugs across the
    #: whole generation stack land in a single report.
    sanitize: Union[bool, Sanitizer] = False
    #: Request-level observability: a :class:`repro.obs.RequestTracker`
    #: (give it a ``postmortem_dir`` for postmortem dumps), ``True`` for
    #: a fresh tracker observing SLO histograms (queue wait / TTFT /
    #: TPOT / tokens-per-sec) into this engine's registry, or ``None``
    #: for the process-wide tracker (disabled by default).
    requests: Union[bool, RequestTracker, None] = None


class GenerationEngine:
    """Continuous-batching generation over one decoder model."""

    def __init__(self, config: Optional[GenerationConfig] = None) -> None:
        self.config = config = config or GenerationConfig()
        # One runtime spans every component and worker session, so
        # cross-component sanitizer findings share one vector-clock space.
        self.runtime = Runtime.resolve(
            trace=config.trace, metrics=config.metrics, faults=config.faults,
            sanitize=config.sanitize, requests=config.requests,
        )
        self.metrics = self.runtime.metrics
        self.tracer = self.runtime.tracer
        self.faults = self.runtime.faults
        self.sanitizer = self.runtime.sanitizer
        self.requests = self.runtime.requests
        capacity = (
            config.capacity_tokens
            if config.capacity_tokens is not None
            else 2 * config.max_batch * config.max_seq
        )
        self.kv_config = KVCacheConfig(
            layers=config.layers,
            heads=config.heads,
            d_head=config.d_model // config.heads,
            page_tokens=config.page_tokens,
            capacity_tokens=capacity,
            max_seq=config.max_seq,
            kv_dtype=config.kv_dtype,
        )
        self.allocator = KVCacheAllocator(self.kv_config, runtime=self.runtime)
        self.decode = DecodeRunner(
            self._decode_graph,
            layers=config.layers,
            max_batch=config.max_batch,
            max_seq=config.max_seq,
            session_config=config.session,
            runtime=self.runtime,
        )
        self.prefix_cache = (
            PrefixCache(min_prefix=config.min_prefix_tokens)
            if config.prefix_cache else None
        )
        self._raw_ids = itertools.count()     # ids for raw-prompt requests
        # KV/arena counter tracks for Perfetto and BENCH series, sampled
        # by the scheduler at every decode-step boundary; only built when
        # a tracker or tracer is actually watching.
        self.sampler: Optional[ResourceSampler] = None
        if self.requests.enabled or self.tracer.enabled:
            self.sampler = ResourceSampler(
                sources={
                    "res.kv.page_utilization": self.allocator.page_utilization,
                    "res.kv.token_utilization": self.allocator.token_utilization,
                    "res.kv.free_pages": (
                        lambda: float(self.allocator.free_pages)
                    ),
                    "res.prefix.hit_rate": self._prefix_hit_rate,
                },
                tracer=self.tracer,
                metrics=self.metrics,
            )
        self.scheduler = ContinuousBatchScheduler(
            self.decode,
            self.allocator,
            max_batch=config.max_batch,
            max_seq=config.max_seq,
            prefix_cache=self.prefix_cache,
            sampler=self.sampler,
            runtime=self.runtime,
        )

    def _prefix_hit_rate(self) -> float:
        served = self.metrics.value("genai.requests")
        hits = self.metrics.value("genai.prefix_hits")
        return hits / served if served else 0.0

    # -- graph variants (one weight set, many shapes) ------------------------
    def _model_kwargs(self) -> Dict[str, int]:
        c = self.config
        return dict(
            vocab=c.vocab, max_seq=c.max_seq, d_model=c.d_model,
            heads=c.heads, layers=c.layers, seed=c.seed,
        )

    def _maybe_quantize(self, graph: Graph) -> Graph:
        if not self.config.quantize_weights:
            return graph
        # Every cell is built from the same seed, so the shared weight
        # constants quantize to identical int8 bytes and scales — and
        # because the int8 GEMM accumulates exactly, a row's bits never
        # depend on the cell that computed it.
        from ..quant import quantize_graph

        return quantize_graph(graph)

    def _decode_graph(self, batch: int, tokens: int, capacity: int) -> Graph:
        return self._maybe_quantize(tiny_decoder(
            mode="decode", batch=batch, seq_len=tokens, cache_len=capacity,
            **self._model_kwargs()
        ))

    # -- the front door ------------------------------------------------------
    def generate(
        self,
        prompts: Sequence[Union[Sequence[int], GenRequest]],
        params: Optional[SamplingParams] = None,
    ) -> List[GenResult]:
        """Generate for every prompt; results in input order.

        ``prompts`` may be raw token lists (wrapped as requests
        ``req-0``, ``req-1``... sharing ``params``; the numbering runs
        on across calls, so a later call never reuses the id of a
        sequence whose KV slab is still retained) or pre-built
        :class:`GenRequest` objects for per-request control.  While
        requests are tracked the ids come from the tracker, so engines
        sharing one tracker never mint the same id.
        """
        shared = params if params is not None else SamplingParams()
        tracker = self.requests
        requests: List[GenRequest] = []
        for p in prompts:
            if isinstance(p, GenRequest):
                requests.append(p)
            else:
                rid = (
                    tracker.next_id() if tracker.enabled
                    else f"req-{next(self._raw_ids)}"
                )
                requests.append(GenRequest(rid, list(p), shared))
        with self.tracer.span("genai.generate", "genai", requests=len(requests)):
            return self.scheduler.run(requests)

    def warm(self) -> None:
        """Prepare the cold prompt cell of every length bucket eagerly
        (step and prefix-hit cells prepare on first use, since they
        depend on observed batch sizes and capacities)."""
        self.decode.warm()

    def stats(self) -> Dict[str, float]:
        """KV-arena and throughput counters for dashboards/benchmarks.

        ``prefill_tokens`` counts every prompt token the runner computed,
        the suffix of a prefix hit included; the shared prefix itself is
        ``prefix_hit_tokens``.  ``decode_tokens`` counts one-token steps
        (under int8 KV, each prompt's last token is one).
        ``decode_sessions`` counts every prepared cell, cold prompt cells
        included.
        """
        return {
            "kv_page_utilization": self.allocator.page_utilization(),
            "kv_token_utilization": self.allocator.token_utilization(),
            "kv_free_pages": float(self.allocator.free_pages),
            "kv_bytes_per_token": float(self.kv_config.per_token_bytes),
            "prefill_tokens": float(self.metrics.value("genai.prefill_tokens")),
            "decode_tokens": float(self.metrics.value("genai.decode_tokens")),
            "requests": float(self.metrics.value("genai.requests")),
            "request_errors": float(self.metrics.value("genai.request_errors")),
            "evictions": float(self.metrics.value("kvcache.evictions")),
            "decode_sessions": float(len(self.decode.prepared)),
            "prefix_hits": float(self.metrics.value("genai.prefix_hits")),
            "prefix_hit_tokens": float(self.metrics.value("genai.prefix_hit_tokens")),
            "cow_materializes": float(self.metrics.value("kvcache.cow_materializes")),
        }

    def close(self) -> None:
        self.decode.close()
        # Leak check last: any slab still *live* here was allocated and
        # never released.  Findings land in self.sanitizer.report().
        self.allocator.close()
        if self.sanitizer.enabled and self.requests.enabled:
            report = self.sanitizer.report()
            findings = {
                "races": len(report.races),
                "lock_cycles": len(report.lock_cycles),
                "lifecycle": len(report.lifecycle),
            }
            if any(findings.values()):
                # A dirty sanitizer report is a postmortem trigger like
                # any fault: dump counts (not finding text, which embeds
                # run-varying object ids) so the artifact stays
                # deterministic.
                self.requests.dump("sanitizer", findings=findings)
