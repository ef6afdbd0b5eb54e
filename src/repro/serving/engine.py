"""The concurrent serving engine: cache + pool + batcher in one front door.

``Engine`` is what a model server embeds.  On construction it builds
either a pool of worker sessions over one graph or, with ``batching``,
the dynamic micro-batcher, consulting the persistent pre-inference cache
so that every process after the first creates its sessions warm (a
fraction of the cold ``prepare_wall_ms``).  At request time it checks a
session out of the pool (isolation: each worker owns its
clock/executions) or hands the request to the batcher, which runs it —
batched with whatever else is pending — on the caller's own thread.

Typical use::

    engine = Engine(graph, EngineConfig(pool_size=4))
    with engine:
        out = engine.infer({"data": x})          # thread-safe
    print(engine.metrics.describe())             # cache hits, prepare ms, requests
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..core.session import Session, SessionArtifacts, SessionConfig
from ..faults import DeadlineExceeded, FaultPlan, InjectedFault, mark_isolated
from ..faults.resilience import Deadline
from ..ir.graph import Graph
from ..obs.metrics import MetricsRegistry, get_metrics
from ..obs.requests import NULL_TIMELINE, RequestTracker
from ..obs.resources import ResourceSampler
from ..obs.tracer import Tracer
from ..runtime import Runtime
from ..sanitize import Sanitizer
from .batching import MicroBatcher
from .cache import PreInferenceCache, warm_session
from .pool import SessionPool

__all__ = ["EngineConfig", "Engine"]


def _usable_cpus() -> int:
    """Cores this process may run on: its CPU affinity where the platform
    reports one, else every core of the host."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass
class EngineConfig:
    """Serving-layer options (wraps a per-worker :class:`SessionConfig`).

    Attributes:
        session: configuration applied to every pooled session.
        pool_size: number of concurrently runnable worker sessions.
            With ``batching`` it is the number of batcher seats (batches
            that may run side by side, each on its own sessions), capped
            at the cores the process may run on; no pool is built.
        use_cache: consult/populate the persistent pre-inference cache.
        cache_dir: cache location override (default: ``$REPRO_CACHE_DIR``
            or ``~/.cache/repro``).
        batching: coalesce requests into micro-batches instead of running
            each on its own pooled session.
        max_batch: micro-batch sample cap.  No request waits for
            company: a caller that finds a seat free runs what is
            pending, so batches form only under load.
        trace: a :class:`repro.obs.Tracer` receiving serving spans (cache
            hit/miss, session creation, pool checkout waits, batch
            assembly) and every worker session's pre-inference and
            per-op spans.  ``None`` falls back to the process-wide tracer.
        metrics: the :class:`repro.obs.MetricsRegistry` receiving this
            engine's counters (``engine.cache.hits``/``engine.cache.misses``,
            ``engine.requests``), prepare histograms
            (``engine.prepare.cold_ms``/``engine.prepare.warm_ms``) and its
            pool and batcher counters.  ``None`` creates a private
            registry per engine.
        faults: a :class:`repro.faults.FaultPlan` injected at every
            serving-layer fault point (cache load/store, pool checkout,
            batch assembly) and into every worker session.  ``None``
            falls back to the process-wide plan (``$REPRO_FAULTS``,
            default disabled).  Transient cache-IO and pool-checkout
            faults are retried 3 times before escalating.
        requests: request-level observability.  A
            :class:`repro.obs.RequestTracker` (used as-is — give it a
            ``postmortem_dir`` for postmortem dumps), ``True`` for a
            fresh tracker observing SLO
            histograms into this engine's registry, or ``None`` for the
            process-wide tracker (disabled by default, so the per-
            request cost is one attribute check).
        sanitize: a :class:`repro.sanitize.Sanitizer` (or ``True`` for a
            fresh one) spanning the whole serving stack: pool checkout
            handoffs, batcher lock discipline, cache entries and every
            worker session's probes, so one detector sees every layer's
            events.

    The five instrument fields resolve once, in :class:`Engine`, into one
    :class:`repro.Runtime` that the engine hands to its pool, batcher,
    cache and every worker session.
    """

    session: SessionConfig = field(default_factory=SessionConfig)
    pool_size: int = 2
    use_cache: bool = True
    cache_dir: Optional[str] = None
    batching: bool = False
    max_batch: int = 8
    trace: Optional[Tracer] = None
    metrics: Optional[MetricsRegistry] = None
    faults: Optional[FaultPlan] = None
    sanitize: Union[bool, Sanitizer] = False
    requests: Union[bool, RequestTracker, None] = None


class Engine:
    """A thread-safe, cache-warmed, optionally batching inference server."""

    def __init__(self, graph: Graph, config: Optional[EngineConfig] = None) -> None:
        self.graph = graph
        self.config = config or EngineConfig()
        c = self.config
        self.runtime = Runtime.resolve(
            trace=c.trace,
            metrics=c.metrics if c.metrics is not None else MetricsRegistry(),
            faults=c.faults, sanitize=c.sanitize, requests=c.requests,
        )
        self.tracer = self.runtime.tracer
        self.metrics = self.runtime.metrics
        self.faults = self.runtime.faults
        self.sanitizer = self.runtime.sanitizer
        self.requests = self.runtime.requests
        # The cache's own counters (corrupt/quarantined entries and the
        # fallback.cache reconciliation counter) live in the process-wide
        # registry, not the engine's private one.
        self.cache = (
            PreInferenceCache(
                c.cache_dir, runtime=replace(self.runtime, metrics=get_metrics())
            )
            if c.use_cache else None
        )
        #: The engine's pre-inference cache key (``None`` when uncached).
        self.cache_key = (
            self.cache.key(graph, c.session) if self.cache is not None else None
        )
        # The artifacts every session after the first is built from.
        self._artifacts: Optional[SessionArtifacts] = None
        self._artifacts_lock = threading.Lock()
        # Exactly one request path gets sessions: batched requests never
        # check a pooled session out, so batching builds no pool.
        self.pool: Optional[SessionPool] = None
        self.batcher: Optional[MicroBatcher] = None
        if c.batching:
            self.batcher = MicroBatcher(
                self._create_session,
                max_batch=c.max_batch,
                seats=min(c.pool_size, _usable_cpus()),
                runtime=self.runtime,
            )
        else:
            self.pool = SessionPool(
                self._create_session, c.pool_size, runtime=self.runtime
            )
        # Resource counter tracks (pool idle seats, in-flight requests,
        # cache hit rate) are only worth their samples when someone is
        # watching — a request tracker or an enabled tracer.
        self.sampler: Optional[ResourceSampler] = None
        if self.requests.enabled or self.tracer.enabled:
            sources = {
                "res.engine.inflight": lambda: self.metrics.gauge("engine.inflight").value,
                "res.engine.cache_hit_rate": self._cache_hit_rate,
            }
            if self.pool is not None:
                sources["res.pool.idle"] = lambda: self.metrics.gauge("pool.idle").value
            self.sampler = ResourceSampler(
                sources=sources, tracer=self.tracer, metrics=self.metrics
            )

    # -- session creation (the cache-warmed factory) -------------------------
    def _create_session(self) -> Session:
        """Build one worker session, warm when the cache has the artifacts.

        The engine's first creation reads the cache entry (or, cold, runs
        full pre-inference and persists its artifacts); with a cache,
        every later session of the engine is built from that first
        session's artifacts in memory, so the entry is read,
        digest-checked and decoded once per engine.  Sessions never
        mutate the artifacts they are given, so one object serves them
        all.  Without a cache every session prepares cold.
        """
        with self.tracer.span("engine.create_session", "serving") as span:
            # Creations queue here so that only the first reads the entry.
            with self._artifacts_lock:
                if self._artifacts is None:
                    session, hit = warm_session(
                        self.graph, self.config.session, self.cache,
                        self.cache_key, self.runtime,
                    )
                    if self.cache is not None:
                        self._artifacts = session.export_artifacts()
                else:
                    self.tracer.instant("cache.hit", "serving", key=self.cache_key,
                                        in_memory=True)
                    session, hit = Session(
                        self.graph, self.config.session, self._artifacts,
                        runtime=self.runtime,
                    ), True
            self.metrics.counter(
                "engine.cache.hits" if hit else "engine.cache.misses"
            ).inc()
            self.metrics.histogram(
                "engine.prepare.warm_ms" if hit else "engine.prepare.cold_ms"
            ).observe(session.prepare_wall_ms)
            span.set(cache_hit=hit, prepare_ms=session.prepare_wall_ms)
        return session

    def _cache_hit_rate(self) -> float:
        hits = self.metrics.value("engine.cache.hits")
        total = hits + self.metrics.value("engine.cache.misses")
        return hits / total if total else 0.0

    # -- inference ----------------------------------------------------------
    def infer(
        self,
        feeds: Dict[str, np.ndarray],
        deadline_ms: Optional[float] = None,
    ) -> Dict[str, np.ndarray]:
        """Run one inference; safe to call from many threads at once.

        ``deadline_ms`` (default: none) bounds the whole request — pool
        checkout, batch wait and execution all spend from one budget —
        raising :class:`~repro.faults.DeadlineExceeded` instead of hanging.

        Raises:
            DeadlineExceeded: the request's deadline budget ran out.
            PoolTimeout: no pool worker freed up in time.
            InjectedFault: an injected fault exhausted every resilience
                path; this request failed alone (``faults.isolated``) —
                the engine itself keeps serving.
        """
        self.metrics.counter("engine.requests").inc()
        deadline = Deadline.from_ms(deadline_ms)
        tracker = self.requests
        timeline = NULL_TIMELINE
        if tracker.enabled:
            timeline = tracker.start(
                tracker.next_id(),
                "infer",
                batched=self.batcher is not None,
                deadline_ms=deadline_ms,
            )
        if self.sampler is not None:
            self.metrics.gauge("engine.inflight").add(1)
        try:
            with self.tracer.span("engine.infer", "serving",
                                  batched=self.batcher is not None):
                if self.batcher is not None:
                    out = self.batcher.submit(
                        feeds, timeline=timeline, deadline=deadline
                    ).result()
                else:
                    with self.pool.acquire(deadline=deadline) as session:
                        timeline.admitted(path="pool")
                        out = session.run(feeds, deadline=deadline)
            timeline.finish("ok")
            return out
        except DeadlineExceeded as exc:
            timeline.event(
                "deadline_exceeded", where=exc.where,
                budget_ms=exc.budget_ms, elapsed_ms=exc.elapsed_ms,
            )
            timeline.finish("deadline")
            tracker.dump("DeadlineExceeded", timeline.request_id, detail=exc.where)
            raise
        except InjectedFault as exc:
            # The fault beat every resilience layer: this one request
            # fails alone, counted exactly once across the layers it
            # crossed (mark_isolated deduplicates via the exception).
            mark_isolated(exc)
            site = str(getattr(exc, "site", ""))
            timeline.event("fault_isolated", kind=type(exc).__name__, site=site)
            timeline.finish("fault")
            tracker.dump(type(exc).__name__, timeline.request_id, detail=site)
            raise
        except Exception:
            timeline.finish("error")
            raise
        finally:
            if self.sampler is not None:
                self.metrics.gauge("engine.inflight").add(-1)
                self.sampler.sample()

    def infer_many(
        self,
        requests: Sequence[Dict[str, np.ndarray]],
        clients: int = 4,
    ) -> List[Dict[str, np.ndarray]]:
        """Run ``requests`` from ``clients`` concurrent threads, in order.

        Convenience driver for load tests and ``cli serve``: results are
        returned in request order regardless of completion order.
        """
        if clients < 1:
            raise ValueError(f"clients must be >= 1, got {clients}")
        with ThreadPoolExecutor(
            max_workers=clients, thread_name_prefix="serve-client"
        ) as pool:
            return list(pool.map(self.infer, requests))

    # -- lifecycle ----------------------------------------------------------
    def close(self) -> None:
        """Close the batcher (pooled sessions need no teardown).

        New batched submissions are rejected; requests already queued
        finish on their callers' threads, then the batch sessions are
        dropped.  The batcher object — and its
        :class:`~repro.serving.BatchStats` — stays accessible for
        post-run reporting.
        """
        if self.batcher is not None:
            self.batcher.close()

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
