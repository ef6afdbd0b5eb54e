"""The concurrent serving engine: cache + pool + batcher in one front door.

``Engine`` is what a model server embeds.  On construction it builds
either a pool of worker sessions over one graph or, with ``batching``,
the dynamic micro-batcher, consulting the persistent pre-inference cache
so that every process after the first creates its sessions warm (a
fraction of the cold ``prepare_wall_ms``).  At request time it checks a
session out of the pool (isolation: each worker owns its
clock/arena/executions) or routes single-sample requests through the
batcher.

Typical use::

    engine = Engine(graph, EngineConfig(pool_size=4))
    with engine:
        out = engine.infer({"data": x})          # thread-safe
    print(engine.stats.describe())
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..core.session import Session, SessionConfig
from ..faults import DeadlineExceeded, FaultPlan, InjectedFault, mark_isolated
from ..faults.resilience import Deadline
from ..ir.graph import Graph
from ..obs.metrics import MetricsRegistry, get_metrics
from ..obs.requests import RequestTracker
from ..obs.resources import ResourceSampler
from ..obs.tracer import Tracer
from ..runtime import Runtime
from ..sanitize import Sanitizer
from .batching import MicroBatcher
from .cache import PreInferenceCache, warm_session
from .pool import SessionPool

__all__ = ["EngineConfig", "EngineStats", "Engine"]


@dataclass
class EngineConfig:
    """Serving-layer options (wraps a per-worker :class:`SessionConfig`).

    Attributes:
        session: configuration applied to every pooled session.
        pool_size: number of concurrently runnable worker sessions
            (unused with ``batching``, which builds no pool).
        use_cache: consult/populate the persistent pre-inference cache.
        cache_dir: cache location override (default: ``$REPRO_CACHE_DIR``
            or ``~/.cache/repro``).
        batching: coalesce requests into micro-batches instead of running
            each on its own pooled session.
        max_batch: micro-batch sample cap.
        batch_timeout_ms: how long a lone request waits for company.
        trace: a :class:`repro.obs.Tracer` receiving serving spans (cache
            hit/miss, session creation, pool checkout waits, batch
            assembly) and every worker session's pre-inference and
            per-op spans.  ``None`` falls back to the process-wide tracer.
        metrics: the :class:`repro.obs.MetricsRegistry` backing this
            engine's :class:`EngineStats`, pool and batcher counters.
            ``None`` creates a private registry per engine.
        faults: a :class:`repro.faults.FaultPlan` injected at every
            serving-layer fault point (cache load/store, pool checkout,
            batch assembly) and into every worker session.  ``None``
            falls back to the process-wide plan (``$REPRO_FAULTS``,
            default disabled).
        deadline_ms: default per-request deadline budget for
            :meth:`Engine.infer`; ``None`` means no deadline.
        retries: extra attempts for transient failures (cache IO, pool
            checkout) before escalating.
        requests: request-level observability.  A
            :class:`repro.obs.RequestTracker` (used as-is — attach a
            :class:`repro.obs.FlightRecorder` to it for postmortem
            dumps), ``True`` for a fresh tracker observing SLO
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
    batch_timeout_ms: float = 2.0
    trace: Optional[Tracer] = None
    metrics: Optional[MetricsRegistry] = None
    faults: Optional[FaultPlan] = None
    deadline_ms: Optional[float] = None
    retries: int = 3
    sanitize: Union[bool, Sanitizer] = False
    requests: Union[bool, RequestTracker, None] = None


class EngineStats:
    """Cache and traffic stats: a thin view over the engine's metrics.

    Historically a plain dataclass of counters; now every number lives in
    a :class:`repro.obs.MetricsRegistry` (counters ``engine.cache.hits``/
    ``engine.cache.misses``/``engine.requests``, histograms
    ``engine.prepare.cold_ms``/``engine.prepare.warm_ms``) and this class
    keeps the old attribute API as read-only properties, so
    ``engine.stats.cache_hits`` and ``cli metrics``' snapshot can never
    disagree.
    """

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    @property
    def cache_hits(self) -> int:
        return int(self.metrics.counter("engine.cache.hits").value)

    @property
    def cache_misses(self) -> int:
        return int(self.metrics.counter("engine.cache.misses").value)

    @property
    def cold_prepare_ms(self) -> List[float]:
        return self.metrics.histogram("engine.prepare.cold_ms").values

    @property
    def warm_prepare_ms(self) -> List[float]:
        return self.metrics.histogram("engine.prepare.warm_ms").values

    @property
    def requests(self) -> int:
        return int(self.metrics.counter("engine.requests").value)

    def record_prepare(self, hit: bool, prepare_ms: float) -> None:
        if hit:
            self.metrics.counter("engine.cache.hits").inc()
            self.metrics.histogram("engine.prepare.warm_ms").observe(prepare_ms)
        else:
            self.metrics.counter("engine.cache.misses").inc()
            self.metrics.histogram("engine.prepare.cold_ms").observe(prepare_ms)

    def record_request(self) -> None:
        self.metrics.counter("engine.requests").inc()

    @property
    def hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def describe(self) -> str:
        cold = np.mean(self.cold_prepare_ms) if self.cold_prepare_ms else 0.0
        warm = np.mean(self.warm_prepare_ms) if self.warm_prepare_ms else 0.0
        parts = [
            f"cache {self.cache_hits} hits / {self.cache_misses} misses "
            f"({self.hit_rate * 100:.0f}% hit rate)",
            f"prepare cold {cold:.1f} ms / warm {warm:.1f} ms",
            f"{self.requests} requests served",
        ]
        return "; ".join(parts)


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
        self.stats = EngineStats(self.metrics)
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
        # Exactly one request path gets sessions: batched requests never
        # check a pooled session out, so batching builds no pool.
        self.pool: Optional[SessionPool] = None
        self.batcher: Optional[MicroBatcher] = None
        if c.batching:
            self.batcher = MicroBatcher(
                self._create_session,
                max_batch=c.max_batch,
                timeout_ms=c.batch_timeout_ms,
                runtime=self.runtime,
            )
        else:
            self.pool = SessionPool(
                self._create_session, c.pool_size, c.retries, runtime=self.runtime
            )
        # Resource counter tracks (pool idle seats, in-flight requests,
        # cache hit rate) are only worth their samples when someone is
        # watching — a request tracker or an enabled tracer.
        self.sampler: Optional[ResourceSampler] = None
        if self.requests.enabled or self.tracer.enabled:
            sources = {
                "res.engine.inflight": lambda: self.metrics.gauge("engine.inflight").value,
                "res.engine.cache_hit_rate": lambda: self.stats.hit_rate,
            }
            if self.pool is not None:
                sources["res.pool.idle"] = lambda: self.metrics.gauge("pool.idle").value
            self.sampler = ResourceSampler(
                sources=sources, tracer=self.tracer, metrics=self.metrics
            )

    # -- session creation (the cache-warmed factory) -------------------------
    def _create_session(self) -> Session:
        """Build one worker session, warm when the cache has the artifacts.

        The first creation in a cold process is the only one paying full
        pre-inference; it immediately persists its artifacts, so the
        remaining workers — and every future process — come up warm.
        """
        with self.tracer.span("engine.create_session", "serving") as span:
            session, hit = warm_session(
                self.graph, self.config.session, self.cache, self.cache_key,
                self.runtime, self.config.retries,
            )
            self.stats.record_prepare(hit, session.prepare_wall_ms)
            span.set(cache_hit=hit, prepare_ms=session.prepare_wall_ms)
        return session

    # -- inference ----------------------------------------------------------
    def infer(
        self,
        feeds: Dict[str, np.ndarray],
        deadline_ms: Optional[float] = None,
    ) -> Dict[str, np.ndarray]:
        """Run one inference; safe to call from many threads at once.

        ``deadline_ms`` (default: ``EngineConfig.deadline_ms``) bounds the
        whole request — pool checkout, batch wait and execution all spend
        from one budget — raising :class:`~repro.faults.DeadlineExceeded`
        instead of hanging.

        Raises:
            DeadlineExceeded: the request's deadline budget ran out.
            PoolTimeout: no pool worker freed up in time.
            InjectedFault: an injected fault exhausted every resilience
                path; this request failed alone (``faults.isolated``) —
                the engine itself keeps serving.
        """
        self.stats.record_request()
        if deadline_ms is None:
            deadline_ms = self.config.deadline_ms
        deadline = Deadline.from_ms(deadline_ms)
        tracker = self.requests
        timeline = None
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
                    future = self.batcher.submit(feeds, timeline=timeline)
                    if deadline is None:
                        out = future.result()
                    else:
                        try:
                            out = future.result(timeout=deadline.remaining_s())
                        except (TimeoutError, _FuturesTimeout):
                            raise DeadlineExceeded(
                                deadline.budget_ms, deadline.elapsed_ms(),
                                "batch.wait",
                            ) from None
                else:
                    with self.pool.acquire(deadline=deadline) as session:
                        if timeline is not None:
                            timeline.admitted(path="pool")
                        out = session.run(feeds, deadline=deadline)
            if timeline is not None:
                timeline.finish("ok")
            return out
        except DeadlineExceeded as exc:
            if timeline is not None:
                timeline.event(
                    "deadline_exceeded", where=exc.where,
                    budget_ms=exc.budget_ms, elapsed_ms=exc.elapsed_ms,
                )
                timeline.finish("deadline")
                tracker.dump(
                    "DeadlineExceeded", timeline.request_id, detail=exc.where
                )
            raise
        except InjectedFault as exc:
            # The fault beat every resilience layer: this one request
            # fails alone, counted exactly once across the layers it
            # crossed (mark_isolated deduplicates via the exception).
            mark_isolated(exc)
            if timeline is not None:
                timeline.event(
                    "fault_isolated",
                    kind=type(exc).__name__,
                    site=str(getattr(exc, "site", "")),
                )
                timeline.finish("fault")
                tracker.dump(
                    type(exc).__name__, timeline.request_id,
                    detail=str(getattr(exc, "site", "")),
                )
            raise
        except Exception:
            if timeline is not None:
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
        """Stop the batcher thread (pooled sessions need no teardown).

        The batcher object — and its :class:`~repro.serving.BatchStats` —
        stays accessible for post-run reporting; only new submissions are
        rejected.
        """
        if self.batcher is not None:
            self.batcher.close()

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
