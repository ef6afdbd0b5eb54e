"""Dynamic micro-batching: coalesce single-sample requests into batches.

Kernels amortize per-op overhead over the batch dimension (one Winograd
tile GEMM over ``N * tiles`` instead of ``N`` separate GEMMs), so serving
throughput rises sharply when concurrent single-sample requests are run
as one batched inference — the trick MNN-LLM and every production server
lean on.

The :class:`MicroBatcher` keeps a small pending queue.  Requests are
bucketed by their *per-sample* input signature (names, trailing shapes,
dtypes); a dispatcher thread waits up to ``timeout_ms`` for the bucket to
fill to ``max_batch``, stacks the feeds along axis 0, runs one pooled
batch session — resized to the micro-batch size via the existing
``Session.resize`` machinery, which re-runs pre-inference once per new
batch size — and splits the outputs back per request.

Semantics: every input of a request must share one leading (batch)
dimension, and the graph must treat axis 0 as the batch axis (true of the
whole model zoo).  Requests with mismatched signatures never share a
batch; a failing batch fails exactly the requests in it.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..core.session import Session
from ..faults import mark_isolated
from ..ir.graph import GraphError
from ..obs.metrics import MetricsRegistry, get_metrics
from ..runtime import Runtime

__all__ = ["BatchStats", "MicroBatcher"]


class BatchStats:
    """Coalescing counters: a thin view over a metrics registry.

    Backed by ``batch.requests`` / ``batch.batches`` /
    ``batch.batched_requests`` / ``batch.resizes`` counters, the
    ``batch.max_seen`` gauge and the ``batch.size`` histogram, so the
    batcher's self-description and an exported metrics snapshot are the
    same numbers.
    """

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    @property
    def requests(self) -> int:
        return int(self.metrics.counter("batch.requests").value)

    @property
    def batches(self) -> int:
        return int(self.metrics.counter("batch.batches").value)

    @property
    def batched_requests(self) -> int:
        """Requests that shared a batch with at least one other."""
        return int(self.metrics.counter("batch.batched_requests").value)

    @property
    def resizes(self) -> int:
        return int(self.metrics.counter("batch.resizes").value)

    @property
    def max_batch_seen(self) -> int:
        return int(self.metrics.gauge("batch.max_seen").value)

    def record_batch(self, n_requests: int, total_samples: int) -> None:
        self.metrics.counter("batch.requests").inc(n_requests)
        self.metrics.counter("batch.batches").inc()
        if n_requests > 1:
            self.metrics.counter("batch.batched_requests").inc(n_requests)
        self.metrics.gauge("batch.max_seen").track_max(total_samples)
        self.metrics.histogram("batch.size").observe(total_samples)

    def record_resize(self) -> None:
        self.metrics.counter("batch.resizes").inc()

    def mean_batch_size(self) -> float:
        return self.requests / self.batches if self.batches else 0.0


@dataclass
class _Pending:
    feeds: Dict[str, np.ndarray]
    batch_dim: int
    #: Request timeline (repro.obs.requests.RequestTimeline) riding along
    #: so the dispatcher can stamp admission when the batch assembles.
    timeline: Optional[object] = None
    future: "Future[Dict[str, np.ndarray]]" = field(default_factory=Future)


def _signature(feeds: Dict[str, np.ndarray]) -> Tuple:
    """Per-sample bucket key: input names, trailing shapes and dtypes."""
    return tuple(
        (name, tuple(feeds[name].shape[1:]), str(feeds[name].dtype))
        for name in sorted(feeds)
    )


class MicroBatcher:
    """Coalesces concurrent requests into shape-bucketed micro-batches."""

    def __init__(
        self,
        session_factory: Callable[[], Session],
        max_batch: int = 8,
        timeout_ms: float = 2.0,
        *,
        runtime: Optional[Runtime] = None,
    ) -> None:
        """Args:
            session_factory: builds a batch-execution session at the
                graph's native shapes (the engine passes its cache-warmed
                factory); one such session is created lazily per shape
                bucket and resized as micro-batch sizes change.
            max_batch: dispatch as soon as this many samples are pending.
            timeout_ms: how long the first request in a bucket waits for
                company before running alone.
            runtime: the engine's instruments; its registry backs
                :class:`BatchStats` (so all serving stats share one
                snapshot) and its tracer receives batch assembly/run spans
                on the dispatcher thread.  ``None`` resolves the
                process-wide defaults with a private registry.
        """
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self._factory = session_factory
        self.max_batch = max_batch
        self.timeout_ms = timeout_ms
        if runtime is None:
            runtime = Runtime.resolve(metrics=MetricsRegistry())
        self.tracer = runtime.tracer
        self.faults = runtime.faults
        self.sanitizer = runtime.sanitizer
        self.stats = BatchStats(runtime.metrics)
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._pending: Dict[Tuple, List[_Pending]] = {}
        #: Fill deadline per bucket, fixed at its *first* request's
        #: arrival — the dispatcher picks the earliest-deadline bucket,
        #: so no bucket's wait restarts and none starves behind a busy
        #: sibling.  Guarded by ``_lock``.
        self._deadlines: Dict[Tuple, float] = {}
        self._sessions: Dict[Tuple, Session] = {}
        # Largest memory plan any bucket session has built: offered to
        # sibling sessions before resize so adjacent shape buckets adapt
        # one shared arena layout instead of re-planning (dispatcher-
        # thread-only, like the sessions themselves).
        self._donor_plan = None
        self._running = True
        self._thread = threading.Thread(
            target=self._dispatch_loop, name="repro-microbatcher", daemon=True
        )
        self._thread.start()

    # -- client side --------------------------------------------------------
    def submit(
        self, feeds: Dict[str, np.ndarray], timeline: Optional[object] = None
    ) -> "Future[Dict[str, np.ndarray]]":
        """Enqueue one request; the future resolves to its output dict.

        ``timeline`` (a :class:`repro.obs.requests.RequestTimeline`)
        propagates the caller's request identity into batch assembly:
        the dispatcher stamps admission — with the batch composition —
        the moment the request's micro-batch dispatches.
        """
        if not feeds:
            raise GraphError("empty feed dict")
        dims = {int(np.asarray(v).shape[0]) if np.asarray(v).ndim else 0
                for v in feeds.values()}
        if len(dims) != 1 or 0 in dims:
            raise GraphError(
                f"batching requires every input to share one leading batch "
                f"dimension; got leading dims {sorted(dims)}"
            )
        item = _Pending(feeds=dict(feeds), batch_dim=dims.pop(), timeline=timeline)
        with self.sanitizer.locked(self._cond, "batcher.cond"):
            if not self._running:
                raise RuntimeError("MicroBatcher is closed")
            if self.sanitizer.enabled:
                self.sanitizer.probe(self, "pending", "w")
            sig = _signature(feeds)
            bucket = self._pending.setdefault(sig, [])
            if not bucket:
                # First request of a (re)opened bucket starts its fill
                # clock; later arrivals never extend it.
                self._deadlines[sig] = (
                    time.monotonic() + self.timeout_ms / 1000.0
                )
            bucket.append(item)
            self._cond.notify_all()
        return item.future

    def infer(self, feeds: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Blocking convenience wrapper over :meth:`submit`."""
        return self.submit(feeds).result()

    def close(self) -> None:
        """Stop the dispatcher after draining already-queued requests."""
        with self.sanitizer.locked(self._cond, "batcher.cond"):
            self._running = False
            self._cond.notify_all()
        self._thread.join()
        if self.sanitizer.enabled:
            # join: everything the dispatcher did happens-before us.
            self.sanitizer.hb_recv(("batcher.dispatcher", id(self)))

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- dispatcher ---------------------------------------------------------
    def _take_bucket(self) -> Optional[Tuple[Tuple, List[_Pending]]]:
        """Pop a dispatchable bucket, waiting for batches to fill.

        Called with the lock held.  Returns ``None`` when closed and
        drained.

        Earliest-deadline-first over the fill deadlines recorded at each
        bucket's first-request arrival: a bucket created while the
        dispatcher waited on (or ran) another one keeps its original
        deadline, so a lone request waits at most ``timeout_ms`` from
        *arrival* and a busy bucket cannot starve its siblings.  Any
        bucket opened during the wait has a strictly later deadline, so
        the chosen bucket stays the earliest until it dispatches.
        """
        while True:
            if not self._pending:
                if not self._running:
                    return None
                self._cond.wait()
                continue
            if self.sanitizer.enabled:
                self.sanitizer.probe(self, "pending", "r")
            sig = min(self._pending, key=lambda s: self._deadlines.get(s, 0.0))
            if self._running and self.timeout_ms > 0:
                deadline = self._deadlines.get(sig, time.monotonic())
                while (
                    sum(i.batch_dim for i in self._pending.get(sig, ()))
                    < self.max_batch
                    and self._running
                ):
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._cond.wait(remaining):
                        break
            if self.sanitizer.enabled:
                self.sanitizer.probe(self, "pending", "w")
            items = self._pending.pop(sig, [])
            self._deadlines.pop(sig, None)
            if not items:
                continue
            # Cap at max_batch samples; the rest go back to the queue.
            taken: List[_Pending] = []
            total = 0
            while items and total + items[0].batch_dim <= self.max_batch:
                item = items.pop(0)
                taken.append(item)
                total += item.batch_dim
            if not taken:  # one oversized request: run it alone
                taken.append(items.pop(0))
            if items:
                # Leftovers reopen the bucket with a fresh deadline —
                # behind every other waiting bucket, never ahead (an
                # already-expired deadline must not keep winning).
                self._pending.setdefault(sig, []).extend(items)
                self._deadlines[sig] = (
                    time.monotonic() + self.timeout_ms / 1000.0
                )
            return sig, taken

    def _dispatch_loop(self) -> None:
        while True:
            with self.sanitizer.locked(self._cond, "batcher.cond"):
                bucket = self._take_bucket()
            if bucket is None:
                if self.sanitizer.enabled:
                    self.sanitizer.hb_send(("batcher.dispatcher", id(self)))
                return
            sig, items = bucket
            try:
                results = self._run_batch(sig, items)
            except Exception as exc:
                self._degrade(sig, items, exc)
                continue
            except BaseException as exc:
                # KeyboardInterrupt / SystemExit are not per-request
                # failures: unblock waiters with a plain error, then let
                # the interrupt take down the dispatcher thread itself.
                err = RuntimeError(
                    f"batch dispatcher interrupted by {type(exc).__name__} "
                    f"(bucket {sig!r}, {len(items)} requests in flight)"
                )
                for item in items:
                    if not item.future.done():
                        item.future.set_exception(err)
                raise
            for item, result in zip(items, results):
                item.future.set_result(result)

    def _degrade(self, sig: Tuple, items: List[_Pending], exc: Exception) -> None:
        """Graceful degradation: bisect a failed batch and retry the halves.

        A poison request thereby fails alone (its future gets the real
        exception, annotated with the bucket and cohort size) while its
        batch-mates still get answers.  Each non-terminal retry counts in
        ``retry.attempts``; a terminal single-request failure of an
        injected fault counts once in ``faults.isolated``.
        """
        try:
            exc.batch_bucket = sig
            exc.batch_members = len(items)
        except AttributeError:  # exceptions with __slots__
            pass
        if len(items) == 1:
            mark_isolated(exc)
            if not items[0].future.done():
                items[0].future.set_exception(exc)
            return
        get_metrics().counter("retry.attempts").inc()
        if self.tracer.enabled:
            self.tracer.instant(
                "batch.bisect", "serving", requests=len(items), error=str(exc)
            )
        mid = (len(items) + 1) // 2
        for half in (items[:mid], items[mid:]):
            try:
                results = self._run_batch(sig, half)
            except Exception as sub:
                self._degrade(sig, half, sub)
            else:
                for item, result in zip(half, results):
                    item.future.set_result(result)

    def _harvest_donor(self, session: Session) -> None:
        """Keep the largest plan any bucket session built as the donor."""
        plan = session.memory_plan
        if plan is None:
            return
        if self._donor_plan is None or plan.arena_bytes > self._donor_plan.arena_bytes:
            self._donor_plan = plan

    def _run_batch(
        self, sig: Tuple, items: List[_Pending]
    ) -> List[Dict[str, np.ndarray]]:
        tracer = self.tracer
        total = sum(item.batch_dim for item in items)
        with tracer.span("batch.run", "serving",
                         requests=len(items), samples=total) as batch_span:
            if self.sanitizer.enabled:
                # No lockset on purpose: bucket sessions are dispatcher-
                # owned, so any second thread here is a real race.
                self.sanitizer.probe(self, "sessions", "w")
            session = self._sessions.get(sig)
            if session is None:
                # Bucket sessions are owned by the dispatcher thread; no
                # other thread ever touches them.
                session = self._sessions[sig] = self._factory()  # sanitize: single-thread
                self._harvest_donor(session)
            with tracer.span("batch.assemble", "serving"):
                if self.faults.enabled:
                    self.faults.fire(
                        "batch.assemble", requests=len(items), samples=total
                    )
                feeds = {
                    name: np.concatenate(
                        [item.feeds[name] for item in items], axis=0
                    )
                    for name in items[0].feeds
                }
            for item in items:
                if item.timeline is not None:
                    item.timeline.admitted(requests=len(items), samples=total)
            # Resize the bucket session once per new micro-batch size; the
            # pre-inference rerun is amortized across every later batch of
            # that size.
            current = {
                name: session.graph.desc(name).shape for name in session.graph.inputs
            }
            wanted = {name: tuple(arr.shape) for name, arr in feeds.items()}
            if current != wanted:
                session.offer_plan_donor(self._donor_plan)
                with tracer.span("batch.resize", "serving"):
                    session.resize(wanted)
                self.stats.record_resize()
                self._harvest_donor(session)
                batch_span.set(resized=True)
            outputs = session.run(feeds)
            self.stats.record_batch(len(items), total)
            # Split along axis 0 by each request's batch dim.
            with tracer.span("batch.split", "serving"):
                results: List[Dict[str, np.ndarray]] = []
                start = 0
                for item in items:
                    stop = start + item.batch_dim
                    results.append(
                        {name: arr[start:stop] for name, arr in outputs.items()}
                    )
                    start = stop
        return results
