"""Dynamic micro-batching: coalesce single-sample requests into batches.

Kernels amortize per-op overhead over the batch dimension (one Winograd
tile GEMM over ``N * tiles`` instead of ``N`` separate GEMMs), so serving
throughput rises when concurrent single-sample requests run as one
batched inference — the trick MNN-LLM and every production server lean
on.  Running independent batches side by side matters as much: BLAS and
the NumPy ufuncs release the GIL, so two dispatchers keep two cores busy.

The :class:`MicroBatcher` keeps one pending queue, bucketed by each
request's *per-sample* input signature (names, trailing shapes, dtypes),
and runs ``dispatchers`` threads over it.  Dispatch is work-conserving
and never waits on a timer: a free dispatcher takes the bucket that has
waited longest and runs its share of it now — the bucket's samples
divided over the idle dispatchers, up to ``max_batch`` — so no core
idles while a request waits and batches grow only when every dispatcher
is busy.  Leftovers requeue behind every other waiting bucket.
:meth:`MicroBatcher.submit_many` enqueues its requests in one step, so
an idle dispatcher sees them all at once.

Each dispatcher owns one batch session per signature, resized in place
(``Session.resize`` re-runs pre-inference) when its batch size changes;
batches of one size — the steady state, where batches stay at one
sample until every dispatcher is busy — never resize.

Semantics: every input of a request must share one leading (batch)
dimension, and the graph must treat axis 0 as the batch axis (true of the
CNN zoo; the transformer graphs fix their batch in a Reshape).  Requests
with mismatched signatures never share a batch; a failing batch is
bisected so that a poison request fails alone.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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


def _request(
    feeds: Dict[str, np.ndarray], timeline: Optional[object]
) -> _Pending:
    """Validate one request's feeds; every input shares one batch dim."""
    if not feeds:
        raise GraphError("empty feed dict")
    dims = {int(np.asarray(v).shape[0]) if np.asarray(v).ndim else 0
            for v in feeds.values()}
    if len(dims) != 1 or 0 in dims:
        raise GraphError(
            f"batching requires every input to share one leading batch "
            f"dimension; got leading dims {sorted(dims)}"
        )
    return _Pending(feeds=dict(feeds), batch_dim=dims.pop(), timeline=timeline)


def _signature(feeds: Dict[str, np.ndarray]) -> Tuple:
    """Per-sample bucket key: input names, trailing shapes and dtypes."""
    return tuple(
        (name, tuple(feeds[name].shape[1:]), str(feeds[name].dtype))
        for name in sorted(feeds)
    )


class _Dispatcher:
    """One dispatcher thread and the batch sessions only it runs.

    The dispatcher is also the sanitizer's probe owner for its sessions,
    so two threads touching one dispatcher's sessions is reported as a
    race.
    """

    def __init__(self) -> None:
        #: signature -> the session its batches run on, resized in place.
        self.sessions: Dict[Tuple, Session] = {}
        self.thread: Optional[threading.Thread] = None


class MicroBatcher:
    """Coalesces concurrent requests into shape-bucketed micro-batches.

    Buckets dispatch in first-arrival order, each free dispatcher taking
    its share of the oldest one at once (see the module docstring).
    """

    def __init__(
        self,
        session_factory: Callable[[], Session],
        max_batch: int = 8,
        *,
        dispatchers: int = 1,
        runtime: Optional[Runtime] = None,
    ) -> None:
        """Args:
            session_factory: builds a session at the graph's native shapes
                (the engine passes its cache-warmed factory); each
                dispatcher calls it once per input signature, on that
                signature's first batch.
            max_batch: the most samples one batch runs (a single larger
                request runs alone).
            dispatchers: threads running batches side by side, each on
                its own sessions (the engine passes ``pool_size`` capped
                at the cores the process may run on).
            runtime: the engine's instruments; its registry backs
                :class:`BatchStats` (so all serving stats share one
                snapshot) and its tracer receives batch assembly/run spans
                on the dispatcher threads.  ``None`` resolves the
                process-wide defaults with a private registry.
        """
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if dispatchers < 1:
            raise ValueError(f"dispatchers must be >= 1, got {dispatchers}")
        self._factory = session_factory
        self.max_batch = max_batch
        if runtime is None:
            runtime = Runtime.resolve(metrics=MetricsRegistry())
        self.tracer = runtime.tracer
        self.faults = runtime.faults
        self.sanitizer = runtime.sanitizer
        self.stats = BatchStats(runtime.metrics)
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        #: signature -> its waiting requests, buckets in first-arrival
        #: order (dict insertion order).  Guarded by ``_lock``.
        self._pending: Dict[Tuple, List[_Pending]] = {}
        #: Dispatchers between taking a batch and finishing it.  Guarded
        #: by ``_lock``.
        self._busy = 0
        self._running = True
        self._dispatchers = [_Dispatcher() for _ in range(dispatchers)]
        for i, d in enumerate(self._dispatchers):
            d.thread = threading.Thread(
                target=self._dispatch_loop, args=(d,),
                name=f"repro-microbatcher-{i}", daemon=True,
            )
            d.thread.start()

    @property
    def dispatchers(self) -> int:
        """Dispatcher threads running batches side by side."""
        return len(self._dispatchers)

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
        return self.submit_many([feeds], [timeline])[0]

    def submit_many(
        self,
        feeds_list: Sequence[Dict[str, np.ndarray]],
        timelines: Optional[Sequence[Optional[object]]] = None,
    ) -> "List[Future[Dict[str, np.ndarray]]]":
        """Enqueue several requests at once; one future per request.

        Every request is validated before any is enqueued, and all of
        them enter the queue under one lock acquisition, so an idle
        dispatcher sees the whole call: requests that fit ``max_batch``
        on a lone dispatcher share one batch.
        """
        if timelines is None:
            timelines = [None] * len(feeds_list)
        if len(timelines) != len(feeds_list):
            raise ValueError(
                f"{len(feeds_list)} requests but {len(timelines)} timelines"
            )
        items = [_request(feeds, timeline)
                 for feeds, timeline in zip(feeds_list, timelines)]
        with self.sanitizer.locked(self._cond, "batcher.cond"):
            if not self._running:
                raise RuntimeError("MicroBatcher is closed")
            if self.sanitizer.enabled:
                self.sanitizer.probe(self, "pending", "w")
            for item in items:
                self._pending.setdefault(_signature(item.feeds), []).append(item)
            self._cond.notify_all()
        return [item.future for item in items]

    def infer(self, feeds: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Blocking convenience wrapper over :meth:`submit`."""
        return self.submit(feeds).result()

    def close(self) -> None:
        """Stop the dispatchers after draining already-queued requests.

        The batch sessions are dropped here, not when the engine holding
        this batcher is collected: each one holds its activation arena.
        """
        with self.sanitizer.locked(self._cond, "batcher.cond"):
            self._running = False
            self._cond.notify_all()
        for d in self._dispatchers:
            d.thread.join()
            if self.sanitizer.enabled:
                # join: everything the dispatcher did happens-before us.
                self.sanitizer.hb_recv(("batcher.dispatcher", id(d)))
            d.sessions.clear()

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- dispatchers --------------------------------------------------------
    def _take_bucket(self) -> Optional[Tuple[Tuple, List[_Pending]]]:
        """Pop the calling dispatcher's batch: its share of the oldest bucket.

        Called with the lock held.  Returns ``None`` when closed and
        drained.  The share is the bucket's pending samples divided over
        the idle dispatchers, up to ``max_batch``, so work is split
        across cores rather than batched onto one.  Leftovers are
        re-appended, behind every other waiting bucket, so a busy bucket
        cannot starve its siblings.
        """
        while not self._pending:
            if not self._running:
                return None
            self._cond.wait()
        if self.sanitizer.enabled:
            self.sanitizer.probe(self, "pending", "w")
        sig = next(iter(self._pending))
        items = self._pending.pop(sig)
        idle = len(self._dispatchers) - self._busy
        pending = sum(item.batch_dim for item in items)
        cap = min(self.max_batch, -(-pending // idle))
        taken: List[_Pending] = []
        total = 0
        while items and total + items[0].batch_dim <= cap:
            item = items.pop(0)
            taken.append(item)
            total += item.batch_dim
        if not taken:  # one oversized request: run it alone
            taken.append(items.pop(0))
        if items:
            self._pending[sig] = items
            self._cond.notify()
        self._busy += 1
        return sig, taken

    def _dispatch_loop(self, dispatcher: _Dispatcher) -> None:
        while True:
            with self.sanitizer.locked(self._cond, "batcher.cond"):
                bucket = self._take_bucket()
            if bucket is None:
                if self.sanitizer.enabled:
                    self.sanitizer.hb_send(("batcher.dispatcher", id(dispatcher)))
                return
            sig, items = bucket
            try:
                answers = list(zip(items, self._run_batch(dispatcher, sig, items)))
            except Exception as exc:
                answers = self._degrade(dispatcher, sig, items, exc)
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
            # Free before answering: a client answered here may resubmit
            # at once, and its request must see this dispatcher as idle.
            with self.sanitizer.locked(self._cond, "batcher.cond"):
                self._busy -= 1
            for item, answer in answers:
                if isinstance(answer, BaseException):
                    item.future.set_exception(answer)
                else:
                    item.future.set_result(answer)

    def _degrade(
        self, dispatcher: _Dispatcher, sig: Tuple, items: List[_Pending],
        exc: Exception,
    ) -> List[Tuple[_Pending, object]]:
        """Graceful degradation: bisect a failed batch and retry the halves.

        A poison request thereby fails alone (its answer is the real
        exception, annotated with the bucket and cohort size) while its
        batch-mates still get results.  Returns each item with its result
        dict or exception; the dispatcher answers them once it is free.
        Each non-terminal retry counts in ``retry.attempts``; a terminal
        single-request failure of an injected fault counts once in
        ``faults.isolated``.
        """
        try:
            exc.batch_bucket = sig
            exc.batch_members = len(items)
        except AttributeError:  # exceptions with __slots__
            pass
        if len(items) == 1:
            mark_isolated(exc)
            return [(items[0], exc)]
        get_metrics().counter("retry.attempts").inc()
        if self.tracer.enabled:
            self.tracer.instant(
                "batch.bisect", "serving", requests=len(items), error=str(exc)
            )
        mid = (len(items) + 1) // 2
        answers: List[Tuple[_Pending, object]] = []
        for half in (items[:mid], items[mid:]):
            try:
                answers.extend(zip(half, self._run_batch(dispatcher, sig, half)))
            except Exception as sub:
                answers.extend(self._degrade(dispatcher, sig, half, sub))
        return answers

    def _run_batch(
        self, dispatcher: _Dispatcher, sig: Tuple, items: List[_Pending]
    ) -> List[Dict[str, np.ndarray]]:
        tracer = self.tracer
        total = sum(item.batch_dim for item in items)
        with tracer.span("batch.run", "serving",
                         requests=len(items), samples=total) as batch_span:
            if self.sanitizer.enabled:
                # No lockset on purpose: batch sessions are dispatcher-
                # owned, so any second thread here is a real race.
                self.sanitizer.probe(dispatcher, "sessions", "w")
            session = dispatcher.sessions.get(sig)
            if session is None:
                # Batch sessions are owned by their dispatcher thread; no
                # other thread ever touches them.
                session = dispatcher.sessions[sig] = self._factory()  # sanitize: single-thread
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
            # Resize the batch session once per new micro-batch size; the
            # pre-inference rerun is amortized across every later batch of
            # that size.
            current = {
                name: session.graph.desc(name).shape for name in session.graph.inputs
            }
            wanted = {name: tuple(arr.shape) for name, arr in feeds.items()}
            if current != wanted:
                with tracer.span("batch.resize", "serving"):
                    session.resize(wanted)
                self.stats.record_resize()
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
