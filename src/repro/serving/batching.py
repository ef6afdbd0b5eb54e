"""Dynamic micro-batching: coalesce single-sample requests into batches.

Kernels amortize per-op overhead over the batch dimension (one Winograd
tile GEMM over ``N * tiles`` instead of ``N`` separate GEMMs), so serving
throughput rises when concurrent single-sample requests run as one
batched inference — the trick MNN-LLM and every production server lean
on.  Running independent batches side by side matters as much: BLAS and
the NumPy ufuncs release the GIL, so two batches keep two cores busy.

The :class:`MicroBatcher` keeps one pending queue, bucketed by each
request's *per-sample* input signature (names, trailing shapes, dtypes),
and ``seats``, each the sessions one holder runs.  It has no threads:
batches form by flat combining on the callers' own threads.  A caller
enqueues its requests, then loops until every one is answered: while a
seat is free and anything is pending, it takes the bucket that has
waited longest and runs its share now — the bucket's samples divided
over the free seats, up to ``max_batch`` — whoever's requests those are.
Dispatch is work-conserving and never waits on a timer, so batches grow
only when every seat is busy, and every pending request has its owner in
the loop, so the queue cannot strand.  Leftovers requeue behind every
other waiting bucket.  :meth:`MicroBatcher.submit_many` enqueues its
requests in one step, so a free seat sees them all at once.

A seat has one session per signature, resized in place
(``Session.resize`` re-runs pre-inference) when its batch size changes;
batches of one size — the steady state, where batches stay at one
sample until every seat is busy — never resize.

Semantics: every input of a request must share one leading (batch)
dimension, and the graph must treat axis 0 as the batch axis (true of the
CNN zoo; the transformer graphs fix their batch in a Reshape).  Requests
with mismatched signatures never share a batch; a failing batch is
bisected so that a poison request fails alone.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.session import Session
from ..faults import DeadlineExceeded, mark_isolated
from ..faults.resilience import Deadline
from ..ir.graph import GraphError
from ..obs.metrics import MetricsRegistry, get_metrics
from ..obs.requests import NULL_TIMELINE
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


class _Pending:
    """One validated request; ``timeline`` is stamped admitted when its
    batch assembles."""

    def __init__(self, feeds: Dict[str, np.ndarray], timeline=NULL_TIMELINE) -> None:
        if not feeds:
            raise GraphError("empty feed dict")
        dims = {int(np.asarray(v).shape[0]) if np.asarray(v).ndim else 0
                for v in feeds.values()}
        if len(dims) != 1 or 0 in dims:
            raise GraphError(
                f"batching requires every input to share one leading batch "
                f"dimension; got leading dims {sorted(dims)}"
            )
        self.feeds = dict(feeds)
        self.batch_dim = dims.pop()
        #: The bucket key: input names, trailing shapes and dtypes.
        self.sig = tuple((name, feeds[name].shape[1:], str(feeds[name].dtype))
                         for name in sorted(feeds))
        self.timeline = timeline
        self.future: "Future[Dict[str, np.ndarray]]" = Future()


class _Seat:
    """Signature -> the session its batches run on, resized in place.

    Taken and given back under ``batcher.cond`` with a happens-before
    edge each way, so its holder is its sessions' probe owner."""

    def __init__(self) -> None:
        self.sessions: Dict[Tuple, Session] = {}


class MicroBatcher:
    """Coalesces concurrent requests into shape-bucketed micro-batches,
    run in first-arrival order on the callers' threads (see the module
    docstring)."""

    def __init__(
        self,
        session_factory: Callable[[], Session],
        max_batch: int = 8,
        *,
        seats: int = 1,
        runtime: Optional[Runtime] = None,
    ) -> None:
        """Args:
            session_factory: builds a session at the graph's native shapes
                (the engine passes its cache-warmed factory); each seat
                calls it once per input signature, on that signature's
                first batch.
            max_batch: the most samples one batch runs (a single larger
                request runs alone).
            seats: batches that may run side by side, each on its own
                sessions (the engine passes ``pool_size`` capped at the
                cores the process may run on).
            runtime: the engine's instruments; its registry backs
                :class:`BatchStats` (so all serving stats share one
                snapshot) and its tracer receives batch assembly/run spans
                on the threads that run them.  ``None`` resolves the
                process-wide defaults with a private registry.
        """
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if seats < 1:
            raise ValueError(f"seats must be >= 1, got {seats}")
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
        self._seats = [_Seat() for _ in range(seats)]
        #: Seats no caller holds.  Guarded by ``_lock``.
        self._free = list(self._seats)
        self._closed = False

    @property
    def seats(self) -> int:
        """Batches that may run side by side."""
        return len(self._seats)

    # -- client side --------------------------------------------------------
    def submit(
        self, feeds: Dict[str, np.ndarray], timeline=NULL_TIMELINE,
        deadline: Optional[Deadline] = None,
    ) -> "Future[Dict[str, np.ndarray]]":
        """Serve one request (see :meth:`submit_many`).

        ``timeline`` (a :class:`repro.obs.requests.RequestTimeline`) is
        stamped admitted, with the batch composition, when the request's
        micro-batch runs.
        """
        return self.submit_many([feeds], [timeline], deadline=deadline)[0]

    def submit_many(
        self,
        feeds_list: Sequence[Dict[str, np.ndarray]],
        timelines: Optional[Sequence[object]] = None,
        deadline: Optional[Deadline] = None,
    ) -> "List[Future[Dict[str, np.ndarray]]]":
        """Enqueue requests in one step, then run batches on this thread
        until each is answered; returns one resolved future per request.

        All requests are validated, then enqueued under one lock
        acquisition, so a free seat sees the whole call: requests that
        fit ``max_batch`` on a lone free seat share one batch.

        * A request still pending when ``deadline`` expires leaves its
          bucket and raises ``DeadlineExceeded(where="batch.wait")``; one
          already running in another caller's batch is abandoned.
        * A ``BaseException`` raised while this caller runs a batch
          re-raises here; every other request of that batch, and of this
          call, raises ``RuntimeError``.  The seat goes back first.
        """
        if timelines is None:
            timelines = [NULL_TIMELINE] * len(feeds_list)
        if len(timelines) != len(feeds_list):
            raise ValueError(
                f"{len(feeds_list)} requests but {len(timelines)} timelines"
            )
        own = [_Pending(feeds, timeline)
               for feeds, timeline in zip(feeds_list, timelines)]
        self._combine(own, deadline)
        return [item.future for item in own]

    def infer(self, feeds: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """One request's output dict (:meth:`submit`'s answer)."""
        return self.submit(feeds).result()

    def close(self) -> None:
        """Latch closed (a later submit raises ``RuntimeError``), wait
        until nothing is pending and every seat is free, and drop the
        batch sessions here, not when the engine holding this batcher is
        collected: each one holds its activation arena.
        """
        with self.sanitizer.locked(self._cond, "batcher.cond"):
            self._closed = True
            while self._pending or len(self._free) < len(self._seats):
                self._cond.wait()
        for seat in self._seats:
            seat.sessions.clear()

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- flat combining -----------------------------------------------------
    def _combine(self, own: List[_Pending], deadline: Optional[Deadline]) -> None:
        """Enqueue ``own``, then run batches on this thread until it is
        answered."""
        seat = None
        try:
            with self.sanitizer.locked(self._cond, "batcher.cond"):
                if self._closed:
                    raise RuntimeError("MicroBatcher is closed")
                if self.sanitizer.enabled:
                    self.sanitizer.probe(self, "pending", "w")
                for item in own:
                    self._pending.setdefault(item.sig, []).append(item)
                taken = self._next(own, deadline)
            while taken is not None:
                seat, sig, items = taken
                try:
                    answers = list(zip(items, self._run_batch(seat, sig, items)))
                except Exception as exc:
                    answers = self._degrade(seat, sig, items, exc)
                with self.sanitizer.locked(self._cond, "batcher.cond"):
                    self._give_back(seat, answers)
                    seat = None
                    taken = self._next(own, deadline)
        except BaseException as exc:
            # An interrupt (or the closed latch) is no request's failure:
            # answer every request it strands, then re-raise.
            err = RuntimeError(f"micro-batch interrupted by {type(exc).__name__}")
            with self.sanitizer.locked(self._cond, "batcher.cond"):
                if seat is not None:
                    self._give_back(seat, [(item, err) for item in items])
                self._withdraw(own, err)
            raise

    def _next(
        self, own: List[_Pending], deadline: Optional[Deadline]
    ) -> Optional[Tuple[_Seat, Tuple, List[_Pending]]]:
        """This caller's next batch, or ``None`` once ``own`` is answered
        or withdrawn at ``deadline``.  Called with the lock held."""
        while not all(item.future.done() for item in own):
            if self._free and self._pending:
                return self._take_bucket()
            if deadline is not None and deadline.expired:
                self._withdraw(own, DeadlineExceeded(
                    deadline.budget_ms, deadline.elapsed_ms(), "batch.wait"
                ))
                return None
            self._cond.wait(None if deadline is None else deadline.remaining_s())
        return None

    def _take_bucket(self) -> Tuple[_Seat, Tuple, List[_Pending]]:
        """Pop a free seat and its share of the oldest bucket.

        Called with the lock held.  The share is the bucket's pending
        samples divided over the free seats (this one included), up to
        ``max_batch``, so work is split across cores rather than batched
        onto one.  Leftovers are re-appended, behind every other waiting
        bucket, so a busy bucket cannot starve its siblings.
        """
        if self.sanitizer.enabled:
            self.sanitizer.probe(self, "pending", "w")
        sig = next(iter(self._pending))
        items = self._pending.pop(sig)
        idle = len(self._free)
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
        seat = self._free.pop()
        if self._free and self._pending:
            self._cond.notify_all()  # a waiting caller can run the rest
        if self.sanitizer.enabled:
            self.sanitizer.hb_recv(("batcher.seat", id(seat)))
        return seat, sig, taken

    def _give_back(
        self, seat: _Seat, answers: List[Tuple[_Pending, object]]
    ) -> None:
        """Free ``seat`` and resolve its answers, but not those abandoned
        at their deadline.  Called with the lock held."""
        if self.sanitizer.enabled:
            self.sanitizer.hb_send(("batcher.seat", id(seat)))
        self._free.append(seat)
        for item, answer in answers:
            if item.future.done():
                pass
            elif isinstance(answer, BaseException):
                item.future.set_exception(answer)
            else:
                item.future.set_result(answer)
        self._cond.notify_all()

    def _withdraw(self, own: List[_Pending], exc: BaseException) -> None:
        """Answer ``own``'s unanswered requests with ``exc``, taking them
        out of their buckets.  Called with the lock held."""
        if self.sanitizer.enabled:
            self.sanitizer.probe(self, "pending", "w")
        for item in own:
            bucket = self._pending.get(item.sig, ())
            if item in bucket:
                bucket.remove(item)
                if not bucket:
                    del self._pending[item.sig]
            if not item.future.done():
                item.future.set_exception(exc)
        self._cond.notify_all()

    def _degrade(
        self, seat: _Seat, sig: Tuple, items: List[_Pending], exc: Exception,
    ) -> List[Tuple[_Pending, object]]:
        """Graceful degradation: bisect a failed batch and retry the halves.

        A poison request thereby fails alone (its answer is the real
        exception, annotated with the bucket and cohort size) while its
        batch-mates still get results.  Returns each item with its result
        dict or exception, answered once the seat is given back.
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
                answers.extend(zip(half, self._run_batch(seat, sig, half)))
            except Exception as sub:
                answers.extend(self._degrade(seat, sig, half, sub))
        return answers

    def _run_batch(
        self, seat: _Seat, sig: Tuple, items: List[_Pending]
    ) -> List[Dict[str, np.ndarray]]:
        tracer = self.tracer
        total = sum(item.batch_dim for item in items)
        with tracer.span("batch.run", "serving",
                         requests=len(items), samples=total) as batch_span:
            if self.sanitizer.enabled:
                # No lockset on purpose: only the seat's holder touches
                # its sessions, so an unordered second thread is a race.
                self.sanitizer.probe(seat, "sessions", "w")
            session = seat.sessions.get(sig)
            if session is None:
                session = seat.sessions[sig] = self._factory()  # sanitize: single-thread
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
