"""Session pool: N independently prepared sessions over one shared graph.

A single :class:`~repro.core.Session` is not safe for concurrent ``run``
calls — each run mutates per-session state (the virtual ``clock``,
``last_run``, and in ``arena_execution`` mode the one pre-allocated
:class:`~repro.core.Arena`).  The pool therefore checks out a *whole
session* per in-flight request: every worker owns its own executions,
clock and arena, while the immutable inputs (the graph's nodes, the
constant table) are shared, and warm pool construction shares one cached
:class:`~repro.serving.PreInferenceArtifacts` across all workers.
"""

from __future__ import annotations

import queue
import time
from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional

from ..core.session import Session
from ..faults import PoolTimeout, retry_transient
from ..faults.resilience import Deadline
from ..obs.metrics import MetricsRegistry
from ..runtime import Runtime

__all__ = ["SessionPool"]


class SessionPool:
    """A fixed-size blocking pool of ready-to-run sessions.

    Checkout pressure is observable: every acquire increments the
    ``pool.checkouts`` counter and lands its wait in the ``pool.wait_ms``
    histogram (with a ``pool.checkout_wait`` span when waiting actually
    blocked and tracing is on), and ``pool.idle`` gauges the free-worker
    count — the numbers that say whether the pool, not the kernels, is
    the serving bottleneck.
    """

    def __init__(
        self,
        factory: Callable[[], Session],
        size: int,
        retries: int = 3,
        *,
        runtime: Optional[Runtime] = None,
    ) -> None:
        """Build ``size`` sessions eagerly via ``factory``.

        Eager construction keeps the failure mode simple (a broken model
        fails at pool creation, not mid-traffic) and lets the serving
        cache amortize pre-inference across all workers: the first
        ``factory()`` call is the only potentially cold one.  Without a
        ``runtime`` the pool counts into a private registry.
        """
        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        if runtime is None:
            runtime = Runtime.resolve(metrics=MetricsRegistry())
        self.metrics = runtime.metrics
        self.tracer = runtime.tracer
        self.faults = runtime.faults
        self.sanitizer = runtime.sanitizer
        self.retries = retries
        self._sessions: List[Session] = [factory() for _ in range(size)]
        self._free: "queue.Queue[Session]" = queue.Queue()
        for session in self._sessions:
            if self.sanitizer.enabled:
                # Queue put happens-before the matching get: construction
                # (and every return below) is ordered before the next
                # checkout, however threads interleave.
                self.sanitizer.hb_send(("pool.session", id(session)))
            self._free.put(session)
        self.metrics.gauge("pool.idle").set(size)

    @property
    def size(self) -> int:
        return len(self._sessions)

    @property
    def sessions(self) -> List[Session]:
        """All pooled sessions (introspection/stats; do not run directly)."""
        return list(self._sessions)

    @contextmanager
    def acquire(
        self, timeout: float = None, deadline: Optional[Deadline] = None
    ) -> Iterator[Session]:
        """Check out a session; blocks when all workers are busy.

        A ``deadline`` caps the wait at the request's remaining budget
        (tighter of the two when ``timeout`` is also given).

        Raises:
            PoolTimeout: if ``timeout`` (seconds) elapses with no free
                worker — backpressure instead of unbounded queueing.
            DeadlineExceeded: if the request's deadline expires first.
        """
        if deadline is not None:
            deadline.check("pool.checkout")
            remaining = deadline.remaining_s()
            timeout = remaining if timeout is None else min(timeout, remaining)
        plan = self.faults
        if plan.enabled:
            # Transient checkout faults are retried here with backoff;
            # exhaustion escalates the TransientFault to the caller.
            retry_transient(
                lambda: plan.fire("pool.checkout"),
                retries=self.retries,
                rng=plan.rng_for("pool.checkout"),
                deadline=deadline,
                label="pool.checkout",
            )
        start = time.perf_counter()
        try:
            session = self._free.get(timeout=timeout) if timeout is not None \
                else self._free.get()
        except queue.Empty:
            wait_s = time.perf_counter() - start
            if deadline is not None and deadline.expired:
                deadline.check("pool.checkout")
            raise PoolTimeout(wait_s, self.size, self._free.qsize()) from None
        acquired = time.perf_counter()
        if self.sanitizer.enabled:
            self.sanitizer.hb_recv(("pool.session", id(session)))
            self.sanitizer.probe(self, "idle", "w", lockset=("gauge.pool.idle",))
        self.metrics.counter("pool.checkouts").inc()
        self.metrics.histogram("pool.wait_ms").observe((acquired - start) * 1000.0)
        # An atomic delta, NOT gauge.set(qsize()): read-modify-write over
        # the queue size from concurrent checkouts loses updates (the
        # sanitizer's first real find — a stats race, exactly as
        # predicted), and a stale qsize() could stick as the final value.
        self.metrics.gauge("pool.idle").add(-1)
        if self.tracer.enabled:
            self.tracer.record(
                "pool.checkout_wait", "serving", start, acquired,
                idle=self._free.qsize(),
            )
        try:
            yield session
        finally:
            if self.sanitizer.enabled:
                self.sanitizer.probe(self, "idle", "w", lockset=("gauge.pool.idle",))
                self.sanitizer.hb_send(("pool.session", id(session)))
            self._free.put(session)
            self.metrics.gauge("pool.idle").add(1)

    def idle(self) -> int:
        """Approximate number of currently free sessions."""
        return self._free.qsize()
