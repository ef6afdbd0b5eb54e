"""The cluster tier's typed error taxonomy.

Every way a request can fail at the router is a distinct type, because
callers react differently to each one:

* :class:`Backpressure` / :class:`Overloaded` are *load* answers — the
  request was never admitted, nothing is broken, retrying later (or
  elsewhere) is reasonable.  They are **not** faults: a storm of shed
  requests under overload is the admission controller doing its job.
* :class:`WorkerLost` is a *fault* answer — the worker holding this
  request died mid-flight and the request's policy forbade (or
  exhausted) transparent replay.  The supervisor has already scheduled
  a replacement by the time the caller sees this.
* :class:`WorkerError` re-materializes a typed failure that happened
  *inside* a worker process (the worker stayed up; the request failed
  alone there) on the router side of the process boundary.
* :class:`StaleSegment` is the shared-memory generation guard firing: a
  tensor payload was about to be read from a segment generation other
  than the one the control message named.  This must never happen in a
  correct engine — it is raised (and counted) rather than silently
  serving recycled bytes.
* :class:`ProtocolError` is a control message its receiver cannot
  decode (a truncated frame, an unknown tag or message kind).  A worker
  answers it typed and keeps serving.

All of them extend :class:`~repro.faults.ResilienceError`, so existing
"typed failure, engine keeps serving" handling catches cluster failures
too — but the backpressure pair can always be distinguished from the
fault kinds by ``isinstance``.
"""

from __future__ import annotations

from ..faults.errors import ResilienceError

__all__ = [
    "ClusterError",
    "Backpressure",
    "Overloaded",
    "WorkerLost",
    "WorkerError",
    "StaleSegment",
    "ProtocolError",
]


class ClusterError(ResilienceError):
    """Base class for every typed failure of the router/worker tier."""


class Backpressure(ClusterError):
    """The sticky worker for this session is at its queue-depth bound.

    Session-affine requests cannot be rerouted (their KV state lives on
    one worker), so the router sheds them instead of queueing without
    bound.  Retry after a backoff; the session stays valid.

    Attributes:
        worker: the worker slot the session is pinned to.
        depth: that worker's queue depth at admission time.
        bound: the configured per-worker queue-depth bound.
    """

    def __init__(self, worker: int, depth: int, bound: int) -> None:
        self.worker = worker
        self.depth = depth
        self.bound = bound
        super().__init__(
            f"worker {worker} is at its queue bound ({depth}/{bound}); "
            f"session-affine request shed"
        )


class Overloaded(ClusterError):
    """Every worker is at its queue-depth bound; the cluster sheds load.

    Attributes:
        depth: total queued + in-flight requests across the cluster.
        capacity: total admission capacity (workers x bound).
    """

    def __init__(self, depth: int, capacity: int) -> None:
        self.depth = depth
        self.capacity = capacity
        super().__init__(
            f"cluster overloaded: {depth} in flight against an admission "
            f"capacity of {capacity}; request shed"
        )


class WorkerLost(ClusterError):
    """The worker died while holding this request, and replay was not an
    option (policy ``"error"``, or the replay budget ran out).

    Attributes:
        worker: the slot that died.
        request_id: the router-assigned request id.
        replays: transparent replays already attempted for this request.
    """

    def __init__(self, worker: int, request_id: str, replays: int = 0) -> None:
        self.worker = worker
        self.request_id = request_id
        self.replays = replays
        extra = f" after {replays} replay(s)" if replays else ""
        super().__init__(
            f"worker {worker} was lost while serving request "
            f"{request_id!r}{extra}"
        )


class WorkerError(ClusterError):
    """A typed failure raised inside a worker, re-raised at the router.

    Attributes:
        etype: the worker-side exception type name (``"KVCacheOOM"``...).
        worker: the slot it happened on.
    """

    def __init__(self, etype: str, message: str, worker: int) -> None:
        self.etype = etype
        self.worker = worker
        super().__init__(f"worker {worker} failed request: {etype}: {message}")


class StaleSegment(ClusterError):
    """Shared-memory generation mismatch: a recycled segment was about to
    serve bytes from a different request generation.

    Attributes:
        name: the shared-memory segment name.
        expected: the generation the control message promised.
        found: the generation the segment header actually holds.
    """

    def __init__(self, name: str, expected: int, found: int) -> None:
        self.name = name
        self.expected = expected
        self.found = found
        super().__init__(
            f"stale shared-memory read on {name!r}: header generation "
            f"{found} != expected {expected}"
        )


class ProtocolError(ClusterError):
    """A control message that is not one its receiver can decode."""
