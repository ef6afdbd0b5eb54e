"""The typed error hierarchy of the resilience layer.

Every failure the runtime is expected to *survive* — or at least turn
into a well-formed, per-request error instead of an engine crash — is a
:class:`ResilienceError`.  The split matters operationally:

* :class:`InjectedFault` (and its :class:`TransientFault` /
  :class:`FatalFault` leaves) are raised by an active
  :class:`~repro.faults.FaultPlan` at a named fault point; the handlers
  in the session/serving layers absorb them via retry, per-op backend
  fallback, cache recompute or batch bisection.
* :class:`DeadlineExceeded` / :class:`PoolTimeout` are backpressure
  errors: the request gives up in bounded time instead of hanging.

Accounting contract: every injected fault is absorbed by **exactly one**
resilience counter (``retry.attempts``, ``fallback.ops``,
``fallback.numeric``, ``fallback.cache`` or ``faults.isolated``), which
is what makes the chaos harness's reconciliation equation closed —
:func:`mark_isolated` guards the "failed alone" counter against double
counting as an exception crosses layer boundaries.
"""

from __future__ import annotations

from ..obs.metrics import get_metrics

__all__ = [
    "ResilienceError",
    "DeadlineExceeded",
    "PoolTimeout",
    "InjectedFault",
    "TransientFault",
    "FatalFault",
    "mark_isolated",
]


class ResilienceError(RuntimeError):
    """Base class for every typed failure of the resilience layer."""


class DeadlineExceeded(ResilienceError):
    """A request ran past its deadline (raised instead of hanging).

    Attributes:
        budget_ms: the deadline budget the request started with.
        elapsed_ms: wall time actually spent when the deadline tripped.
        where: the checkpoint that noticed (op name, ``pool.checkout``...).
    """

    def __init__(self, budget_ms: float, elapsed_ms: float, where: str = "") -> None:
        self.budget_ms = budget_ms
        self.elapsed_ms = elapsed_ms
        self.where = where
        at = f" at {where!r}" if where else ""
        super().__init__(
            f"deadline of {budget_ms:.1f} ms exceeded{at} "
            f"({elapsed_ms:.1f} ms elapsed)"
        )


class PoolTimeout(ResilienceError):
    """No pool worker freed up in time (backpressure, not a crash).

    Attributes:
        wait_s: how long the acquire blocked before giving up.
        size: total pool size.
        idle: free workers at the moment of failure (normally 0).
    """

    def __init__(self, wait_s: float, size: int, idle: int) -> None:
        self.wait_s = wait_s
        self.size = size
        self.idle = idle
        super().__init__(
            f"no free session after {wait_s * 1000:.1f} ms "
            f"(pool size {size}, {idle} idle)"
        )


class InjectedFault(ResilienceError):
    """A fault fired by a :class:`~repro.faults.FaultPlan`.

    Attributes:
        site: the fault-point name that fired (``"kernel.execute"``...).
        kind: the fault kind (``"transient"``, ``"fatal"``...).
        seq: position in the owning plan's injection sequence.
    """

    def __init__(self, site: str, kind: str, seq: int) -> None:
        self.site = site
        self.kind = kind
        self.seq = seq
        super().__init__(f"injected {kind} fault #{seq} at {site}")


class TransientFault(InjectedFault):
    """An injected failure a retry is expected to cure."""


class FatalFault(InjectedFault):
    """An injected failure that persists; only a fallback path survives it."""


def mark_isolated(exc: BaseException) -> None:
    """Count ``exc`` as a fault that failed one request alone — once.

    Layers re-raise injected faults upward (batcher future -> engine ->
    caller); whichever layer handles the failure first calls this, and
    the flag on the exception object keeps outer layers from counting
    the same fault twice.
    """
    if isinstance(exc, InjectedFault) and not getattr(exc, "_fault_accounted", False):
        exc._fault_accounted = True
        get_metrics().counter("faults.isolated").inc()
