"""Resilience primitives: deadlines, retry-with-backoff, circuit breaker.

These are the *survival* half of ``repro.faults`` — mechanisms the
session and serving layers use to absorb the failures the
:class:`~repro.faults.FaultPlan` (or the real world) throws at them:

* :class:`Deadline` — a monotonic-clock budget threaded through
  ``Engine.infer`` → pool checkout → batch dispatch → per-op execution;
  checkpoints call :meth:`Deadline.check` and a blown budget raises
  :class:`~repro.faults.DeadlineExceeded` instead of hanging.
* :func:`retry_transient` — bounded retry with exponential backoff and
  seeded jitter; every extra attempt increments ``retry.attempts``.
* :class:`CircuitBreaker` — per-backend failure tracker that demotes a
  repeatedly-failing primary to the CPU fallback for a cool-down window
  (the paper's hybrid-scheduling CPU-fallback rule, made stateful).
"""

from __future__ import annotations

import random
import threading
import time
from typing import Callable, Optional, Tuple, Type, TypeVar

from ..obs.metrics import get_metrics
from .errors import DeadlineExceeded, TransientFault

__all__ = ["ABSORBERS", "Deadline", "retry_transient", "CircuitBreaker"]

T = TypeVar("T")

#: The right-hand side of the fault-accounting equation: every injected
#: fault (``faults.injected``) is absorbed by exactly one of these
#: counters.  Each term is ``(counter, ChaosReport field, label)``; the
#: chaos report, its verdict and every postmortem's ``fault_state`` read
#: the equation from here.
ABSORBERS: Tuple[Tuple[str, str, str], ...] = (
    ("retry.attempts", "retries", "retries"),
    ("fallback.ops", "fallback_ops", "op fallbacks"),
    ("fallback.numeric", "fallback_numeric", "numeric fallbacks"),
    ("fallback.cache", "fallback_cache", "cache fallbacks"),
    ("fallback.evict", "fallback_evict", "evictions"),
    ("faults.isolated", "isolated", "isolated"),
    ("fallback.replay", "replays", "crash replays"),
    ("cluster.worker_lost", "worker_lost", "workers lost"),
)


class Deadline:
    """A wall-clock budget for one request, measured on the monotonic clock.

    Created once at the request boundary (``Engine.infer`` /
    ``Session.run``) and passed down; each layer spends from the same
    budget, so a stall in pool checkout leaves less time for execution.
    """

    __slots__ = ("budget_ms", "_t0")

    def __init__(self, budget_ms: float, *, _t0: Optional[float] = None) -> None:
        self.budget_ms = float(budget_ms)
        self._t0 = time.monotonic() if _t0 is None else _t0

    @classmethod
    def from_ms(cls, budget_ms: Optional[float]) -> Optional["Deadline"]:
        """``None``-propagating constructor: no budget → no deadline."""
        return None if budget_ms is None else cls(budget_ms)

    def elapsed_ms(self) -> float:
        return (time.monotonic() - self._t0) * 1000.0

    def remaining_s(self) -> float:
        """Seconds left, clamped at 0 (handy as a blocking-call timeout)."""
        return max(0.0, (self.budget_ms - self.elapsed_ms()) / 1000.0)

    @property
    def expired(self) -> bool:
        return self.elapsed_ms() >= self.budget_ms

    def check(self, where: str = "") -> None:
        """Raise :class:`DeadlineExceeded` if the budget is spent."""
        elapsed = self.elapsed_ms()
        if elapsed >= self.budget_ms:
            raise DeadlineExceeded(self.budget_ms, elapsed, where)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Deadline({self.budget_ms:.1f} ms, {self.remaining_s()*1000:.1f} ms left)"


def retry_transient(
    fn: Callable[[], T],
    *,
    retries: int = 3,
    base_delay_ms: float = 1.0,
    rng: Optional[random.Random] = None,
    deadline: Optional[Deadline] = None,
    label: str = "",
    transient: Tuple[Type[BaseException], ...] = (TransientFault,),
) -> T:
    """Call ``fn``, retrying ``transient`` failures with jittered backoff.

    ``retries`` is the number of *extra* attempts after the first; each
    one increments ``retry.attempts``.  On exhaustion the last transient
    error is re-raised so the caller can escalate (fallback, isolate...).
    Backoff for attempt *k* sleeps ``base_delay_ms * 2**k * jitter`` with
    jitter drawn from ``rng`` (pass the plan's per-site RNG for
    reproducible timing; defaults to the module-level ``random``).
    """
    jitter = (rng or random).random
    attempt = 0
    while True:
        try:
            return fn()
        except transient:
            if attempt >= retries:
                raise
            if deadline is not None:
                deadline.check(f"retry:{label}" if label else "retry")
            attempt += 1
            get_metrics().counter("retry.attempts").inc()
            delay_s = base_delay_ms * (2 ** (attempt - 1)) * (0.5 + jitter()) / 1000.0
            if deadline is not None:
                delay_s = min(delay_s, deadline.remaining_s())
            if delay_s > 0:
                time.sleep(delay_s)


class CircuitBreaker:
    """CLOSED → OPEN → HALF_OPEN failure tracker for one backend.

    CLOSED passes every call through.  After ``threshold`` *consecutive*
    failures the breaker OPENs: :meth:`allow` answers ``False`` (callers
    skip the primary and go straight to the fallback) until
    ``cooldown_s`` has passed, at which point the breaker goes HALF_OPEN
    and lets exactly one probe through — success re-CLOSEs it, failure
    re-OPENs it for another cool-down.

    ``clock`` is injectable for deterministic tests; ``cooldown_s=0``
    makes every post-open call a probe (used by the chaos harness, where
    wall-clock timing would break replay determinism).
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(
        self,
        threshold: int = 3,
        cooldown_s: float = 0.25,
        clock: Callable[[], float] = time.monotonic,
        name: str = "",
    ) -> None:
        if threshold < 1:
            raise ValueError(f"breaker threshold must be >= 1, got {threshold}")
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self.name = name
        self._clock = clock
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._failures = 0  # consecutive, resets on success
        self._opened_at = 0.0

    @property
    def state(self) -> str:
        with self._lock:
            return self._state_locked()

    def _state_locked(self) -> str:
        if self._state == self.OPEN and (
            self._clock() - self._opened_at >= self.cooldown_s
        ):
            return self.HALF_OPEN
        return self._state

    def allow(self) -> bool:
        """May the next call try the primary path?

        ``False`` means short-circuit to the fallback (counted in
        ``breaker.short_circuits`` — *not* part of the fault
        reconciliation equation, since skipping the primary means no
        fault fires at all).  HALF_OPEN admits a single probe: the first
        caller to ask during a given cool-down expiry gets ``True``,
        and the breaker re-arms OPEN pending that probe's verdict.
        """
        with self._lock:
            state = self._state_locked()
            if state == self.CLOSED:
                return True
            if state == self.HALF_OPEN:
                # Admit one probe; re-open so concurrent calls keep
                # short-circuiting until the probe reports back.
                self._state = self.OPEN
                self._opened_at = self._clock()
                return True
            get_metrics().counter("breaker.short_circuits").inc()
            return False

    def record_success(self) -> None:
        with self._lock:
            self._state = self.CLOSED
            self._failures = 0

    def record_failure(self) -> None:
        with self._lock:
            self._failures += 1
            if self._state == self.CLOSED and self._failures >= self.threshold:
                self._state = self.OPEN
                self._opened_at = self._clock()
                suffix = f".{self.name}" if self.name else ""
                get_metrics().counter("breaker.opens").inc()
                if suffix:
                    get_metrics().counter(f"breaker.opens{suffix}").inc()
            elif self._state == self.OPEN:
                # A failed HALF_OPEN probe: restart the cool-down.
                self._opened_at = self._clock()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CircuitBreaker({self.name or 'backend'}: {self.state}, "
            f"{self._failures}/{self.threshold} failures)"
        )
