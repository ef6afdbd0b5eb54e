"""Request-scoped timelines: the SLO layer over spans and metrics.

The tracer (:mod:`repro.obs.tracer`) records *what the engine did*; this
module records *what each request experienced*.  A request ID is minted
at the front door (``Engine.infer`` / ``GenerationEngine.generate``) and
every stage it passes through — pool checkout, micro-batch assembly,
continuous-batching admission, prefill, each decode step, preemption,
KV eviction, prefix-cache hits, fault recovery — stamps an event on its
:class:`RequestTimeline`.  From those stamps the tracker derives the
serving-tier SLO metrics the ROADMAP (and MNN-LLM) treat as headline
numbers:

* ``slo.queue_wait_ms``  — enqueue → admission,
* ``slo.ttft_ms``        — enqueue → first emitted token,
* ``slo.tpot_ms``        — inter-arrival gap between consecutive tokens,
* ``slo.tokens_per_sec`` — per-request decode throughput,
* ``slo.e2e_ms``         — enqueue → finish.

Design constraints mirror the tracer's:

1. **Disabled must be (almost) free.**  The process-wide default tracker
   is disabled; ``start()`` on it returns one shared no-op timeline and
   hot paths guard on ``tracker.enabled``.  The overhead guard in
   ``tests/test_obs_requests.py`` holds the disabled cost to <5% of a
   small-model run loop, same budget as the tracer's.
2. **Thread-safe.**  ``Engine.infer`` is called from many threads; the
   tracker's request table and the event sequence counter are locked.
   A single timeline is only ever stamped by the thread driving that
   request, so per-timeline state is lock-free.
3. **Deterministic where it matters.**  Event *sequence numbers* are a
   tracker-global monotonic counter, and ``to_dict(deterministic=True)``
   drops wall-clock fields — so two same-seed chaos storms produce
   byte-identical flight-recorder postmortems.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional

from .metrics import MetricsRegistry, get_metrics

__all__ = [
    "RequestTimeline",
    "RequestTracker",
    "TimelineEvent",
    "get_request_tracker",
    "set_request_tracker",
]


class TimelineEvent:
    """One stamped point on a request's timeline.

    ``seq`` is a tracker-global monotonic sequence number (deterministic
    under a seeded single-threaded workload); ``t_ms`` is wall time since
    the request was enqueued (dropped by deterministic serialization).
    """

    __slots__ = ("seq", "request_id", "name", "t_ms", "args")

    def __init__(self, seq: int, request_id: str, name: str, t_ms: float, args: Dict):
        self.seq = seq
        self.request_id = request_id
        self.name = name
        self.t_ms = t_ms
        self.args = args

    def to_dict(self, deterministic: bool = False) -> Dict[str, object]:
        out: Dict[str, object] = {
            "seq": self.seq,
            "request": self.request_id,
            "name": self.name,
        }
        if deterministic:
            # Wall-clock stamps and any float-valued argument (durations,
            # rates, utilizations measured mid-flight) vary run to run;
            # ints, strings and bools are replay-stable.
            out["args"] = {
                k: v
                for k, v in sorted(self.args.items())
                if not isinstance(v, float)
            }
        else:
            out["t_ms"] = round(self.t_ms, 3)
            out["args"] = dict(sorted(self.args.items()))
        return out


class _NullTimeline:
    """Shared no-op timeline returned by a disabled tracker."""

    __slots__ = ()
    request_id = ""
    enabled = False

    def event(self, name: str, **args) -> None:
        return None

    def admitted(self, **args) -> None:
        return None

    def token(self, n: int = 1) -> None:
        return None

    def finish(self, reason: str = "ok", **args) -> None:
        return None


_NULL_TIMELINE = _NullTimeline()


class RequestTimeline:
    """The per-request record: milestones, events, and derived SLO stats.

    Stamped by exactly one thread (the one driving the request), so the
    milestone fields need no lock; appending events goes through the
    owning tracker, which serializes the global sequence counter and the
    flight-recorder notification.
    """

    __slots__ = (
        "request_id",
        "kind",
        "enabled",
        "_tracker",
        "_t0",
        "queue_wait_ms",
        "ttft_ms",
        "tokens",
        "finish_reason",
        "e2e_ms",
        "_last_token_s",
        "events",
    )

    def __init__(self, tracker: "RequestTracker", request_id: str, kind: str) -> None:
        self.request_id = request_id
        self.kind = kind
        self.enabled = True
        self._tracker = tracker
        self._t0 = time.perf_counter()
        self.queue_wait_ms: Optional[float] = None
        self.ttft_ms: Optional[float] = None
        self.tokens = 0
        self.finish_reason: Optional[str] = None
        self.e2e_ms: Optional[float] = None
        self._last_token_s: Optional[float] = None
        self.events: List[TimelineEvent] = []

    def _elapsed_ms(self) -> float:
        return (time.perf_counter() - self._t0) * 1000.0

    # -- stamping -----------------------------------------------------------
    def event(self, name: str, **args) -> None:
        """Stamp a named event (preemption, KV eviction, fault, ...)."""
        self._tracker._stamp(self, name, args)

    def admitted(self, **args) -> None:
        """The request won admission (pool seat, batch slot, KV pages).

        The first call fixes ``queue_wait_ms``; later calls (a preempted
        sequence rejoining the batch) stamp a ``readmitted`` event only.
        """
        if self.queue_wait_ms is None:
            self.queue_wait_ms = self._elapsed_ms()
            self._tracker._observe("slo.queue_wait_ms", self.queue_wait_ms)
            self.event("admitted", **args)
        else:
            self.event("readmitted", **args)

    def token(self, n: int = 1) -> None:
        """A token was emitted; the first one fixes TTFT, the rest TPOT."""
        now = time.perf_counter()
        if self.ttft_ms is None:
            self.ttft_ms = (now - self._t0) * 1000.0
            self._tracker._observe("slo.ttft_ms", self.ttft_ms)
            self.event("first_token")
        else:
            gap_ms = (now - self._last_token_s) * 1000.0
            self._tracker._observe("slo.tpot_ms", gap_ms)
        self._last_token_s = now
        self.tokens += n

    def finish(self, reason: str = "ok", **args) -> None:
        """Close the timeline; derives tokens/sec and end-to-end latency."""
        if self.finish_reason is not None:
            return
        self.finish_reason = reason
        self.e2e_ms = self._elapsed_ms()
        tracker = self._tracker
        tracker._observe("slo.e2e_ms", self.e2e_ms)
        if self.tokens and self.e2e_ms > 0:
            tracker._observe(
                "slo.tokens_per_sec", self.tokens / (self.e2e_ms / 1000.0)
            )
        self.event("finish", reason=reason, tokens=self.tokens, **args)
        tracker._retire(self)

    # -- reading ------------------------------------------------------------
    def to_dict(self, deterministic: bool = False) -> Dict[str, object]:
        out: Dict[str, object] = {
            "request": self.request_id,
            "kind": self.kind,
            "tokens": self.tokens,
            "finish_reason": self.finish_reason,
            "events": [e.to_dict(deterministic) for e in self.events],
        }
        if not deterministic:
            out["queue_wait_ms"] = self.queue_wait_ms
            out["ttft_ms"] = self.ttft_ms
            out["e2e_ms"] = self.e2e_ms
        return out


class RequestTracker:
    """Mints request IDs, owns live timelines, forwards to the recorder.

    ``RequestTracker()`` is enabled; ``RequestTracker(enabled=False)`` is
    the no-op form used as the process-wide default so un-configured
    engines pay a single attribute check per request.
    """

    def __init__(
        self,
        enabled: bool = True,
        metrics: Optional[MetricsRegistry] = None,
        recorder=None,
        max_events: int = 512,
    ) -> None:
        self.enabled = enabled
        self.metrics = metrics
        self.recorder = recorder
        self.max_events = max_events
        self._lock = threading.Lock()
        self._seq = 0
        self._ids = 0
        self._live: Dict[str, RequestTimeline] = {}
        self._finished = 0

    def _registry(self) -> MetricsRegistry:
        return self.metrics if self.metrics is not None else get_metrics()

    def _observe(self, name: str, value: float) -> None:
        self._registry().histogram(name).observe(value)

    # -- lifecycle ----------------------------------------------------------
    def next_id(self, prefix: str = "req") -> str:
        """Mint a deterministic, tracker-unique request ID."""
        with self._lock:
            n = self._ids
            self._ids += 1
        return f"{prefix}-{n}"

    def start(self, request_id: str, kind: str = "request", **args):
        """Open a timeline (stamps ``enqueued``); no-op when disabled."""
        if not self.enabled:
            return _NULL_TIMELINE
        timeline = RequestTimeline(self, request_id, kind)
        with self._lock:
            self._live[request_id] = timeline
        self._registry().counter("slo.requests").inc()
        self._stamp(timeline, "enqueued", dict(args, kind=kind))
        return timeline

    def get(self, request_id: str) -> Optional[RequestTimeline]:
        with self._lock:
            return self._live.get(request_id)

    def live(self) -> List[str]:
        """IDs of requests that started but have not finished, sorted."""
        with self._lock:
            return sorted(self._live)

    def _retire(self, timeline: RequestTimeline) -> None:
        with self._lock:
            self._live.pop(timeline.request_id, None)
            self._finished += 1
        if timeline.finish_reason not in (None, "ok", "stop", "length"):
            self._registry().counter("slo.failures").inc()

    def _stamp(self, timeline: RequestTimeline, name: str, args: Dict) -> None:
        with self._lock:
            seq = self._seq
            self._seq += 1
        event = TimelineEvent(
            seq, timeline.request_id, name, timeline._elapsed_ms(), args
        )
        if len(timeline.events) < self.max_events:
            timeline.events.append(event)
        if self.recorder is not None:
            self.recorder.record(event)

    # -- postmortems --------------------------------------------------------
    def dump(self, trigger: str, request_id: Optional[str] = None, **extra):
        """Ask the attached flight recorder for a postmortem artifact.

        Returns the artifact path, or ``None`` when disabled or no
        recorder is attached (the common production-off configuration).
        """
        if not self.enabled or self.recorder is None:
            return None
        return self.recorder.dump(
            trigger,
            request_id=request_id,
            live_requests=self.live(),
            **extra,
        )


#: Process-wide default: a disabled tracker, so un-configured engines pay
#: only an ``enabled`` check per request.  Replace with
#: :func:`set_request_tracker` to capture every request.
_GLOBAL_TRACKER = RequestTracker(enabled=False)


def get_request_tracker() -> RequestTracker:
    """The process-wide tracker (disabled unless :func:`set_request_tracker` ran)."""
    return _GLOBAL_TRACKER


def set_request_tracker(tracker: RequestTracker) -> RequestTracker:
    """Install ``tracker`` process-wide; returns the previous one (restore it)."""
    global _GLOBAL_TRACKER
    previous = _GLOBAL_TRACKER
    _GLOBAL_TRACKER = tracker
    return previous
