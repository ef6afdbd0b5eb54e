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
   is disabled; ``start()`` on it returns the shared no-op
   ``NULL_TIMELINE``, which hot paths bind without minting an ID (one
   ``tracker.enabled`` check) and then stamp unguarded.  The overhead guard in
   ``tests/test_obs_requests.py`` holds the disabled cost to <5% of a
   small-model run loop, same budget as the tracer's.
2. **Thread-safe.**  ``Engine.infer`` is called from many threads; the
   tracker's request table, the event sequence counter and the event
   rings share one lock.  A single timeline is only ever stamped by the
   thread driving that request, so its milestone fields are lock-free.
3. **Bounded, one store.**  The tracker keeps each request's last
   :data:`RING_EVENTS` events in one ring, made on the request's first
   stamp, for at most :data:`MAX_RINGS` requests (the oldest request's
   ring is evicted first).  ``RequestTimeline.events`` and the
   postmortems both read that ring.
4. **Deterministic where it matters.**  Event *sequence numbers* are a
   tracker-global monotonic counter, and ``to_dict(deterministic=True)``
   drops wall-clock fields and float-valued args.

**Postmortems.**  With a ``postmortem_dir``, the engine's "page the
on-call" conditions — ``DeadlineExceeded``, ``KVCacheOOM``, an isolated
injected fault, a sanitizer finding — call :meth:`RequestTracker.dump`,
which writes a JSON artifact holding the trigger, the live-request
table, the triggering request's ring (every ring when no request is
named), the fault-accounting counters (``faults.injected``, every
absorbing counter in :data:`repro.faults.ABSORBERS`, ``breaker.opens``),
a metrics snapshot and any extra context the caller attaches.  With
``deterministic=True`` the artifact carries no wall-clock value (event
``t_ms``, float args, gauges and histograms are dropped) and file names
come from a per-tracker counter, so two same-seed chaos storms dump
byte-identical postmortems.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import OrderedDict, deque
from typing import Deque, Dict, List, Optional

from .metrics import MetricsRegistry, get_metrics

__all__ = [
    "MAX_RINGS",
    "NULL_TIMELINE",
    "POSTMORTEM_SCHEMA",
    "RING_EVENTS",
    "RequestTimeline",
    "RequestTracker",
    "TimelineEvent",
    "get_request_tracker",
    "set_request_tracker",
]

#: Events kept per request: its last ``RING_EVENTS`` stamps.
RING_EVENTS = 256
#: Request rings kept at once; the oldest request's ring is evicted first.
MAX_RINGS = 128
#: Bumped when the postmortem JSON layout changes shape.
POSTMORTEM_SCHEMA = 1


def _safe_name(text: str) -> str:
    return "".join(c if (c.isalnum() or c in "-_.") else "_" for c in text)


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


NULL_TIMELINE = _NullTimeline()


class RequestTimeline:
    """The per-request record: milestones and derived SLO stats.

    Stamped by exactly one thread (the one driving the request), so the
    milestone fields need no lock; events go to the owning tracker's ring
    for this request, which :attr:`events` reads.
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
    @property
    def events(self) -> List[TimelineEvent]:
        """This request's retained events (its tracker ring), oldest first."""
        return self._tracker.events(self.request_id)

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
    """Mints request IDs, owns live timelines and the event rings.

    ``RequestTracker()`` is enabled; ``RequestTracker(enabled=False)`` is
    the no-op form used as the process-wide default so un-configured
    engines pay a single attribute check per request.  ``postmortem_dir``
    is where :meth:`dump` writes (no directory: no dumps), and
    ``deterministic`` strips wall clock from the artifacts.
    """

    def __init__(
        self,
        enabled: bool = True,
        metrics: Optional[MetricsRegistry] = None,
        postmortem_dir: Optional[str] = None,
        deterministic: bool = False,
    ) -> None:
        self.enabled = enabled
        self.metrics = metrics
        self.postmortem_dir = postmortem_dir
        self.deterministic = deterministic
        self._lock = threading.Lock()
        self._seq = 0
        self._ids = 0
        self._live: Dict[str, RequestTimeline] = {}
        self._rings: "OrderedDict[str, Deque[TimelineEvent]]" = OrderedDict()
        self._dumps: List[str] = []
        self._dump_count = 0

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
            return NULL_TIMELINE
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
        if timeline.finish_reason not in (None, "ok", "stop", "length"):
            self._registry().counter("slo.failures").inc()

    def _stamp(self, timeline: RequestTimeline, name: str, args: Dict) -> None:
        rid = timeline.request_id
        t_ms = timeline._elapsed_ms()
        with self._lock:
            event = TimelineEvent(self._seq, rid, name, t_ms, args)
            self._seq += 1
            ring = self._rings.get(rid)
            if ring is None:
                if len(self._rings) >= MAX_RINGS:
                    self._rings.popitem(last=False)
                ring = self._rings[rid] = deque(maxlen=RING_EVENTS)
            ring.append(event)

    def events(self, request_id: str) -> List[TimelineEvent]:
        """Snapshot of one request's retained events, oldest first."""
        with self._lock:
            return list(self._rings.get(request_id, ()))

    # -- postmortems --------------------------------------------------------
    @property
    def dumps(self) -> List[str]:
        """Paths of every postmortem written so far, in dump order."""
        with self._lock:
            return list(self._dumps)

    def payload(
        self, trigger: str, request_id: Optional[str] = None, **extra
    ) -> Dict[str, object]:
        """Build the postmortem dict (what :meth:`dump` serializes).

        Split out so tests can assert on structure without touching the
        filesystem.
        """
        det = self.deterministic
        with self._lock:
            live = sorted(self._live)
            if request_id is not None:
                rings = {request_id: list(self._rings.get(request_id, ()))}
            else:
                rings = {rid: list(ring) for rid, ring in self._rings.items()}
        # Imported here: repro.faults imports repro.obs.metrics, so a
        # module-level import would cycle through repro.obs.
        from ..faults import ABSORBERS

        snap = self._registry().snapshot()
        # Both sides of the fault-accounting equation, then the breaker.
        names = ("faults.injected", *(c for c, _, _ in ABSORBERS), "breaker.opens")
        fault_state = {
            name: snap["counters"][name]
            for name in names
            if name in snap["counters"]
        }
        payload: Dict[str, object] = {
            "schema": POSTMORTEM_SCHEMA,
            "trigger": trigger,
            "request": request_id,
            "deterministic": det,
            "live_requests": live,
            "fault_state": fault_state,
            "timelines": {
                rid: [e.to_dict(det) for e in events]
                for rid, events in sorted(rings.items())
            },
        }
        if det:
            payload["metrics"] = {"counters": snap["counters"]}
        else:
            payload["metrics"] = snap
        for key in sorted(extra):
            payload[key] = extra[key]
        return payload

    def dump(
        self, trigger: str, request_id: Optional[str] = None, **extra
    ) -> Optional[str]:
        """Write a postmortem artifact; returns its path.

        Returns ``None`` when disabled or without a ``postmortem_dir``
        (the common production-off configuration).
        """
        if not self.enabled or self.postmortem_dir is None:
            return None
        payload = self.payload(trigger, request_id, **extra)
        with self._lock:
            n = self._dump_count
            self._dump_count += 1
        tag = _safe_name(request_id) if request_id else "all"
        name = f"postmortem-{n:03d}-{tag}-{_safe_name(trigger)}.json"
        os.makedirs(self.postmortem_dir, exist_ok=True)
        path = os.path.join(self.postmortem_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        with self._lock:
            self._dumps.append(path)
        self._registry().counter("recorder.dumps").inc()
        return path


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
