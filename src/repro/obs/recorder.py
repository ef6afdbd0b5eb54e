"""Flight recorder: bounded event rings + deterministic postmortem dumps.

A :class:`FlightRecorder` sits behind a :class:`~repro.obs.requests.
RequestTracker` and keeps the last ``capacity`` timeline events of each
recent request in a per-request ring buffer (``deque(maxlen=...)``), so
memory stays bounded no matter how long a request decodes.  When the
engine hits one of the "page the on-call" conditions —
``DeadlineExceeded``, ``KVCacheOOM``, an isolated injected fault, or a
sanitizer finding — it calls :meth:`dump` and the recorder writes a
postmortem JSON artifact containing:

* the triggering request's event ring (and the trigger itself),
* the set of requests live at dump time,
* a counters-only metrics snapshot (deterministic mode) or the full
  snapshot including gauges and latency histograms,
* the active fault-injection state (``faults.injected``, every
  absorbing counter in :data:`repro.faults.ABSORBERS`, and
  ``breaker.opens``), and
* any extra context the caller attaches (sanitizer findings, exception
  detail).

**Determinism contract** (locked in by the chaos-storm tests): with
``deterministic=True`` the artifact contains no wall-clock values — event
``t_ms`` stamps, float-valued event args, gauges and histograms are all
dropped, and file names come from a dump counter, not a timestamp — so
two same-seed storms produce byte-identical postmortems.
"""

from __future__ import annotations

import json
import os
import threading
from collections import OrderedDict, deque
from typing import Deque, Dict, List, Optional

from .metrics import MetricsRegistry, get_metrics

__all__ = ["FlightRecorder", "POSTMORTEM_SCHEMA"]

#: Bumped when the postmortem JSON layout changes shape.
POSTMORTEM_SCHEMA = 1


def _safe_name(text: str) -> str:
    return "".join(c if (c.isalnum() or c in "-_.") else "_" for c in text)


class FlightRecorder:
    """Bounded per-request event rings with postmortem JSON dumps.

    ``capacity`` bounds events retained *per request*; ``max_requests``
    bounds how many request rings are kept (oldest evicted first), so a
    recorder attached to a long-running server cannot grow without
    bound.  Thread-safe: records arrive from every engine thread.
    """

    def __init__(
        self,
        capacity: int = 256,
        out_dir: Optional[str] = None,
        deterministic: bool = False,
        metrics: Optional[MetricsRegistry] = None,
        max_requests: int = 128,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if max_requests < 1:
            raise ValueError(f"max_requests must be >= 1, got {max_requests}")
        self.capacity = capacity
        self.out_dir = out_dir or os.environ.get("REPRO_POSTMORTEM_DIR") or "."
        self.deterministic = deterministic
        self.metrics = metrics
        self.max_requests = max_requests
        self._lock = threading.Lock()
        self._rings: "OrderedDict[str, Deque]" = OrderedDict()
        self._dumps: List[str] = []
        self._dump_count = 0

    def _registry(self) -> MetricsRegistry:
        return self.metrics if self.metrics is not None else get_metrics()

    # -- recording ----------------------------------------------------------
    def record(self, event) -> None:
        """Append a timeline event to its request's ring (creates it)."""
        with self._lock:
            ring = self._rings.get(event.request_id)
            if ring is None:
                while len(self._rings) >= self.max_requests:
                    self._rings.popitem(last=False)
                ring = self._rings[event.request_id] = deque(maxlen=self.capacity)
            ring.append(event)

    def events(self, request_id: str) -> List:
        """Snapshot of one request's retained events, oldest first."""
        with self._lock:
            ring = self._rings.get(request_id)
            return list(ring) if ring is not None else []

    # -- dumping ------------------------------------------------------------
    @property
    def dumps(self) -> List[str]:
        """Paths of every postmortem written so far, in dump order."""
        with self._lock:
            return list(self._dumps)

    def payload(
        self,
        trigger: str,
        request_id: Optional[str] = None,
        live_requests: Optional[List[str]] = None,
        **extra,
    ) -> Dict[str, object]:
        """Build the postmortem dict (what :meth:`dump` serializes).

        Split out so tests can assert on structure without touching the
        filesystem.
        """
        det = self.deterministic
        with self._lock:
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
            "live_requests": sorted(live_requests or []),
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
        self,
        trigger: str,
        request_id: Optional[str] = None,
        live_requests: Optional[List[str]] = None,
        **extra,
    ) -> str:
        """Write a postmortem artifact; returns its path."""
        payload = self.payload(
            trigger, request_id=request_id, live_requests=live_requests, **extra
        )
        with self._lock:
            n = self._dump_count
            self._dump_count += 1
        tag = _safe_name(request_id) if request_id else "all"
        name = f"postmortem-{n:03d}-{tag}-{_safe_name(trigger)}.json"
        os.makedirs(self.out_dir, exist_ok=True)
        path = os.path.join(self.out_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        with self._lock:
            self._dumps.append(path)
        self._registry().counter("recorder.dumps").inc()
        return path
