"""Low-overhead span tracing (the observability layer's timeline source).

A :class:`Tracer` collects :class:`Span` records — named, categorised wall
-clock intervals with the recording thread's id and a nesting depth — from
every layer of the engine: converter passes, the pre-inference pipeline,
per-operator kernel execution and the serving stack.  The same spans
feed three consumers:

* Chrome trace-event JSON (:func:`repro.obs.save_chrome_trace`) for
  Perfetto / ``chrome://tracing``, with one lane per thread so
  concurrent sessions and serving threads are visible;
* text reports (:func:`repro.obs.top_ops_report`,
  :func:`repro.obs.waterfall_report`);
* the thin legacy views — ``RunStats`` / ``OpProfile`` rows are derived
  from ``"op"``-category spans rather than a second timing pass.

Design constraints, in order:

1. **Disabled must be (almost) free.**  The process-wide default tracer is
   disabled; ``span()`` on it returns one shared no-op context manager and
   a session reads ``tracer.enabled`` once per run, adding its per-op
   span wrapper only when it is set.  The overhead guard in
   ``tests/test_obs_integration.py`` holds this to <5% of a small-model
   run loop.
2. **Thread-safe recording.**  Pooled sessions, serving clients and the
   micro-batcher thread record concurrently; appends happen under one
   lock, and nesting depth is tracked per-thread.
3. **No global mutation by default.**  Sessions/engines take a tracer
   through their :class:`repro.Runtime` (``Runtime.resolve(trace=...)``,
   ``EngineConfig(trace=...)``); the process-wide tracer
   (:func:`get_tracer`/:func:`set_tracer`) is only the fallback, so two
   engines can trace independently.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["Span", "Tracer", "get_tracer", "set_tracer"]


@dataclass
class Span:
    """One recorded interval (or instant) on one thread.

    Timestamps are microseconds relative to the owning tracer's epoch
    (``time.perf_counter`` based), matching the Chrome trace-event ``ts``/
    ``dur`` convention.
    """

    name: str
    category: str
    start_us: float
    dur_us: float
    tid: int
    depth: int = 0
    instant: bool = False
    counter: bool = False
    args: Dict[str, object] = field(default_factory=dict)

    @property
    def end_us(self) -> float:
        return self.start_us + self.dur_us

    @property
    def dur_ms(self) -> float:
        return self.dur_us / 1000.0


class _NullSpan:
    """Shared no-op context manager returned by a disabled tracer."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **args) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class _SpanHandle:
    """An open span; records itself on ``__exit__``."""

    __slots__ = ("_tracer", "name", "category", "args", "_start", "_depth")

    def __init__(self, tracer: "Tracer", name: str, category: str, args: Dict) -> None:
        self._tracer = tracer
        self.name = name
        self.category = category
        self.args = args

    def __enter__(self) -> "_SpanHandle":
        state = self._tracer._state()
        self._depth = state.depth
        state.depth += 1
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = time.perf_counter()
        self._tracer._state().depth = self._depth
        if exc_type is not None:
            self.args.setdefault("error", exc_type.__name__)
        self._tracer._record(
            self.name, self.category, self._start, end, self._depth, False, self.args
        )
        return False

    def set(self, **args) -> "_SpanHandle":
        """Attach attributes to the span before it closes."""
        self.args.update(args)
        return self


class Tracer:
    """A thread-safe collector of :class:`Span` records.

    ``Tracer()`` is enabled; ``Tracer(enabled=False)`` is the no-op form
    used as the process-wide default.  All recording APIs are safe to call
    from any thread.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._spans: List[Span] = []
        self._epoch = time.perf_counter()
        self._tls = threading.local()
        self._thread_names: Dict[int, str] = {}

    # -- recording ----------------------------------------------------------
    def span(self, name: str, category: str = "", **args):
        """Context manager timing a block; no-op when disabled.

        Usage::

            with tracer.span("memory_plan", "pre_inference", tensors=12):
                ...
        """
        if not self.enabled:
            return _NULL_SPAN
        return _SpanHandle(self, name, category, args)

    def record(
        self, name: str, category: str, start_s: float, end_s: float, **args
    ) -> None:
        """Record a completed span from ``time.perf_counter()`` endpoints.

        The hot-loop API: callers time the work themselves (one pair of
        ``perf_counter`` calls they often need anyway) and hand over the
        endpoints, avoiding a context-manager allocation per operator.
        The span is attributed to the calling thread at its current
        nesting depth, i.e. as a child of whatever ``span()`` blocks are
        open on this thread.
        """
        if not self.enabled:
            return
        self._record(name, category, start_s, end_s, self._state().depth, False, args)

    def instant(self, name: str, category: str = "", **args) -> None:
        """Record a zero-duration point event (cache hit, batch dispatch)."""
        if not self.enabled:
            return
        now = time.perf_counter()
        self._record(name, category, now, now, self._state().depth, True, args)

    def counter(self, name: str, value: float, category: str = "resource") -> None:
        """Record a counter sample (Chrome-trace "C" event).

        Perfetto renders one counter track per counter name, drawn under
        the span lanes — KV utilization, pool idle seats, batch
        occupancy over time.  Samples carry a single ``value`` arg.
        """
        if not self.enabled:
            return
        now = time.perf_counter()
        self._record(
            name, category, now, now, 0, True, {"value": float(value)},
            counter=True,
        )

    def _state(self):
        tls = self._tls
        if not hasattr(tls, "depth"):
            tls.depth = 0
        return tls

    def _record(
        self, name, category, start_s, end_s, depth, instant, args, counter=False
    ) -> None:
        tid = threading.get_ident()
        span = Span(
            name=name,
            category=category,
            start_us=(start_s - self._epoch) * 1e6,
            dur_us=max(end_s - start_s, 0.0) * 1e6,
            tid=tid,
            depth=depth,
            instant=instant,
            counter=counter,
            args=args,
        )
        thread_name = threading.current_thread().name
        with self._lock:
            self._spans.append(span)
            self._thread_names.setdefault(tid, thread_name)

    # -- reading ------------------------------------------------------------
    @property
    def spans(self) -> List[Span]:
        """Snapshot of every recorded span, in recording order."""
        with self._lock:
            return list(self._spans)

    @property
    def thread_names(self) -> Dict[int, str]:
        """Thread id -> thread name for every thread that recorded a span."""
        with self._lock:
            return dict(self._thread_names)

    def mark(self) -> int:
        """Current span count; pass to :meth:`spans_since` to slice a run."""
        with self._lock:
            return len(self._spans)

    def spans_since(self, mark: int) -> List[Span]:
        """Spans recorded after :meth:`mark` returned ``mark``."""
        with self._lock:
            return list(self._spans[mark:])

    def clear(self) -> None:
        """Drop all recorded spans (thread names are kept)."""
        with self._lock:
            self._spans.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


#: Process-wide default: a disabled tracer, so un-configured sessions pay
#: only an ``enabled`` check.  Replace with :func:`set_tracer` to capture
#: everything (the CLI does this for ``cli trace``).
_GLOBAL_TRACER = Tracer(enabled=False)


def get_tracer() -> Tracer:
    """The process-wide tracer (disabled no-op unless :func:`set_tracer` ran)."""
    return _GLOBAL_TRACER


def set_tracer(tracer: Tracer) -> Tracer:
    """Install ``tracer`` process-wide; returns the previous one (restore it)."""
    global _GLOBAL_TRACER
    previous = _GLOBAL_TRACER
    _GLOBAL_TRACER = tracer
    return previous
