"""Spans recorded from outside the program, around calls into each layer.

For the traced pass only, :meth:`Recorder.install` replaces the public
entry points of every ``src/repro`` layer with timing wrappers (no
``src/`` edits) and :meth:`Recorder.restore` puts the originals back.
Each call records an in-memory :class:`Span` — name, start, end, the
span that caused it, the harness operation it belongs to — and counts
ride on the same spans (``args``), so ratios are measured where the work
happens.  Spans are written once, at exit, as Chrome trace JSON.

Span names are ``<layer>.<call>``; the prefix before the first dot is
the ``src/repro`` package the call enters.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

__all__ = ["Span", "Recorder", "covered", "self_times"]


class Span:
    """One timed call.  ``parent`` is the enclosing span on the same thread."""

    __slots__ = ("name", "start", "end", "parent", "tid", "op", "args")

    def __init__(self, name: str, start: float, parent: Optional["Span"],
                 tid: int, op: Optional[int]) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.tid = tid
        self.op = op
        self.args: Optional[dict] = None

    @property
    def dur(self) -> float:
        return self.end - self.start


def covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    edge = lo
    for start, end in sorted(intervals):
        start, end = max(start, edge), min(end, hi)
        if end > start:
            total += end - start
            edge = end
    return total


def self_times(spans: Iterable[Span]) -> Dict[Span, float]:
    """Each span's duration minus the part its child spans cover."""
    spans = list(spans)
    children: Dict[Span, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span: span.dur - covered(children.get(span, ()), span.start, span.end)
        for span in spans
    }


class _TimedEnter:
    """Context-manager proxy recording only the time spent entering.

    ``SessionPool.acquire`` blocks in ``__enter__`` until a session is
    free; the body that follows is the caller's work, not the pool's.
    """

    def __init__(self, recorder: "Recorder", name: str, inner) -> None:
        self._recorder = recorder
        self._name = name
        self._inner = inner

    def __enter__(self):
        span = self._recorder.begin(self._name)
        try:
            return self._inner.__enter__()
        finally:
            self._recorder.end(span)

    def __exit__(self, *exc):
        return self._inner.__exit__(*exc)


def _leading_dim(feeds) -> int:
    for value in feeds.values():
        shape = getattr(value, "shape", ())
        return int(shape[0]) if shape else 0
    return 0


def _is_cold(artifacts) -> bool:
    """A session is cold unless cached schemes or a cached plan feed it."""
    return artifacts is None or (
        artifacts.schemes is None and artifacts.memory_plan is None
    )


class Recorder:
    """In-memory span store plus the install/restore of the wrappers."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.enabled = True
        self._tls = threading.local()
        self._originals: List[Tuple[type, str, object]] = []
        #: id(session) -> (session, last feeds), so the layer report can
        #: replay a representative run through ``Session.run_profiled``.
        self.sessions: Dict[int, Tuple[object, dict]] = {}
        # Forked cluster workers inherit the patched classes; they must
        # not grow a private copy of the span list nobody will ever read.
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False

    # -- recording -----------------------------------------------------------
    def begin(self, name: str, op: Optional[int] = None) -> Span:
        tls = self._tls
        stack = getattr(tls, "stack", None)
        if stack is None:
            stack = tls.stack = []
        parent = stack[-1] if stack else None
        if op is None and parent is not None:
            op = parent.op
        span = Span(name, time.perf_counter(), parent, threading.get_ident(), op)
        stack.append(span)
        self.spans.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._tls.stack.pop()

    @contextmanager
    def span(self, name: str, op: Optional[int] = None) -> Iterator[Span]:
        span = self.begin(name, op)
        try:
            yield span
        finally:
            self.end(span)

    def between(self, name: str, lo: float, hi: float) -> List[Span]:
        """Spans called ``name`` that started inside ``[lo, hi]``."""
        return [s for s in self.spans if s.name == name and lo <= s.start <= hi]

    # -- wrappers --------------------------------------------------------------
    def wrap(self, owner: type, attr: str, name: str,
             describe: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``describe(args, kwargs, result)`` may return the span's ``args``
        dict (counts taken at the same boundary).
        """
        original = getattr(owner, attr)
        recorder = self

        def wrapper(*args, **kwargs):
            if not recorder.enabled:
                return original(*args, **kwargs)
            span = recorder.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.end(span)
            if describe is not None:
                span.args = describe(args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        self._originals.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap_acquire(self, pool_cls: type) -> None:
        original = pool_cls.acquire
        recorder = self

        def acquire(self, *args, **kwargs):
            inner = original(self, *args, **kwargs)
            if not recorder.enabled:
                return inner
            return _TimedEnter(recorder, "serving.pool_acquire", inner)

        acquire.__wrapped__ = original
        self._originals.append((pool_cls, "acquire", original))
        pool_cls.acquire = acquire

    def install(self) -> None:
        """Wrap the public entry points of every layer (traced pass only)."""
        from repro.cluster import Cluster
        from repro.core import Session
        from repro.genai import (DecodeRunner, GenerationEngine, KVCacheAllocator,
                                 PrefillRunner, PrefixCache)
        from repro.serving import Engine, MicroBatcher, PreInferenceCache, SessionPool

        def on_init(args, kwargs, _):
            artifacts = kwargs.get("artifacts", args[3] if len(args) > 3 else None)
            return {"cold": _is_cold(artifacts)}

        def on_run(args, kwargs, _):
            session, feeds = args[0], args[1]
            self.sessions[id(session)] = (session, feeds)
            return {"sid": id(session), "batch": _leading_dim(feeds)}

        def on_match(args, kwargs, result):
            return {"prompt": len(args[1]), "hit": result[1] if result else 0}

        self.wrap(Session, "__init__", "core.session_init", on_init)
        self.wrap(Session, "run", "core.session_run", on_run)
        self.wrap(Engine, "infer", "serving.engine_infer")
        self._wrap_acquire(SessionPool)
        self.wrap(MicroBatcher, "submit", "serving.batch_submit")
        self.wrap(PreInferenceCache, "load", "serving.cache_load",
                  lambda a, k, result: {"hit": result is not None})
        self.wrap(PreInferenceCache, "store", "serving.cache_store")
        self.wrap(GenerationEngine, "generate", "genai.generate")
        self.wrap(PrefillRunner, "run", "genai.prefill_run",
                  lambda a, k, r: {"tokens": len(a[1])})
        self.wrap(DecodeRunner, "step", "genai.decode_step",
                  lambda a, k, r: {"rows": len(a[1])})
        for call in ("alloc", "grow", "share", "materialize", "release"):
            self.wrap(KVCacheAllocator, call, f"genai.kv_{call}")
        self.wrap(PrefixCache, "match", "genai.prefix_match", on_match)
        self.wrap(PrefixCache, "insert", "genai.prefix_insert")
        self.wrap(Cluster, "infer", "cluster.infer")

    def restore(self) -> None:
        """Put every original back (idempotent)."""
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    # -- export ------------------------------------------------------------------
    def write_chrome_trace(self, path) -> None:
        """All spans as Chrome trace JSON (one complete event per span)."""
        origin = min((s.start for s in self.spans), default=0.0)
        pid = os.getpid()
        events = []
        for span in self.spans:
            args = dict(span.args or {})
            args.pop("sid", None)
            if span.op is not None:
                args["op"] = span.op
            events.append({
                "name": span.name,
                "cat": span.name.split(".")[0],
                "ph": "X",
                "ts": (span.start - origin) * 1e6,
                "dur": span.dur * 1e6,
                "pid": pid,
                "tid": span.tid,
                "args": args,
            })
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
