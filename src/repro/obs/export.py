"""Trace exporters: Chrome trace-event JSON and text reports.

The Chrome trace-event format (``{"traceEvents": [...]}``) loads directly
into Perfetto or ``chrome://tracing``; every span becomes a complete
(``"ph": "X"``) event, every :meth:`Tracer.instant` a point
(``"ph": "i"``) event, and every :meth:`Tracer.counter` sample a counter
(``"ph": "C"``) event that Perfetto renders as a live counter track
(KV utilization, batch occupancy) under the span lanes.  Real thread
idents are remapped to small stable lane numbers (main thread first,
then by first appearance) and labelled with ``thread_name`` metadata
(``"ph": "M"``) so concurrent sessions, serving clients and batcher
threads show as genuinely overlapping lanes; executor pools name their
workers (``serve-client``) so short-lived client lanes are labeled, not
bare tids.

Text views for terminals:

* :func:`top_ops_report` — the top-K operators by total wall time,
  aggregated over every run in the trace;
* :func:`waterfall_report` — a per-lane indent-by-nesting timeline with
  proportional bars.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence

from .tracer import Span, Tracer

__all__ = [
    "chrome_trace_events",
    "to_chrome_trace",
    "save_chrome_trace",
    "top_ops_report",
    "waterfall_report",
]

#: Synthetic process id for every exported event (one engine = one process).
TRACE_PID = 1


def _lane_map(spans: Sequence[Span]) -> Dict[int, int]:
    """Real thread ident -> small stable lane number.

    Lane 0 goes to the thread that recorded the first span (the main
    thread in every current caller); the rest follow in order of first
    appearance.
    """
    lanes: Dict[int, int] = {}
    for span in spans:
        if span.tid not in lanes:
            lanes[span.tid] = len(lanes)
    return lanes


def chrome_trace_events(tracer: Tracer) -> List[Dict[str, object]]:
    """The trace-event list: thread metadata first, then spans in time order."""
    spans = tracer.spans
    names = tracer.thread_names
    lanes = _lane_map(spans)
    events: List[Dict[str, object]] = []
    for tid, lane in lanes.items():
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": TRACE_PID,
                "tid": lane,
                "args": {"name": names.get(tid, f"thread-{tid}")},
            }
        )
    for span in sorted(spans, key=lambda s: s.start_us):
        event: Dict[str, object] = {
            "name": span.name,
            "cat": span.category or "default",
            "pid": TRACE_PID,
            "tid": lanes[span.tid],
            "ts": span.start_us,
        }
        if span.counter:
            # Counter track: Perfetto draws one track per (pid, name)
            # pair, plotting args values over time under the span lanes.
            event["ph"] = "C"
        elif span.instant:
            event["ph"] = "i"
            event["s"] = "t"  # thread-scoped instant
        else:
            event["ph"] = "X"
            event["dur"] = span.dur_us
        if span.args:
            event["args"] = {k: _jsonable(v) for k, v in span.args.items()}
        events.append(event)
    return events


def _jsonable(value: object) -> object:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def to_chrome_trace(tracer: Tracer) -> Dict[str, object]:
    """The full Chrome trace document for ``tracer``'s spans."""
    return {
        "traceEvents": chrome_trace_events(tracer),
        "displayTimeUnit": "ms",
    }


def save_chrome_trace(tracer: Tracer, path: str) -> str:
    """Write the Chrome trace JSON to ``path``; returns ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_chrome_trace(tracer), fh)
    return path


def top_ops_report(tracer: Tracer, k: int = 10, category: str = "op") -> str:
    """The K most expensive operators by total wall time across the trace.

    Spans are aggregated by name (one operator traced over N runs
    contributes N samples), with each row showing call count, total and
    mean milliseconds and the share of all ``category`` time.
    """
    totals: Dict[str, List[float]] = {}
    meta: Dict[str, Span] = {}
    for span in tracer.spans:
        if span.category != category or span.instant:
            continue
        totals.setdefault(span.name, []).append(span.dur_ms)
        meta.setdefault(span.name, span)
    if not totals:
        return f"(no {category!r} spans recorded)"
    grand_total = sum(sum(v) for v in totals.values())
    ranked = sorted(totals.items(), key=lambda kv: -sum(kv[1]))[:k]
    lines = [
        f"top {min(k, len(ranked))} of {len(totals)} operators "
        f"by total wall time ({grand_total:.2f} ms traced):"
    ]
    for name, durs in ranked:
        total = sum(durs)
        op_type = meta[name].args.get("op", "")
        share = total / grand_total * 100.0 if grand_total else 0.0
        lines.append(
            f"  {name:28s} {str(op_type):16s} x{len(durs):<4d} "
            f"{total:8.2f} ms total  {total / len(durs):7.3f} ms/call  {share:5.1f}%"
        )
    return "\n".join(lines)


def waterfall_report(
    tracer: Tracer,
    width: int = 60,
    min_dur_ms: float = 0.0,
    categories: Optional[Sequence[str]] = None,
) -> str:
    """A per-thread-lane text timeline with proportional bars.

    Each lane lists its spans in start order, indented by nesting depth;
    the bar shows each span's position and extent within the whole
    trace window.  ``min_dur_ms`` hides sub-threshold spans (useful for
    op-dense traces); ``categories`` restricts to the given categories.
    """
    spans = [s for s in tracer.spans if not s.instant]
    if categories is not None:
        spans = [s for s in spans if s.category in categories]
    if min_dur_ms > 0:
        spans = [s for s in spans if s.dur_ms >= min_dur_ms]
    if not spans:
        return "(no spans recorded)"
    names = tracer.thread_names
    lanes = _lane_map(spans)
    t0 = min(s.start_us for s in spans)
    t1 = max(s.end_us for s in spans)
    window = max(t1 - t0, 1.0)
    lines: List[str] = []
    for tid, lane in lanes.items():
        lines.append(f"lane {lane} [{names.get(tid, tid)}]")
        for span in sorted(
            (s for s in spans if s.tid == tid), key=lambda s: (s.start_us, -s.dur_us)
        ):
            left = int((span.start_us - t0) / window * width)
            extent = max(int(span.dur_us / window * width), 1)
            extent = min(extent, width - left) if left < width else 1
            bar = " " * left + "#" * extent
            label = "  " * span.depth + span.name
            lines.append(f"  {label:36.36s} |{bar:{width}s}| {span.dur_ms:9.3f} ms")
    return "\n".join(lines)
