"""Observability: spans, metrics, request timelines, and exports.

The paper's central claim — pre-inference work pays for itself at
execution time — is only checkable with end-to-end measurement.  This
package provides the pieces:

* :mod:`repro.obs.tracer` — a low-overhead, thread-safe span tracer with
  a process-wide no-op default (``Runtime.resolve(trace=...)`` /
  ``EngineConfig(trace=...)`` opt in per session/engine), including
  counter samples for Perfetto counter tracks;
* :mod:`repro.obs.metrics` — counters, gauges and p50/p90/p99 histograms
  behind :class:`MetricsRegistry`; the serving stats objects are thin
  views over one of these;
* :mod:`repro.obs.requests` — request-scoped SLO timelines (queue wait,
  TTFT, TPOT, tokens/sec) minted at the engine front doors and stamped
  through admission, prefill, decode, preemption and fault recovery into
  one bounded event ring per request, from which the tracker dumps
  deterministic postmortem JSON on ``DeadlineExceeded``, ``KVCacheOOM``,
  isolated faults and sanitizer findings;
* :mod:`repro.obs.resources` — periodic resource sampling (KV/arena
  utilization, pool idle, batch occupancy, prefix hit rate) fanned out
  to counter tracks, gauges and BENCH series;
* :mod:`repro.obs.export` — Chrome trace-event JSON (Perfetto /
  ``chrome://tracing``) plus text top-K-ops and waterfall reports;
* :mod:`repro.obs.prom` — Prometheus text exposition of a registry
  (``cli metrics --prom``) with a validating parser for self-tests;
* :mod:`repro.obs.regress` — the bench-regression gate comparing fresh
  ``BENCH_*.json`` records against their stored trajectory.

Surfaced on the command line as ``cli trace <model>``, ``cli metrics
[--prom]``, ``cli regress`` and ``cli serve --trace``.
"""

from .export import (
    chrome_trace_events,
    save_chrome_trace,
    to_chrome_trace,
    top_ops_report,
    waterfall_report,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_metrics,
    set_metrics,
)
from .prom import parse_prometheus, to_prometheus
from .regress import RegressionReport, check_trajectory
from .requests import (
    RequestTimeline,
    RequestTracker,
    TimelineEvent,
    get_request_tracker,
    set_request_tracker,
)
from .resources import ResourceSampler
from .tracer import Span, Tracer, get_tracer, set_tracer

__all__ = [
    "Span",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_metrics",
    "set_metrics",
    "RequestTimeline",
    "RequestTracker",
    "TimelineEvent",
    "get_request_tracker",
    "set_request_tracker",
    "ResourceSampler",
    "to_prometheus",
    "parse_prometheus",
    "RegressionReport",
    "check_trajectory",
    "chrome_trace_events",
    "to_chrome_trace",
    "save_chrome_trace",
    "top_ops_report",
    "waterfall_report",
]
