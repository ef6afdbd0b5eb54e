"""Metrics registry: counters, gauges and percentile histograms.

Where the tracer (:mod:`repro.obs.tracer`) answers *"what happened when"*,
the registry answers *"how much / how often / how slow"*: cache hit/miss
counts, pool checkout waits, batch sizes, prepare and run latencies.  The
serving ``Engine`` records straight into one of these registries
(``engine.metrics``), and the batcher's ``BatchStats`` is a thin view over
it, so the counters a test asserts on and the snapshot ``cli metrics``
exports are the same numbers.

Everything is thread-safe.  Histograms keep exact count/sum/min/max over
all observations plus a bounded window of recent raw values (default
4096) for percentiles, so a long-running server cannot grow without
bound.  Percentiles use linear interpolation on the sorted window — the
same definition as ``numpy.percentile``'s default, which the test suite
verifies against.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from typing import Deque, Dict, List, Optional, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_metrics",
    "set_metrics",
]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, n: Union[int, float] = 1) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc {n})")
        with self._lock:
            self._value += n

    @property
    def value(self) -> Union[int, float]:
        with self._lock:
            return self._value


class Gauge:
    """A value that goes up and down (pool idle count, last batch size)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def add(self, delta: float) -> float:
        """Atomically add ``delta`` and return the new value.

        Concurrent updaters must use this rather than read-modify-``set``
        (``g.set(g.value + 1)`` from two threads loses updates — the race
        the sanitizer caught on ``pool.idle``).
        """
        with self._lock:
            self._value += delta
            return self._value

    def track_max(self, value: float) -> None:
        """Keep the running maximum of every value seen."""
        with self._lock:
            if value > self._value:
                self._value = value

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Latency/size distribution with p50/p90/p99 summaries.

    ``count``/``sum``/``min``/``max`` are exact over every observation;
    raw values (and therefore percentiles) cover the most recent
    ``window`` observations.
    """

    __slots__ = ("name", "_values", "_count", "_sum", "_min", "_max", "_lock")

    def __init__(self, name: str, window: int = 4096) -> None:
        # window=0 would silently decouple percentiles from count: the
        # deque retains nothing, so percentile() reports 0.0 while
        # count/sum keep growing — a dashboard that lies.  Refuse it.
        if window < 1:
            raise ValueError(f"histogram {name!r} window must be >= 1, got {window}")
        self.name = name
        self._values: Deque[float] = deque(maxlen=window)
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._values.append(value)
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    @property
    def values(self) -> List[float]:
        """The windowed raw observations, oldest first."""
        with self._lock:
            return list(self._values)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    def percentile(self, q: float) -> float:
        """Linear-interpolated percentile of the window (NumPy-compatible).

        ``q`` is in percent (0..100).  Degenerate windows behave as the
        property tests lock in: an empty histogram reports 0.0 for every
        ``q``; a single sample reports that sample for every ``q``; when
        fewer than ``window`` values have been observed the percentile
        covers exactly the observed values; once observations exceed the
        window only the most recent ``window`` values contribute (while
        count/sum/min/max stay exact over everything).
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile q must be in [0, 100], got {q}")
        with self._lock:
            values = sorted(self._values)
        if not values:
            return 0.0
        rank = (len(values) - 1) * (q / 100.0)
        lo = math.floor(rank)
        hi = math.ceil(rank)
        if lo == hi:
            return values[lo]
        a, b, t = values[lo], values[hi], rank - lo
        if t >= 0.5:
            # lerp from the nearer endpoint (as numpy does): a + (b-a)*t
            # loses catastrophically when t -> 1 and |a| dwarfs |b|
            return b - (b - a) * (1.0 - t)
        return a + (b - a) * t

    def summary(self) -> Dict[str, float]:
        """A stable, JSON-ready digest of the distribution."""
        with self._lock:
            count, total = self._count, self._sum
            vmin = self._min if self._count else 0.0
            vmax = self._max if self._count else 0.0
        return {
            "count": count,
            "sum": total,
            "mean": total / count if count else 0.0,
            "min": vmin,
            "max": vmax,
            "p50": self.percentile(50.0),
            "p90": self.percentile(90.0),
            "p99": self.percentile(99.0),
        }


class MetricsRegistry:
    """A named collection of counters, gauges and histograms.

    ``counter``/``gauge``/``histogram`` are get-or-create (idempotent and
    thread-safe); asking for an existing name as a different kind raises
    ``TypeError`` — silent kind confusion is how dashboards lie.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, object] = {}

    def _get(self, name: str, kind):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = kind(name)
            elif not isinstance(metric, kind):
                raise TypeError(
                    f"metric {name!r} is a {type(metric).__name__}, "
                    f"not a {kind.__name__}"
                )
            return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    def value(self, name: str, default: Union[int, float] = 0) -> Union[int, float]:
        """Read a counter/gauge without creating it (absent → ``default``).

        Handy for reconciliation checks: a counter that never fired has
        no entry, and ``counter(name)`` would materialize a zero.
        """
        with self._lock:
            metric = self._metrics.get(name)
        if metric is None:
            return default
        if isinstance(metric, (Counter, Gauge)):
            return metric.value
        raise TypeError(f"metric {name!r} is a {type(metric).__name__}; use summary()")

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """A stable JSON-serializable snapshot of every metric.

        Shape: ``{"counters": {name: value}, "gauges": {name: value},
        "histograms": {name: summary-dict}}`` with names sorted, so two
        snapshots of identical state serialize identically.
        """
        with self._lock:
            metrics = dict(self._metrics)
        out: Dict[str, Dict[str, object]] = {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
        for name in sorted(metrics):
            metric = metrics[name]
            if isinstance(metric, Counter):
                out["counters"][name] = metric.value
            elif isinstance(metric, Gauge):
                out["gauges"][name] = metric.value
            else:
                out["histograms"][name] = metric.summary()
        return out

    def describe(self) -> str:
        """Human-readable multi-line summary (used by the CLI)."""
        snap = self.snapshot()
        lines: List[str] = []
        for name, value in snap["counters"].items():
            lines.append(f"{name:32s} {value}")
        for name, value in snap["gauges"].items():
            lines.append(f"{name:32s} {value:g}")
        for name, s in snap["histograms"].items():
            lines.append(
                f"{name:32s} n={s['count']} mean={s['mean']:.2f} "
                f"p50={s['p50']:.2f} p90={s['p90']:.2f} p99={s['p99']:.2f} "
                f"max={s['max']:.2f}"
            )
        return "\n".join(lines) if lines else "(no metrics recorded)"

    def clear(self) -> None:
        with self._lock:
            self._metrics.clear()


#: Process-wide default registry.  Unlike the tracer, this is a live
#: registry: metrics are cheap enough to record unconditionally, and a
#: default-configured session's prepare/run latencies land here so
#: ``cli metrics`` has something to show without plumbing.
_GLOBAL_METRICS = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return _GLOBAL_METRICS


def set_metrics(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` process-wide; returns the previous one."""
    global _GLOBAL_METRICS
    previous = _GLOBAL_METRICS
    _GLOBAL_METRICS = registry
    return previous
