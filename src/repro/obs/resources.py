"""Resource sampling: counter tracks for Perfetto and BENCH.

A :class:`ResourceSampler` polls a set of named sources — callables
returning the current value of a resource counter (KV-slab page/token
utilization, free pages, pool idle seats, batch occupancy, prefix-cache
hit rate) — and fans each sample out three ways:

* a Chrome-trace counter ("C") event via ``Tracer.counter`` so Perfetto
  renders live counter tracks under the span lanes,
* a gauge in the metrics registry (so ``cli metrics --prom`` exports the
  latest value), and
* a bounded in-memory history, exported by :meth:`series` as parallel
  lists for the ``BENCH_*.json`` trajectories.

Sampling is explicit, at natural ticks: the continuous-batching
scheduler calls :meth:`~ResourceSampler.sample` once per decode step,
and ``Engine.infer`` once per request as it finishes.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable, Deque, Dict, List, Optional

from .metrics import MetricsRegistry, get_metrics
from .tracer import Tracer, get_tracer

__all__ = ["ResourceSampler"]


class ResourceSampler:
    """Samples named resource counters into traces, gauges and history."""

    def __init__(
        self,
        sources: Optional[Dict[str, Callable[[], float]]] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        max_samples: int = 4096,
    ) -> None:
        if max_samples < 1:
            raise ValueError(f"max_samples must be >= 1, got {max_samples}")
        self.sources: Dict[str, Callable[[], float]] = dict(sources or {})
        self._tracer = tracer
        self._metrics = metrics
        self._history: Dict[str, Deque[float]] = {}
        self._max_samples = max_samples
        self._lock = threading.Lock()
        self.samples = 0

    def _tracer_or_default(self) -> Tracer:
        return self._tracer if self._tracer is not None else get_tracer()

    def _registry(self) -> MetricsRegistry:
        return self._metrics if self._metrics is not None else get_metrics()

    # -- sampling -----------------------------------------------------------
    def sample(self, extra: Optional[Dict[str, float]] = None) -> Dict[str, float]:
        """Take one sample of every source (plus ad-hoc ``extra`` values).

        Sources that raise are skipped for that tick — a closing engine
        must not fail the request that samples it.
        """
        with self._lock:
            sources = list(self.sources.items())
        values: Dict[str, float] = {}
        for name, fn in sources:
            try:
                values[name] = float(fn())
            except Exception:
                continue
        for name, value in (extra or {}).items():
            values[name] = float(value)

        tracer = self._tracer_or_default()
        registry = self._registry()
        for name, value in values.items():
            if tracer.enabled:
                tracer.counter(name, value)
            registry.gauge(name).set(value)
        with self._lock:
            for name, value in values.items():
                history = self._history.get(name)
                if history is None:
                    history = self._history[name] = deque(maxlen=self._max_samples)
                history.append(value)
            self.samples += 1
        return values

    def series(self) -> Dict[str, List[float]]:
        """Per-counter sample history, oldest first (for BENCH records)."""
        with self._lock:
            return {name: list(h) for name, h in sorted(self._history.items())}
