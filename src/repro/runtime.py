"""One object for the five cross-cutting instruments.

A :class:`Runtime` carries the tracer, metrics registry, fault plan,
sanitizer and request tracker every layer reports to.  The front doors
(``Session``, ``Engine``, ``GenerationEngine``, ``Cluster``) resolve one
with :meth:`Runtime.resolve` and every component below receives that same
object as ``runtime=``, so an engine's tracer or fault plan reaches every
worker session it builds::

    runtime = Runtime.resolve(trace=Tracer(), faults=plan, sanitize=True)
    session = Session(graph, SessionConfig(threads=2), runtime=runtime)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .faults.plan import FaultPlan, get_fault_plan
from .obs.metrics import MetricsRegistry, get_metrics
from .obs.requests import RequestTracker, get_request_tracker
from .obs.tracer import Tracer, get_tracer
from .sanitize.sanitizer import Sanitizer, get_sanitizer

__all__ = ["Runtime"]


@dataclass(frozen=True)
class Runtime:
    """The resolved instruments one engine and everything under it share."""

    tracer: Tracer
    metrics: MetricsRegistry
    faults: FaultPlan
    sanitizer: Sanitizer
    requests: RequestTracker

    @classmethod
    def resolve(
        cls,
        trace: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        faults: Optional[FaultPlan] = None,
        sanitize: Union[bool, Sanitizer, None] = False,
        requests: Union[bool, RequestTracker, None] = None,
    ) -> "Runtime":
        """Resolve the config-level instrument fields into one runtime.

        The one place the defaulting rule lives: ``None`` means the
        process-wide default (``get_tracer()`` and friends; all disabled
        no-ops but the metrics registry).  ``sanitize`` and ``requests``
        also take ``True`` (a fresh enabled sanitizer / request tracker
        counting into the resolved registry) and ``False`` (the default);
        an instance is used as-is, so one detector can span many engines.
        """
        if metrics is None:
            metrics = get_metrics()
        if isinstance(sanitize, Sanitizer):
            sanitizer = sanitize
        elif sanitize:
            sanitizer = Sanitizer(enabled=True, metrics=metrics)
        else:
            sanitizer = get_sanitizer()
        if isinstance(requests, RequestTracker):
            tracker = requests
        elif requests:
            tracker = RequestTracker(metrics=metrics)
        else:
            tracker = get_request_tracker()
        return cls(
            tracer=trace if trace is not None else get_tracer(),
            metrics=metrics,
            faults=faults if faults is not None else get_fault_plan(),
            sanitizer=sanitizer,
            requests=tracker,
        )
