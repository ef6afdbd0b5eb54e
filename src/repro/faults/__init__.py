"""repro.faults — fault injection + the resilience layer that survives it.

Two halves:

* **Injection** (:mod:`repro.faults.plan`): a deterministic, seedable
  :class:`FaultPlan` evaluated at named fault points compiled into the
  engine (:data:`FAULT_SITES`).  Activated per session/engine via
  ``Runtime.resolve(faults=)`` / ``EngineConfig(faults=)``, process-wide
  via ``$REPRO_FAULTS``, or from the CLI with ``cli chaos``.
* **Resilience** (:mod:`repro.faults.resilience` + the typed errors):
  deadlines, retry-with-backoff, a per-backend circuit breaker, per-op
  CPU fallback, batch bisection, and numeric guards — the mechanisms
  that turn injected (or real) failures into bounded, per-request
  degradation instead of engine crashes.

The chaos harness (:mod:`repro.faults.chaos`) is deliberately *not*
imported here: it depends on ``repro.core``/``repro.serving``, which in
turn import this package — import it lazily (the CLI and tests do).
"""

from .errors import (
    DeadlineExceeded,
    FatalFault,
    InjectedFault,
    PoolTimeout,
    ResilienceError,
    TransientFault,
    mark_isolated,
)
from .plan import (
    FAULT_KINDS,
    FAULT_SITES,
    FAULTS_ENV_VAR,
    Fault,
    FaultPlan,
    FaultRule,
    get_fault_plan,
    parse_fault_spec,
    set_fault_plan,
)
from .resilience import ABSORBERS, CircuitBreaker, Deadline, retry_transient

__all__ = [
    # errors
    "ResilienceError",
    "DeadlineExceeded",
    "PoolTimeout",
    "InjectedFault",
    "TransientFault",
    "FatalFault",
    "mark_isolated",
    # plan
    "FAULTS_ENV_VAR",
    "FAULT_SITES",
    "FAULT_KINDS",
    "Fault",
    "FaultRule",
    "FaultPlan",
    "parse_fault_spec",
    "get_fault_plan",
    "set_fault_plan",
    # resilience
    "ABSORBERS",
    "Deadline",
    "retry_transient",
    "CircuitBreaker",
]
