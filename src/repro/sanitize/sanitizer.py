"""The :class:`Sanitizer` facade: one event API over three checkers.

Instrumented code talks to exactly one object::

    san.probe(obj, "field", "w", lockset=("kvcache.lock",))   # data access
    with san.locked(self._lock, "kvcache.lock"): ...          # lock + order
    san.hb_send(("pool.session", id(s)))                      # queue put
    san.hb_recv(("pool.session", id(s)))                      # queue get
    gen = san.carve(scope, key, start, units)                 # allocation
    san.free_extent(scope, key); san.use_extent(scope, key, gen)
    san.close_scope(scope)                                    # leak check

Design constraints mirror the tracer's (:mod:`repro.obs.tracer`):

1. **Disabled must be (almost) free.**  The process-wide default is a
   disabled sanitizer; every entry point starts with one ``enabled``
   check, ``locked()`` on a disabled sanitizer returns the raw lock
   itself, and hot loops additionally guard on ``sanitizer.enabled`` so
   an unsanitized run pays a single attribute test.  The overhead guard
   in ``tests/test_sanitize_integration.py`` holds this to <10% of a
   small-model run loop.
2. **Thread-safe recording.**  All three checkers are plain data
   structures mutated under one internal lock; that lock is never held
   while acquiring user locks, so instrumentation cannot introduce the
   deadlocks it is hunting.
3. **No global mutation by default.**  Sessions/engines take a sanitizer
   through their :class:`repro.Runtime` (``EngineConfig(sanitize=True)``,
   ``Runtime.resolve(sanitize=True)``); the process-wide default
   (:func:`get_sanitizer`/:func:`set_sanitizer`) is only the fallback.

Findings surface three ways: :meth:`Sanitizer.report` (a structured
:class:`SanitizeReport` with ``analysis.diagnostics`` conversion), the
``sanitize.races`` / ``sanitize.lock_cycles`` / ``sanitize.leaks``
counters in the bound metrics registry (pre-registered to zero so every
snapshot shows them), and ``cli sanitize``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Hashable, Iterable, List, Optional

from ..obs.metrics import MetricsRegistry, get_metrics
from .lifecycle import LifecycleFinding, LifecycleTracker
from .lockorder import LockCycle, LockOrderRecorder
from .race import RaceDetector, RaceRecord

__all__ = [
    "SanitizeReport",
    "Sanitizer",
    "get_sanitizer",
    "set_sanitizer",
]

#: Counters every enabled sanitizer registers (at zero) in its metrics
#: registry.  ``sanitize.leaks`` counts *all* lifecycle findings (leaks,
#: double-frees, use-after-frees) — one number that must stay zero.
COUNTER_NAMES = ("sanitize.races", "sanitize.lock_cycles", "sanitize.leaks")


@dataclass
class SanitizeReport:
    """Snapshot of every finding from one sanitized run."""

    races: List[RaceRecord] = field(default_factory=list)
    lock_cycles: List[LockCycle] = field(default_factory=list)
    lifecycle: List[LifecycleFinding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (self.races or self.lock_cycles or self.lifecycle)

    @property
    def total(self) -> int:
        return len(self.races) + len(self.lock_cycles) + len(self.lifecycle)

    def diagnostics(self) -> list:
        """Findings as :class:`repro.analysis.Diagnostic` rows.

        Imported lazily: ``repro.analysis`` pulls in the converter and IR
        stacks, which instrumented low-level modules must not depend on
        at import time.
        """
        from ..analysis.diagnostics import error

        out = []
        for race in self.races:
            out.append(error("sanitize-race", race.describe(), tensor=race.var))
        for cycle in self.lock_cycles:
            out.append(error("sanitize-lock-cycle", cycle.describe()))
        for finding in self.lifecycle:
            out.append(
                error(f"sanitize-{finding.rule}", finding.describe(),
                      tensor=finding.key)
            )
        return out

    def describe(self) -> str:
        if self.ok:
            return "sanitize: clean (0 races, 0 lock cycles, 0 lifecycle findings)"
        lines = [
            f"sanitize: {len(self.races)} race(s), "
            f"{len(self.lock_cycles)} lock cycle(s), "
            f"{len(self.lifecycle)} lifecycle finding(s)"
        ]
        for race in self.races:
            lines.append(f"  - {race.describe()}")
        for cycle in self.lock_cycles:
            lines.append(f"  - {cycle.describe()}")
        for finding in self.lifecycle:
            lines.append(f"  - {finding.describe()}")
        return "\n".join(lines)

    def raise_if_failed(self) -> None:
        if not self.ok:
            raise SanitizeError(self.describe(), self)


class SanitizeError(RuntimeError):
    """Raised by :meth:`SanitizeReport.raise_if_failed`; carries the report."""

    def __init__(self, message: str, report: SanitizeReport) -> None:
        super().__init__(message)
        self.report = report


class _LockedContext:
    """``with sanitizer.locked(lock, name):`` — real lock + recorded order."""

    __slots__ = ("_sanitizer", "_lock", "_name")

    def __init__(self, sanitizer: "Sanitizer", lock, name: str) -> None:
        self._sanitizer = sanitizer
        self._lock = lock
        self._name = name

    def __enter__(self):
        # Real lock first: the recorded order then reflects the order
        # acquisitions actually succeeded in.
        self._lock.acquire()  # sanitize: released in __exit__
        self._sanitizer.acquire(self._name)
        return self._lock

    def __exit__(self, *exc) -> bool:
        self._sanitizer.release(self._name)
        self._lock.release()
        return False


class Sanitizer:
    """Race, lock-order and lifecycle checking behind one event API.

    ``Sanitizer()`` is enabled; ``Sanitizer(enabled=False)`` is the no-op
    form used as the process-wide default.  All events are safe to emit
    from any thread.
    """

    def __init__(
        self,
        enabled: bool = True,
        metrics: Optional[MetricsRegistry] = None,
        max_reads: int = 8,
    ) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._metrics = metrics
        self.race_detector = RaceDetector(max_reads=max_reads)
        self.lock_order = LockOrderRecorder()
        self.lifecycle = LifecycleTracker()
        self._counted_cycles: set = set()
        self._counted_lifecycle = 0
        if enabled:
            registry = self.metrics
            for name in COUNTER_NAMES:
                registry.counter(name)

    @property
    def metrics(self) -> MetricsRegistry:
        """Bound registry, falling back to the process-wide one lazily
        (so a sanitizer created before ``set_metrics`` still lands its
        counters in the registry active at event time)."""
        return self._metrics if self._metrics is not None else get_metrics()

    # -- data accesses -------------------------------------------------------
    def probe(
        self, obj: object, field_name: str, rw: str = "r",
        lockset: Iterable[str] = (),
    ) -> None:
        """Record a shared-state access.

        ``lockset`` names locks the caller *knows* protect this access
        (e.g. a metrics gauge's internal lock); locks currently held via
        :meth:`locked` are added automatically.
        """
        if not self.enabled:
            return
        tid = threading.get_ident()
        var = f"{type(obj).__name__}#{id(obj):x}.{field_name}"
        with self._lock:
            effective = frozenset(lockset).union(self.lock_order.held(tid))
            found = self.race_detector.access(tid, var, rw, effective)
        if found:
            self.metrics.counter("sanitize.races").inc(found)

    # -- locks ---------------------------------------------------------------
    def locked(self, lock, name: str):
        """Wrap ``with lock:`` so acquisition order and lockset are seen.

        Disabled sanitizers return the raw lock — the ``with`` statement
        costs one extra method call and nothing else.
        """
        if not self.enabled:
            return lock
        return _LockedContext(self, lock, name)

    def acquire(self, name: str) -> None:
        """A named lock was acquired by the calling thread."""
        if not self.enabled:
            return
        tid = threading.get_ident()
        with self._lock:
            self.lock_order.acquire(tid, name)
            self.race_detector.recv(tid, ("lock", name))

    def release(self, name: str) -> None:
        """A named lock is about to be released by the calling thread."""
        if not self.enabled:
            return
        tid = threading.get_ident()
        with self._lock:
            self.lock_order.release(tid, name)
            self.race_detector.send(tid, ("lock", name))

    # -- message edges -------------------------------------------------------
    def hb_send(self, key: Hashable) -> None:
        """Publish a happens-before edge (queue put, handoff, signal)."""
        if not self.enabled:
            return
        with self._lock:
            self.race_detector.send(threading.get_ident(), key)

    def hb_recv(self, key: Hashable) -> None:
        """Receive a happens-before edge (queue get, join, wait-return)."""
        if not self.enabled:
            return
        with self._lock:
            self.race_detector.recv(threading.get_ident(), key)

    # -- lifecycle -----------------------------------------------------------
    def carve(
        self, scope: str, key: str, start: int, units: int, kind: str = "kv-slab"
    ) -> int:
        if not self.enabled:
            return 0
        with self._lock:
            generation = self.lifecycle.carve(scope, key, start, units, kind)
        self._flush_lifecycle()
        return generation

    def retire_extent(self, scope: str, key: str) -> None:
        if not self.enabled:
            return
        with self._lock:
            self.lifecycle.retire(scope, key)
        self._flush_lifecycle()

    def free_extent(self, scope: str, key: str) -> None:
        if not self.enabled:
            return
        with self._lock:
            self.lifecycle.free(scope, key)
        self._flush_lifecycle()

    def use_extent(self, scope: str, key: str, generation: Optional[int] = None) -> None:
        if not self.enabled:
            return
        with self._lock:
            self.lifecycle.use(scope, key, generation)
        self._flush_lifecycle()

    def close_scope(self, scope: str) -> List[LifecycleFinding]:
        """Leak check at allocator/engine teardown."""
        if not self.enabled:
            return []
        with self._lock:
            leaks = self.lifecycle.close_scope(scope)
        self._flush_lifecycle()
        return leaks

    def _flush_lifecycle(self) -> None:
        with self._lock:
            new = len(self.lifecycle.findings) - self._counted_lifecycle
            self._counted_lifecycle = len(self.lifecycle.findings)
        if new > 0:
            self.metrics.counter("sanitize.leaks").inc(new)

    # -- reporting -----------------------------------------------------------
    def report(self) -> SanitizeReport:
        """Snapshot findings; runs lock-cycle detection and updates counters."""
        if not self.enabled:
            return SanitizeReport()
        with self._lock:
            cycles = self.lock_order.cycles()
            new_cycles = [
                c for c in cycles if frozenset(c.names) not in self._counted_cycles
            ]
            for cycle in new_cycles:
                self._counted_cycles.add(frozenset(cycle.names))
            snapshot = SanitizeReport(
                races=list(self.race_detector.races),
                lock_cycles=cycles,
                lifecycle=list(self.lifecycle.findings),
            )
        if new_cycles:
            self.metrics.counter("sanitize.lock_cycles").inc(len(new_cycles))
        return snapshot

    def clear(self) -> None:
        """Reset all detector state (counters are left alone)."""
        with self._lock:
            self.race_detector.clear()
            self.lock_order.clear()
            self.lifecycle.clear()
            self._counted_cycles.clear()
            self._counted_lifecycle = 0


#: Process-wide default: a disabled sanitizer, so un-configured sessions
#: pay only an ``enabled`` check.  Replace via :func:`set_sanitizer` (the
#: CLI does this for ``cli sanitize``).
_GLOBAL_SANITIZER = Sanitizer(enabled=False)


def get_sanitizer() -> Sanitizer:
    """The process-wide sanitizer (disabled no-op unless :func:`set_sanitizer` ran)."""
    return _GLOBAL_SANITIZER


def set_sanitizer(sanitizer: Sanitizer) -> Sanitizer:
    """Install ``sanitizer`` process-wide; returns the previous one (restore it)."""
    global _GLOBAL_SANITIZER
    previous = _GLOBAL_SANITIZER
    _GLOBAL_SANITIZER = sanitizer
    return previous

