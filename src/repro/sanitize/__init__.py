"""Concurrency and lifecycle sanitizers for the runtime (TSan/ASan analogue).

PRs 2–5 made nearly every hot path multithreaded — the parallel branch
executor, :class:`~repro.serving.SessionPool` checkout, micro-batching,
the continuous-batching scheduler and the KV allocator.  ``repro.analysis``
proves *static* properties (graph shapes, memory-plan aliasing); this
package proves the *dynamic* ones those layers now depend on:

* :mod:`repro.sanitize.race` — lockset + vector-clock (happens-before)
  race detection over ``probe()`` events;
* :mod:`repro.sanitize.lockorder` — runtime lock-order graph with
  deadlock-cycle detection;
* :mod:`repro.sanitize.lifecycle` — carve/retire/free/use tracking for
  arena extents and KV slabs: leaks at close, double-free and
  generation-counter use-after-free.

Enable it for a whole engine with ``EngineConfig(sanitize=True)`` or
``GenerationConfig(sanitize=True)`` (the engine's :class:`repro.Runtime`
carries the one detector to every layer it builds), or for one session
with ``Session(graph, runtime=Runtime.resolve(sanitize=True))``; run
everything at once with ``python -m repro.tools.cli sanitize``.  The
static companion pass (rule family ``C0xx`` over ``src/repro`` itself)
lives in :mod:`repro.analysis.concurrency`.
"""

from .lifecycle import ExtentState, LifecycleFinding, LifecycleTracker
from .lockorder import LockCycle, LockOrderRecorder
from .race import AccessInfo, RaceDetector, RaceRecord
from .sanitizer import (
    SanitizeError,
    SanitizeReport,
    Sanitizer,
    get_sanitizer,
    set_sanitizer,
)

__all__ = [
    "AccessInfo",
    "ExtentState",
    "LifecycleFinding",
    "LifecycleTracker",
    "LockCycle",
    "LockOrderRecorder",
    "RaceDetector",
    "RaceRecord",
    "SanitizeError",
    "SanitizeReport",
    "Sanitizer",
    "get_sanitizer",
    "set_sanitizer",
]
