"""``repro.cluster``: the crash-tolerant multi-process serving tier.

One front-door :class:`Cluster` (router) shards requests across N
supervised worker processes, each owning its own session / arena / KV
allocator and serving one request at a time.  Headline contracts:

* consistent-hash **session affinity** with deterministic
  rehash-and-replay on worker loss (:class:`HashRing`);
* a :class:`Supervisor` that heartbeats workers, detects crash / hang /
  slow-start, and replaces the dead;
* **admission control** with typed, distinguishable load answers
  (:class:`Backpressure`, :class:`Overloaded`) and fault answers
  (:class:`WorkerLost`, :class:`WorkerError`);
* **deadline propagation** across the process boundary (remaining-ms at
  send, re-armed on the worker);
* zero-copy tensor transport over shared memory sized once from the
  graph, with feeds checked at the router and generation-counter guards
  (:class:`ShmSegment`, typed :class:`StaleSegment`);
* the ``worker.crash`` fault site, so the chaos storm can kill workers
  mid-decode and prove the fault-accounting equation still closes.

See DESIGN.md §14 for the full design.
"""

from .errors import (
    Backpressure,
    ClusterError,
    Overloaded,
    ProtocolError,
    StaleSegment,
    WorkerError,
    WorkerLost,
)
from .ring import HashRing
from .router import Cluster, ClusterConfig, RemoteGenResult
from .shm import ShmSegment, TensorSpec, payload_bytes
from .supervisor import Supervisor, WorkerHandle, fork_available
from .worker import CRASH_EXIT_CODE, worker_main

__all__ = [
    "Backpressure",
    "CRASH_EXIT_CODE",
    "Cluster",
    "ClusterConfig",
    "ClusterError",
    "HashRing",
    "Overloaded",
    "ProtocolError",
    "RemoteGenResult",
    "ShmSegment",
    "StaleSegment",
    "Supervisor",
    "TensorSpec",
    "WorkerError",
    "WorkerHandle",
    "WorkerLost",
    "fork_available",
    "payload_bytes",
    "worker_main",
]
