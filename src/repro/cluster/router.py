"""The router: one front door, N supervised worker shards.

:class:`Cluster` is the process users talk to.  It owns admission
control, placement, transport and failure policy; the workers own the
engines.  The contract, piece by piece:

**One prepare.**  With a graph, the router runs pre-inference once
(through the cache when ``use_cache`` is set) and ships the products in
every spawn config, respawns included.  Each worker's session replays
them, so every worker runs the schemes the router decided and none times
a verdict of its own.

**Placement.**  Requests carrying a ``session_key`` hash onto the
consistent ring (:mod:`repro.cluster.ring`) — a generation session's KV
slabs live in exactly one worker's arena, so its requests must keep
landing there.  Keyless requests go to the least-loaded live worker.

**Admission** (one lock, checked before anything is sent):

* a session-affine request whose sticky worker is at the per-worker
  queue-depth bound is shed with typed :class:`Backpressure` — it
  cannot be rerouted, its state lives on that worker;
* a keyless request finding *every* worker at the bound is shed with
  typed :class:`Overloaded`;
* both are load answers, distinguishable by type from fault answers
  (:class:`WorkerLost`, :class:`WorkerError`), and both emit a
  postmortem when the request tracker has a ``postmortem_dir``.

**Deadlines across the boundary.**  A request's
:class:`~repro.faults.resilience.Deadline` lives router-side and is
serialized as *milliseconds remaining* at send; the worker re-arms a
fresh deadline from that number (no shared clock needed).  A request
that expires while waiting — for its slot's lock, or parked on a dead
worker slot for its replacement, both waits bounded by the deadline —
surfaces ``DeadlineExceeded``, never ``WorkerLost``: expiry is checked
*before* the loss outcome is decided.

**One segment pair per slot.**  The router creates each slot's
request/response segments once, sized from the graph, and binds one
NumPy view per graph input and output on them; every epoch of the
slot's worker attaches the same pair and binds the same views.  An
infer RPC copies the feeds into the request views, stamps the
generation and sends one fixed-layout frame (tag, crash marker,
generation, request sequence number, deadline); the ``ok`` frame that
answers it names the generation the outputs in the response views must
carry.  Nothing on that path is pickled or laid out.  The slot's lock
owns the pair and the worker's pipe; the generation stamp guards
against a late write.

**On the caller's thread.**  There are no dispatch threads: ``infer``
and ``generate`` admit and serve the request on the calling thread,
holding the slot's lock from send to the read of the response views
(requests on one slot go in lock order, not strictly FIFO).  They are
the only request path: a caller that wants a future wraps them in its
own executor.

**The model travels in memory.**  The router serializes the graph once
(:func:`repro.ir.dumps`) into every spawn config, and each worker builds
its session from those bytes: no model file is written.

**Worker loss.**  The serving thread waits on its worker's pipe and
process sentinel together, so it sees a death mid-RPC at once (a reply
flushed before the death is still read), reports it to the supervisor
(idempotent, epoch-guarded) while it still holds the slot's lock, and
resolves the request by its per-request ``on_worker_lost`` policy:

* ``"replay"`` (default): transparently re-admit on the next live
  worker in the ring's preference order — a full re-prefill, since the
  dead arena is gone — and serve it there on the same thread, up to
  ``REPLAY_BUDGET`` times;
* ``"error"``: fail fast with typed :class:`WorkerLost`.

**Fault accounting.**  The ninth fault site ``worker.crash`` fires
*router-side* at dispatch: a planned ``transient`` kills the worker
before it starts ("early"), a planned ``fatal`` kills it mid-decode
("mid" — the worker really decodes half its budget first).  Every
injected crash is resolved as exactly one ``fallback.replay`` (policy
replayed it) or one ``cluster.worker_lost`` (policy failed it) in the
process-wide registry — the same registry ``faults.injected`` lives in
— which is what keeps the chaos storm's closed equation balanced.
Crashes from other causes (``Supervisor.kill``, hangs, real bugs) are
deliberately counted elsewhere (``cluster.replays`` /
``cluster.lost``): the equation tallies only what the plan injected.
"""

from __future__ import annotations

import itertools
import os
import pickle
import threading
from dataclasses import asdict, dataclass
from multiprocessing.connection import wait
from typing import Dict, List, Optional, Union

import numpy as np

from ..faults.errors import DeadlineExceeded, FatalFault, TransientFault
from ..faults.plan import FaultPlan
from ..faults.resilience import Deadline
from ..ir import dumps
from ..obs.metrics import MetricsRegistry, get_metrics
from ..obs.requests import RequestTracker
from ..obs.tracer import Tracer
from ..runtime import Runtime
from ..sanitize import Sanitizer
from .errors import Backpressure, Overloaded, WorkerError, WorkerLost
from .ring import HashRing
from .shm import (INFER, OK, PICKLED, ShmSegment, pack_frame, payload_bytes,
                  segment_descs, unpack_frame)
from .supervisor import Supervisor

__all__ = ["Cluster", "ClusterConfig", "RemoteGenResult"]

#: Max transparent replays per request under the ``"replay"`` loss policy.
REPLAY_BUDGET = 2


class _WorkerDied(Exception):
    """Internal: the RPC's worker died before answering."""


def _remaining_s(item: "_Pending") -> Optional[float]:
    """Seconds left on ``item``'s deadline (``None``: no deadline)."""
    return None if item.deadline is None else item.deadline.remaining_s()


def _lock_timeout(item: "_Pending") -> float:
    """``item``'s deadline as a ``Lock.acquire`` timeout (-1: no bound)."""
    return -1 if item.deadline is None else max(0.0, item.deadline.remaining_s())


@dataclass
class ClusterConfig:
    """Everything the router and its workers need.

    Attributes:
        workers: worker process count (ring slots).
        max_queue_depth: per-worker admission bound (queued + in flight);
            it sizes nothing: requests are served on their callers' threads.
        device_dwell_ms: per-request simulated accelerator dwell inside
            the worker (models an offloaded backend's device wait; this
            is what makes multi-worker scaling observable on a
            single-CPU host).
        genai: ``GenerationConfig`` kwargs for generation-mode workers
            (``None`` = infer-only cluster).
        use_cache / cache_dir: the pre-inference cache the router's one
            prepare of the graph warms through (keyed as a local
            ``Engine`` keys it).  Workers never prepare: every spawn,
            respawns included, replays the router's plan.
        metrics / trace / faults / requests / sanitize: the usual
            observability and fault-injection plumbing, resolved once
            into the router's :class:`repro.Runtime` (``metrics=None``
            is the process-wide registry).

    The loss policy and the deadline are per request (``on_worker_lost=``
    and ``deadline_ms=`` on every ``infer``/``generate``; the default policy is
    ``"replay"``, and no deadline).  Transport sizing, the replay bound, ring
    balance and supervision timing are not settings: shm segments are
    sized once from the graph's input and output descriptors, replays
    are bounded by ``REPLAY_BUDGET``, the ring has 64 virtual nodes per
    worker, and the :mod:`~repro.cluster.supervisor` heartbeat, hang and
    start timeouts are module constants.
    """

    workers: int = 2
    max_queue_depth: int = 8
    device_dwell_ms: float = 0.0
    genai: Optional[Dict[str, object]] = None
    use_cache: bool = False
    cache_dir: Optional[str] = None
    metrics: Optional[MetricsRegistry] = None
    trace: Optional[Tracer] = None
    faults: Optional[FaultPlan] = None
    requests: Union[bool, RequestTracker, None] = None
    sanitize: Union[bool, Sanitizer] = False


@dataclass
class RemoteGenResult:
    """A generation outcome marshalled back across the process boundary."""

    request_id: str
    tokens: List[int]
    finish_reason: str


class _Pending:
    """One admitted request, from admission to its outcome."""

    __slots__ = (
        "seq", "id", "kind", "payload", "session_key", "deadline", "policy",
        "slot", "replays", "injected_crash", "timeline",
    )

    def __init__(self, seq, kind, payload, session_key, deadline, policy, timeline):
        #: The request's number on the wire; ``id`` is its name everywhere else.
        self.seq = seq
        self.id = f"clu-{seq}"
        self.kind = kind
        self.payload = payload
        self.session_key = session_key
        self.deadline = deadline
        self.policy = policy
        self.slot = -1
        self.replays = 0
        self.injected_crash = False
        self.timeline = timeline


class Cluster:
    """Router + supervisor + N worker processes behind one object."""

    def __init__(self, graph=None, config: Optional[ClusterConfig] = None) -> None:
        self.config = config or ClusterConfig()
        if graph is None and self.config.genai is None:
            raise ValueError("Cluster needs a graph (infer mode), a genai "
                             "config (generation mode), or both")
        if self.config.workers < 1:
            raise ValueError("Cluster needs at least one worker")
        c = self.config
        runtime = Runtime.resolve(
            trace=c.trace, metrics=c.metrics, faults=c.faults,
            sanitize=c.sanitize, requests=c.requests,
        )
        self.metrics = runtime.metrics
        self.tracer = runtime.tracer
        self.faults = runtime.faults
        self.sanitizer = runtime.sanitizer
        self.requests = runtime.requests

        self._graph = graph
        #: The router's pre-inference products, as JSON: every worker
        #: session replays them, so one process decides every scheme.
        self._plan: Optional[Dict[str, object]] = None
        #: The graph as ``repro.ir`` bytes.  With fork a worker *could*
        #: inherit the object, but the serialized round trip is the
        #: honest path (it is how a spawn-started or remote worker would
        #: get it) and exercises repro.ir every time.
        self._model: Optional[bytes] = None
        if graph is not None:
            self._plan = self._prepare(graph)
            self._model = dumps(graph)

        n = self.config.workers
        self._uid = f"rc{os.getpid():x}-{id(self) & 0xFFFF:x}"
        self._ring = HashRing(range(n))
        self._admission = threading.Lock()
        self._depths: List[int] = [0] * n
        #: Resolved once: admission and finish set them on every request.
        self._depth_gauges = [self.metrics.gauge(f"cluster.worker.{s}.queue_depth")
                              for s in range(n)]
        for gauge in self._depth_gauges:
            gauge.set(0)  # an idle slot exports 0, as one that has drained does
        #: Each slot's request/response segment pair, for the cluster's
        #: life: every epoch of the slot's worker attaches the same pair.
        self._segments: Dict[int, Dict[str, ShmSegment]] = {s: {} for s in range(n)}
        #: Held by a request for its whole exchange with the slot's worker.
        self._slot_locks = [threading.Lock() for _ in range(n)]
        self._gens: Dict[int, "itertools.count"] = {s: itertools.count(1) for s in range(n)}
        self._req_seq = itertools.count(1)
        self._closed = False

        self.supervisor = Supervisor(self._spawn_cfg, n, metrics=self.metrics)
        try:
            if graph is not None:
                # The graph fixes every input and output shape, so one
                # size and one set of views per role hold every request.
                descs = segment_descs(graph)
                for slot, role in itertools.product(range(n), descs):
                    seg = ShmSegment.create(
                        f"{self._uid}-w{slot}-{role}",
                        payload_bytes(descs[role]),
                        sanitizer=self.sanitizer,
                    )
                    self._segments[slot][role] = seg
                    seg.bind(descs[role])
            self.supervisor.start()
        except Exception:
            self.supervisor.stop()  # the workers that did start
            self._cleanup_segments()
            raise

    # -- spawn plumbing ------------------------------------------------------
    def _prepare(self, graph) -> Dict[str, object]:
        """Prepare ``graph`` once, as a local ``Engine`` prepares its
        first session, and return the products every worker replays.

        The prepare runs under a fault-free runtime (a clean plan and a
        private registry): no router fault site fires here, and its
        counters stay out of the router's registry.
        """
        from ..core.session import SessionConfig
        from ..serving.cache import PreInferenceCache, warm_session

        config = SessionConfig()
        runtime = Runtime.resolve(faults=FaultPlan(), metrics=MetricsRegistry())
        cache = (PreInferenceCache(self.config.cache_dir, runtime=runtime)
                 if self.config.use_cache else None)
        key = cache.key(graph, config) if cache is not None else None
        session, _ = warm_session(graph, config, cache, key, runtime)
        return session.export_artifacts().to_json()

    def _spawn_cfg(self, slot: int) -> Dict[str, object]:
        """Supervisor callback: the config every epoch of ``slot`` starts from."""
        cfg: Dict[str, object] = {
            "model": self._model,
            "plan": self._plan,
            "genai": self.config.genai,
            "device_dwell_ms": self.config.device_dwell_ms,
        }
        for role, seg in self._segments[slot].items():
            cfg[f"{role}_segment"] = seg.name
        return cfg

    # -- submission ----------------------------------------------------------
    def infer(self, feeds: Dict[str, np.ndarray], *,
              session_key: Optional[str] = None,
              deadline_ms: Optional[float] = None,
              on_worker_lost: str = "replay") -> Dict[str, np.ndarray]:
        """Admit one inference and serve it on the calling thread;
        returns the output dict.

        Raises:
            GraphError: a feed is missing or has the wrong shape or dtype
                (checked here, before admission: nothing is sent).
        """
        if self._graph is None:
            raise RuntimeError("this cluster has no model graph; infer "
                               "requires Cluster(graph, ...)")
        self._graph.check_feeds(feeds)
        payload = {name: feeds[name] for name in self._graph.inputs}
        return self._serve(self._submit("infer", payload, session_key, deadline_ms,
                                        on_worker_lost))

    def generate(self, prompt, params=None, *,
                 session_key: Optional[str] = None,
                 deadline_ms: Optional[float] = None,
                 on_worker_lost: str = "replay") -> RemoteGenResult:
        """Admit one generation and serve it on the calling thread;
        returns its :class:`RemoteGenResult`."""
        if self.config.genai is None:
            raise RuntimeError("this cluster has no genai config; generate "
                               "requires ClusterConfig(genai=...)")
        if params is None:
            payload_params: Dict[str, object] = {}
        elif isinstance(params, dict):
            payload_params = dict(params)
        else:  # SamplingParams
            payload_params = asdict(params)
        payload = {"prompt": list(prompt), "params": payload_params}
        return self._serve(self._submit("generate", payload, session_key, deadline_ms,
                                        on_worker_lost))

    def _submit(self, kind, payload, session_key, deadline_ms, policy) -> "_Pending":
        """Admit one request on the caller's thread; sheds typed."""
        if self._closed:
            raise RuntimeError("cluster is closed")
        if policy not in ("replay", "error"):
            raise ValueError(f"unknown on_worker_lost policy {policy!r}")
        deadline = Deadline.from_ms(deadline_ms)
        if deadline is not None:
            deadline.check("cluster.submit")
        seq = next(self._req_seq)
        timeline = self.requests.start(f"clu-{seq}", kind=f"cluster.{kind}",
                                       session=session_key or "")
        item = _Pending(seq, kind, payload, session_key, deadline, policy, timeline)
        item.slot = self._admit(item)
        timeline.admitted(worker=item.slot)
        self.metrics.counter("router.requests").inc()
        return item

    def _place(self, item: _Pending, fallback) -> int:
        """``item``'s slot among the live ones (``fallback`` if none is):
        its ring slot if keyed, else the least-loaded, lowest on a tie.
        Called with the admission lock held."""
        live = self.supervisor.live_slots()
        if item.session_key is not None:
            return self._ring.assign(item.session_key,
                                     live=live.__contains__ if live else None)
        return min(live or fallback, key=lambda s: (self._depths[s], s))

    def _admit(self, item: _Pending) -> int:
        """Place + bound-check under the admission lock; sheds typed."""
        bound = self.config.max_queue_depth
        with self._admission:
            slot = self._place(item, range(self.config.workers))
            if self._depths[slot] >= bound:
                if item.session_key is not None:
                    err = Backpressure(slot, self._depths[slot], bound)
                else:
                    err = Overloaded(sum(self._depths), bound * self.config.workers)
                self._shed(item, slot, err)
                raise err
            self._depths[slot] += 1
            self._depth_gauges[slot].set(self._depths[slot])
            return slot

    def _shed(self, item: _Pending, slot: int, err) -> None:
        """Count, timeline and postmortem for a load-shed request."""
        self.metrics.counter(f"router.shed.{type(err).__name__.lower()}").inc()
        item.timeline.finish("shed", error=type(err).__name__, worker=slot)
        self.requests.dump(type(err).__name__, item.id, worker=slot, error=str(err))

    # -- serving -------------------------------------------------------------
    def _serve(self, item: _Pending):
        """Serve an admitted request on the calling thread; returns its
        result or raises its error.

        Each pass holds the slot's lock for the whole exchange with its
        worker.  A worker that dies holding the request is reported under
        that lock, so the next request on the slot never talks to the
        corpse; the loss policy then reroutes (the loop serves the new
        slot) or raises.
        """
        try:
            while True:
                slot = item.slot
                lock = self._slot_locks[slot]
                while not lock.acquire(timeout=_lock_timeout(item)):
                    item.deadline.check("cluster.queue")
                try:
                    if self._closed:  # the segments may be unlinked already
                        raise RuntimeError("cluster is closed")
                    crash = self._maybe_crash(slot, item)
                    handle = self._wait_live(slot, item)
                    try:
                        with self.tracer.span("cluster.rpc", "cluster",
                                              worker=slot, request=item.id):
                            reply = self._rpc(slot, handle, item, crash)
                    except _WorkerDied:
                        self.supervisor.report_down(slot, handle.epoch, "crash")
                    else:
                        result = self._decode(slot, item, reply)
                        break
                finally:
                    lock.release()
                self._on_lost(slot, item)
        except BaseException as exc:
            self._finish(item, exc)
            raise
        self._finish(item)
        return result

    def _maybe_crash(self, slot: int, item: _Pending) -> Optional[str]:
        """Evaluate the ``worker.crash`` fault site for this dispatch.

        A planned ``transient`` becomes an "early" kill (accepted, never
        started); a planned ``fatal`` becomes a "mid" kill (dies
        mid-decode).  The injection is decided and counted router-side so
        the accounting equation never depends on a process that is about
        to die.
        """
        if not self.faults.enabled:
            return None
        try:
            self.faults.fire("worker.crash", worker=slot, request=item.id)
        except TransientFault:
            item.injected_crash = True
            return "early"
        except FatalFault:
            item.injected_crash = True
            return "mid"
        return None

    def _wait_live(self, slot: int, item: _Pending):
        """Block until ``slot`` has a live worker (deadline-checked).

        The deadline check comes first: a request that expires while
        parked on a dead slot surfaces ``DeadlineExceeded``, never
        ``WorkerLost`` — the budget ran out, which worker was going to
        serve it is an implementation detail.
        """
        while True:
            if item.deadline is not None:
                item.deadline.check("cluster.queue")
            handle = self.supervisor.wait_handle(slot, _remaining_s(item))
            if handle is not None:
                return handle
            if self._closed or self.supervisor.slot_failed(slot):
                raise WorkerLost(slot, item.id, item.replays)

    def _rpc(self, slot: int, handle, item: _Pending, crash: Optional[str]):
        """Send one request and wait for its answer (or the worker's death).

        An infer answer comes back as ``("ok", seq, generation)``; every
        other answer is the worker's unpickled tuple ``(kind, seq, ...)``.
        """
        remaining_s = _remaining_s(item)
        deadline_ms = None if remaining_s is None else remaining_s * 1000.0
        if item.kind == "infer":
            gen = next(self._gens[slot])
            self._segments[slot]["req"].write_bound(item.payload, gen)
            msg = pack_frame(INFER, crash, gen, item.seq, deadline_ms)
        else:
            msg = pickle.dumps({"kind": "generate", "id": item.id, "seq": item.seq,
                                "prompt": item.payload["prompt"],
                                "params": item.payload["params"],
                                "deadline_ms": deadline_ms, "crash": crash})
        conn = handle.conn
        try:
            conn.send_bytes(msg)
            while True:
                # A reply flushed before the worker died leaves the pipe
                # readable, so the pipe is read first.
                ready = wait([conn, handle.proc.sentinel], _remaining_s(item))
                if conn in ready:
                    data = conn.recv_bytes()
                    if data[:1] == PICKLED:
                        reply = pickle.loads(data)
                    else:
                        _, gen, seq, _ = unpack_frame(data, OK)
                        reply = ("ok", seq, gen)
                    if reply[1] == item.seq:
                        return reply
                    # A straggler answer to a request abandoned on its
                    # deadline earlier; drop it.
                    self.metrics.counter("cluster.stale_replies").inc()
                elif ready:
                    raise _WorkerDied()
                else:
                    item.deadline.check("cluster.rpc")
        except (EOFError, OSError):
            raise _WorkerDied()

    def _decode(self, slot: int, item: _Pending, reply):
        """``item``'s result from the worker's ``reply``, or its error raised."""
        if reply[0] != "ok":
            etype, message, extra = reply[2], reply[3], reply[4]
            if etype == "DeadlineExceeded":
                raise DeadlineExceeded(
                    float(extra.get("budget_ms", 0.0)),
                    float(extra.get("elapsed_ms", 0.0)),
                    str(extra.get("where", "worker")),
                )
            raise WorkerError(etype, message, slot)
        if item.kind == "infer":
            return self._segments[slot]["resp"].read_bound(reply[2], copy=True)
        payload = reply[2]
        if payload["finish_reason"] == "error":
            raise WorkerError("GenerationError",
                              "generation finished with reason 'error'", slot)
        return RemoteGenResult(item.id, list(payload["tokens"]),
                               payload["finish_reason"])

    # -- worker-loss policy --------------------------------------------------
    def _on_lost(self, slot: int, item: _Pending) -> None:
        """Reroute a request whose worker died holding it, or raise
        ``DeadlineExceeded`` (budget spent) or :class:`WorkerLost`."""
        injected = item.injected_crash
        item.injected_crash = False
        if item.deadline is not None:
            # Expiry wins over loss. (An injected crash resolving this
            # way is impossible in the chaos storm, which runs its
            # cluster phase deadline-free.)
            item.deadline.check("cluster.worker_lost")
        if item.policy == "replay" and item.replays < REPLAY_BUDGET:
            item.replays += 1
            if injected:
                get_metrics().counter("fallback.replay").inc()
            self.metrics.counter("cluster.replays").inc()
            item.timeline.event("replay", worker=slot, attempt=item.replays)
            # Move to the next-preference live worker, bypassing the
            # admission bound: the request was admitted once, and failing
            # it now because its failover target is busy would turn one
            # worker's crash into spurious shed errors.
            with self._admission:
                item.slot = self._place(item, (slot,))
                self._depths[slot] -= 1
                self._depths[item.slot] += 1
                self._depth_gauges[slot].set(self._depths[slot])
                self._depth_gauges[item.slot].set(self._depths[item.slot])
            return
        if injected:
            get_metrics().counter("cluster.worker_lost").inc()
        self.metrics.counter("cluster.lost").inc()
        raise WorkerLost(slot, item.id, item.replays)

    def _finish(self, item: _Pending, exc: Optional[BaseException] = None) -> None:
        """Release ``item``'s admission, close its timeline, dump a loss."""
        with self._admission:
            self._depths[item.slot] -= 1
            self._depth_gauges[item.slot].set(self._depths[item.slot])
        if exc is None:
            item.timeline.finish("ok", worker=item.slot)
            return
        item.timeline.finish("error", error=type(exc).__name__, worker=item.slot)
        if isinstance(exc, WorkerLost):
            self.requests.dump("WorkerLost", item.id, worker=item.slot, error=str(exc))

    # -- health & lifecycle --------------------------------------------------
    def health(self) -> Dict[int, Dict[str, object]]:
        """Per-worker liveness/queue/restart snapshot (mirrors the gauges)."""
        with self._admission:
            depths = list(self._depths)
        return {slot: {"up": self.supervisor.is_up(slot), "queue_depth": depths[slot],
                       "restarts": self.supervisor.restarts(slot)}
                for slot in range(self.config.workers)}

    def _cleanup_segments(self) -> None:
        for segs in self._segments.values():
            for seg in segs.values():
                seg.unlink()

    def close(self) -> None:
        """Stop serving, stop workers, unlink segments (idempotent).

        Requests already talking to a worker finish; one that takes its
        slot's lock later fails with ``RuntimeError``."""
        if self._closed:
            return
        self._closed = True  # sanitize: monotonic latch, checked not cleared
        self.supervisor.release_waiters()
        for lock in self._slot_locks:
            with lock:  # the request holding the slot's pair, if any, is done
                pass
        self.supervisor.stop()
        self._cleanup_segments()

    def __enter__(self) -> "Cluster":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
