"""The router: one front door, N supervised worker shards.

:class:`Cluster` is the process users talk to.  It owns admission
control, placement, transport and failure policy; the workers own the
engines.  The contract, piece by piece:

**Placement.**  Requests carrying a ``session_key`` hash onto the
consistent ring (:mod:`repro.cluster.ring`) — a generation session's KV
slabs live in exactly one worker's arena, so its requests must keep
landing there.  Keyless requests go to the least-loaded live worker.

**Admission** (one lock, checked before anything is queued):

* a session-affine request whose sticky worker is at the per-worker
  queue-depth bound is shed with typed :class:`Backpressure` — it
  cannot be rerouted, its state lives on that worker;
* a keyless request finding *every* worker at the bound is shed with
  typed :class:`Overloaded`;
* both are load answers, distinguishable by type from fault answers
  (:class:`WorkerLost`, :class:`WorkerError`), and both emit a
  flight-recorder postmortem when a recorder is attached.

**Deadlines across the boundary.**  A request's
:class:`~repro.faults.resilience.Deadline` lives router-side and is
serialized as *milliseconds remaining* at send; the worker re-arms a
fresh deadline from that number (no shared clock needed).  A request
that expires while queued — including while parked on a dead worker
slot waiting for its replacement — surfaces ``DeadlineExceeded``, never
``WorkerLost``: expiry is checked *before* the loss outcome is decided.

**Worker loss.**  The slot's dispatch thread detects death synchronously
(broken pipe / dead process mid-RPC), reports it to the supervisor
(idempotent, epoch-guarded), and resolves the in-flight request by its
per-request ``on_worker_lost`` policy:

* ``"replay"`` (default): transparently re-admit on the next live
  worker in the ring's preference order — a full re-prefill, since the
  dead arena is gone — up to ``replay_budget`` times;
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
import queue
import shutil
import tempfile
import threading
import time
from concurrent.futures import Future
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Union

import numpy as np

from ..faults.errors import DeadlineExceeded, FatalFault, TransientFault
from ..faults.plan import FaultPlan
from ..faults.resilience import Deadline
from ..obs.metrics import MetricsRegistry, get_metrics
from ..obs.requests import RequestTracker
from ..obs.tracer import Tracer
from ..runtime import Runtime
from ..sanitize import Sanitizer
from .errors import Backpressure, Overloaded, WorkerError, WorkerLost
from .ring import HashRing
from .shm import ShmSegment, payload_bytes
from .supervisor import Supervisor

__all__ = ["Cluster", "ClusterConfig", "RemoteGenResult"]

_STOP = object()


class _WorkerDied(Exception):
    """Internal: the RPC's worker died before answering."""


@dataclass
class ClusterConfig:
    """Everything the router and its workers need.

    Attributes:
        workers: worker process count (ring slots).
        pool_size: per-worker session-pool size (infer mode).
        max_queue_depth: per-worker admission bound (queued + in flight).
        replay_budget: max transparent replays per request under the
            ``"replay"`` loss policy.
        on_worker_lost: default per-request loss policy, ``"replay"`` or
            ``"error"``.
        deadline_ms: default per-request deadline (``None`` = none).
        segment_bytes: initial size of each request/response shm segment.
        vnodes: virtual nodes per worker on the hash ring.
        device_dwell_ms: per-request simulated accelerator dwell inside
            the worker (models an offloaded backend's device wait; this
            is what makes multi-worker scaling observable on a
            single-CPU host).
        genai: ``GenerationConfig`` kwargs for generation-mode workers
            (``None`` = infer-only cluster).
        use_cache / cache_dir: worker engine cache settings.
        heartbeat_interval_s / hang_timeout_s / start_timeout_s:
            supervision timing (see :class:`Supervisor`).
        metrics / trace / faults / requests / sanitize: the usual
            observability and fault-injection plumbing, resolved once
            into the router's :class:`repro.Runtime` (``metrics=None``
            is the process-wide registry).
    """

    workers: int = 2
    pool_size: int = 1
    max_queue_depth: int = 8
    replay_budget: int = 2
    on_worker_lost: str = "replay"
    deadline_ms: Optional[float] = None
    segment_bytes: int = 1 << 20
    vnodes: int = 64
    device_dwell_ms: float = 0.0
    genai: Optional[Dict[str, object]] = None
    use_cache: bool = False
    cache_dir: Optional[str] = None
    heartbeat_interval_s: float = 0.05
    hang_timeout_s: float = 5.0
    start_timeout_s: float = 120.0
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
    """One admitted request, from submission to future resolution."""

    __slots__ = (
        "id", "kind", "payload", "session_key", "deadline", "policy",
        "future", "slot", "replays", "injected_crash", "timeline", "done",
    )

    def __init__(self, rid, kind, payload, session_key, deadline, policy, timeline):
        self.id = rid
        self.kind = kind
        self.payload = payload
        self.session_key = session_key
        self.deadline = deadline
        self.policy = policy
        self.future: Future = Future()
        self.slot = -1
        self.replays = 0
        self.injected_crash = False
        self.timeline = timeline
        self.done = False


class Cluster:
    """Router + supervisor + N worker processes behind one object."""

    def __init__(self, graph=None, config: Optional[ClusterConfig] = None) -> None:
        self.config = config or ClusterConfig()
        if graph is None and self.config.genai is None:
            raise ValueError("Cluster needs a graph (infer mode), a genai "
                             "config (generation mode), or both")
        if self.config.workers < 1:
            raise ValueError("Cluster needs at least one worker")
        if self.config.on_worker_lost not in ("replay", "error"):
            raise ValueError(
                f"unknown on_worker_lost policy {self.config.on_worker_lost!r}")
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

        self._model_dir: Optional[str] = None
        self._model_path: Optional[str] = None
        if graph is not None:
            # Workers load the graph from disk: with fork they *could*
            # inherit it, but the serialized round trip is the honest
            # path (it is how a spawn-started or remote worker would get
            # it) and exercises repro.ir every time.
            from ..ir import save_model

            self._model_dir = tempfile.mkdtemp(prefix="repro-cluster-")
            self._model_path = os.path.join(self._model_dir, "model.rmnn")
            save_model(graph, self._model_path)

        n = self.config.workers
        self._uid = f"rc{os.getpid():x}-{id(self) & 0xFFFF:x}"
        self._ring = HashRing(range(n), vnodes=self.config.vnodes)
        self._admission = threading.Lock()
        self._depths: Dict[int, int] = {s: 0 for s in range(n)}
        self._slot_locks: Dict[int, threading.Lock] = {s: threading.Lock() for s in range(n)}
        self._segments: Dict[int, Dict[str, ShmSegment]] = {}
        self._graveyard: Dict[int, List[ShmSegment]] = {s: [] for s in range(n)}
        self._gens: Dict[int, "itertools.count"] = {s: itertools.count(1) for s in range(n)}
        self._grow_seq = itertools.count(1)
        self._req_seq = itertools.count(1)
        self._seg_bytes: Dict[int, Dict[str, int]] = {
            s: {"req": self.config.segment_bytes, "resp": self.config.segment_bytes}
            for s in range(n)
        }
        self._queues: Dict[int, "queue.Queue"] = {s: queue.Queue() for s in range(n)}
        self._closed = False

        self.supervisor = Supervisor(
            self._spawn_cfg,
            n,
            metrics=self.metrics,
            heartbeat_interval_s=self.config.heartbeat_interval_s,
            hang_timeout_s=self.config.hang_timeout_s,
            start_timeout_s=self.config.start_timeout_s,
        )
        self._threads: List[threading.Thread] = []
        try:
            self.supervisor.start()
        except Exception:
            self._cleanup_segments()
            self._cleanup_model()
            raise
        for s in range(n):
            # Thread names become the labelled per-worker lanes in the
            # Chrome trace export.
            t = threading.Thread(target=self._slot_loop, args=(s,),
                                 name=f"cluster-w{s}", daemon=True)
            t.start()
            self._threads.append(t)

    # -- spawn plumbing ------------------------------------------------------
    def _spawn_cfg(self, slot: int, epoch: int) -> Dict[str, object]:
        """Supervisor callback: fresh per-epoch segments + worker config."""
        cfg: Dict[str, object] = {
            "model_path": self._model_path,
            "pool_size": self.config.pool_size,
            "use_cache": self.config.use_cache,
            "cache_dir": self.config.cache_dir,
            "genai": self.config.genai,
            "heartbeat_interval_s": self.config.heartbeat_interval_s,
            "device_dwell_ms": self.config.device_dwell_ms,
        }
        if self._model_path is not None:
            with self._slot_locks[slot]:
                old = self._segments.get(slot)
                if old is not None:
                    # Defer unmapping to the slot thread (it may hold
                    # live views); the generation guard covers stragglers.
                    self._graveyard[slot].extend(old.values())
                segs = {}
                for role in ("req", "resp"):
                    name = f"{self._uid}-w{slot}e{epoch}-{role}"
                    segs[role] = ShmSegment.create(
                        name, self._seg_bytes[slot][role], sanitizer=self.sanitizer
                    )
                self._segments[slot] = segs  # sanitize: slot lock held (self._slot_locks[slot])
                cfg["req_segment"] = segs["req"].name
                cfg["resp_segment"] = segs["resp"].name
        return cfg

    def _drain_graveyard(self, slot: int) -> None:
        """Unlink superseded segments; slot-lock held, slot thread only."""
        for seg in self._graveyard[slot]:
            seg.unlink()
        self._graveyard[slot].clear()

    def _grow(self, slot: int, handle, role: str, needed: int) -> None:
        """Replace ``role``'s segment with a bigger one; slot-lock held."""
        size = max(int(needed) * 2, self._seg_bytes[slot][role])
        name = f"{self._uid}-w{slot}g{next(self._grow_seq)}-{role}"
        seg = ShmSegment.create(name, size, sanitizer=self.sanitizer)
        self._graveyard[slot].append(self._segments[slot][role])
        self._segments[slot][role] = seg
        self._seg_bytes[slot][role] = size
        self.metrics.counter("cluster.shm.grows").inc()
        try:
            handle.conn.send({"kind": "segment", "role": role, "name": name})
        except (BrokenPipeError, OSError):
            raise _WorkerDied()

    # -- submission ----------------------------------------------------------
    def submit_infer(self, feeds: Dict[str, np.ndarray], *,
                     session_key: Optional[str] = None,
                     deadline_ms: Optional[float] = None,
                     on_worker_lost: Optional[str] = None) -> Future:
        """Queue one inference; returns a future of the output dict."""
        if self._model_path is None:
            raise RuntimeError("this cluster has no model graph; infer "
                               "requires Cluster(graph, ...)")
        return self._submit("infer", dict(feeds), session_key, deadline_ms,
                            on_worker_lost)

    def submit_generate(self, prompt, params=None, *,
                        session_key: Optional[str] = None,
                        deadline_ms: Optional[float] = None,
                        on_worker_lost: Optional[str] = None) -> Future:
        """Queue one generation; returns a future of :class:`RemoteGenResult`."""
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
        return self._submit("generate", payload, session_key, deadline_ms,
                            on_worker_lost)

    def infer(self, feeds, **kw) -> Dict[str, np.ndarray]:
        """Synchronous :meth:`submit_infer`."""
        return self.submit_infer(feeds, **kw).result()

    def generate(self, prompt, params=None, **kw) -> RemoteGenResult:
        """Synchronous :meth:`submit_generate`."""
        return self.submit_generate(prompt, params, **kw).result()

    def _submit(self, kind, payload, session_key, deadline_ms, policy) -> Future:
        if self._closed:
            raise RuntimeError("cluster is closed")
        if policy is None:
            policy = self.config.on_worker_lost
        if policy not in ("replay", "error"):
            raise ValueError(f"unknown on_worker_lost policy {policy!r}")
        budget = deadline_ms if deadline_ms is not None else self.config.deadline_ms
        deadline = Deadline.from_ms(budget)
        if deadline is not None:
            deadline.check("cluster.submit")
        rid = f"clu-{next(self._req_seq)}"
        timeline = self.requests.start(rid, kind=f"cluster.{kind}",
                                       session=session_key or "")
        item = _Pending(rid, kind, payload, session_key, deadline, policy, timeline)
        slot = self._admit(item)
        item.slot = slot
        timeline.admitted(worker=slot)
        self.metrics.counter("router.requests").inc()
        self._queues[slot].put(item)
        return item.future

    def _admit(self, item: _Pending) -> int:
        """Place + bound-check under the admission lock; sheds typed."""
        bound = self.config.max_queue_depth
        with self._admission:
            live = set(self.supervisor.live_slots())
            if item.session_key is not None:
                slot = self._ring.assign(
                    item.session_key,
                    live=(lambda s: s in live) if live else None,
                )
                if self._depths[slot] >= bound:
                    self.metrics.counter("router.shed.backpressure").inc()
                    err = Backpressure(slot, self._depths[slot], bound)
                    self._shed(item, slot, err)
                    raise err
            else:
                pool = sorted(live) if live else list(range(self.config.workers))
                slot = min(pool, key=lambda s: (self._depths[s], s))
                if self._depths[slot] >= bound:
                    total = sum(self._depths.values())
                    self.metrics.counter("router.shed.overloaded").inc()
                    err = Overloaded(total, bound * self.config.workers)
                    self._shed(item, slot, err)
                    raise err
            self._depths[slot] += 1
            self.metrics.gauge(f"cluster.worker.{slot}.queue_depth").set(
                self._depths[slot])
            return slot

    def _shed(self, item: _Pending, slot: int, err) -> None:
        """Timeline + postmortem bookkeeping for a load-shed request."""
        item.done = True
        item.timeline.finish("shed", error=type(err).__name__, worker=slot)
        self.requests.dump(type(err).__name__, item.id,
                           worker=slot, error=str(err))

    # -- dispatch ------------------------------------------------------------
    def _slot_loop(self, slot: int) -> None:
        q = self._queues[slot]
        while True:
            item = q.get()
            if item is _STOP:
                return
            self._dispatch(slot, item)

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

    def _dispatch(self, slot: int, item: _Pending) -> None:
        try:
            crash = self._maybe_crash(slot, item)
            while True:
                handle = self._wait_live(slot, item)
                try:
                    with self.tracer.span("cluster.rpc", "cluster",
                                          worker=slot, request=item.id):
                        reply, resp_seg = self._rpc(slot, handle, item, crash)
                    if reply[0] == "grow":
                        with self._slot_locks[slot]:
                            self._grow(slot, handle, "resp", reply[2])
                        crash = None  # the worker survived its window
                        continue
                except _WorkerDied:
                    self.supervisor.report_down(slot, handle.epoch, "crash")
                    self._on_lost(slot, item)
                    return
                if reply[0] == "ok":
                    self._finish(item, result=self._decode_ok(slot, item, reply,
                                                              resp_seg))
                else:
                    self._finish(item, exc=self._decode_err(slot, reply))
                return
        except BaseException as exc:
            self._finish(item, exc=exc)

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
            handle = self.supervisor.handle(slot)
            if handle is not None:
                return handle
            if self._closed or self.supervisor.slot_failed(slot):
                raise WorkerLost(slot, item.id, item.replays)
            time.sleep(0.005)

    def _rpc(self, slot: int, handle, item: _Pending, crash: Optional[str]):
        """Send one request and wait for its answer (or the worker's death)."""
        deadline_ms = (item.deadline.remaining_s() * 1000.0
                       if item.deadline is not None else None)
        resp_seg = None
        with self._slot_locks[slot]:
            self._drain_graveyard(slot)
            if item.kind == "infer":
                req_seg = self._segments[slot]["req"]
                resp_seg = self._segments[slot]["resp"]
                gen = next(self._gens[slot])
                try:
                    specs = req_seg.write_tensors(item.payload, gen)
                except ValueError:
                    self._grow(slot, handle, "req", payload_bytes(item.payload))
                    req_seg = self._segments[slot]["req"]
                    specs = req_seg.write_tensors(item.payload, gen)
                msg = {"kind": "infer", "id": item.id, "gen": gen,
                       "specs": specs, "deadline_ms": deadline_ms,
                       "crash": crash}
            else:
                msg = {"kind": "generate", "id": item.id,
                       "prompt": item.payload["prompt"],
                       "params": item.payload["params"],
                       "deadline_ms": deadline_ms, "crash": crash}
            try:
                handle.conn.send(msg)
            except (BrokenPipeError, OSError):
                raise _WorkerDied()
        while True:
            try:
                if handle.conn.poll(0.02):
                    reply = handle.conn.recv()
                    if reply[1] != item.id:
                        # A straggler answer to a request this thread
                        # already abandoned on deadline; drop it.
                        self.metrics.counter("cluster.stale_replies").inc()
                        continue
                    return reply, resp_seg
            except (EOFError, OSError):
                raise _WorkerDied()
            if not handle.proc.is_alive():
                # Drain anything flushed before death, then give up.
                try:
                    while handle.conn.poll(0):
                        reply = handle.conn.recv()
                        if reply[1] == item.id:
                            return reply, resp_seg
                except (EOFError, OSError):
                    pass
                raise _WorkerDied()
            if item.deadline is not None:
                item.deadline.check("cluster.rpc")

    def _decode_ok(self, slot: int, item: _Pending, reply, resp_seg):
        if item.kind == "infer":
            with self._slot_locks[slot]:
                # Read from the segment captured at send time: even if
                # the worker died right after answering and the slot was
                # re-provisioned, the bytes it wrote are still mapped
                # (the graveyard only drains on this same thread).
                return resp_seg.read_tensors(reply[2]["specs"],
                                             reply[2]["gen"], copy=True)
        payload = reply[2]
        if payload["finish_reason"] == "error":
            raise WorkerError("GenerationError",
                              "generation finished with reason 'error'", slot)
        return RemoteGenResult(item.id, list(payload["tokens"]),
                               payload["finish_reason"])

    def _decode_err(self, slot: int, reply) -> BaseException:
        etype, message, extra = reply[2], reply[3], reply[4]
        if etype == "DeadlineExceeded":
            return DeadlineExceeded(
                float(extra.get("budget_ms", 0.0)),
                float(extra.get("elapsed_ms", 0.0)),
                str(extra.get("where", "worker")),
            )
        return WorkerError(etype, message, slot)

    # -- worker-loss policy --------------------------------------------------
    def _on_lost(self, slot: int, item: _Pending) -> None:
        """Resolve a request whose worker died holding it."""
        injected = item.injected_crash
        item.injected_crash = False
        if item.deadline is not None and item.deadline.expired:
            # Satellite rule: expiry wins over loss. (An injected crash
            # resolving this way is impossible in the chaos storm, which
            # runs its cluster phase deadline-free.)
            try:
                item.deadline.check("cluster.worker_lost")
            except DeadlineExceeded as exc:
                self._finish(item, exc=exc)
            return
        if item.policy == "replay" and item.replays < self.config.replay_budget:
            item.replays += 1
            if injected:
                get_metrics().counter("fallback.replay").inc()
            self.metrics.counter("cluster.replays").inc()
            item.timeline.event("replay", worker=slot, attempt=item.replays)
            new_slot = self._reroute(slot, item)
            self._queues[new_slot].put(item)
            return
        err = WorkerLost(slot, item.id, item.replays)
        if injected:
            get_metrics().counter("cluster.worker_lost").inc()
        self.metrics.counter("cluster.lost").inc()
        self._finish(item, exc=err, dump=True)

    def _reroute(self, slot: int, item: _Pending) -> int:
        """Move a replayed request to the next-preference live worker.

        Replays bypass the admission bound: the request was already
        admitted once, and failing it *now* because its failover target
        is busy would turn one worker's crash into spurious shed errors.
        """
        with self._admission:
            live = set(self.supervisor.live_slots())
            if item.session_key is not None:
                new_slot = self._ring.assign(
                    item.session_key,
                    live=(lambda s: s in live) if live else None,
                )
            else:
                pool = sorted(live) if live else [slot]
                new_slot = min(pool, key=lambda s: (self._depths[s], s))
            self._depths[slot] -= 1
            self._depths[new_slot] += 1
            self.metrics.gauge(f"cluster.worker.{slot}.queue_depth").set(
                self._depths[slot])
            self.metrics.gauge(f"cluster.worker.{new_slot}.queue_depth").set(
                self._depths[new_slot])
            item.slot = new_slot
            return new_slot

    def _finish(self, item: _Pending, result=None, exc=None, dump=False) -> None:
        if item.done:
            return
        item.done = True
        with self._admission:
            self._depths[item.slot] -= 1
            self.metrics.gauge(f"cluster.worker.{item.slot}.queue_depth").set(
                self._depths[item.slot])
        if exc is None:
            item.timeline.finish("ok", worker=item.slot)
            item.future.set_result(result)
        else:
            item.timeline.finish("error", error=type(exc).__name__,
                                 worker=item.slot)
            if dump:
                self.requests.dump(type(exc).__name__, item.id,
                                   worker=item.slot, error=str(exc))
            item.future.set_exception(exc)

    # -- health & lifecycle --------------------------------------------------
    def health(self) -> Dict[int, Dict[str, object]]:
        """Per-worker liveness/queue/restart snapshot (mirrors the gauges)."""
        out: Dict[int, Dict[str, object]] = {}
        with self._admission:
            depths = dict(self._depths)
        for slot in range(self.config.workers):
            out[slot] = {
                "up": self.supervisor.is_up(slot),
                "queue_depth": depths[slot],
                "restarts": self.supervisor.restarts(slot),
            }
        return out

    def _cleanup_segments(self) -> None:
        for slot, segs in list(self._segments.items()):
            with self._slot_locks[slot]:
                for seg in self._graveyard[slot]:
                    seg.unlink()
                self._graveyard[slot].clear()
                for seg in segs.values():
                    seg.unlink()
        self._segments.clear()  # sanitize: single-thread (close path, workers joined)

    def _cleanup_model(self) -> None:
        if self._model_dir is not None:
            shutil.rmtree(self._model_dir, ignore_errors=True)
            self._model_dir = None  # sanitize: single-thread (close path)

    def close(self) -> None:
        """Drain, stop workers, unlink segments (idempotent)."""
        if self._closed:
            return
        self._closed = True  # sanitize: monotonic latch, checked not cleared
        for q in self._queues.values():
            q.put(_STOP)
        for t in self._threads:
            t.join(timeout=30.0)
        self.supervisor.stop()
        self._cleanup_segments()
        self._cleanup_model()

    def __enter__(self) -> "Cluster":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
