"""The worker process: one session, one request at a time, own everything.

``worker_main`` is the ``multiprocessing.Process`` target.  Each worker
is isolated — its own :class:`~repro.core.Session` (built from the
graph bytes and pre-inference products in its spawn config, so it runs
the schemes the router decided), arena and, in generation mode, KV
allocator — so a worker crash loses exactly one shard's state and
nothing else.  The contract with the router:

* **Serial execution.**  The worker handles one request end to end
  before reading the next control message; the router's per-slot queue
  is the only queue.  This is what makes one session and one
  request/response segment pair per slot sufficient, and the crash
  blast radius exactly one in-flight request.  Every epoch of a slot's
  worker attaches the same pair, which the router created once.
* **Four message kinds.**  ``infer`` is one fixed-layout frame
  (:data:`~repro.cluster.shm.FRAME`: crash marker, generation, request
  sequence number, deadline): the feeds sit in the request segment's
  views and the outputs go to the response segment's, both bound once
  at attach from the graph the worker deserialized, so the request path
  unpickles and lays out nothing; it answers ``ok`` with a frame of the
  same kind.  ``generate``, ``hang`` (a test hook) and ``stop`` arrive
  pickled, and errors and generation results go back pickled; the first
  byte tells the two kinds apart.  A frame the worker cannot decode
  gets a typed ``ProtocolError`` answer, and the worker keeps serving.
* **Fresh process-wide state.**  The worker is forked from a router
  that may carry live fault plans, metrics and tracers; the first thing
  it does is install clean ones.  Workers never self-inject faults —
  crash injection is decided (and counted) router-side, deterministic
  under the plan seed, and delivered as a ``crash`` marker on the
  request message.
* **Crash markers.**  ``crash="early"`` exits before touching the
  payload (the request was accepted, never started); ``crash="mid"``
  does real work first — for generation it prefills and decodes half
  the token budget, mutating the KV arena, *then* dies without replying
  — so supervision and replay are exercised against a worker that died
  mid-decode, not one that died conveniently idle.
* **Deadline re-arming.**  The router sends a deadline as
  milliseconds-remaining at send time; the worker re-arms a fresh
  :class:`~repro.faults.resilience.Deadline` on receipt, so the budget
  spans the process boundary without requiring synchronized clocks.
* **Heartbeats.**  A daemon thread stamps ``time.monotonic()`` into a
  shared ``Value`` on a fixed interval; the supervisor treats a stale
  stamp as a hang (the GIL is released during kernel work and sleeps,
  so a busy worker still beats).  Death needs no heartbeat: the
  supervisor waits on the process sentinel.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from typing import Dict, Optional

from ..faults.plan import FaultPlan, set_fault_plan
from ..faults.resilience import Deadline
from ..obs.metrics import MetricsRegistry, set_metrics
from .errors import ProtocolError
from .shm import INFER, OK, PICKLED, ShmSegment, pack_frame, segment_descs, unpack_frame

__all__ = ["worker_main", "CRASH_EXIT_CODE"]

#: Exit code for injected crashes (distinguishes them from real bugs in
#: supervisor logs; the supervisor replaces the worker either way).
CRASH_EXIT_CODE = 13

#: How often the supervisor checks heartbeats for a hang; workers stamp
#: twice as often.
HEARTBEAT_INTERVAL_S = 0.05


class _Heartbeat(threading.Thread):
    """Stamps the shared heartbeat value until told to play dead."""

    def __init__(self, hb, interval_s: float) -> None:
        super().__init__(name="worker-heartbeat", daemon=True)
        self.hb = hb
        self.interval_s = interval_s
        self.stopped = threading.Event()

    def run(self) -> None:
        while not self.stopped.wait(self.interval_s):
            self.hb.value = time.monotonic()


def _build_engines(cfg: Dict[str, object]):
    """Construct the worker's session and/or generation engine from cfg.

    The session's graph is ``cfg["model"]``, the router's ``repro.ir``
    bytes; it replays the router's plan (``cfg["plan"]``, the JSON of
    its :class:`~repro.core.SessionArtifacts`) under the default
    :class:`~repro.core.SessionConfig`: it searches, times and plans
    nothing, and opens no cache or file.
    """
    session = None
    gen_engine = None
    model = cfg.get("model")
    if model is not None:
        from ..core.session import Session, SessionArtifacts, SessionConfig
        from ..ir import loads

        session = Session(loads(model), SessionConfig(),
                          SessionArtifacts.from_json(cfg["plan"]))
    genai_cfg = cfg.get("genai")
    if genai_cfg:
        from ..genai import GenerationConfig, GenerationEngine

        gen_engine = GenerationEngine(GenerationConfig(**genai_cfg))
    return session, gen_engine


def _attach(cfg: Dict[str, object], session) -> Dict[str, ShmSegment]:
    """Attach the slot's segments and bind the graph's tensor views on
    them, as the router bound its side from the same graph (a cluster
    without a graph has no segments)."""
    if session is None:
        return {}
    segments: Dict[str, ShmSegment] = {}
    for role, descs in segment_descs(session.graph).items():
        segments[role] = ShmSegment.attach(cfg[f"{role}_segment"])
        segments[role].bind(descs)
    return segments


def _reply_error(conn, seq: int, exc: BaseException) -> None:
    extra: Dict[str, object] = {}
    for attr in ("budget_ms", "elapsed_ms", "where", "site", "kind"):
        value = getattr(exc, attr, None)
        if value is not None:
            extra[attr] = value
    conn.send(("err", seq, type(exc).__name__, str(exc), extra))


def _infer(conn, session, segments, generation: int, seq: int, crash: Optional[str],
           deadline: Optional[Deadline], dwell_ms: float) -> None:
    """Serve one infer frame: bound request views in, bound response views out."""
    feeds = segments["req"].read_bound(generation)
    if dwell_ms > 0:
        # Simulated device dwell: stands in for the accelerator wait of
        # an offloaded backend (cf. repro.sim's virtual-clock devices)
        # so worker occupancy matches an accelerator-backed deployment.
        time.sleep(dwell_ms / 1000.0)
    out = session.run(feeds, deadline=deadline)
    if crash == "mid":
        os._exit(CRASH_EXIT_CODE)  # computed, never answered
    segments["resp"].write_bound(out, generation)
    conn.send_bytes(pack_frame(OK, None, generation, seq, None))


def _generate(conn, gen_engine, msg: Dict[str, object], crash: Optional[str],
              dwell_ms: float) -> None:
    """Serve one pickled ``generate`` message."""
    from ..genai import GenRequest, SamplingParams

    request_id = msg["id"]
    params = SamplingParams(**msg.get("params", {}))
    if crash == "mid":
        # Die mid-decode: really prefill and decode half the budget
        # (mutating this worker's KV arena), then exit without replying.
        half = max(1, params.max_tokens // 2)
        partial = SamplingParams(
            max_tokens=half,
            temperature=params.temperature,
            top_k=params.top_k,
            seed=params.seed,
            stop_tokens=params.stop_tokens,
        )
        gen_engine.generate([GenRequest(request_id, list(msg["prompt"]), partial)])
        os._exit(CRASH_EXIT_CODE)
    if dwell_ms > 0:
        time.sleep(dwell_ms / 1000.0)
    result = gen_engine.generate(
        [GenRequest(request_id, list(msg["prompt"]), params)]
    )[0]
    conn.send(("ok", msg["seq"], {
        "tokens": list(result.tokens),
        "finish_reason": result.finish_reason,
    }))


def worker_main(slot: int, cfg: Dict[str, object], conn, hb, router_ends) -> None:
    """Process target: build engines, report ready, serve until ``stop``.

    ``router_ends`` are the router-side pipe ends the fork inherited (this
    slot's and every earlier worker's).  They are closed first, so that
    once the router's process is gone every worker's ``recv`` sees EOF
    and the worker exits.
    """
    for end in router_ends:
        end.close()
    # Forked children inherit the router's plan/metrics/tracer; replace
    # them so worker-side accounting can never pollute the router's
    # reconciliation equation (faults are counted where they're decided).
    os.environ.pop("REPRO_FAULTS", None)
    set_fault_plan(FaultPlan())
    set_metrics(MetricsRegistry())

    try:
        session, gen_engine = _build_engines(cfg)
        segments = _attach(cfg, session)
    except Exception as exc:  # startup failure: tell the supervisor why
        try:
            conn.send(("start_failed", slot, type(exc).__name__, str(exc)))
        except Exception:
            pass
        return

    beat = _Heartbeat(hb, HEARTBEAT_INTERVAL_S / 2.0)
    beat.start()
    dwell_ms = float(cfg.get("device_dwell_ms", 0.0))
    conn.send(("ready", slot, os.getpid()))

    while True:
        try:
            data = conn.recv_bytes()
        except (EOFError, OSError):
            break  # router went away; exit quietly
        seq = 0  # a frame too broken to name its request
        try:
            if data[:1] != PICKLED:
                crash, generation, seq, deadline_ms = unpack_frame(data, INFER)
                if crash == "early":
                    os._exit(CRASH_EXIT_CODE)
                _infer(conn, session, segments, generation, seq, crash,
                       Deadline.from_ms(deadline_ms), dwell_ms)
                continue
            msg = pickle.loads(data)
            kind = msg.get("kind")
            if kind == "stop":
                break
            if kind == "hang":
                # Hang hook: stop heartbeating and stall forever; the
                # supervisor's hang detector must kill and replace us.
                beat.stopped.set()
                while True:
                    time.sleep(3600.0)
            seq = msg.get("seq", 0)
            if kind != "generate":
                raise ProtocolError(f"unknown message kind {kind!r}")
            crash = msg.get("crash")
            if crash == "early":
                os._exit(CRASH_EXIT_CODE)
            _generate(conn, gen_engine, msg, crash, dwell_ms)
        except Exception as exc:  # worker survives; request fails typed
            _reply_error(conn, seq, exc)

    # Graceful exit: close the generation engine (runs KV leak checks)
    # and the mappings; a session needs no teardown.
    try:
        if gen_engine is not None:
            gen_engine.close()
    except Exception:
        pass
    for seg in segments.values():
        seg.close()
