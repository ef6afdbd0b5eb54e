"""The worker process: one session, one request at a time, own everything.

``worker_main`` is the ``multiprocessing.Process`` target.  Each worker
is isolated — its own :class:`~repro.core.Session` (built from the
router's pre-inference products, so it runs the schemes the router
decided), arena and, in generation mode, KV allocator — so a worker
crash loses exactly one shard's state and nothing else.  The contract
with the router:

* **Serial execution.**  The worker handles one request end to end
  before reading the next control message; the router's per-slot queue
  is the only queue.  This is what makes one session and one
  request/response segment pair per slot sufficient, and the crash
  blast radius exactly one in-flight request.  Every epoch of a slot's
  worker attaches the same pair, which the router created once.
* **Four message kinds.**  ``infer`` (feeds in the request segment,
  outputs written to the response segment, both sized by the router
  from the graph), ``generate``, ``hang`` (a test hook) and ``stop``.
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
* **Deadline re-arming.**  The router serializes a deadline as
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
import threading
import time
from typing import Dict, Optional

from ..faults.errors import ResilienceError
from ..faults.plan import FaultPlan, set_fault_plan
from ..faults.resilience import Deadline
from ..obs.metrics import MetricsRegistry, set_metrics
from .shm import ShmSegment

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

    The session replays the router's plan (``cfg["plan"]``, the JSON of
    its :class:`~repro.core.SessionArtifacts`) under the default
    :class:`~repro.core.SessionConfig`: it searches, times and plans
    nothing, and opens no cache.
    """
    session = None
    gen_engine = None
    model_path = cfg.get("model_path")
    if model_path:
        from ..core.session import Session, SessionArtifacts, SessionConfig
        from ..ir import load_model

        session = Session(load_model(model_path), SessionConfig(),
                          SessionArtifacts.from_json(cfg["plan"]))
    genai_cfg = cfg.get("genai")
    if genai_cfg:
        from ..genai import GenerationConfig, GenerationEngine

        gen_engine = GenerationEngine(GenerationConfig(**genai_cfg))
    return session, gen_engine


def _reply_error(conn, request_id: str, exc: BaseException) -> None:
    extra: Dict[str, object] = {}
    for attr in ("budget_ms", "elapsed_ms", "where", "site", "kind"):
        value = getattr(exc, attr, None)
        if value is not None:
            extra[attr] = value
    conn.send(("err", request_id, type(exc).__name__, str(exc), extra))


def worker_main(slot: int, cfg: Dict[str, object], conn, hb) -> None:
    """Process target: build engines, report ready, serve until ``stop``."""
    # Forked children inherit the router's plan/metrics/tracer; replace
    # them so worker-side accounting can never pollute the router's
    # reconciliation equation (faults are counted where they're decided).
    os.environ.pop("REPRO_FAULTS", None)
    set_fault_plan(FaultPlan())
    set_metrics(MetricsRegistry())

    try:
        session, gen_engine = _build_engines(cfg)
        req_seg = ShmSegment.attach(cfg["req_segment"]) if cfg.get("req_segment") else None
        resp_seg = ShmSegment.attach(cfg["resp_segment"]) if cfg.get("resp_segment") else None
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
            msg = conn.recv()
        except (EOFError, OSError):
            break  # router went away; exit quietly
        kind = msg.get("kind")
        if kind == "stop":
            break
        if kind == "hang":
            # Hang hook: stop heartbeating and stall forever; the
            # supervisor's hang detector must kill and replace us.
            beat.stopped.set()
            while True:
                time.sleep(3600.0)

        request_id = msg.get("id", "?")
        crash = msg.get("crash")
        if crash == "early":
            os._exit(CRASH_EXIT_CODE)
        deadline = Deadline.from_ms(msg.get("deadline_ms"))
        try:
            if kind == "infer":
                feeds = req_seg.read_tensors(msg["specs"], msg["gen"])
                if dwell_ms > 0:
                    # Simulated device dwell: stands in for the
                    # accelerator wait of an offloaded backend (cf.
                    # repro.sim's virtual-clock devices) so worker
                    # occupancy matches an accelerator-backed deployment.
                    time.sleep(dwell_ms / 1000.0)
                out = session.run(feeds, deadline=deadline)
                if crash == "mid":
                    os._exit(CRASH_EXIT_CODE)  # computed, never answered
                specs = resp_seg.write_tensors(out, msg["gen"])
                conn.send(("ok", request_id, {"specs": specs, "gen": msg["gen"]}))
            elif kind == "generate":
                from ..genai import GenRequest, SamplingParams

                params = SamplingParams(**msg.get("params", {}))
                if crash == "mid":
                    # Die mid-decode: really prefill and decode half the
                    # budget (mutating this worker's KV arena), then exit
                    # without replying.
                    half = max(1, params.max_tokens // 2)
                    partial = SamplingParams(
                        max_tokens=half,
                        temperature=params.temperature,
                        top_k=params.top_k,
                        seed=params.seed,
                        stop_tokens=params.stop_tokens,
                    )
                    gen_engine.generate(
                        [GenRequest(request_id, list(msg["prompt"]), partial)]
                    )
                    os._exit(CRASH_EXIT_CODE)
                if dwell_ms > 0:
                    time.sleep(dwell_ms / 1000.0)
                result = gen_engine.generate(
                    [GenRequest(request_id, list(msg["prompt"]), params)]
                )[0]
                conn.send(("ok", request_id, {
                    "tokens": list(result.tokens),
                    "finish_reason": result.finish_reason,
                }))
            else:
                conn.send(("err", request_id, "ProtocolError",
                           f"unknown message kind {kind!r}", {}))
        except ResilienceError as exc:
            _reply_error(conn, request_id, exc)
        except Exception as exc:  # worker survives; request fails typed
            _reply_error(conn, request_id, exc)

    # Graceful exit: close the generation engine (runs KV leak checks)
    # and the mappings; a session needs no teardown.
    try:
        if gen_engine is not None:
            gen_engine.close()
    except Exception:
        pass
    for seg in (req_seg, resp_seg):
        if seg is not None:
            seg.close()
