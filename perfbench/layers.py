"""Per-layer metrics of the traced pass (a layer is a ``src/repro`` package).

Three sources, all measured wall-clock except where the name says
otherwise:

* the spans :mod:`perfbench.trace` recorded during set-up and the traced
  phase (times, call counts, self times);
* a replay of each session's last feeds through the public
  ``Session.run_profiled`` after the phase, which splits a run into
  operator time and framework time;
* direct micro-timings of kernel, KV-codec and shm calls at the shapes
  the decode and cluster workloads use — the same on every workload.

``kernels.muls_per_run`` is the one *computed* number (``core.node_muls``
over the graph), and is labelled so in the README.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.cluster import ShmSegment, payload_bytes
from repro.core import node_muls
from repro.ir.ops import Op
from repro.kernels import winograd
from repro.kernels.conv import conv2d_im2col
from repro.kernels.matmul import matmul
from repro.kernels.qgemm import qmatmul, quantize_rowwise
from repro.kernels.sequence import attention_step
from repro.quant import kv as kv_codec

from .trace import Recorder, Span, self_times

Window = Tuple[float, float]

#: Profiled replays per session; the median one is kept.
PROFILE_REPEATS = 3
#: A direct micro-timing runs for this long, and at least this many calls.
MICRO_BUDGET_S = 0.03
MICRO_MIN_CALLS = 5

OP_GROUPS = {
    Op.CONV2D: "conv", Op.DEPTHWISE_CONV2D: "conv", Op.CONV_TRANSPOSE2D: "conv",
    Op.MATMUL: "matmul", Op.FULLY_CONNECTED: "matmul",
    Op.ATTENTION: "attention",
}


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# -- replay through Session.run_profiled --------------------------------------------
def profile_sessions(rec: Recorder, window: Window) -> List[dict]:
    """One row per session that ran in ``window``, from ``run_profiled``.

    Call after :meth:`Recorder.restore`, with the engines idle: the
    replay runs on the caller's thread and must not be recorded.
    """
    calls: Dict[int, int] = {}
    for span in rec.between("core.session_run", *window):
        sid = span.args["sid"]
        calls[sid] = calls.get(sid, 0) + 1
    rows = []
    for sid, count in calls.items():
        session, feeds = rec.sessions[sid]
        samples = []
        for _ in range(PROFILE_REPEATS):
            start = time.perf_counter()
            _, profile = session.run_profiled(feeds)
            samples.append(((time.perf_counter() - start) * 1e3, profile))
        samples.sort(key=lambda s: s[0])
        wall_ms, profile = samples[len(samples) // 2]
        groups = {"conv": 0.0, "matmul": 0.0, "attention": 0.0, "other": 0.0}
        for row in profile:
            groups[OP_GROUPS.get(row.op_type, "other")] += row.wall_ms
        graph = session.graph
        plan = session.memory_plan
        rows.append({
            "calls": count,
            "wall_ms": wall_ms,
            "op_ms": sum(groups.values()),
            "nodes": len(profile),
            "groups": groups,
            "muls": sum(
                node_muls(node, graph) for node in graph.toposort()
                if node.op_type not in (Op.INPUT, Op.CONSTANT)
            ),
            "arena_bytes": plan.arena_bytes if plan is not None else 0,
        })
    return rows


# -- direct micro-timings --------------------------------------------------------------
def _time_call(fn: Callable[[], object]) -> float:
    """Median seconds per call over as many calls as fit the budget."""
    fn()
    samples = []
    stop = time.perf_counter() + MICRO_BUDGET_S
    while len(samples) < MICRO_MIN_CALLS or time.perf_counter() < stop:
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def micro_timings() -> Dict[str, float]:
    """Kernel, KV-codec and shm calls at the decode/cluster shapes."""
    rng = np.random.default_rng(0)
    rows, d_model, heads, d_head, cap = 4, 64, 4, 16, 32
    x = rng.standard_normal((rows, d_model)).astype(np.float32)
    w = rng.standard_normal((d_model, 4 * d_model)).astype(np.float32)
    wq, col_scales = quantize_rowwise(np.ascontiguousarray(w.T))
    wq = np.ascontiguousarray(wq.T)
    q = rng.standard_normal((rows, heads, d_head)).astype(np.float32)
    cache = rng.standard_normal((rows, heads, cap, d_head)).astype(np.float32)
    lengths = np.full((rows,), cap - 8, np.int32)
    kv_row = rng.standard_normal((heads, 1, d_head)).astype(np.float32)
    kv_q, kv_scales = kv_codec.quantize_rows(cache[0])

    image = rng.standard_normal((1, 64, 32, 32)).astype(np.float32)
    weights = rng.standard_normal((64, 64, 3, 3)).astype(np.float32)
    pads = (1, 1, 1, 1)
    transforms = winograd.generate_transforms(4, 3)
    kernel = winograd.transform_kernel(weights, transforms)

    payload = {"data": rng.standard_normal((1, 3, 16, 16)).astype(np.float32)}
    segment = ShmSegment.create(f"pb{os.getpid():x}-micro", 1 << 20)
    try:
        specs = segment.write_tensors(payload, 1)
        shm_write = _time_call(lambda: segment.write_tensors(payload, 1))
        shm_read = _time_call(lambda: segment.read_tensors(specs, 1, copy=True))
    finally:
        segment.unlink()

    return {
        "kernels.matmul_us": 1e6 * _time_call(
            lambda: matmul(x, w, use_strassen=False)),
        "kernels.qmatmul_us": 1e6 * _time_call(
            lambda: qmatmul(x, wq, col_scales)),
        "kernels.attention_step_us": 1e6 * _time_call(
            lambda: attention_step(q, q, q, cache, cache, lengths)),
        "kernels.conv3x3_im2col_ms": 1e3 * _time_call(
            lambda: conv2d_im2col(image, weights, pads=pads)),
        "kernels.conv3x3_winograd_ms": 1e3 * _time_call(
            lambda: winograd.winograd_conv2d_with_kernel(
                image, kernel, transforms, None, pads, (1, 1))),
        "quant.kv.quantize_rows_us": 1e6 * _time_call(
            lambda: kv_codec.quantize_rows(kv_row)),
        "quant.kv.dequantize_rows_us": 1e6 * _time_call(
            lambda: kv_codec.dequantize_rows(kv_q, kv_scales)),
        "cluster.shm.write_us": 1e6 * shm_write,
        "cluster.shm.read_us": 1e6 * shm_read,
        "cluster.payload_bytes": float(payload_bytes(payload)),
    }


# -- spans -> metrics ----------------------------------------------------------------------
def batch_waits(submits: List[Span], runs: List[Span]) -> List[float]:
    """Seconds each batched request waited between submit and its batch's run.

    Submits and batch runs happen on different threads, so they are
    joined after the fact: each run (which knows its batch size) claims
    the earliest unclaimed submits that ended before it started.
    """
    pending = sorted(submits, key=lambda s: s.end)
    waits: List[float] = []
    for run in sorted(runs, key=lambda s: s.start):
        for _ in range(run.args["batch"]):
            if not pending or pending[0].end > run.start:
                break
            waits.append(run.start - pending.pop(0).end)
    return waits


def layer_metrics(
    rec: Recorder,
    setups: List[Window],
    phase: Window,
    profiles: List[dict],
    counters_before: Dict[str, float],
    counters_after: Dict[str, float],
    traced_rate: float,
    untraced_rate: float,
    local_run_ms: float,
) -> Dict[str, float]:
    """Every per-layer metric; 0 where the workload never enters the layer."""
    selfs = self_times(rec.spans)

    def spans(name: str) -> List[Span]:
        return rec.between(name, *phase)

    def durs_ms(name: str) -> List[float]:
        return [s.dur * 1e3 for s in spans(name)]

    def self_us(name: str) -> float:
        return 1e6 * _mean([selfs[s] for s in spans(name)])

    def per_setup_ms(name: str, keep) -> float:
        return _median([
            1e3 * sum(s.dur for s in rec.between(name, *w) if keep(s)) for w in setups
        ])

    def delta(key: str) -> float:
        return counters_after.get(key, 0.0) - counters_before.get(key, 0.0)

    m: Dict[str, float] = {}

    # core: set-up cost, then the run split from the profiled replay.
    m["core.prepare_cold_ms"] = per_setup_ms("core.session_init", lambda s: s.args["cold"])
    m["core.prepare_warm_ms"] = per_setup_ms("core.session_init", lambda s: not s.args["cold"])
    runs = spans("core.session_run")
    m["core.run_ms_p50"] = _median(durs_ms("core.session_run"))
    m["core.run_calls"] = float(len(runs))
    calls = sum(p["calls"] for p in profiles)
    wall = sum(p["calls"] * p["wall_ms"] for p in profiles)
    op_ms = sum(p["calls"] * p["op_ms"] for p in profiles)
    nodes = sum(p["calls"] * p["nodes"] for p in profiles)
    m["core.nodes_per_run"] = _ratio(nodes, calls)
    m["core.framework_overhead_share"] = _ratio(wall - op_ms, wall)
    m["core.framework_us_per_node"] = 1e3 * _ratio(wall - op_ms, nodes)
    m["core.arena_bytes"] = float(sum(p["arena_bytes"] for p in profiles))

    # kernels: operator time by group, from the same replay.
    m["kernels.op_ms_per_run"] = _ratio(op_ms, calls)
    for group in ("conv", "matmul", "attention", "other"):
        m[f"kernels.{group}_share"] = _ratio(
            sum(p["calls"] * p["groups"][group] for p in profiles), op_ms)
    m["kernels.muls_per_run"] = _ratio(sum(p["calls"] * p["muls"] for p in profiles), calls)

    # serving: what Engine.infer adds around the session run.
    infers = durs_ms("serving.engine_infer")
    m["serving.infer_self_ms"] = (
        max(0.0, _median(infers) - m["core.run_ms_p50"]) if infers else 0.0)
    acquires = durs_ms("serving.pool_acquire")
    m["serving.pool.acquire_wait_ms"] = _median(acquires)
    m["serving.pool.acquire_calls"] = float(len(acquires))
    m["serving.batch.mean_size"] = _ratio(delta("batch.requests"), delta("batch.batches"))
    m["serving.batch.resizes"] = delta("batch.resizes")
    submits = spans("serving.batch_submit")
    m["serving.batch.wait_ms"] = 1e3 * _median(batch_waits(submits, runs)) if submits else 0.0
    m["serving.cache.load_ms"] = per_setup_ms("serving.cache_load", lambda s: True)
    loads = [s for w in setups for s in rec.between("serving.cache_load", *w)]
    m["serving.cache.hit_share"] = _ratio(sum(1 for s in loads if s.args["hit"]), len(loads))

    # genai: prefill / decode / scheduler / KV bookkeeping / prefix cache.
    prefills = spans("genai.prefill_run")
    m["genai.prefill.run_ms"] = _median(durs_ms("genai.prefill_run"))
    m["genai.prefill.calls"] = float(len(prefills))
    m["genai.prefill.tokens"] = float(sum(s.args["tokens"] for s in prefills))
    steps = spans("genai.decode_step")
    m["genai.decode.step_ms"] = _median(durs_ms("genai.decode_step"))
    m["genai.decode.steps"] = float(len(steps))
    m["genai.decode.rows_per_step"] = _mean([s.args["rows"] for s in steps])
    step_time = sum(s.dur for s in steps)
    in_step = sum(s.dur for s in runs if s.parent is not None
                  and s.parent.name == "genai.decode_step")
    m["genai.decode.session_share"] = _ratio(in_step, step_time)
    generates = spans("genai.generate")
    m["genai.sched.self_share"] = _ratio(
        sum(selfs[s] for s in generates), sum(s.dur for s in generates))
    for call in ("alloc", "grow", "release", "share", "materialize"):
        m[f"genai.kv.{call}_us"] = self_us(f"genai.kv_{call}")
    m["genai.kv.evictions"] = delta("kv.evictions")
    m["genai.kv.page_utilization"] = counters_after.get("kv.page_utilization", 0.0)
    matches = spans("genai.prefix_match")
    m["genai.prefix.match_us"] = self_us("genai.prefix_match")
    m["genai.prefix.hit_token_share"] = _ratio(
        sum(s.args["hit"] for s in matches), sum(s.args["prompt"] for s in matches))

    m["quant.kv.bytes_per_token"] = counters_after.get("kv.bytes_per_token", 0.0)

    # cluster: the RPC's cost over running the same graph in-process.
    rpcs = durs_ms("cluster.infer")
    m["cluster.local_run_ms"] = local_run_ms
    m["cluster.rpc_overhead_ms"] = max(0.0, _median(rpcs) - local_run_ms) if rpcs else 0.0
    shed = delta("router.shed")
    m["cluster.shed_share"] = _ratio(shed, shed + delta("router.requests"))
    m["cluster.restarts"] = counters_after.get("restarts", 0.0)

    # harness: what tracing costs, and what no layer span explains.
    m["trace.overhead_share"] = 1.0 - _ratio(traced_rate, untraced_rate)
    roots = spans("op")
    m["trace.unattributed_share"] = _ratio(
        sum(selfs[s] for s in roots), sum(s.dur for s in roots))
    m["trace.spans"] = float(len(rec.spans))
    return m
