"""The chaos self-test: a seeded fault storm the engine must survive.

``run_chaos_storm`` drives seven phases — four over a small CNN, two
over the autoregressive generation stack, one over the multi-process
cluster tier — each activating a different slice of the fault-point
catalog, and checks three things:

1. **No crashes** — every request either returns or fails alone with a
   typed :class:`~repro.faults.ResilienceError`; the engine keeps
   serving.
2. **Degraded ≡ correct** — every response produced under injection
   matches a fault-free gold run: bit-identically in the cache, pool and
   numeric phases (the gold is the *same* computation, so CPU fallback
   re-dispatch and the direct-scheme rerun are exact), and to a tight
   numeric tolerance in the batch phase, where bisection legitimately
   re-runs requests in a different batch composition (batched BLAS GEMM
   is not bitwise batch-invariant; observed drift is ~1e-12).
3. **The books balance** — every injected fault is absorbed by exactly
   one resilience counter::

       faults.injected == retry.attempts + fallback.ops
                        + fallback.numeric + fallback.cache
                        + fallback.evict + faults.isolated
                        + fallback.replay + cluster.worker_lost

Phases (repeated with per-round seeds until ``target_faults`` is met):

* **cache**  — transient/corrupt loads, transient/torn stores during
  engine warm-up; later engines read the torn entries back.
* **pool+dispatch** — transient pool checkouts (retried, occasionally
  escalating to an isolated request), fatal backend dispatches and
  flaky kernels absorbed by per-op CPU fallback under the breaker.
* **batch** — fatal batch assembly cascading through bisect-and-retry
  until poison requests fail alone; flaky kernels inside batch runs.
* **numeric** — every Winograd-eligible convolution forced onto
  Winograd and its output poisoned with NaN, forcing the one-shot
  direct-scheme re-run (gold: the same model with sliding-window
  schemes on those convs).
* **generate** — flaky and OOM-ing KV-slab allocations during
  continuous-batching generation; transients retry, fatals degrade to
  LRU eviction or preemption+requeue, and completed requests must emit
  exactly the fault-free gold tokens (alloc faults may move memory
  around, never change arithmetic).
* **prefix** — the same alloc faults, but over prompts sharing a long
  prefix served copy-on-write from retired slabs.  Faults during the
  extra share/materialize allocations may evict COW parents (the trie
  falls back to a cold prefill) or release half-built children — tokens
  must still equal the *cold* fault-free gold, and under ``sanitize``
  every shared page must be provably released exactly once.
* **cluster** — ``worker.crash`` faults at the router's dispatch point
  kill supervised worker processes before starting (transient) or
  mid-decode (fatal).  The router must never crash: each injected kill
  resolves as exactly one transparent replay on the next ring-preference
  worker (``fallback.replay``) or one typed ``WorkerLost``
  (``cluster.worker_lost``), the supervisor replaces every dead worker,
  and surviving generations stay bit-identical to the local fault-free
  gold — served from a different process, through shared memory.

Determinism: all request loops are single-threaded, breakers run with
``cooldown_s=0`` (every post-open call probes, so no wall-clock-dependent
short circuits), and batches are submitted in full ``max_batch`` rounds —
the injection sequence is a pure function of the seed, which the replay
test exploits.

This module imports ``repro.core``/``repro.serving`` and is therefore
*not* re-exported from ``repro.faults`` (import cycle); import it lazily,
as the CLI and tests do.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.schemes import SchemeDecision
from ..core.session import Session, SessionConfig
from ..ir.graph import Graph, GraphBuilder
from ..ir.ops import Op
from ..obs.metrics import MetricsRegistry, get_metrics, set_metrics
from ..obs.recorder import FlightRecorder
from ..obs.requests import RequestTracker
from ..runtime import Runtime
from ..sanitize import Sanitizer
from .errors import DeadlineExceeded, ResilienceError
from .plan import FaultPlan, FaultRule, set_fault_plan

__all__ = ["PhaseResult", "ChaosReport", "run_chaos_storm", "default_chaos_graph"]

#: The sites the storm must demonstrably cover (the tentpole's five
#: fault-point groups; cache load and store are distinct sites).
STORM_SITES = (
    "backend.dispatch",
    "kernel.execute",
    "cache.load",
    "cache.store",
    "pool.checkout",
    "batch.assemble",
    "kvcache.alloc",
    "worker.crash",
)


def default_chaos_graph(batch: int = 1, size: int = 16) -> Graph:
    """A small CNN with Winograd-eligible 3x3 convs (the storm's model)."""
    b = GraphBuilder("chaosnet")
    x = b.input("data", (batch, 3, size, size))
    y = b.conv(x, 8, kernel=3, name="conv1")
    y = b.relu(y)
    y = b.conv(y, 8, kernel=3, name="conv2")
    y = b.max_pool(y, 2)
    y = b.conv(y, 16, kernel=1, name="conv3")
    y = b.global_avg_pool(y)
    y = b.flatten(y)
    y = b.fc(y, 10, name="fc")
    y = b.softmax(y)
    b.output(y)
    return b.finish()


@dataclass
class PhaseResult:
    """Per-phase tally of one storm round."""

    phase: str
    requests: int = 0
    failed: int = 0       # requests that failed alone, with a typed error
    mismatched: int = 0   # responses that were not bit-identical to gold
    crashes: int = 0      # untyped exceptions — the thing that must not happen
    injected: int = 0     # faults this phase's plan fired


@dataclass
class ChaosReport:
    """The storm's verdict: counters, coverage and the balance check."""

    seed: int
    target: int
    rounds: int = 0
    requests: int = 0
    failed: int = 0
    mismatched: int = 0
    crashes: int = 0
    injected: int = 0
    retries: int = 0
    fallback_ops: int = 0
    fallback_numeric: int = 0
    fallback_cache: int = 0
    fallback_evict: int = 0
    isolated: int = 0
    breaker_opens: int = 0
    short_circuits: int = 0
    cache_corrupt: int = 0
    #: Sanitizer verdict (``run_chaos_storm(sanitize=True)``): the storm
    #: then also asserts zero races, lock cycles and lifecycle findings
    #: while every fault path fires — resilience code is exactly where
    #: ad-hoc locking grows.
    sanitized: bool = False
    races: int = 0
    lock_cycles: int = 0
    leaks: int = 0
    #: Flight-recorder wiring (``run_chaos_storm(postmortem_dir=...)``):
    #: how many deadline-probe requests tripped :class:`DeadlineExceeded`
    #: and how many postmortem artifacts the recorder dumped.  Purely
    #: additive — ``ok`` does not depend on them, so reports built
    #: without the recorder are unaffected.
    deadline_trips: int = 0
    dumps: int = 0
    #: Cluster-phase tallies: injected ``worker.crash`` faults resolve as
    #: transparent replays (``fallback.replay``) or typed ``WorkerLost``
    #: outcomes (``cluster.worker_lost``) — both absorb into the
    #: equation.  ``replacements`` counts supervisor respawns (outside
    #: the equation: one crash may be observed by both the monitor and
    #: an in-flight RPC, but is replaced exactly once).
    replays: int = 0
    worker_lost: int = 0
    replacements: int = 0
    site_counts: Dict[str, int] = field(default_factory=dict)
    events: List[Tuple[str, str]] = field(default_factory=list)
    phases: List[PhaseResult] = field(default_factory=list)

    @property
    def absorbed(self) -> int:
        """Faults accounted for by exactly one resilience mechanism."""
        return (
            self.retries + self.fallback_ops + self.fallback_numeric
            + self.fallback_cache + self.fallback_evict + self.isolated
            + self.replays + self.worker_lost
        )

    @property
    def reconciled(self) -> bool:
        return self.injected == self.absorbed

    @property
    def sites_covered(self) -> bool:
        return all(self.site_counts.get(site, 0) > 0 for site in STORM_SITES)

    @property
    def sanitize_clean(self) -> bool:
        return self.races == 0 and self.lock_cycles == 0 and self.leaks == 0

    @property
    def ok(self) -> bool:
        return (
            self.crashes == 0
            and self.mismatched == 0
            and self.reconciled
            and self.sites_covered
            and self.injected >= self.target
            and (not self.sanitized or self.sanitize_clean)
        )

    def describe(self) -> str:
        lines = [
            f"chaos storm: seed={self.seed} rounds={self.rounds} "
            f"requests={self.requests}",
            f"  injected   {self.injected} (target {self.target}) across "
            + ", ".join(
                f"{site}={self.site_counts.get(site, 0)}" for site in STORM_SITES
            ),
            f"  absorbed   {self.absorbed} = retries {self.retries} "
            f"+ op fallbacks {self.fallback_ops} "
            f"+ numeric fallbacks {self.fallback_numeric} "
            f"+ cache fallbacks {self.fallback_cache} "
            f"+ evictions {self.fallback_evict} "
            f"+ isolated {self.isolated} "
            f"+ crash replays {self.replays} "
            f"+ workers lost {self.worker_lost}",
            f"  breaker    {self.breaker_opens} opens, "
            f"{self.short_circuits} short circuits (outside the equation)",
            f"  cluster    {self.replacements} worker replacements "
            f"(outside the equation)",
        ]
        if self.sanitized:
            lines.append(
                f"  sanitize   {self.races} races, {self.lock_cycles} lock "
                f"cycles, {self.leaks} lifecycle findings"
            )
        if self.dumps or self.deadline_trips:
            lines.append(
                f"  recorder   {self.dumps} postmortems dumped, "
                f"{self.deadline_trips} deadline probe trips"
            )
        lines += [
            f"  requests   {self.requests - self.failed} served bit-identical, "
            f"{self.failed} failed alone (typed), {self.mismatched} mismatched, "
            f"{self.crashes} crashes",
            f"  reconciled {'yes' if self.reconciled else 'NO'}; "
            f"verdict {'OK' if self.ok else 'FAILED'}",
        ]
        return "\n".join(lines)


def _bit_identical(
    a: Dict[str, np.ndarray], b: Dict[str, np.ndarray]
) -> bool:
    return set(a) == set(b) and all(np.array_equal(a[k], b[k]) for k in a)


def _numerically_equal(
    a: Dict[str, np.ndarray], b: Dict[str, np.ndarray]
) -> bool:
    """Equality up to batch-recomposition noise (used by the batch phase).

    Bisection re-runs a request at batch sizes 2/1 instead of 4, and
    batched BLAS GEMM is not bitwise batch-invariant — fault-free drift
    is ~1e-12, so this tolerance still catches any real corruption.
    """
    return set(a) == set(b) and all(
        np.isfinite(a[k]).all()
        and np.allclose(a[k], b[k], rtol=1e-6, atol=1e-9)
        for k in a
    )


def _finish_phase(result: PhaseResult, plan: FaultPlan, report: ChaosReport) -> None:
    result.injected = plan.injected
    for site, count in plan.site_counts().items():
        report.site_counts[site] = report.site_counts.get(site, 0) + count
    report.events.extend(plan.events())
    report.requests += result.requests
    report.failed += result.failed
    report.mismatched += result.mismatched
    report.crashes += result.crashes
    report.phases.append(result)


def _phase_cache(
    graph, feeds, gold, seed, cache_dir, report, sanitizer, tracker
) -> None:
    """Cache storm: engine warm-ups under IO faults and torn entries."""
    from ..serving.engine import Engine, EngineConfig

    plan = FaultPlan([
        FaultRule("cache.load", "transient", times=3),
        FaultRule("cache.load", "corrupt", times=2),
        FaultRule("cache.store", "torn", times=2),
        FaultRule("cache.store", "transient", times=2),
    ], seed=seed)
    result = PhaseResult("cache")
    for _ in range(3):  # each engine: pool_size load/store cycles
        engine = Engine(graph, EngineConfig(
            session=SessionConfig(breaker_cooldown_s=0.0),
            pool_size=2, use_cache=True, cache_dir=cache_dir,
            faults=plan, metrics=get_metrics(), sanitize=sanitizer,
            requests=tracker,
        ))
        with engine:
            result.requests += 1
            try:
                out = engine.infer(feeds)
            except ResilienceError:
                result.failed += 1
            except Exception:
                result.crashes += 1
            else:
                if not _bit_identical(out, gold):
                    result.mismatched += 1
    _finish_phase(result, plan, report)


def _phase_pool_dispatch(
    graph, feeds, gold, seed, report, sanitizer, tracker
) -> None:
    """Pool checkout + backend dispatch + kernel faults, serial requests."""
    from ..serving.engine import Engine, EngineConfig

    plan = FaultPlan([
        FaultRule("pool.checkout", "transient", p=0.5, times=10),
        FaultRule("backend.dispatch", "fatal", times=8),
        FaultRule("kernel.execute", "transient", p=0.3, times=12),
    ], seed=seed)
    result = PhaseResult("pool+dispatch")
    engine = Engine(graph, EngineConfig(
        session=SessionConfig(breaker_cooldown_s=0.0),
        pool_size=2, use_cache=False,
        faults=plan, metrics=get_metrics(), sanitize=sanitizer,
        requests=tracker,
    ))
    with engine:
        for _ in range(12):
            result.requests += 1
            try:
                out = engine.infer(feeds)
            except ResilienceError:
                result.failed += 1  # typed, counted, engine still up
            except Exception:
                result.crashes += 1
            else:
                if not _bit_identical(out, gold):
                    result.mismatched += 1
    _finish_phase(result, plan, report)


def _phase_batch(graph, request_feeds, golds, seed, report, sanitizer) -> None:
    """Batch storm: poison cohorts bisected until they fail alone."""
    from ..serving.engine import Engine, EngineConfig

    plan = FaultPlan([
        FaultRule("batch.assemble", "fatal", times=7),
        FaultRule("kernel.execute", "transient", p=0.25, times=10),
    ], seed=seed)
    result = PhaseResult("batch")
    engine = Engine(graph, EngineConfig(
        session=SessionConfig(breaker_cooldown_s=0.0),
        pool_size=1, use_cache=False,
        batching=True, max_batch=4, batch_timeout_ms=500.0,
        faults=plan, metrics=get_metrics(), sanitize=sanitizer,
    ))
    with engine:
        # Full rounds of max_batch from one thread, resolved before the
        # next round: batch composition (and so the cascade) is
        # deterministic.
        for round_feeds in request_feeds:
            futures = [engine.batcher.submit(f) for f in round_feeds]
            for future, feeds in zip(futures, round_feeds):
                result.requests += 1
                try:
                    out = future.result(timeout=60.0)
                except ResilienceError:
                    result.failed += 1
                except Exception:
                    result.crashes += 1
                else:
                    key = next(iter(feeds.values())).tobytes()
                    if not _numerically_equal(out, golds[key]):
                        result.mismatched += 1
    _finish_phase(result, plan, report)


def _phase_numeric(graph, feeds, gold_direct, seed, overrides, report, sanitizer) -> None:
    """NaN-poison every Winograd conv; outputs must match the direct run."""
    plan = FaultPlan([
        FaultRule(
            "kernel.execute", "nan",
            match={"scheme": ("winograd", "winograd_rect")},
        ),
    ], seed=seed)
    result = PhaseResult("numeric")
    session = Session(
        graph,
        SessionConfig(scheme_overrides=overrides, breaker_cooldown_s=0.0),
        runtime=Runtime.resolve(faults=plan, sanitize=sanitizer),
    )
    for _ in range(10):
        result.requests += 1
        try:
            out = session.run(feeds)
        except ResilienceError:
            result.failed += 1
        except Exception:
            result.crashes += 1
        else:
            if not np.isfinite(next(iter(out.values()))).all():
                result.mismatched += 1
            elif not _bit_identical(out, gold_direct):
                result.mismatched += 1
    _finish_phase(result, plan, report)


def _generation_config(
    plan: Optional[FaultPlan], sanitizer=False, prefix=False, tracker=None,
    kv_dtype="float32",
):
    """The generation phases' engine config (gold and storm share it).

    Gold runs never get the tracker — like the sanitizer, it observes
    the storm, and gold defines expected output only.  ``kv_dtype``
    flows to gold and storm alike: quantized decode is deterministic
    and path-invariant, so the bit-identity contract is the same — a
    quantized storm must match its quantized gold exactly.
    """
    from ..genai import GenerationConfig

    return GenerationConfig(
        vocab=64, max_seq=24, d_model=16, heads=2, layers=1, seed=11,
        max_batch=2, page_tokens=4, capacity_tokens=64,
        prefix_cache=prefix,
        session=SessionConfig(breaker_cooldown_s=0.0),
        metrics=get_metrics(), faults=plan, retain_kv=True,
        sanitize=sanitizer, requests=tracker, kv_dtype=kv_dtype,
    )


def _phase_generate(
    prompts, gold_tokens, seed, report, sanitizer, tracker, kv_dtype="float32",
    prefix=False,
) -> None:
    """Generation storm: flaky and OOM-ing KV-slab allocations.

    Transients are retried; fatals degrade to LRU eviction of retired
    slabs (or preemption+requeue when nothing is evictable).  None of it
    touches arithmetic, so every *completed* request's tokens must equal
    the fault-free gold generation exactly.

    ``prefix=True`` is the prefix storm: the engine serves the prompts'
    long shared prefix copy-on-write from retired slabs, so the faults
    also land inside ``share``/``materialize`` allocations.  A fault
    there may evict a COW parent (the trie prunes it and the request
    falls back to cold prefill) or abort a half-built child — either way
    completed requests must emit the *cold* fault-free gold tokens, and
    the refcounted pages must all come back.
    """
    from ..genai import GenerationEngine, GenRequest, SamplingParams

    name, tag = ("prefix", "pfx") if prefix else ("generate", "gen")
    plan = FaultPlan([
        FaultRule("kvcache.alloc", "transient", times=3),
        FaultRule("kvcache.alloc", "fatal", p=0.5, times=3),
    ], seed=seed)
    result = PhaseResult(name)
    engine = GenerationEngine(_generation_config(
        plan, sanitizer, prefix=prefix, tracker=tracker, kv_dtype=kv_dtype
    ))
    params = SamplingParams(max_tokens=8)
    requests = [
        GenRequest(f"{tag}-{i}", prompt, params) for i, prompt in enumerate(prompts)
    ]
    try:
        outcomes = engine.generate(requests)
    except Exception:
        result.requests += len(requests)
        result.crashes += 1
    else:
        for outcome, gold in zip(outcomes, gold_tokens):
            result.requests += 1
            if outcome.finish_reason == "error":
                result.failed += 1  # typed, isolated to this request
            elif outcome.tokens != gold:
                result.mismatched += 1
    finally:
        # Closing runs the KV lifecycle leak check: a storm that loses
        # track of a slab fails sanitize, not just utilization stats.
        engine.close()
    _finish_phase(result, plan, report)


#: Worker-side generation config for the cluster phase (plain kwargs —
#: it crosses the process boundary).  The phase's gold engine is built
#: from the *same* dict, so "bit-identical" compares a cross-process,
#: shared-memory-transported generation against a local in-process one.
_CLUSTER_GENAI: Dict[str, object] = dict(
    vocab=64, max_seq=24, d_model=16, heads=2, layers=1, seed=11,
    max_batch=2, page_tokens=4, capacity_tokens=64,
)


def _phase_cluster(cluster, prompts, gold_tokens, seed, report) -> None:
    """Cluster storm: supervised workers killed early and mid-decode.

    The ``worker.crash`` site fires router-side at dispatch, so the
    injection sequence is a pure function of the seed even though the
    victims are separate processes.  Requests alternate loss policy:
    even indices replay transparently (full re-prefill on the next live
    ring-preference worker), odd ones fail fast with typed
    ``WorkerLost``.  Either way the router must keep serving, the
    supervisor must replace every corpse, and completed requests must
    emit exactly the local fault-free gold tokens.
    """
    from ..cluster import WorkerLost

    plan = FaultPlan([
        FaultRule("worker.crash", "fatal", times=1),
        FaultRule("worker.crash", "transient", p=0.5, times=2),
    ], seed=seed)
    result = PhaseResult("cluster")
    # Crash injection is decided (and counted) in the router process;
    # workers never see the plan, so one long-lived cluster can serve
    # every round with that round's plan swapped in.
    cluster.faults = plan
    try:
        for i, prompt in enumerate(prompts):
            result.requests += 1
            policy = "replay" if i % 2 == 0 else "error"
            try:
                outcome = cluster.generate(
                    prompt, {"max_tokens": 8},
                    session_key=f"storm-{i}", on_worker_lost=policy,
                )
            except WorkerLost:
                result.failed += 1  # typed, isolated to this request
            except Exception:
                result.crashes += 1
            else:
                if outcome.finish_reason == "error":
                    result.failed += 1
                elif outcome.tokens != gold_tokens[i]:
                    result.mismatched += 1
    finally:
        cluster.faults = FaultPlan()
    _finish_phase(result, plan, report)


def _probe_deadline(graph, feeds, tracker: RequestTracker) -> int:
    """Deadline probe: a stalled checkout under a tight budget must trip
    :class:`DeadlineExceeded` and leave a postmortem in the recorder.

    Delay faults increment ``faults.injected`` but have no absorbing
    resilience counter (nothing retries or falls back — the request just
    runs out of budget), so the probe runs under a temporarily-installed
    private registry to keep the storm's reconciliation equation closed.
    The tracker carries its own registry reference, so the probe's SLO
    observations and the postmortem artifact still land with the storm's.
    """
    from ..serving.engine import Engine, EngineConfig

    plan = FaultPlan(
        [FaultRule("pool.checkout", "delay", delay_ms=30.0)], seed=0
    )
    probe_metrics = MetricsRegistry()
    prev = set_metrics(probe_metrics)
    trips = 0
    try:
        engine = Engine(graph, EngineConfig(
            session=SessionConfig(breaker_cooldown_s=0.0),
            pool_size=1, use_cache=False, deadline_ms=5.0,
            faults=plan, metrics=probe_metrics, requests=tracker,
        ))
        with engine:
            try:
                engine.infer(feeds)
            except DeadlineExceeded:
                trips += 1
    finally:
        set_metrics(prev)
    return trips


def run_chaos_storm(
    graph: Optional[Graph] = None,
    seed: int = 0,
    target_faults: int = 200,
    max_rounds: int = 50,
    sanitize: bool = False,
    postmortem_dir: Optional[str] = None,
    kv_dtype: str = "float32",
) -> ChaosReport:
    """Run the seven-phase fault storm until ``target_faults`` have fired.

    Installs a fresh process-wide metrics registry (and a disabled
    process-wide fault plan, so gold runs stay clean even under
    ``$REPRO_FAULTS``) for the duration; both are restored on return.

    ``sanitize=True`` threads one :class:`repro.sanitize.Sanitizer`
    through every storm engine and session (gold runs stay
    uninstrumented — they define expected *output*, not expected
    interleavings); the report then also carries race / lock-cycle /
    lifecycle tallies and ``ok`` requires all three to be zero.

    ``postmortem_dir`` threads one deterministic
    :class:`repro.obs.FlightRecorder`-backed request tracker through
    every storm engine: isolated faults, ``KVCacheOOM`` admission
    failures and a dedicated deadline probe each dump a postmortem JSON
    into the directory.  Two same-seed storms produce byte-identical
    artifacts (the replay test's contract), and a fault-free workload
    dumps nothing.

    ``kv_dtype="int8"`` runs the generation and prefix phases (storm
    *and* their golds) over a quantized KV cache — the bit-identity
    contract is unchanged, because quantized rows are a pure function of
    each fp row and every sampled logit takes the decode path.  The
    cluster phase stays fp32 (its config crosses the process boundary
    and its gold shares it, so it proves nothing extra about kv_dtype).
    """
    if graph is None:
        graph = default_chaos_graph()
    report = ChaosReport(seed=seed, target=target_faults, sanitized=sanitize)

    prev_metrics = set_metrics(MetricsRegistry())
    prev_plan = set_fault_plan(FaultPlan())
    sanitizer = Sanitizer(enabled=True, metrics=get_metrics()) if sanitize else False
    tracker: Optional[RequestTracker] = None
    if postmortem_dir is not None:
        tracker = RequestTracker(
            metrics=get_metrics(),
            recorder=FlightRecorder(
                out_dir=postmortem_dir, deterministic=True,
                metrics=get_metrics(),
            ),
        )
    tmp = tempfile.mkdtemp(prefix="repro-chaos-")
    cluster = None
    try:
        rng = np.random.default_rng(seed)
        in_name = graph.inputs[0]
        in_shape = graph.desc(in_name).shape
        feeds = {in_name: rng.standard_normal(in_shape).astype(np.float32)}

        # Gold A/B/C: one fault-free session over the same graph.
        gold = Session(graph).run(feeds)

        # Phase C request set: 2 rounds of 4 distinct requests per storm
        # round, plus their fault-free per-request golds (computed through
        # an identically configured fault-free batching engine, so batch
        # math matches exactly).
        batch_rounds = []
        for _ in range(2):
            batch_rounds.append([
                {in_name: rng.standard_normal(in_shape).astype(np.float32)}
                for _ in range(4)
            ])
        golds_by_input: Dict[bytes, Dict[str, np.ndarray]] = {}
        gold_session = Session(graph)
        for round_feeds in batch_rounds:
            for f in round_feeds:
                golds_by_input[f[in_name].tobytes()] = gold_session.run(f)

        # Phase D: force Winograd on every eligible 3x3 conv (unit
        # stride/dilation, ungrouped); gold runs the same convs direct.
        # Convs whose natural scheme is already a Winograd flavour keep
        # it, so the NaN rule hits them too.
        probe = Session(graph)
        wino_overrides: Dict[str, SchemeDecision] = {}
        direct_overrides: Dict[str, SchemeDecision] = {}
        for node in probe.graph.nodes:
            if node.op_type != Op.CONV2D:
                continue
            attrs = node.attrs
            eligible = (
                tuple(attrs.get("kernel", ())) == (3, 3)
                and tuple(attrs.get("stride", (1, 1))) == (1, 1)
                and tuple(attrs.get("dilation", (1, 1))) == (1, 1)
                and attrs.get("groups", 1) == 1
            )
            natural = probe.schemes.get(node.name)
            if eligible:
                wino_overrides[node.name] = SchemeDecision(
                    kind="winograd", winograd_n=2
                )
                direct_overrides[node.name] = SchemeDecision(kind="sliding")
            elif natural is not None and natural.kind.startswith("winograd"):
                wino_overrides[node.name] = natural
                direct_overrides[node.name] = SchemeDecision(kind="sliding")
        gold_direct = Session(
            graph, SessionConfig(scheme_overrides=direct_overrides)
        ).run(feeds)

        # Phase E: fixed prompt set + its fault-free gold generation
        # (alloc faults must never change tokens, only timing/placement).
        from ..genai import GenerationEngine, SamplingParams

        prompts = [
            [int(t) for t in rng.integers(0, 64, size=int(length))]
            for length in rng.integers(2, 7, size=5)
        ]
        gold_engine = GenerationEngine(
            _generation_config(FaultPlan(), kv_dtype=kv_dtype)
        )
        gold_tokens = [
            r.tokens
            for r in gold_engine.generate(prompts, SamplingParams(max_tokens=8))
        ]

        # Phase F: prompts sharing a 10-token prefix, and their *cold*
        # fault-free gold — the COW prefix cache must be invisible in the
        # tokens even while alloc faults evict its parents mid-storm.
        shared = [int(t) for t in rng.integers(0, 64, size=10)]
        prefix_prompts = [
            shared + [int(t) for t in rng.integers(0, 64, size=int(extra))]
            for extra in rng.integers(2, 5, size=6)
        ]
        gold_prefix = [
            r.tokens
            for r in gold_engine.generate(
                prefix_prompts, SamplingParams(max_tokens=8)
            )
        ]

        # Phase G (cluster): its own prompt set, gold generated by a
        # local engine built from the exact worker config — so the
        # bit-identity check spans the process boundary.  One cluster
        # serves every round (the per-round plan is swapped in at the
        # router; workers never hold it), with the storm's sanitizer
        # guarding the shared-memory segment lifecycle.
        from ..cluster import Cluster, ClusterConfig
        from ..genai import GenerationConfig, GenerationEngine as _GE

        cluster_prompts = [
            [int(t) for t in rng.integers(0, 64, size=int(length))]
            for length in rng.integers(2, 7, size=5)
        ]
        cluster_gold_engine = _GE(GenerationConfig(**_CLUSTER_GENAI))
        gold_cluster = [
            r.tokens
            for r in cluster_gold_engine.generate(
                cluster_prompts, SamplingParams(max_tokens=8)
            )
        ]
        cluster_gold_engine.close()
        cluster = Cluster(config=ClusterConfig(
            workers=2, genai=dict(_CLUSTER_GENAI), replay_budget=2,
            metrics=get_metrics(), sanitize=sanitizer, requests=tracker,
        ))

        while report.injected < target_faults and report.rounds < max_rounds:
            base = seed + report.rounds * 1000
            _phase_cache(
                graph, feeds, gold, base + 1, tmp, report, sanitizer, tracker
            )
            _phase_pool_dispatch(
                graph, feeds, gold, base + 2, report, sanitizer, tracker
            )
            _phase_batch(
                graph, batch_rounds, golds_by_input, base + 3, report, sanitizer
            )
            _phase_numeric(
                graph, feeds, gold_direct, base + 4, wino_overrides, report,
                sanitizer,
            )
            _phase_generate(
                prompts, gold_tokens, base + 5, report, sanitizer, tracker,
                kv_dtype=kv_dtype,
            )
            _phase_generate(
                prefix_prompts, gold_prefix, base + 6, report, sanitizer, tracker,
                kv_dtype=kv_dtype, prefix=True,
            )
            _phase_cluster(
                cluster, cluster_prompts, gold_cluster, base + 7, report
            )
            report.rounds += 1
            metrics = get_metrics()
            report.injected = int(metrics.value("faults.injected"))

        # Close the cluster before the tallies (and before a sanitizer
        # report): shutdown must unlink every shared-memory segment, and
        # a leaked one would — correctly — fail the lifecycle check.
        cluster.close()

        if tracker is not None:
            # The probe swaps in a private registry (see _probe_deadline),
            # so it runs after the rounds and before the tallies read the
            # storm registry — its delay fault never enters the equation.
            report.deadline_trips = _probe_deadline(graph, feeds, tracker)
            report.dumps = len(tracker.recorder.dumps)

        metrics = get_metrics()
        report.injected = int(metrics.value("faults.injected"))
        report.retries = int(metrics.value("retry.attempts"))
        report.fallback_ops = int(metrics.value("fallback.ops"))
        report.fallback_numeric = int(metrics.value("fallback.numeric"))
        report.fallback_cache = int(metrics.value("fallback.cache"))
        report.fallback_evict = int(metrics.value("fallback.evict"))
        report.isolated = int(metrics.value("faults.isolated"))
        report.replays = int(metrics.value("fallback.replay"))
        report.worker_lost = int(metrics.value("cluster.worker_lost"))
        report.replacements = int(metrics.value("cluster.replacements"))
        report.breaker_opens = int(metrics.value("breaker.opens"))
        report.short_circuits = int(metrics.value("breaker.short_circuits"))
        report.cache_corrupt = int(metrics.value("cache.corrupt"))
        if sanitize:
            # report() flushes lock-cycle detection into the counters;
            # the tallies come from the counters so BENCH/CLI snapshots
            # of the same registry agree with the report.
            sanitizer.report()
            report.races = int(metrics.value("sanitize.races"))
            report.lock_cycles = int(metrics.value("sanitize.lock_cycles"))
            report.leaks = int(metrics.value("sanitize.leaks"))
        return report
    finally:
        if cluster is not None:
            cluster.close()  # idempotent; reaps workers on error paths
        shutil.rmtree(tmp, ignore_errors=True)
        set_metrics(prev_metrics)
        set_fault_plan(prev_plan)
