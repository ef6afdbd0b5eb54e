"""The chaos self-test: a seeded fault storm the engine must survive.

``run_chaos_storm`` drives seven phases — four over a small CNN, two
over the autoregressive generation stack, one over the multi-process
cluster tier — each activating a different slice of the fault-point
catalog, and checks three things:

1. **No crashes** — every request either returns or fails alone with a
   typed :class:`~repro.faults.ResilienceError`; the engine keeps
   serving.
2. **Degraded ≡ correct** — every response produced under injection
   matches a fault-free gold run bit-identically (the gold is the *same*
   computation, so CPU fallback re-dispatch and the direct-scheme rerun
   are exact, and every kernel computes batch row i as its batch-1 call
   does, so a request bisected into a smaller batch keeps its bits).
3. **The books balance** — every injected fault is absorbed by exactly
   one resilience counter (:data:`repro.faults.ABSORBERS`)::

       faults.injected == retry.attempts + fallback.ops
                        + fallback.numeric + fallback.cache
                        + fallback.evict + faults.isolated
                        + fallback.replay + cluster.worker_lost

Each phase is one row of :data:`PHASES` (fault rules, engine, request
source, gold comparison, the exceptions that count as "failed alone"),
and one loop plays every row per round until ``target_faults`` is met:

* **cache** — transient/corrupt loads and transient/torn stores during
  engine warm-ups; later engines read the torn entries back.
* **pool+dispatch** — flaky checkouts, fatal dispatches and flaky
  kernels, absorbed by retry and per-op CPU fallback under the breaker.
* **batch** — fatal batch assembly bisected until poison requests fail
  alone; flaky kernels inside batch runs.
* **numeric** — every Winograd-eligible conv forced onto Winograd and
  NaN-poisoned, forcing the direct-scheme re-run (gold: direct convs).
* **generate** — flaky and OOM-ing KV-slab allocations: retry, LRU
  eviction or preemption+requeue, never a changed token.
* **prefix** — the same over a shared copy-on-write prefix; tokens equal
  the *cold* gold, and every shared page is released exactly once.
* **cluster** — ``worker.crash`` kills supervised workers before starting
  or mid-decode; each kill is one replay or one typed ``WorkerLost``,
  every dead worker is replaced, surviving tokens match the local gold.

Determinism: all request loops are single-threaded, breakers run with
``cooldown_s=0`` (no wall-clock-dependent short circuits), and batches
are submitted in full ``max_batch`` rounds, one ``submit_many`` call each
— the injection sequence is a pure function of the seed, which the
replay test exploits.

This module imports ``repro.core``/``repro.serving`` and is therefore
*not* re-exported from ``repro.faults`` (import cycle); import it lazily,
as the CLI and tests do.
"""

from __future__ import annotations

import shutil
import tempfile
from contextlib import closing, contextmanager
from dataclasses import dataclass, field, replace
from typing import Any, Callable, ContextManager, Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..cluster import Cluster, ClusterConfig, WorkerLost
from ..core.schemes import SchemeDecision
from ..core.session import Session, SessionConfig
from ..genai import GenerationConfig, GenerationEngine, GenRequest, SamplingParams
from ..ir.graph import Graph, GraphBuilder
from ..ir.ops import Op
from ..obs.metrics import MetricsRegistry, get_metrics, set_metrics
from ..obs.requests import RequestTracker
from ..runtime import Runtime
from ..sanitize import Sanitizer
from ..serving.engine import Engine, EngineConfig
from .errors import DeadlineExceeded, ResilienceError
from .plan import FaultPlan, FaultRule, set_fault_plan
from .resilience import ABSORBERS

__all__ = ["PhaseResult", "ChaosReport", "run_chaos_storm", "default_chaos_graph"]

#: The sites the storm must demonstrably cover (the tentpole's five
#: fault-point groups; cache load and store are distinct sites).
STORM_SITES = (
    "backend.dispatch", "kernel.execute", "cache.load", "cache.store",
    "pool.checkout", "batch.assemble", "kvcache.alloc", "worker.crash",
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
    #: The equation's absorbing terms, one field per :data:`ABSORBERS` row.
    retries: int = 0
    fallback_ops: int = 0
    fallback_numeric: int = 0
    fallback_cache: int = 0
    fallback_evict: int = 0
    isolated: int = 0
    replays: int = 0
    worker_lost: int = 0
    #: Outside the equation: breaker short circuits skip the fault points,
    #: and one worker crash may be observed by both the supervisor's
    #: monitor and an in-flight RPC but is replaced exactly once.
    breaker_opens: int = 0
    short_circuits: int = 0
    replacements: int = 0
    #: ``sanitize=True``: ``ok`` also requires zero races, lock cycles and
    #: lifecycle findings while every fault path fires.
    sanitized: bool = False
    races: int = 0
    lock_cycles: int = 0
    leaks: int = 0
    #: ``postmortem_dir=...``: deadline-probe trips and postmortems
    #: dumped.  Purely additive — ``ok`` does not depend on them.
    deadline_trips: int = 0
    dumps: int = 0
    site_counts: Dict[str, int] = field(default_factory=dict)
    events: List[Tuple[str, str]] = field(default_factory=list)
    phases: List[PhaseResult] = field(default_factory=list)

    @property
    def absorbed(self) -> int:
        """Faults accounted for by exactly one resilience mechanism."""
        return sum(getattr(self, attr) for _, attr, _ in ABSORBERS)

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
            and (not self.site_counts.get("worker.crash") or self.replacements >= 1)
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
            f"  absorbed   {self.absorbed} = "
            + " + ".join(
                f"{label} {getattr(self, attr)}" for _, attr, label in ABSORBERS
            ),
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


#: ``ChaosReport`` field -> storm-registry counter, read once after the
#: rounds (the ``sanitize.*`` three stay absent, so 0, when unsanitized).
_TALLIES: Dict[str, str] = {
    "injected": "faults.injected",
    **{attr: counter for counter, attr, _ in ABSORBERS},
    "breaker_opens": "breaker.opens",
    "short_circuits": "breaker.short_circuits",
    "replacements": "cluster.replacements",
    **{f: f"sanitize.{f}" for f in ("races", "lock_cycles", "leaks")},
}

#: The tiny decoder of every generation-side phase and gold; plain kwargs,
#: because the cluster's copy crosses the process boundary.
_DECODER: Dict[str, int] = dict(
    vocab=64, max_seq=24, d_model=16, heads=2, layers=1, seed=11,
    max_batch=2, page_tokens=4, capacity_tokens=64,
)


def _bit_identical(a: Dict[str, np.ndarray], b: Dict[str, np.ndarray]) -> bool:
    return set(a) == set(b) and all(np.array_equal(a[k], b[k]) for k in a)


def _same_tokens(outcome, gold: List[int]) -> bool:
    return outcome.tokens == gold


@dataclass
class _Storm:
    """What the phases read: the model, their cases and the instruments."""

    graph: Graph
    #: phase name -> its ``(input, gold)`` cases
    cases: Dict[str, List[Tuple[Any, Any]]]
    #: numeric phase: every Winograd-eligible conv forced onto Winograd
    winograd: Dict[str, SchemeDecision]
    cluster: Cluster
    cache_dir: str
    sanitizer: Any
    tracker: Optional[RequestTracker]
    kv_dtype: str


@dataclass(frozen=True)
class Phase:
    """One row of the storm: what to inject, where, and what must hold."""

    name: str
    #: Rule templates; each round's plan gets fresh copies.
    rules: Tuple[FaultRule, ...]
    #: Opens the phase's engine, session or cluster under one round's
    #: plan and yields its serving callable.
    build: Callable[[_Storm, FaultPlan], ContextManager[Callable]]
    #: Turns the serving callable and the phase's cases into
    #: ``(call, golds)`` pairs; one call serves ``len(golds)`` requests.
    requests: Callable[[Callable, list], Iterator[Tuple[Callable, list]]]
    equal: Callable[[Any, Any], bool] = _bit_identical
    #: Exceptions that mean "this request failed alone, typed".
    failures: Tuple[type, ...] = (ResilienceError,)
    #: Engines built per round, each serving every case.
    builds: int = 1


def _engine(tracked: bool = True, **config):
    """Build a storm ``Engine``; yields ``infer``, or ``submit_many`` when
    batching."""

    @contextmanager
    def build(storm: _Storm, plan: FaultPlan):
        engine = Engine(storm.graph, EngineConfig(
            session=SessionConfig(breaker_cooldown_s=0.0),
            cache_dir=storm.cache_dir, faults=plan, metrics=get_metrics(),
            sanitize=storm.sanitizer,
            requests=storm.tracker if tracked else None, **config,
        ))
        with engine:
            yield (engine.infer if engine.batcher is None
                   else engine.batcher.submit_many)

    return build


@contextmanager
def _winograd_session(storm: _Storm, plan: FaultPlan):
    yield Session(
        storm.graph,
        SessionConfig(scheme_overrides=storm.winograd, breaker_cooldown_s=0.0),
        runtime=Runtime.resolve(faults=plan, sanitize=storm.sanitizer),
    ).run


def _generation_config(
    plan: FaultPlan, sanitizer=False, prefix=False, tracker=None,
    kv_dtype="float32",
) -> GenerationConfig:
    """The generation phases' engine config, shared by gold and storm.

    Gold never gets the tracker or the sanitizer (they observe the
    storm), but does get ``kv_dtype``: quantized decode is deterministic,
    so a quantized storm must match its quantized gold exactly.
    """
    return GenerationConfig(
        **_DECODER, prefix_cache=prefix,
        session=SessionConfig(breaker_cooldown_s=0.0),
        metrics=get_metrics(), faults=plan,
        sanitize=sanitizer, requests=tracker, kv_dtype=kv_dtype,
    )


def _generation(prefix: bool):
    @contextmanager
    def build(storm: _Storm, plan: FaultPlan):
        # Closing runs the KV lifecycle leak check: a storm that loses
        # track of a slab fails sanitize, not just utilization stats.
        with closing(GenerationEngine(_generation_config(
            plan, storm.sanitizer, prefix, storm.tracker, storm.kv_dtype
        ))) as engine:
            yield engine.generate

    return build


@contextmanager
def _cluster_round(storm: _Storm, plan: FaultPlan):
    # Crash injection is decided (and counted) in the router process;
    # workers never see the plan, so one long-lived cluster serves every
    # round with that round's plan swapped in.
    storm.cluster.faults = plan
    try:
        yield storm.cluster.generate
    finally:
        storm.cluster.faults = FaultPlan()


def _each(times: int = 1):
    """Every case ``times`` over, one call per request."""

    def requests(serve, cases):
        for _ in range(times):
            for feeds, gold in cases:
                yield (lambda: [serve(feeds)]), [gold]

    return requests


def _in_rounds(size: int):
    """Full rounds of ``size``, each served by one ``submit_many`` call,
    which enqueues the round and runs it on the calling thread: the one
    free seat takes the whole round as one batch, so batch composition
    (so the cascade) is deterministic."""

    def requests(submit_many, cases):
        for start in range(0, len(cases), size):
            chunk = cases[start:start + size]
            futures = submit_many([feeds for feeds, _ in chunk])
            for future, (_, gold) in zip(futures, chunk):
                yield (lambda: [future.result(timeout=60.0)]), [gold]

    return requests


def _one_batch(tag: str):
    """Every prompt in one ``generate`` call: requests ``{tag}-{i}``."""

    def requests(generate, cases):
        params = SamplingParams(max_tokens=8)
        batch = [GenRequest(f"{tag}-{i}", p, params) for i, (p, _) in enumerate(cases)]
        yield (lambda: generate(batch)), [gold for _, gold in cases]

    return requests


def _alternating_policy(generate, cases):
    """Even requests replay a lost worker transparently (full re-prefill on
    the next live ring-preference worker); odd ones fail fast with typed
    ``WorkerLost``."""
    for i, (prompt, gold) in enumerate(cases):
        policy = "replay" if i % 2 == 0 else "error"
        yield (lambda: [generate(
            prompt, {"max_tokens": 8}, session_key=f"storm-{i}",
            on_worker_lost=policy,
        )]), [gold]


_KV_ALLOC_RULES = (
    FaultRule("kvcache.alloc", "transient", times=3),
    FaultRule("kvcache.alloc", "fatal", p=0.5, times=3),
)

#: The storm, in injection order; round ``r`` plays row ``k`` with seed
#: ``seed + 1000 * r + k + 1``.
PHASES: Tuple[Phase, ...] = (
    Phase("cache", (
        FaultRule("cache.load", "transient", times=3),
        FaultRule("cache.load", "corrupt", times=2),
        FaultRule("cache.store", "torn", times=2),
        FaultRule("cache.store", "transient", times=2),
    ), _engine(pool_size=2, use_cache=True), _each(),
        builds=3),  # each engine: pool_size load/store cycles
    Phase("pool+dispatch", (
        FaultRule("pool.checkout", "transient", p=0.5, times=10),
        FaultRule("backend.dispatch", "fatal", times=8),
        FaultRule("kernel.execute", "transient", p=0.3, times=12),
    ), _engine(pool_size=2, use_cache=False), _each(times=12)),
    Phase("batch", (
        FaultRule("batch.assemble", "fatal", times=7),
        FaultRule("kernel.execute", "transient", p=0.25, times=10),
    ), _engine(tracked=False, pool_size=1, use_cache=False, batching=True,
               max_batch=4),
        _in_rounds(4)),
    Phase("numeric", (
        FaultRule("kernel.execute", "nan",
                  match={"scheme": "winograd"}),
    ), _winograd_session, _each(times=10)),
    # Generation faults never raise out of ``generate``: a request that
    # cannot survive finishes with reason "error", alone.
    Phase("generate", _KV_ALLOC_RULES, _generation(prefix=False),
          _one_batch("gen"), equal=_same_tokens, failures=()),
    Phase("prefix", _KV_ALLOC_RULES, _generation(prefix=True),
          _one_batch("pfx"), equal=_same_tokens, failures=()),
    Phase("cluster", (
        FaultRule("worker.crash", "fatal", times=1),
        FaultRule("worker.crash", "transient", p=0.5, times=2),
    ), _cluster_round, _alternating_policy,
        equal=_same_tokens, failures=(WorkerLost,)),
)


def _classify(phase: Phase, result: PhaseResult, call, golds) -> None:
    """Serve one call and tally its requests — the storm's one outcome rule.

    Raising one of ``phase.failures`` fails the call alone (typed); any
    other exception is a crash; an outcome with ``finish_reason ==
    "error"`` failed alone inside the engine; every other outcome must
    ``phase.equal`` its gold.
    """
    result.requests += len(golds)
    try:
        outcomes = call()
    except phase.failures:
        result.failed += 1
    except Exception:
        result.crashes += 1
    else:
        for outcome, gold in zip(outcomes, golds):
            if getattr(outcome, "finish_reason", None) == "error":
                result.failed += 1
            elif not phase.equal(outcome, gold):
                result.mismatched += 1


def _run_phase(phase: Phase, storm: _Storm, seed: int, report: ChaosReport) -> None:
    plan = FaultPlan([replace(rule) for rule in phase.rules], seed=seed)
    result = PhaseResult(phase.name)
    for _ in range(phase.builds):
        with phase.build(storm, plan) as serve:
            for call, golds in phase.requests(serve, storm.cases[phase.name]):
                _classify(phase, result, call, golds)
    result.injected = plan.injected
    for site, count in plan.site_counts().items():
        report.site_counts[site] = report.site_counts.get(site, 0) + count
    report.events.extend(plan.events())
    report.requests += result.requests
    report.failed += result.failed
    report.mismatched += result.mismatched
    report.crashes += result.crashes
    report.phases.append(result)


def _winograd_overrides(graph: Graph) -> Dict[str, SchemeDecision]:
    """Force Winograd on every eligible 3x3 conv (unit stride/dilation,
    ungrouped).  Convs whose natural scheme is already Winograd (any tile)
    keep it, so the NaN rule hits them too."""
    probe = Session(graph)
    winograd: Dict[str, SchemeDecision] = {}
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
            winograd[node.name] = SchemeDecision(kind="winograd", tile=(2, 2))
        elif natural is not None and natural.kind == "winograd":
            winograd[node.name] = natural
    return winograd


def _prompts(rng: np.random.Generator, count: int) -> List[List[int]]:
    return [
        [int(t) for t in rng.integers(0, 64, size=int(length))]
        for length in rng.integers(2, 7, size=count)
    ]


def _gold_tokens(engine: GenerationEngine, prompts) -> List[List[int]]:
    return [r.tokens for r in engine.generate(prompts, SamplingParams(max_tokens=8))]


def _probe_deadline(graph, feeds, tracker: RequestTracker) -> int:
    """Deadline probe: a stalled checkout under a tight budget must trip
    :class:`DeadlineExceeded` and leave a postmortem in the tracker's directory.

    Delay faults increment ``faults.injected`` but no absorbing counter
    (the request just runs out of budget), so the probe runs under a
    private registry to keep the storm's equation closed.  The tracker
    keeps its own registry, so the postmortem still lands with the storm's.
    """
    plan = FaultPlan([FaultRule("pool.checkout", "delay", delay_ms=30.0)], seed=0)
    probe_metrics = MetricsRegistry()
    prev = set_metrics(probe_metrics)
    trips = 0
    try:
        engine = Engine(graph, EngineConfig(
            session=SessionConfig(breaker_cooldown_s=0.0),
            pool_size=1, use_cache=False,
            faults=plan, metrics=probe_metrics, requests=tracker,
        ))
        with engine:
            try:
                engine.infer(feeds, deadline_ms=5.0)
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
    through every storm engine and session (never the golds); ``ok``
    then also requires zero races, lock cycles and lifecycle findings.

    ``postmortem_dir`` threads one deterministic
    :class:`repro.obs.RequestTracker` dumping there through every storm
    engine: isolated faults, ``KVCacheOOM`` admission failures and a
    dedicated deadline probe each dump a postmortem JSON.  Two same-seed
    storms dump byte-identical artifacts.

    ``kv_dtype="int8"`` runs the generation and prefix phases (storm and
    golds) over a quantized KV cache with the same bit-identity
    contract.  The cluster phase stays fp32 (its config crosses the
    process boundary and its gold shares it).
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
            metrics=get_metrics(), postmortem_dir=postmortem_dir,
            deterministic=True,
        )
    tmp = tempfile.mkdtemp(prefix="repro-chaos-")
    cluster = None
    try:
        # Golds: fault-free runs of the same computations, each drawn
        # from one seeded stream in a fixed order.
        rng = np.random.default_rng(seed)
        in_name = graph.inputs[0]
        in_shape = graph.desc(in_name).shape

        def draw() -> Dict[str, np.ndarray]:
            return {in_name: rng.standard_normal(in_shape).astype(np.float32)}

        feeds = draw()
        gold = Session(graph).run(feeds)
        # Batch golds come from one identically configured fault-free
        # session, so batch math matches exactly.
        batch_feeds = [draw() for _ in range(8)]
        gold_session = Session(graph)
        batch_cases = [(f, gold_session.run(f)) for f in batch_feeds]
        # Numeric gold: the Winograd-forced convs run direct instead.
        winograd = _winograd_overrides(graph)
        direct = {name: SchemeDecision(kind="sliding") for name in winograd}
        gold_direct = Session(
            graph, SessionConfig(scheme_overrides=direct)
        ).run(feeds)

        # The prefix prompts share a 10-token prefix and their gold is
        # *cold*: the COW prefix cache must be invisible in the tokens.
        prompts = _prompts(rng, 5)
        gold_gen = GenerationEngine(_generation_config(FaultPlan(), kv_dtype=kv_dtype))
        gold_tokens = _gold_tokens(gold_gen, prompts)
        shared = [int(t) for t in rng.integers(0, 64, size=10)]
        prefix_prompts = [
            shared + [int(t) for t in rng.integers(0, 64, size=int(extra))]
            for extra in rng.integers(2, 5, size=6)
        ]
        gold_prefix = _gold_tokens(gold_gen, prefix_prompts)

        # The cluster's gold is a local engine built from the workers'
        # config, so the bit-identity check spans the process boundary.
        cluster_prompts = _prompts(rng, 5)
        cluster_gold_engine = GenerationEngine(GenerationConfig(**_DECODER))
        gold_cluster = _gold_tokens(cluster_gold_engine, cluster_prompts)
        cluster_gold_engine.close()
        cluster = Cluster(config=ClusterConfig(
            workers=2, genai=dict(_DECODER),
            metrics=get_metrics(), sanitize=sanitizer, requests=tracker,
        ))

        storm = _Storm(
            graph=graph,
            cases={
                "cache": [(feeds, gold)],
                "pool+dispatch": [(feeds, gold)],
                "batch": batch_cases,
                "numeric": [(feeds, gold_direct)],
                "generate": list(zip(prompts, gold_tokens)),
                "prefix": list(zip(prefix_prompts, gold_prefix)),
                "cluster": list(zip(cluster_prompts, gold_cluster)),
            },
            winograd=winograd, cluster=cluster, cache_dir=tmp,
            sanitizer=sanitizer, tracker=tracker, kv_dtype=kv_dtype,
        )
        while report.injected < target_faults and report.rounds < max_rounds:
            base = seed + report.rounds * 1000
            for offset, phase in enumerate(PHASES, start=1):
                _run_phase(phase, storm, base + offset, report)
            report.rounds += 1
            report.injected = int(get_metrics().value("faults.injected"))

        # Close the cluster before the tallies (and before a sanitizer
        # report): shutdown must unlink every shared-memory segment, and
        # a leaked one would — correctly — fail the lifecycle check.
        cluster.close()

        if tracker is not None:
            # The probe swaps in a private registry (see _probe_deadline),
            # so it runs after the rounds and before the tallies read the
            # storm registry — its delay fault never enters the equation.
            report.deadline_trips = _probe_deadline(graph, feeds, tracker)
            report.dumps = len(tracker.dumps)

        if sanitize:
            # report() flushes lock-cycle detection into the counters;
            # the tallies come from the counters so BENCH/CLI snapshots
            # of the same registry agree with the report.
            sanitizer.report()
        metrics = get_metrics()
        for attr, counter in _TALLIES.items():
            setattr(report, attr, int(metrics.value(counter)))
        return report
    finally:
        if cluster is not None:
            cluster.close()  # idempotent; reaps workers on error paths
        shutil.rmtree(tmp, ignore_errors=True)
        set_metrics(prev_metrics)
        set_fault_plan(prev_plan)
