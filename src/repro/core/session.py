"""Inference sessions: pre-inference once, run many times (paper Section 3.2).

``Session`` performs the paper's full pre-inference pipeline at creation:

1. **Scheme selection** — every convolution gets its optimal algorithm from
   the scheme pool via the Eq. 2/3 cost search.
2. **Backend selection & hybrid placement** — the primary backend is chosen
   (optionally automatically, by minimizing Eq. 4 total cost); ops the
   primary backend does not support are placed on the CPU fallback, with
   inter-backend copies inserted automatically.
3. **Preparation/execution decoupling** — executions are created and
   prepared (Winograd kernels pre-transformed, GPU command buffers
   pre-recorded), and the memory planner lays every activation into one
   pre-allocated arena (Figure 3).
4. **Step plan** — the run itself is compiled: every feed, activation and
   output gets an integer slot, and each operator becomes a step holding
   its callable, its input/output slots and whatever else is decidable
   before the first feed (copy edges, arena landings, interleaved
   acquire/release, the parallel scheduler's indegrees and dependents).

``run`` is then pure compute: no scheme search, no allocation, no command
recording, no graph analysis.  One walker executes the plan.  With nothing
switched on it is a plain loop over ``fn([env[i] for i in ins])``;
otherwise the same steps run through per-step wrappers composed once per
run from the concerns that are active (deadline, lazy prepare, copies,
interleaved memory, arena landing, tracing, fault injection and
resilience).  ``parallel_branches`` walks the same steps with a
ready-queue scheduler, and ``run_profiled`` is ``run`` with an ephemeral
tracer.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..backends.base import Backend, BackendError, BackendTransientError
from ..backends.cpu import CPUBackend
from ..devices.specs import DeviceSpec, GpuApi
from ..faults import InjectedFault, TransientFault, retry_transient
from ..faults.resilience import CircuitBreaker, Deadline
from ..ir.graph import Graph, GraphError, Node
from ..ir.ops import Op
from ..kernels import nonfinite_count
from ..obs.metrics import get_metrics
from ..obs.tracer import Tracer
from ..runtime import Runtime
from ..sim.clock import VirtualClock
from .cost import BackendCostModel, node_muls
from .memory import Arena, MemoryPlan, adapt_plan, compute_lifetimes, plan_memory
from .plan import (
    StepFn, StepPlan, bounded, build_plan, copying, ensuring, interleaved, landed,
    traced, walk, walk_parallel,
)
from .schemes import SchemeConfig, SchemeDecision, select_graph_schemes

__all__ = [
    "SessionConfig",
    "SessionArtifacts",
    "RunStats",
    "OpProfile",
    "Session",
    "choose_backend",
]


@dataclass
class SessionConfig:
    """Session creation options.

    Attributes:
        backend: ``"cpu"`` (real host execution), ``"sim_cpu"`` (modeled
            phone CPU), a GPU API name (``"metal"``/``"opencl"``/
            ``"opengl"``/``"vulkan"``, all simulated), or a user-provided
            :class:`~repro.backends.Backend` *instance* — the extension
            point for NPU/FPGA-style accelerators; unsupported ops fall
            back to the CPU automatically.
        device: capability model; required for simulated backends.
        threads: CPU thread count for the cost model.
        decouple: enable preparation/execution decoupling (Figure 3).
            Disabling reproduces the "w/o" rows of Table 2.
        use_strassen: allow Strassen for large GEMMs.
        auto_backend: pick the cheapest backend by Eq. 4 among
            ``candidate_backends`` instead of ``backend``.
        candidate_backends: pool for auto selection.
        scheme_config: conv scheme-search tunables.
        scheme_overrides: per-conv-node scheme decisions that take
            precedence over the cost-model search — typically the output
            of :func:`repro.core.autotune.autotune_schemes`.
        parallel_branches: execute independent graph branches concurrently
            on a thread pool (real CPU backend only; NumPy's BLAS releases
            the GIL, so Inception-style parallel branches genuinely
            overlap).  Ignored for simulated backends, whose virtual
            clock is inherently sequential.  Cannot be combined with
            ``arena_execution`` (``ValueError`` at construction).
        arena_execution: land every activation in its planned arena slot
            at run time, making the memory plan load-bearing end-to-end.
            Off by default: MNN's kernels write into pre-allocated outputs
            for free, but NumPy kernels allocate internally, so landing
            costs one extra memcpy per op on this substrate (the plan is
            still built, validated, and used for Table 2's accounting).
            Cannot be combined with ``parallel_branches`` (``ValueError``
            at construction): arena slots are alias-free only in
            topological order, which a dataflow schedule does not keep.
        paranoid: run the independent memory-plan sanitizer
            (:func:`repro.analysis.check_memory_plan`) on every plan this
            session builds, and bounds/alignment-check every arena view
            handed out during execution.  A planner bug then fails loudly
            at prepare time instead of corrupting activations silently.
        resilience: route every op through the resilient executor (retry
            with backoff, circuit breaker, per-op CPU fallback, and a
            numeric guard that re-runs an op whose output came back
            non-finite via its direct scheme — sliding-window conv /
            non-Strassen GEMM — once).  ``None`` = auto: on exactly
            when the runtime's fault plan is enabled; ``True`` forces it
            on for real backend failures
            (:class:`~repro.backends.BackendTransientError` and friends).
        check_feeds: validate every feed's shape and dtype against the
            input descriptors on each run.  On by default; tight serving
            loops that construct feeds programmatically from already-
            validated buffers (``repro.genai``'s per-token decode steps)
            may turn it off to shave fixed overhead from ~ms-scale runs.
        retries: extra attempts for transient per-op failures before
            escalating to the backend fallback.
        breaker_threshold: consecutive op failures on the primary
            backend before its circuit breaker opens.
        breaker_cooldown_s: how long an open breaker short-circuits the
            primary before probing it again.
        prepare_workers: fan per-op scheme selection out over this many
            threads (the Eq. 2/3 searches are independent, so the result
            is identical to the serial walk).  ``0``/``1`` keeps the
            serial path.  Neither this nor ``lazy_prepare`` changes any
            pre-inference *decision*, so both are excluded from the
            serving cache's config fingerprint.
        lazy_prepare: defer per-execution preparation (Winograd weight
            pre-transform and friends) off the critical path of session
            creation: a background thread prepares executions in order
            while the first ``run`` prepares any op it reaches first
            on demand.  Cold time-to-first-inference drops because
            early ops execute while deep ops are still preparing; every
            run is bit-identical to the eager path.
    """

    backend: Union[str, Backend] = "cpu"
    device: Optional[DeviceSpec] = None
    threads: int = 4
    decouple: bool = True
    use_strassen: bool = True
    auto_backend: bool = False
    candidate_backends: Tuple[str, ...] = ()
    scheme_config: SchemeConfig = field(default_factory=SchemeConfig)
    scheme_overrides: Optional[Dict[str, SchemeDecision]] = None
    parallel_branches: bool = False
    arena_execution: bool = False
    paranoid: bool = False
    resilience: Optional[bool] = None
    check_feeds: bool = True
    retries: int = 3
    breaker_threshold: int = 3
    breaker_cooldown_s: float = 0.25
    prepare_workers: int = 0
    lazy_prepare: bool = False


@dataclass
class SessionArtifacts:
    """Reusable pre-inference results (paper Section 3.2's outputs).

    Everything here is a pure function of (graph structure, shapes,
    config) — not of weight values or run-time feeds — so it can be
    computed once, persisted, and replayed to skip the scheme search,
    Eq. 4 backend selection and memory planning on the next session over
    the same graph.  Produced by :meth:`Session.export_artifacts`,
    persisted/keyed by :class:`repro.serving.PreInferenceCache`, consumed
    via ``Session(graph, config, artifacts=...)``.

    A session never trusts artifacts blindly: scheme coverage and the
    memory plan are cheaply re-validated against the live graph, and any
    mismatch falls back to recomputation (stale-cache tolerance).
    """

    backend_kind: Optional[str] = None
    schemes: Optional[Dict[str, SchemeDecision]] = None
    memory_plan: Optional[MemoryPlan] = None
    #: A *donor* plan from an adjacent shape bucket (same graph
    #: structure, larger-or-equal tensor sizes).  Unlike ``memory_plan``
    #: it need not match this session's shapes exactly: the session
    #: tries :func:`repro.core.memory.adapt_plan` and re-proves the
    #: result with the independent memcheck before trusting it, falling
    #: back to planning from scratch on any mismatch.  Never persisted.
    plan_donor: Optional[MemoryPlan] = None


@dataclass
class RunStats:
    """Timing of one inference run.

    When the session is traced, these numbers are the ``session.run``
    span's view of the same clock readings; the trace additionally carries
    per-operator spans with thread attribution.
    """

    wall_ms: float
    virtual_ms: float
    copies: int
    copy_bytes: int


@dataclass
class OpProfile:
    """Per-operator timing from :meth:`Session.run_profiled`.

    A thin view over the run's ``"op"``-category trace spans: one row per
    recorded operator span, in recording order (execution order on the
    serial path, completion order on the parallel path).
    """

    node: str
    op_type: str
    backend: str
    wall_ms: float
    virtual_ms: float
    thread: Optional[int] = None


def choose_backend(
    graph: Graph,
    device: DeviceSpec,
    threads: int,
    candidates: Sequence[str],
) -> str:
    """Eq. 4 backend selection: pick the candidate with minimal total cost.

    Ops unsupported on a GPU candidate are costed on the CPU (the paper's
    fallback rule), so a GPU with poor coverage is penalized naturally.
    """
    from ..backends.simulated import GPU_OP_COVERAGE

    model = BackendCostModel(device, threads)
    best, best_cost = None, float("inf")
    for kind in candidates:
        if kind in ("cpu", "sim_cpu"):
            cost = model.graph_cost_ms(graph, "cpu")
        else:
            if not device.supports_api(kind):
                continue
            coverage = GPU_OP_COVERAGE[kind]
            cost = model.graph_cost_ms(graph, kind, supports=lambda op: op in coverage)
        if cost < best_cost:
            best, best_cost = kind, cost
    if best is None:
        raise BackendError(f"no viable backend among {list(candidates)} on {device.name}")
    return best


def _poison_outputs(outputs: List[np.ndarray]) -> List[np.ndarray]:
    """Corrupt one element of the first float output with NaN (``nan`` faults)."""
    poisoned: List[np.ndarray] = []
    done = False
    for arr in outputs:
        if not done and arr.dtype.kind == "f" and arr.size:
            arr = arr.copy()
            arr.flat[0] = np.nan
            done = True
        poisoned.append(arr)
    return poisoned


class Session:
    """A prepared inference instance over one graph (see module docstring).

    ``runtime`` supplies the tracer (pre-inference and per-op spans), the
    fault plan (``session.prepare``/``backend.dispatch``/``kernel.execute``)
    and the sanitizer; ``None`` is ``Runtime.resolve()``, whose defaults
    cost one ``enabled`` check per run.  The session's own ``session.*``
    counters always land in the process-wide registry.
    """

    def __init__(
        self,
        graph: Graph,
        config: Optional[SessionConfig] = None,
        artifacts: Optional[SessionArtifacts] = None,
        *,
        runtime: Optional[Runtime] = None,
    ) -> None:
        self.graph = graph
        self.config = config or SessionConfig()
        if self.config.arena_execution and self.config.parallel_branches:
            raise ValueError(
                "SessionConfig.arena_execution and SessionConfig.parallel_branches "
                "cannot be combined: arena slots are alias-free only in "
                "topological order"
            )
        runtime = runtime if runtime is not None else Runtime.resolve()
        self.tracer = runtime.tracer
        self.faults = runtime.faults
        self.sanitizer = runtime.sanitizer
        self.clock = VirtualClock()
        self._order: List[Node] = []
        self._executions = {}
        self._placement: Dict[str, Backend] = {}
        self.schemes: Dict[str, SchemeDecision] = {}
        self.memory_plan: Optional[MemoryPlan] = None
        self._arena: Optional[Arena] = None
        self._plan: Optional[StepPlan] = None
        self._artifacts = artifacts
        # Donor plan for adjacent-bucket adaptation: seeded from the
        # artifacts, refreshed by every plan this session builds (so a
        # resized session donates to itself across bucket changes).
        self._plan_donor: Optional[MemoryPlan] = (
            artifacts.plan_donor if artifacts is not None else None
        )
        # Lazy-prepare state (see _ensure_prepared): generation-local
        # objects shared between the background preparer and the run
        # path; replaced wholesale on resize so stale threads only ever
        # touch discarded executions.
        self._prepared: set = set()
        self._prepare_lock = threading.Lock()
        self._lazy_active = False
        self._lazy_ensure = None
        self.prepare_wall_ms = 0.0
        self.last_run: Optional[RunStats] = None
        # Resilient-executor state (see _run_resilient): lazily created
        # fallback executions / direct-scheme runners, the recovery
        # backend behind them, and the primary's circuit breaker.
        self._fallback_execs: Dict[str, object] = {}
        self._direct_runners: Dict[str, object] = {}
        self._recovery: Optional[Backend] = None
        self._breaker: Optional[CircuitBreaker] = None
        self._resilient = (
            self.config.resilience if self.config.resilience is not None
            else self.faults.enabled
        )
        self._prepare()

    # -- pre-inference -----------------------------------------------------
    def _make_backend(self, kind: str) -> Backend:
        # Imported here: backends.simulated pulls in repro.sim, whose
        # latency module needs repro.core — a cycle at import time.
        from ..backends.simulated import SimulatedCPUBackend, SimulatedGPUBackend

        cfg = self.config
        if kind == "cpu":
            return CPUBackend(cfg.threads, cfg.use_strassen)
        if cfg.device is None:
            raise BackendError(f"backend {kind!r} needs a DeviceSpec in the config")
        if kind == "sim_cpu":
            return SimulatedCPUBackend(
                cfg.device, cfg.threads, clock=self.clock,
                decouple=cfg.decouple, use_strassen=cfg.use_strassen,
            )
        if kind in GpuApi.ALL:
            return SimulatedGPUBackend(
                cfg.device, kind, clock=self.clock,
                decouple=cfg.decouple, use_strassen=cfg.use_strassen,
            )
        raise BackendError(f"unknown backend kind {kind!r}")

    def _prepare(self) -> None:
        start = time.perf_counter()
        cfg = self.config
        tracer = self.tracer
        with tracer.span("session.prepare", "session", graph=self.graph.name) as prep:
            if self.faults.enabled:
                # A transient/fatal fault here fails session creation —
                # or, mid-resize, exercises the snapshot/rollback path.
                self.faults.fire("session.prepare", graph=self.graph.name)
            with tracer.span("graph.validate", "pre_inference"):
                self.graph.validate()
                self._order = [
                    n for n in self.graph.toposort()
                    if n.op_type not in (Op.INPUT, Op.CONSTANT)
                ]

            artifacts = self._artifacts

            # (1) computation scheme selection (auto-tuned overrides win).
            # Cached decisions replace the Eq. 2/3 search when they cover every
            # conv in the live graph; partial/stale coverage falls back.
            with tracer.span("scheme_selection", "pre_inference") as sp:
                cached_schemes = artifacts.schemes if artifacts is not None else None
                conv_nodes = {n.name for n in self._order if n.op_type == Op.CONV2D}
                if cached_schemes is not None and conv_nodes <= set(cached_schemes):
                    self.schemes = dict(cached_schemes)
                    sp.set(cached=True)
                elif cfg.prepare_workers > 1 and len(conv_nodes) > 1:
                    # Per-layer Eq. 2/3 searches are independent; fan them
                    # out.  Identical output to the serial walk.
                    with tracer.span(
                        "prepare.parallel", "pre_inference",
                        workers=cfg.prepare_workers, convs=len(conv_nodes),
                    ):
                        self.schemes = select_graph_schemes(
                            self.graph, cfg.scheme_config,
                            workers=cfg.prepare_workers,
                        )
                    sp.set(cached=False, parallel=True)
                else:
                    self.schemes = select_graph_schemes(self.graph, cfg.scheme_config)
                    sp.set(cached=False)
                if cfg.scheme_overrides:
                    self.schemes.update(cfg.scheme_overrides)
                sp.set(convs=len(conv_nodes))

            # (2) backend selection + hybrid placement
            with tracer.span("backend_selection", "pre_inference") as sp:
                if isinstance(cfg.backend, Backend):
                    # user-supplied backend instance (NPU/FPGA extension point)
                    self.primary = cfg.backend
                    self.fallback = (
                        self._make_backend("sim_cpu") if cfg.device is not None
                        else self._make_backend("cpu")
                    )
                else:
                    primary_kind = cfg.backend
                    if cfg.auto_backend:
                        if cfg.device is None:
                            raise BackendError("auto_backend requires a DeviceSpec")
                        if artifacts is not None and artifacts.backend_kind:
                            # Cached Eq. 4 winner: skip re-costing every candidate.
                            primary_kind = artifacts.backend_kind
                        else:
                            candidates = (
                                cfg.candidate_backends
                                or ("sim_cpu",) + cfg.device.gpu_apis
                            )
                            primary_kind = choose_backend(
                                self.graph, cfg.device, cfg.threads, candidates
                            )
                    self.primary = self._make_backend(primary_kind)
                    if primary_kind in ("cpu", "sim_cpu"):
                        self.fallback = self.primary
                    elif cfg.device is not None:
                        self.fallback = self._make_backend("sim_cpu")
                    else:
                        self.fallback = self._make_backend("cpu")
                sp.set(primary=self.primary.forward_type)
                self._breaker = CircuitBreaker(
                    cfg.breaker_threshold, cfg.breaker_cooldown_s,
                    name=self.primary.forward_type,
                )

            lazy = cfg.lazy_prepare and cfg.decouple
            with tracer.span(
                "create_executions", "pre_inference",
                ops=len(self._order), deferred=lazy,
            ):
                for node in self._order:
                    backend = (
                        self.primary if self.primary.supports(node.op_type)
                        else self.fallback
                    )
                    if not backend.supports(node.op_type):
                        raise BackendError(
                            f"op {node.op_type!r} ({node.name!r}) unsupported "
                            f"on every backend"
                        )
                    self._placement[node.name] = backend
                    if not lazy:
                        # Creation is where the real cold work lives on the
                        # CPU backend (Winograd weight pre-transform happens
                        # in build_runner); the lazy path defers it per op.
                        scheme = self.schemes.get(node.name)
                        self._executions[node.name] = backend.on_create(
                            node, self.graph, scheme
                        )

            # (3) decoupling: prepare executions + plan memory up front
            if cfg.decouple:
                if lazy:
                    self._start_lazy_prepare(tracer)
                else:
                    self._lazy_active = False
                    self._lazy_ensure = None
                    with tracer.span("prepare_executions", "pre_inference"):
                        for node in self._order:
                            self._executions[node.name].prepare(self.graph)
                with tracer.span("memory_plan", "pre_inference") as sp:
                    cached_plan = (
                        artifacts.memory_plan if artifacts is not None else None
                    )
                    lifetimes = compute_lifetimes(self.graph, self._order)
                    if cached_plan is not None and cached_plan.matches(lifetimes):
                        self.memory_plan = cached_plan
                        sp.set(cached=True)
                    else:
                        self.memory_plan = self._adapt_or_plan(lifetimes, sp)
                    sp.set(arena_bytes=self.memory_plan.arena_bytes)
                # The biggest plan seen becomes the donor for later
                # resizes of this session (and, via offer_plan_donor,
                # for sibling sessions in adjacent shape buckets).
                if (
                    self._plan_donor is None
                    or self.memory_plan.arena_bytes >= self._plan_donor.arena_bytes
                ):
                    self._plan_donor = self.memory_plan
                if cfg.paranoid:
                    from ..analysis.memcheck import check_memory_plan

                    with tracer.span("memcheck", "pre_inference"):
                        check_memory_plan(
                            self.graph, self.memory_plan, self._order
                        ).raise_if_failed()
                self._arena = Arena(self.memory_plan, paranoid=cfg.paranoid)
                if self.sanitizer.enabled:
                    self._arena.sanitizer = self.sanitizer
            self._plan = build_plan(
                self.graph, self._order, self._placement, self._executions,
                decouple=cfg.decouple,
                landing=(
                    self._arena.plan.offsets
                    if cfg.arena_execution and self._arena is not None else {}
                ),
                lazy=lazy,
                parallel=(
                    cfg.parallel_branches and cfg.decouple
                    and self.primary.forward_type == "cpu"
                ),
            )
            self.prepare_wall_ms = (time.perf_counter() - start) * 1000.0
            prep.set(wall_ms=self.prepare_wall_ms)
        metrics = get_metrics()
        metrics.counter("session.prepares").inc()
        metrics.histogram("session.prepare_ms").observe(self.prepare_wall_ms)

    def _start_lazy_prepare(self, tracer: Tracer) -> None:
        """Kick off deferred execution creation (``lazy_prepare``).

        A background daemon thread creates+prepares executions in
        topological order while the first ``run`` creates any op it
        reaches first on demand; both sides share one double-checked
        lock, so each op is built exactly once and every run is
        bit-identical to the eager path.  All state is captured in
        locals (generation-local): a thread that outlives a ``resize``
        keeps preparing only the discarded generation's objects.
        """
        executions = self._executions
        placement = self._placement
        schemes = self.schemes
        graph = self.graph
        order = list(self._order)
        prepared: set = set()
        lock = threading.Lock()

        def ensure(node: Node) -> None:
            name = node.name
            if name in prepared:
                return
            with lock:
                if name in prepared:
                    return
                execution = placement[name].on_create(
                    node, graph, schemes.get(name)
                )
                execution.prepare(graph)
                executions[name] = execution
                prepared.add(name)

        self._prepared = prepared
        self._prepare_lock = lock
        self._lazy_ensure = ensure
        self._lazy_active = True

        def background() -> None:
            for node in order:
                ensure(node)

        if tracer.enabled:
            tracer.instant("prepare.lazy", "pre_inference", ops=len(order))
        threading.Thread(
            target=background, name="session-lazy-prepare", daemon=True
        ).start()

    def _adapt_or_plan(self, lifetimes, sp) -> MemoryPlan:
        """Adapt a donor plan from an adjacent bucket, or plan from scratch.

        The adapted plan is never trusted on the donor's word alone: it
        is re-proven by the independent memcheck sanitizer, and any
        failure falls through to :func:`plan_memory`.
        """
        donor = self._plan_donor
        if donor is not None:
            adapted = adapt_plan(donor, lifetimes)
            if adapted is not None:
                from ..analysis.memcheck import check_memory_plan

                if check_memory_plan(self.graph, adapted, self._order).ok:
                    sp.set(cached=False, adapted=True)
                    get_metrics().counter("session.plan_adapted").inc()
                    return adapted
        sp.set(cached=False)
        return plan_memory(self.graph, self._order)

    def offer_plan_donor(self, plan: Optional[MemoryPlan]) -> None:
        """Offer a sibling bucket's memory plan as an adaptation donor.

        Serving layers call this before :meth:`resize` so the next
        re-prepare can reuse the donor's offsets (re-proven by memcheck)
        instead of re-planning.  The largest-arena donor seen wins;
        ``None`` is ignored.
        """
        if plan is None:
            return
        if self._plan_donor is None or plan.arena_bytes > self._plan_donor.arena_bytes:
            self._plan_donor = plan

    # -- resizing ----------------------------------------------------------------
    def resize(self, input_shapes: Dict[str, Sequence[int]]) -> None:
        """Change input shapes and re-run pre-inference (MNN's resizeSession).

        The paper's pre-inference relies on fixed input sizes; when the
        application *does* change them (e.g. a different camera aspect),
        the whole pipeline — shape inference, scheme selection, memory
        plan, command buffers — is recomputed once here, keeping ``run``
        pure compute afterwards.

        Resizing is **atomic** and **session-local**: shape inference runs
        on a shallow clone of the graph, so a failing resize leaves this
        session (and its current graph) fully usable at the old shapes,
        and other sessions sharing the same :class:`~repro.ir.Graph`
        object never observe the new descriptors.

        Raises:
            GraphError: for unknown inputs or shapes the graph cannot
                take; the session is unchanged when this is raised.
        """
        from ..ir.shape_inference import infer_shapes
        from ..ir.tensor import TensorDesc

        if self.sanitizer.enabled:
            self.sanitizer.probe(self, "run_state", "w")
        for name in input_shapes:
            if name not in self.graph.inputs:
                raise GraphError(f"{name!r} is not a graph input")
        # Re-infer on a clone: drop every derived descriptor, keep inputs
        # (updated) + constants.  The shared graph is never mutated.
        old_graph = self.graph
        new_graph = old_graph.shallow_clone()
        kept = {}
        for name in new_graph.inputs:
            old = old_graph.desc(name)
            shape = tuple(input_shapes.get(name, old.shape))
            kept[name] = TensorDesc(name, shape, old.dtype)
        for name in new_graph.constants:
            kept[name] = old_graph.tensor_descs[name]
        new_graph.tensor_descs = kept
        infer_shapes(new_graph)  # raises before any session state changes

        # Cached artifacts describe the old shapes; drop them for re-prepare.
        snapshot = (
            self._order, self._executions, self._placement, self.schemes,
            self.memory_plan, self._arena, self._artifacts,
            self.prepare_wall_ms, getattr(self, "primary", None),
            getattr(self, "fallback", None),
            self._fallback_execs, self._direct_runners, self._recovery,
            self._breaker,
            self._prepared, self._prepare_lock, self._lazy_active,
            self._lazy_ensure, self._plan_donor, self._plan,
        )
        self.graph = new_graph
        self._placement = {}
        self._executions = {}
        self._artifacts = None
        self._fallback_execs = {}
        self._direct_runners = {}
        self._recovery = None
        self.clock.reset()
        try:
            self._prepare()
        except BaseException:
            # Restore every piece of pre-inference state so the session
            # keeps serving at the old shapes.
            self.graph = old_graph
            (self._order, self._executions, self._placement, self.schemes,
             self.memory_plan, self._arena, self._artifacts,
             self.prepare_wall_ms, self.primary, self.fallback,
             self._fallback_execs, self._direct_runners, self._recovery,
             self._breaker,
             self._prepared, self._prepare_lock, self._lazy_active,
             self._lazy_ensure, self._plan_donor, self._plan) = snapshot
            raise

    def export_artifacts(self) -> SessionArtifacts:
        """Snapshot this session's pre-inference results for reuse.

        The returned :class:`SessionArtifacts` can be passed to a new
        ``Session`` over the same graph/config to skip the scheme search,
        backend selection and memory planning (the serving cache persists
        it to disk; see :mod:`repro.serving.cache`).
        """
        return SessionArtifacts(
            backend_kind=(
                None if isinstance(self.config.backend, Backend)
                else self.backend_kind
            ),
            schemes=dict(self.schemes),
            memory_plan=self.memory_plan,
        )

    # -- queries ---------------------------------------------------------------
    @property
    def backend_kind(self) -> str:
        return self.primary.forward_type

    def placement_summary(self) -> Dict[str, int]:
        """Count of ops per backend kind (hybrid scheduling report)."""
        counts: Dict[str, int] = {}
        for backend in self._placement.values():
            counts[backend.forward_type] = counts.get(backend.forward_type, 0) + 1
        return counts

    def scheme_summary(self) -> Dict[str, int]:
        """Count of convolutions per chosen scheme kind."""
        counts: Dict[str, int] = {}
        for decision in self.schemes.values():
            counts[decision.kind] = counts.get(decision.kind, 0) + 1
        return counts

    def modeled_cost_ms(self) -> float:
        """Eq. 4 total cost of this session's placement (modeled, not run)."""
        if self.config.device is None:
            raise BackendError("modeled cost needs a DeviceSpec")
        model = BackendCostModel(self.config.device, self.config.threads)
        total = 0.0
        for node in self._order:
            if self._lazy_active and self._lazy_ensure is not None:
                self._lazy_ensure(node)
            runner = getattr(self._executions.get(node.name), "runner", None)
            muls = runner.muls if runner is not None else node_muls(node, self.graph)
            backend = self._placement[node.name]
            kind = "cpu" if backend.forward_type in ("cpu", "sim_cpu") else backend.forward_type
            total += model.op_cost_ms(muls, kind)
        return total

    # -- inference --------------------------------------------------------------
    def _check_feeds(self, feeds: Dict[str, np.ndarray]) -> None:
        """Validate feeds against the input descriptors (shape *and* dtype)."""
        graph = self.graph
        for name in graph.inputs:
            if name not in feeds:
                raise GraphError(f"missing input {name!r}")
            desc = graph.desc(name)
            array = feeds[name]
            if tuple(array.shape) != desc.shape:
                raise GraphError(
                    f"input {name!r}: expected shape {desc.shape}, got {array.shape}"
                )
            if array.dtype != desc.dtype.np_dtype:
                raise GraphError(
                    f"input {name!r}: expected dtype {desc.dtype.value}, "
                    f"got {array.dtype}"
                )

    # -- resilient per-op execution ---------------------------------------------
    def _recovery_backend(self) -> Backend:
        """The backend behind per-op fallback executions (lazily built).

        The hybrid-placement fallback backend when it differs from the
        primary (the paper's CPU-fallback rule re-applied at execution
        time); for CPU-primary sessions, a *fresh* backend of the same
        kind — same NumPy numerics, so degraded outputs stay
        bit-identical — standing in for "restart the delegate".
        """
        if self._recovery is None:
            if self.fallback is not self.primary:
                self._recovery = self.fallback
            else:
                kind = (
                    "cpu" if self.fallback.forward_type == "cpu" else "sim_cpu"
                )
                self._recovery = self._make_backend(kind)
        return self._recovery

    def _fallback_op(
        self, node: Node, inputs: List[np.ndarray], reason: str
    ) -> List[np.ndarray]:
        """Re-dispatch one op onto the recovery backend (Parallax-style).

        The execution is created lazily per node, *preserving the scheme
        decision* of the original placement, and cached for later
        failures of the same op.  Counted in ``fallback.ops`` — except
        for breaker short-circuits, which fired no fault and are counted
        by the breaker itself.
        """
        execution = self._fallback_execs.get(node.name)
        if execution is None:
            backend = self._recovery_backend()
            execution = backend.on_create(node, self.graph, self.schemes.get(node.name))
            execution.prepare(self.graph)
            self._fallback_execs[node.name] = execution
        outputs = execution.run(inputs)
        if reason != "breaker_open":
            get_metrics().counter("fallback.ops").inc()
        if self.tracer.enabled:
            self.tracer.instant(
                "fallback.op", "session", node=node.name, reason=reason
            )
        return outputs

    def _direct_runner(self, node: Node):
        """The direct-scheme alternative for ``node`` (``None`` if none).

        Convolutions running Winograd/Strassen-flavoured schemes get a
        sliding-window (im2col) runner; Strassen GEMM/FC ops get a plain
        tiled GEMM.  Built on first use, cached (including the negative
        answer) per node.
        """
        if node.name in self._direct_runners:
            return self._direct_runners[node.name]
        from ..backends.op_runners import build_runner

        runner = None
        if node.op_type == Op.CONV2D:
            scheme = self.schemes.get(node.name)
            if scheme is not None and scheme.kind != "sliding":
                runner = build_runner(
                    node, self.graph, SchemeDecision(kind="sliding"),
                    use_strassen=False,
                )
        elif self.config.use_strassen and node.op_type in (
            Op.MATMUL, Op.FULLY_CONNECTED
        ):
            runner = build_runner(node, self.graph, None, use_strassen=False)
        self._direct_runners[node.name] = runner
        return runner

    def _numeric_fallback(
        self,
        node: Node,
        execution,
        inputs: List[np.ndarray],
        outputs: List[np.ndarray],
        injected: bool,
    ) -> List[np.ndarray]:
        """One-shot re-run of an op whose output came back non-finite.

        Eligible ops re-run via their direct scheme (the numerically
        plain path); an injected corruption on an op with no alternative
        scheme re-runs the original execution (the corruption was not
        the kernel's).  Genuine non-finite output with no alternative is
        returned as-is — the guard degrades, it never masks.
        """
        runner = self._direct_runner(node)
        if runner is not None:
            clean = runner.fn(inputs)
        elif injected:
            clean = execution.run(inputs)
        else:
            return outputs
        get_metrics().counter("fallback.numeric").inc()
        self.tracer.instant(
            "numeric_fallback", "session",
            node=node.name, op=node.op_type, injected=injected,
        )
        return clean

    def _run_resilient(
        self, node: Node, execution, inputs: List[np.ndarray], defended: bool = True
    ) -> List[np.ndarray]:
        """Run one op under the full resilience stack.

        Order of defenses: circuit breaker (skip a demoted primary) →
        fault-point evaluation + retry-with-backoff for transient
        failures → per-op fallback re-dispatch for persistent ones →
        numeric guard on the outputs.  The fallback path itself is not
        fault-injected: it is the trusted last resort, as in the paper's
        hybrid scheduling where CPU is assumed always-viable.

        ``defended=False`` (a fault plan on a ``resilience=False``
        session) fires the per-op fault points with every defense off:
        injected failures escape to the caller undefended — exactly what
        a test asserting raw failure modes wants.
        """
        plan = self.faults
        cfg = self.config
        backend = self._placement[node.name]
        scheme = self.schemes.get(node.name)
        scheme_kind = scheme.kind if scheme is not None else None
        breaker = self._breaker
        nan_fault = [False]

        def attempt() -> List[np.ndarray]:
            nan_fault[0] = False
            fault = None
            if plan.enabled:
                ctx = dict(
                    op=node.op_type, node=node.name,
                    backend=backend.forward_type, scheme=scheme_kind,
                )
                plan.fire("backend.dispatch", **ctx)
                fault = plan.fire("kernel.execute", **ctx)
            outputs = execution.run(inputs)
            if fault is not None and fault.kind == "nan":
                nan_fault[0] = True
                outputs = _poison_outputs(outputs)
            return outputs

        if not defended:
            return attempt()
        if breaker is not None and not breaker.allow():
            return self._fallback_op(node, inputs, reason="breaker_open")
        try:
            outputs = retry_transient(
                attempt,
                retries=cfg.retries,
                rng=plan.rng_for("kernel.execute"),
                label=node.name,
                transient=(TransientFault, BackendTransientError),
            )
        except (InjectedFault, BackendError) as exc:
            if breaker is not None:
                breaker.record_failure()
            outputs = self._fallback_op(node, inputs, reason=type(exc).__name__)
        else:
            if breaker is not None:
                breaker.record_success()
            if nonfinite_count(outputs):
                outputs = self._numeric_fallback(
                    node, execution, inputs, outputs, injected=nan_fault[0]
                )
        return outputs

    def run(
        self,
        feeds: Dict[str, np.ndarray],
        deadline: Optional[Deadline] = None,
    ) -> Dict[str, np.ndarray]:
        """Execute one inference.

        Args:
            feeds: input name -> array, matching the graph input
                descriptors exactly — shape and dtype (a float64 feed to a
                float32 input raises rather than silently widening every
                kernel downstream).
            deadline: optional remaining-budget deadline for this run;
                checked before every operator, so a stalled kernel makes
                the *next* checkpoint raise instead of the request
                hanging unboundedly.

        Returns:
            output name -> array.

        Raises:
            GraphError: on missing inputs or shape/dtype mismatches.
            DeadlineExceeded: when ``deadline``'s budget runs out.
        """
        return self._run(feeds, self.tracer, deadline)

    def run_profiled(
        self, feeds: Dict[str, np.ndarray]
    ) -> Tuple[Dict[str, np.ndarray], List["OpProfile"]]:
        """Like :meth:`run` but also returns a per-operator time profile.

        The profile is a thin view over the run's ``"op"``-category trace
        spans.  With ``parallel_branches`` active, the run goes through
        the thread-pool path and every profile row carries the worker
        thread id that executed the operator (``OpProfile.thread``).
        When the session has no enabled tracer configured, an ephemeral
        one records just this run.
        """
        tracer = self.tracer if self.tracer.enabled else Tracer()
        mark = tracer.mark()
        outputs = self._run(feeds, tracer, None)
        profile = [
            OpProfile(
                node=span.name,
                op_type=span.args["op"],
                backend=span.args["backend"],
                wall_ms=span.dur_ms,
                virtual_ms=span.args.get("virtual_ms", 0.0),
                thread=span.tid,
            )
            for span in tracer.spans_since(mark)
            if span.category == "op"
        ]
        return outputs, profile

    def _run(
        self,
        feeds: Dict[str, np.ndarray],
        tracer: Tracer,
        deadline: Optional[Deadline],
    ) -> Dict[str, np.ndarray]:
        """Walk the step plan once: the body of :meth:`run` and :meth:`run_profiled`."""
        if self.sanitizer.enabled:
            # A session is single-checkout state: concurrent (or merely
            # unsynchronized cross-thread) run/run and run/resize pairs
            # clobber the clock, arena and last_run.  One write probe per
            # run makes the detector prove the checkout discipline — the
            # pool's queue handoff provides the ordering edge.
            self.sanitizer.probe(self, "run_state", "w")
        if self.config.check_feeds:
            self._check_feeds(feeds)
        plan = self._plan
        start_wall = time.perf_counter()
        start_virtual = self.clock.now_ms
        env: List[Optional[np.ndarray]] = [feeds[name] for name in plan.feeds]
        env.extend([None] * (len(plan.names) - len(env)))
        counts = [0, 0]  # copies, copy bytes
        step_fn = self._step_fn(plan, tracer, deadline, counts)

        for backend in plan.hooks:
            backend.on_execute_begin()
        if plan.parallel:
            walk_parallel(
                plan, env, step_fn, threads=self.config.threads,
                sanitizer=self.sanitizer, owner=self,
            )
        else:
            walk(plan, env, step_fn)
        for backend in plan.hooks:
            backend.on_execute_end()

        end_wall = time.perf_counter()
        copies, copy_bytes = counts
        if tracer.enabled:
            span_args = (
                dict(parallel=True, threads=self.config.threads) if plan.parallel
                else dict(parallel=False, copies=copies)
            )
            tracer.record(
                "session.run", "session", start_wall, end_wall,
                backend=self.backend_kind, **span_args,
            )
        self.last_run = RunStats(
            wall_ms=(end_wall - start_wall) * 1000.0,
            virtual_ms=self.clock.now_ms - start_virtual,
            copies=copies,
            copy_bytes=copy_bytes,
        )
        metrics = get_metrics()
        metrics.counter("session.runs").inc()
        metrics.histogram("session.run_ms").observe(self.last_run.wall_ms)
        results = {}
        for name, slot, detach in plan.outputs:
            value = None if slot is None else env[slot]
            if value is not None:
                # Detach arena-landed outputs: the next run reuses the slot.
                results[name] = value.copy() if detach else value
        if len(results) < len(plan.outputs):
            missing = [name for name, _, _ in plan.outputs if name not in results]
            raise GraphError(f"outputs never produced: {missing}")
        return results

    def _step_fn(
        self,
        plan: StepPlan,
        tracer: Tracer,
        deadline: Optional[Deadline],
        counts: List[int],
    ) -> Optional[StepFn]:
        """Compose this run's per-step function; ``None`` selects the plain loop.

        The flags are read here, once per run — a tracer or fault plan
        can be switched on between runs.  Each active concern wraps the
        one inside it, outermost first: deadline check, lazy ensure, copy
        edges, acquire/release, arena landing, trace record, run_op.
        """
        resilient = self._resilient
        faulted = self.faults.enabled
        ensure = self._lazy_ensure if self._lazy_active else None
        if plan.plain is not None and not (
            plan.parallel or tracer.enabled or resilient or faulted
            or deadline is not None
        ):
            return None
        # Resolved per step, not bound: lazy prepare creates executions
        # while runs are already walking the plan.
        executions = self._executions
        if resilient or faulted:
            run_resilient = self._run_resilient

            def step_fn(step, inputs):
                node = step.node
                return run_resilient(node, executions[node.name], inputs, resilient)
        else:
            def step_fn(step, inputs):
                return executions[step.node.name].run(inputs)

        if tracer.enabled:
            step_fn = traced(step_fn, tracer, self.clock)
        if self.config.arena_execution and self._arena is not None:
            step_fn = landed(step_fn, self._arena)
        if not self.config.decouple:
            step_fn = interleaved(step_fn)
        if plan.copies:
            step_fn = copying(step_fn, counts)
        if ensure is not None:
            step_fn = ensuring(step_fn, ensure)
        if deadline is not None:
            step_fn = bounded(step_fn, deadline)
        return step_fn
