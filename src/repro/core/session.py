"""Inference sessions: pre-inference once, run many times (paper Section 3.2).

``Session`` performs the paper's full pre-inference pipeline at creation:

1. **Scheme selection** — every convolution gets its optimal algorithm from
   the scheme pool via the Eq. 2/3 cost search; on the real CPU a Winograd
   pick is kept only where this host measures it faster than sliding
   window (:func:`repro.core.autotune.keep_faster_winograd`).
2. **Backend selection & hybrid placement** — the primary backend is chosen
   (optionally automatically, by minimizing Eq. 4 total cost); ops the
   primary backend does not support are placed on the CPU fallback, with
   inter-backend copies inserted automatically.
3. **Preparation/execution decoupling** — executions are created and
   prepared (Winograd kernels pre-transformed, GPU command buffers
   pre-recorded), and the memory planner lays every activation out in one
   arena (Figure 3).
4. **Step plan** — the run itself is compiled: every feed, activation and
   output gets an integer slot, and each operator becomes a step holding
   its callable, its input/output slots and whatever else is decidable
   before the first feed (copy edges, interleaved acquire/release).  The
   plan allocates the arena and one kernel scratch buffer, and binds each
   fp32 CNN runner to its output's slot and to the scratch: the arena is
   the buffer runs write into.

``run`` is then pure compute: no scheme search, no activation allocation
in the CNN runners, no command recording, no graph analysis.  One walker
executes the plan, serially in topological order.  With nothing switched
on it is a plain loop over ``fn([env[i] for i in ins])``; otherwise the
same steps run through per-step wrappers composed once per run from the
concerns that are active (deadline, copies, interleaved memory, tracing,
fault injection and resilience).  ``run_profiled`` is ``run`` with an ephemeral tracer.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..backends.base import Backend, BackendError
from ..backends.cpu import CPUBackend
from ..devices.specs import DeviceSpec, GpuApi
from ..faults import InjectedFault, retry_transient
from ..faults.resilience import CircuitBreaker, Deadline
from ..ir.graph import Graph, GraphError, Node
from ..ir.ops import Op
from ..kernels import nonfinite_count
from ..kernels.winograd import (
    WinogradTransforms, generate_transforms, preload_transforms,
    transform_cache_entries, transforms_from_json, transforms_to_json,
)
from ..obs.metrics import get_metrics
from ..obs.tracer import Tracer
from ..runtime import Runtime
from ..sim.clock import VirtualClock
from .cost import BackendCostModel, node_muls
from .autotune import keep_faster_winograd
from .memory import MemoryPlan, compute_lifetimes, plan_memory
from .plan import StepFn, StepPlan, bounded, build_plan, copying, interleaved, traced, walk
from .schemes import SchemeDecision, select_graph_schemes

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
            ``"sim_cpu"`` and the device's GPU APIs instead of ``backend``.
        scheme_overrides: per-conv-node scheme decisions that take
            precedence over the cost-model search and over measurement —
            typically ``select_graph_schemes(graph)``, to run the modeled
            picks on the ``"cpu"`` backend, or hand-built decisions that
            pin a layer to one scheme.
        paranoid: run the independent memory-plan sanitizer
            (:func:`repro.analysis.check_memory_plan`) on every plan this
            session builds, so a planner bug fails loudly at prepare time.
        check_feeds: validate every feed's shape and dtype against the
            input descriptors on each run.  On by default; tight serving
            loops that construct feeds programmatically from already-
            validated buffers (``repro.genai``'s per-token decode steps)
            may turn it off to shave fixed overhead from ~ms-scale runs.
        breaker_cooldown_s: how long an open breaker short-circuits the
            primary before probing it again.  The resilient executor
            retries a transient op failure 3 times before falling back,
            and the breaker opens after 3 consecutive failures (the
            :func:`~repro.faults.retry_transient` and
            :class:`~repro.faults.resilience.CircuitBreaker` defaults).
    """

    backend: Union[str, Backend] = "cpu"
    device: Optional[DeviceSpec] = None
    threads: int = 4
    decouple: bool = True
    use_strassen: bool = True
    auto_backend: bool = False
    scheme_overrides: Optional[Dict[str, SchemeDecision]] = None
    paranoid: bool = False
    check_feeds: bool = True
    breaker_cooldown_s: float = 0.25


@dataclass
class SessionArtifacts:
    """Reusable pre-inference results (paper Section 3.2's outputs).

    Everything here is a pure function of (graph structure, shapes,
    config) — not of weight values or run-time feeds — so it can be
    computed once, persisted, and replayed to skip the scheme search,
    Eq. 4 backend selection, Winograd transform generation and memory
    planning on the next session over the same graph.  Produced by
    :meth:`Session.export_artifacts`, persisted/keyed by
    :class:`repro.serving.PreInferenceCache`, consumed via
    ``Session(graph, config, artifacts=...)``.

    A session never trusts artifacts blindly: scheme coverage and the
    memory plan are cheaply re-validated against the live graph, and any
    mismatch falls back to recomputation (stale-cache tolerance).
    """

    backend_kind: Optional[str] = None
    #: ``None`` means *absent* (never captured — the session re-runs the
    #: scheme search); ``{}`` means *captured and empty* (a conv-free graph
    #: needs no schemes, and that is full coverage).  The distinction
    #: survives JSON (``null`` vs ``{}``).
    schemes: Optional[Dict[str, SchemeDecision]] = None
    memory_plan: Optional[MemoryPlan] = None
    #: The Winograd transforms the schemes use, keyed like the kernel-level
    #: transform cache (``(n, k, f_num, f_den)``); the session preloads them
    #: so building a Winograd runner is a dict lookup, not rational
    #: Gaussian elimination.
    winograd: Dict[Tuple[int, int, int, int], WinogradTransforms] = field(
        default_factory=dict
    )

    def to_json(self) -> Dict[str, object]:
        """JSON-serializable form (persisted by the serving cache)."""
        return {
            "backend_kind": self.backend_kind,
            "schemes": (
                None if self.schemes is None
                else {name: d.to_json() for name, d in self.schemes.items()}
            ),
            "memory_plan": (
                self.memory_plan.to_json() if self.memory_plan is not None else None
            ),
            "winograd": transforms_to_json(self.winograd),
        }

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "SessionArtifacts":
        """Inverse of :meth:`to_json`; decodes every field.

        Raises:
            ValueError, KeyError, TypeError: on a malformed payload.
        """
        raw_schemes = data["schemes"]
        plan = data["memory_plan"]
        return cls(
            backend_kind=data["backend_kind"],
            schemes=(
                None if raw_schemes is None
                else {
                    str(name): SchemeDecision.from_json(d)
                    for name, d in dict(raw_schemes).items()
                }
            ),
            memory_plan=MemoryPlan.from_json(plan) if plan is not None else None,
            winograd=transforms_from_json(data["winograd"]),
        )


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
    operator, in execution order.
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
        self._plan: Optional[StepPlan] = None
        self._artifacts = artifacts
        self.prepare_wall_ms = 0.0
        self.last_run: Optional[RunStats] = None
        # Resilient-executor state (see _run_resilient): lazily created
        # fallback executions / direct-scheme runners, the recovery
        # backend behind them, and the primary's circuit breaker.
        self._fallback_execs: Dict[str, object] = {}
        self._direct_runners: Dict[str, object] = {}
        self._recovery: Optional[Backend] = None
        self._breaker: Optional[CircuitBreaker] = None
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
                self._order = [
                    n for n in self.graph.validate()
                    if n.op_type not in (Op.INPUT, Op.CONSTANT)
                ]

            artifacts = self._artifacts
            if artifacts is not None and artifacts.winograd:
                # Cached transforms: building a Winograd runner below
                # becomes a lookup.  In-process entries win.
                preload_transforms(artifacts.winograd)

            # (1) computation scheme selection (overrides win).
            # Cached decisions replace the Eq. 2/3 search when they cover every
            # conv in the live graph; partial/stale coverage falls back.  On
            # the real CPU a modeled Winograd pick stands only if this host
            # measures it faster than sliding window.
            with tracer.span("scheme_selection", "pre_inference") as sp:
                cached_schemes = artifacts.schemes if artifacts is not None else None
                conv_nodes = {n.name for n in self._order if n.op_type == Op.CONV2D}
                probes = 0
                if cached_schemes is not None and conv_nodes <= set(cached_schemes):
                    self.schemes = dict(cached_schemes)
                    sp.set(cached=True)
                else:
                    self.schemes = select_graph_schemes(self.graph)
                    sp.set(cached=False)
                    if cfg.backend == "cpu" and not cfg.auto_backend:
                        probes = keep_faster_winograd(
                            self.graph, self.schemes, skip=cfg.scheme_overrides or ()
                        )
                if cfg.scheme_overrides:
                    self.schemes.update(cfg.scheme_overrides)
                sp.set(convs=len(conv_nodes), probes=probes)

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
                            primary_kind = choose_backend(
                                self.graph, cfg.device, cfg.threads,
                                ("sim_cpu",) + cfg.device.gpu_apis,
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
                    cooldown_s=cfg.breaker_cooldown_s,
                    name=self.primary.forward_type,
                )

            with tracer.span("create_executions", "pre_inference", ops=len(self._order)):
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
                    # Creation is where the real cold work lives on the CPU
                    # backend (Winograd weight pre-transform happens in
                    # build_runner).
                    self._executions[node.name] = backend.on_create(
                        node, self.graph, self.schemes.get(node.name)
                    )

            # (3) decoupling: prepare executions + plan memory up front
            if cfg.decouple:
                with tracer.span("prepare_executions", "pre_inference"):
                    for node in self._order:
                        self._executions[node.name].prepare(self.graph)
                with tracer.span("memory_plan", "pre_inference") as sp:
                    cached_plan = (
                        artifacts.memory_plan if artifacts is not None else None
                    )
                    # A cached plan is written through, so its offsets are
                    # proven sound before it is trusted; else recompute.
                    if (
                        cached_plan is not None
                        and cached_plan.matches(compute_lifetimes(self.graph, self._order))
                        and cached_plan.sound()
                    ):
                        self.memory_plan = cached_plan
                        sp.set(cached=True)
                    else:
                        self.memory_plan = plan_memory(self.graph, self._order)
                        sp.set(cached=False)
                    sp.set(arena_bytes=self.memory_plan.arena_bytes)
                if cfg.paranoid:
                    from ..analysis.memcheck import check_memory_plan

                    with tracer.span("memcheck", "pre_inference"):
                        check_memory_plan(
                            self.graph, self.memory_plan, self._order
                        ).raise_if_failed()
            self._plan = build_plan(
                self.graph, self._order, self._placement, self._executions,
                decouple=cfg.decouple, memory=self.memory_plan,
            )
            self.prepare_wall_ms = (time.perf_counter() - start) * 1000.0
            prep.set(wall_ms=self.prepare_wall_ms)
        metrics = get_metrics()
        metrics.counter("session.prepares").inc()
        metrics.histogram("session.prepare_ms").observe(self.prepare_wall_ms)

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
            self.memory_plan, self._artifacts,
            self.prepare_wall_ms, getattr(self, "primary", None),
            getattr(self, "fallback", None),
            self._fallback_execs, self._direct_runners, self._recovery,
            self._breaker, self._plan,
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
             self.memory_plan, self._artifacts,
             self.prepare_wall_ms, self.primary, self.fallback,
             self._fallback_execs, self._direct_runners, self._recovery,
             self._breaker, self._plan) = snapshot
            raise

    def export_artifacts(self) -> SessionArtifacts:
        """Snapshot this session's pre-inference results for reuse.

        The returned :class:`SessionArtifacts` can be passed to a new
        ``Session`` over the same graph/config to skip the scheme search,
        backend selection, Winograd transform generation and memory
        planning (the serving cache persists it to disk; see
        :mod:`repro.serving.cache`).
        """
        used = set()
        for node in self._order:
            decision = self.schemes.get(node.name)
            if decision is not None and decision.kind == "winograd":
                # One transform per axis; a k = 1 axis has identities.
                for n, k in zip(decision.tile, node.attrs["kernel"]):
                    if k > 1:
                        generate_transforms(n, k)  # memoized: normally a lookup
                        used.add((n, k))
        return SessionArtifacts(
            backend_kind=(
                None if isinstance(self.config.backend, Backend)
                else self.backend_kind
            ),
            schemes=dict(self.schemes),
            memory_plan=self.memory_plan,
            winograd={
                key: tr for key, tr in transform_cache_entries().items()
                if key[:2] in used
            },
        )

    # -- queries ---------------------------------------------------------------
    @property
    def backend_kind(self) -> str:
        return self.primary.forward_type

    @property
    def arena_bound(self) -> int:
        """How many planned tensors runs write into the arena (0 when
        preparation and execution are not decoupled)."""
        return self._plan.bound

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
            runner = getattr(self._executions.get(node.name), "runner", None)
            muls = runner.muls if runner is not None else node_muls(node, self.graph)
            backend = self._placement[node.name]
            kind = "cpu" if backend.forward_type in ("cpu", "sim_cpu") else backend.forward_type
            total += model.op_cost_ms(muls, kind)
        return total

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

        Winograd convolutions get a sliding-window (im2col) runner;
        Strassen GEMM ops — 1x1 convolutions and MatMul — get the same
        GEMM as a plain tiled one (FC never runs Strassen).  Built on first use, cached (including
        the negative answer) per node.
        """
        if node.name in self._direct_runners:
            return self._direct_runners[node.name]
        from ..backends.op_runners import build_runner

        runner = None
        if node.op_type == Op.CONV2D:
            scheme = self.schemes.get(node.name)
            if scheme is not None and scheme.kind != "sliding":
                direct = scheme if scheme.kind == "gemm1x1" else SchemeDecision(kind="sliding")
                runner = build_runner(node, self.graph, direct, use_strassen=False)
        elif self.config.use_strassen and node.op_type == Op.MATMUL:
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
        self, node: Node, execution, inputs: List[np.ndarray]
    ) -> List[np.ndarray]:
        """Run one op under the full resilience stack.

        Order of defenses: circuit breaker (skip a demoted primary) →
        fault-point evaluation + retry-with-backoff for transient
        failures → per-op fallback re-dispatch for persistent ones →
        numeric guard on the outputs.  The fallback path itself is not
        fault-injected: it is the trusted last resort, as in the paper's
        hybrid scheduling where CPU is assumed always-viable.
        """
        plan = self.faults
        backend = self._placement[node.name]
        scheme = self.schemes.get(node.name)
        scheme_kind = scheme.kind if scheme is not None else None
        breaker = self._breaker
        nan_fault = [False]

        def attempt() -> List[np.ndarray]:
            nan_fault[0] = False
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

        if breaker is not None and not breaker.allow():
            return self._fallback_op(node, inputs, reason="breaker_open")
        try:
            outputs = retry_transient(
                attempt,
                rng=plan.rng_for("kernel.execute"),
                label=node.name,
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
        spans.  When the session has no enabled tracer configured, an
        ephemeral one records just this run.  A shared tracer (every
        session of an :class:`~repro.serving.Engine` gets one) also holds
        other threads' spans from the same window; the run records its
        op spans on the calling thread, so only that thread's rows count.
        """
        tracer = self.tracer if self.tracer.enabled else Tracer()
        mark = tracer.mark()
        outputs = self._run(feeds, tracer, None)
        tid = threading.get_ident()
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
            if span.category == "op" and span.tid == tid
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
            # clobber the clock and last_run.  One write probe per
            # run makes the detector prove the checkout discipline — the
            # pool's queue handoff provides the ordering edge.
            self.sanitizer.probe(self, "run_state", "w")
        if self.config.check_feeds:
            self.graph.check_feeds(feeds)
        plan = self._plan
        start_wall = time.perf_counter()
        start_virtual = self.clock.now_ms
        env: List[Optional[np.ndarray]] = [feeds[name] for name in plan.feeds]
        env.extend([None] * (len(plan.names) - len(env)))
        counts = [0, 0]  # copies, copy bytes
        step_fn = self._step_fn(plan, tracer, deadline, counts)

        for backend in plan.hooks:
            backend.on_execute_begin()
        walk(plan, env, step_fn)
        for backend in plan.hooks:
            backend.on_execute_end()

        end_wall = time.perf_counter()
        copies, copy_bytes = counts
        if tracer.enabled:
            tracer.record(
                "session.run", "session", start_wall, end_wall,
                backend=self.backend_kind, copies=copies,
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
        for name, slot in plan.outputs:
            value = None if slot is None else env[slot]
            if value is not None:
                results[name] = value
        if len(results) < len(plan.outputs):
            missing = [name for name, _ in plan.outputs if name not in results]
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
        one inside it, outermost first: deadline check, copy edges,
        acquire/release, trace record, run_op.
        """
        resilient = self.faults.enabled
        if plan.plain is not None and not (
            tracer.enabled or resilient or deadline is not None
        ):
            return None
        # Resolved per step, not bound, so a patched ``execution.run`` or
        # ``runner.fn`` takes effect on every wrapped path.
        executions = self._executions
        if resilient:
            run_resilient = self._run_resilient

            def step_fn(step, inputs):
                node = step.node
                return run_resilient(node, executions[node.name], inputs)
        else:
            def step_fn(step, inputs):
                return executions[step.node.name].run(inputs)

        if tracer.enabled:
            step_fn = traced(step_fn, tracer, self.clock)
        if not self.config.decouple:
            step_fn = interleaved(step_fn)
        if plan.copies:
            step_fn = copying(step_fn, counts)
        if deadline is not None:
            step_fn = bounded(step_fn, deadline)
        return step_fn
