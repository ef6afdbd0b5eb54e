"""Persistent pre-inference cache (the serving layer's cold-start killer).

The paper's pre-inference (Section 3.2) — scheme search, Eq. 4 backend
selection, Winograd transform generation, memory planning — dominates
session creation, and *Boosting DNN Cold Inference on Edge Devices* shows
exactly this cost dominating cold start in production engines.  All of it
is a pure function of (graph structure, shapes, config), so this module
persists the results to disk and replays them: a warm process creates
sessions in a fraction of the cold ``prepare_wall_ms``.

Cache key
---------
``sha256`` over:

* the cache format version (bumping it invalidates every entry);
* :func:`repro.ir.graph_signature` — graph structure, every tensor
  descriptor (shapes + dtypes) and a weight fingerprint, so editing the
  model invalidates its entries;
* a config fingerprint — every ``SessionConfig`` field that influences
  pre-inference decisions (backend, device, threads, decoupling,
  Strassen, scheme tunables, auto-backend candidates);
* optional extra input shapes (used by the batcher: one entry per
  micro-batch bucket).

Entries are single JSON files written atomically (tmp + rename), so
concurrent warmers cannot corrupt each other; a corrupt or stale entry
deserializes to a miss, never an error.  The cache directory defaults to
``$REPRO_CACHE_DIR``, then ``~/.cache/repro``.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..backends.base import Backend
from ..core.memory import MemoryPlan
from ..core.schemes import SchemeDecision
from ..core.session import Session, SessionArtifacts, SessionConfig
from ..faults import TransientFault, retry_transient
from ..ir.graph import Graph
from ..ir.serialization import graph_signature
from ..kernels import winograd as winograd_mod
from ..obs.metrics import get_metrics
from ..runtime import Runtime

__all__ = [
    "CACHE_ENV_VAR",
    "CACHE_VERSION",
    "PreInferenceArtifacts",
    "PreInferenceCache",
    "default_cache_dir",
    "warm_session",
]

CACHE_ENV_VAR = "REPRO_CACHE_DIR"
# 2: keys carry the quantization fingerprint (tensor dtypes + scale
# digest), so a graph's int8 and fp variants can never collide.
CACHE_VERSION = 2


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


@dataclass
class PreInferenceArtifacts:
    """Everything a warm process needs to skip pre-inference work.

    Extends :class:`repro.core.SessionArtifacts` (the in-process form)
    with the globally cached Winograd transform matrices and bookkeeping
    for cache-hit statistics.
    """

    backend_kind: Optional[str] = None
    #: ``None`` means *absent* (never captured — the warm session must
    #: re-run the scheme search); ``{}`` means *captured and empty* (a
    #: conv-free graph needs no schemes, and that is full coverage).  The
    #: distinction survives JSON (``null`` vs ``{}``) and ``apply()``.
    schemes: Optional[Dict[str, SchemeDecision]] = None
    memory_plan: Optional[MemoryPlan] = None
    winograd: List[Dict[str, Any]] = field(default_factory=list)
    cold_prepare_ms: float = 0.0

    @classmethod
    def from_session(cls, session: Session) -> "PreInferenceArtifacts":
        """Snapshot a (typically cold) session's pre-inference results."""
        base = session.export_artifacts()
        return cls(
            backend_kind=base.backend_kind,
            schemes=dict(base.schemes) if base.schemes is not None else None,
            memory_plan=base.memory_plan,
            winograd=winograd_mod.transforms_to_json(
                winograd_mod.transform_cache_entries()
            ),
            cold_prepare_ms=session.prepare_wall_ms,
        )

    def apply(self) -> SessionArtifacts:
        """Pre-seed process-global state and return per-session artifacts.

        Loads the persisted Winograd matrices into the kernel-level
        transform cache (so ``generate_transforms`` is a dict lookup, not
        rational Gaussian elimination), then hands back the session-level
        artifacts for ``Session(graph, config, artifacts=...)``.
        """
        if self.winograd:
            winograd_mod.preload_transforms(
                winograd_mod.transforms_from_json(self.winograd)
            )
        return SessionArtifacts(
            backend_kind=self.backend_kind,
            schemes=dict(self.schemes) if self.schemes is not None else None,
            memory_plan=self.memory_plan,
        )

    def to_json(self) -> Dict[str, Any]:
        return {
            "version": CACHE_VERSION,
            "backend_kind": self.backend_kind,
            "schemes": (
                None if self.schemes is None
                else {name: d.to_json() for name, d in self.schemes.items()}
            ),
            "memory_plan": (
                self.memory_plan.to_json() if self.memory_plan is not None else None
            ),
            "winograd": self.winograd,
            "cold_prepare_ms": self.cold_prepare_ms,
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "PreInferenceArtifacts":
        if data.get("version") != CACHE_VERSION:
            raise ValueError(f"cache entry version {data.get('version')!r} != {CACHE_VERSION}")
        plan = data.get("memory_plan")
        raw_schemes = data.get("schemes")
        return cls(
            backend_kind=data.get("backend_kind"),
            schemes=(
                None if raw_schemes is None
                else {
                    str(name): SchemeDecision.from_json(d)
                    for name, d in dict(raw_schemes).items()
                }
            ),
            memory_plan=MemoryPlan.from_json(plan) if plan is not None else None,
            winograd=list(data.get("winograd", [])),
            cold_prepare_ms=float(data.get("cold_prepare_ms", 0.0)),
        )


def _config_fingerprint(config: SessionConfig) -> Dict[str, Any]:
    """The SessionConfig fields that influence pre-inference decisions."""
    backend = config.backend
    sc = config.scheme_config
    return {
        "backend": (
            f"instance:{backend.forward_type}" if isinstance(backend, Backend)
            else backend
        ),
        "device": config.device.name if config.device is not None else None,
        "threads": config.threads,
        "decouple": config.decouple,
        "use_strassen": config.use_strassen,
        "auto_backend": config.auto_backend,
        "candidate_backends": list(config.candidate_backends),
        "scheme_config": [
            list(sc.winograd_candidates), sc.max_tile, sc.transform_weight,
            sc.sliding_weight, sc.gemm_efficiency_u0, sc.int8_gemm_speedup,
        ],
        "overrides": (
            sorted(config.scheme_overrides) if config.scheme_overrides else None
        ),
        "paranoid": config.paranoid,
    }


class PreInferenceCache:
    """File-backed store of :class:`PreInferenceArtifacts`, one JSON per key.

    Failure semantics (the resilience contract): a *missing* entry is a
    miss; an *unreadable* entry (truncated JSON, wrong signature, torn
    write) is also a miss but additionally counts in ``cache.corrupt``
    and is unlinked on the spot (``cache.quarantined``), so later loads
    miss cleanly instead of re-parsing the same carcass — the cache
    degrades to recompute, never errors.  An active
    :class:`~repro.faults.FaultPlan` can inject ``transient`` IO errors
    (retried by the engine), ``corrupt`` reads and ``torn`` writes at the
    ``cache.load`` / ``cache.store`` fault points.
    """

    def __init__(
        self,
        root: Optional[Union[str, Path]] = None,
        *,
        runtime: Optional[Runtime] = None,
    ) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        runtime = runtime if runtime is not None else Runtime.resolve()
        self.metrics = runtime.metrics
        self.faults = runtime.faults
        self.sanitizer = runtime.sanitizer

    # -- keying ------------------------------------------------------------
    def key(
        self,
        graph: Graph,
        config: SessionConfig,
        input_shapes: Optional[Dict[str, Sequence[int]]] = None,
    ) -> str:
        """Deterministic cache key for (graph, config[, resized shapes]).

        Includes the quantization fingerprint (every tensor's dtype plus a
        digest of the stamped scale attrs): ``graph_signature`` alone is
        dtype-blind for constants, so without this a quantized graph and
        its fp original could share a key — and a cached fp memory plan
        replayed against int8 tensors mis-sizes every weight buffer.
        """
        from ..quant import quantization_fingerprint

        h = hashlib.sha256()
        payload = {
            "cache_version": CACHE_VERSION,
            "graph": graph_signature(graph),
            "quant": quantization_fingerprint(graph),
            "config": _config_fingerprint(config),
            "input_shapes": (
                {name: list(shape) for name, shape in sorted(input_shapes.items())}
                if input_shapes else None
            ),
        }
        h.update(json.dumps(payload, separators=(",", ":"), sort_keys=True).encode())
        return h.hexdigest()

    def path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    # -- IO ----------------------------------------------------------------
    def load(self, key: str) -> Optional[PreInferenceArtifacts]:
        """The artifacts for ``key``, or ``None`` (missing/corrupt/stale).

        Raises:
            TransientFault: only under an active fault plan injecting a
                transient IO error (the engine retries these).
        """
        if self.faults.enabled:
            # ``transient`` raises from fire(); ``corrupt`` makes this
            # load behave as if the entry were unreadable.
            fault = self.faults.fire("cache.load", key=key)
            if fault is not None and fault.kind == "corrupt":
                self.metrics.counter("cache.corrupt").inc()
                self.metrics.counter("fallback.cache").inc()
                return None
        if self.sanitizer.enabled:
            # Entries are immutable-once-written via atomic rename; the
            # shared "fs.atomic" lockset encodes that readers and the
            # renaming writer can never observe a torn state.
            self.sanitizer.probe(self, f"entry.{key}", "r", lockset=("fs.atomic",))
        path = self.path(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            return PreInferenceArtifacts.from_json(data)
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError, TypeError):
            # Present but unreadable: truncated/torn/stale entry.  Purely
            # observational (outside the fault reconciliation equation —
            # an injected *torn* write was already accounted at the
            # store-side fire).  Unlink it so every later load is a clean
            # miss instead of re-parsing the same carcass: leaving it in
            # place made *each* warm process pay a parse-and-fail and
            # re-count ``cache.corrupt``, and a store that never came
            # (read-only consumers) left the corruption permanent.
            self.metrics.counter("cache.corrupt").inc()
            try:
                path.unlink()
                self.metrics.counter("cache.quarantined").inc()
            except OSError:
                pass  # raced with a healing store or no permission
            return None

    def store(self, key: str, artifacts: PreInferenceArtifacts) -> Path:
        """Atomically persist ``artifacts`` under ``key``; returns the path.

        Raises:
            TransientFault: only under an active fault plan injecting a
                transient IO error (the engine retries these).
        """
        if self.sanitizer.enabled:
            self.sanitizer.probe(self, f"entry.{key}", "w", lockset=("fs.atomic",))
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path(key)
        payload = json.dumps(artifacts.to_json(), separators=(",", ":"))
        if self.faults.enabled:
            fault = self.faults.fire("cache.store", key=key)
            if fault is not None and fault.kind == "torn":
                # Simulate a crash mid-write that bypassed the atomic
                # rename: a truncated entry lands at the final path.  The
                # degradation this causes (a later load treats it as a
                # miss and recomputes) is accounted *now* — the later
                # read may happen in a different process entirely.
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(payload[: max(1, len(payload) // 2)])
                self.metrics.counter("fallback.cache").inc()
                return path
        fd, tmp = tempfile.mkstemp(dir=str(self.root), suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(payload)
            os.replace(tmp, path)  # atomic on POSIX: readers see old or new
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    def entries(self) -> List[str]:
        """Keys currently present on disk."""
        if not self.root.is_dir():
            return []
        return sorted(p.stem for p in self.root.glob("*.json"))

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for path in list(self.root.glob("*.json")) if self.root.is_dir() else []:
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed


def warm_session(
    graph: Graph,
    config: SessionConfig,
    cache: Optional[PreInferenceCache],
    key: Optional[str],
    runtime: Runtime,
    retries: int = 3,
    donor: Optional[MemoryPlan] = None,
) -> Tuple[Session, bool]:
    """Build one session, warmed through ``cache`` under the caller's ``key``.

    Applies the cached artifacts on a hit and stores the new session's on
    a miss.  Persistent transient cache IO degrades to cacheless for this
    call (``fallback.cache``): the cache can never take down session
    creation.  ``donor`` is an adjacent bucket's memory plan the session
    adapts (re-proven by memcheck) before planning from scratch.  Returns
    the session and whether the cache hit.
    """
    tracer = runtime.tracer

    def cache_io(fn, label: str):
        try:
            return retry_transient(
                fn, retries=retries, rng=runtime.faults.rng_for(label), label=label
            )
        except TransientFault:
            # Like every reconciliation counter, this lands in the
            # process-wide registry (the one the fault plan itself
            # increments ``faults.injected`` in).
            get_metrics().counter("fallback.cache").inc()
            return None

    artifacts = SessionArtifacts()
    hit = False
    if cache is not None:
        with tracer.span("cache.lookup", "serving"):
            cached = cache_io(lambda: cache.load(key), "cache.load")
        if cached is not None:
            artifacts = cached.apply()
            hit = True
        tracer.instant("cache.hit" if hit else "cache.miss", "serving", key=key)
    artifacts.plan_donor = donor
    session = Session(graph, config, artifacts, runtime=runtime)
    if cache is not None and not hit:
        with tracer.span("cache.store", "serving"):
            cache_io(
                lambda: cache.store(key, PreInferenceArtifacts.from_session(session)),
                "cache.store",
            )
    return session, hit
