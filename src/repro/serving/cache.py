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
* a config fingerprint — every ``SessionConfig`` field except the
  run-time-only :data:`RUN_TIME_ONLY_FIELDS`, scheme overrides as their
  full decisions, plus the default scheme tunables;
* the host fingerprint's key
  (:func:`repro.devices.host_fingerprint`): the cached schemes hold the
  Winograd-vs-sliding verdicts this host measured, so another machine
  misses and measures its own.

A session resized away from the graph's native shapes re-plans instead
of consulting the cache.

Entry
-----
One JSON file per key: :meth:`repro.core.SessionArtifacts.to_json` plus
the format ``version`` and a ``sha256`` digest of everything else.  Files
are written atomically (tmp + rename), so concurrent warmers cannot
corrupt each other.  ``load`` checks the digest and decodes every field,
Winograd matrices included, before returning: a torn, stale, edited or
otherwise corrupt entry is a miss, never an error and never wrong
numbers.  The cache directory defaults to ``$REPRO_CACHE_DIR``, then
``~/.cache/repro``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..backends.base import Backend
from ..core.schemes import SchemeConfig
from ..core.session import Session, SessionArtifacts, SessionConfig
from ..devices.host import host_fingerprint
from ..faults import TransientFault, retry_transient
from ..ir.graph import Graph
from ..ir.serialization import graph_signature
from ..obs.metrics import get_metrics
from ..runtime import Runtime

__all__ = [
    "CACHE_ENV_VAR",
    "CACHE_VERSION",
    "PreInferenceCache",
    "RUN_TIME_ONLY_FIELDS",
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


def _digest(entry: Dict[str, Any]) -> str:
    """sha256 over an entry's canonical JSON (what ``sha256`` must equal)."""
    text = json.dumps(entry, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


#: SessionConfig fields that steer runs but no pre-inference product;
#: every other field is part of the cache key.
RUN_TIME_ONLY_FIELDS = frozenset({"check_feeds", "breaker_cooldown_s"})


def _config_fingerprint(config: SessionConfig) -> Dict[str, Any]:
    """Every SessionConfig field outside :data:`RUN_TIME_ONLY_FIELDS`,
    JSON-encoded, plus the default scheme-search tunables."""
    fp: Dict[str, Any] = {
        f.name: getattr(config, f.name)
        for f in dataclasses.fields(SessionConfig)
        if f.name not in RUN_TIME_ONLY_FIELDS
    }
    if isinstance(config.backend, Backend):
        fp["backend"] = f"instance:{config.backend.forward_type}"
    if config.device is not None:
        fp["device"] = dataclasses.asdict(config.device)
    if config.scheme_overrides is not None:
        fp["scheme_overrides"] = {
            name: d.to_json() for name, d in config.scheme_overrides.items()
        }
    fp["scheme_config"] = dataclasses.asdict(SchemeConfig())
    return fp


class PreInferenceCache:
    """File-backed store of :class:`~repro.core.SessionArtifacts`, one JSON per key.

    Failure semantics (the resilience contract): a *missing* entry is a
    miss; an *unreadable* entry (truncated JSON, missing or mismatched
    digest, wrong version, a field that does not decode, torn write) is
    also a miss but additionally counts in ``cache.corrupt``
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
    def key(self, graph: Graph, config: SessionConfig) -> str:
        """Deterministic cache key for (graph, config) on this host.

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
            "host": host_fingerprint().key,
        }
        h.update(json.dumps(payload, separators=(",", ":"), sort_keys=True).encode())
        return h.hexdigest()

    def path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    # -- IO ----------------------------------------------------------------
    def load(self, key: str) -> Optional[SessionArtifacts]:
        """The artifacts for ``key``, or ``None`` (missing/corrupt/stale).

        The digest is checked and every field decoded here, so a hit
        cannot fail, or compute wrong numbers, in the session that uses it.

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
            if data.pop("sha256", None) != _digest(data):
                raise ValueError("cache entry digest mismatch")
            if data.pop("version") != CACHE_VERSION:
                raise ValueError("cache entry version mismatch")
            return SessionArtifacts.from_json(data)
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            # Present but unreadable: truncated/torn/edited/stale entry.  Purely
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

    def store(self, key: str, artifacts: SessionArtifacts) -> Path:
        """Atomically persist ``artifacts`` under ``key``; returns the path.

        Raises:
            TransientFault: only under an active fault plan injecting a
                transient IO error (the engine retries these).
        """
        if self.sanitizer.enabled:
            self.sanitizer.probe(self, f"entry.{key}", "w", lockset=("fs.atomic",))
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path(key)
        entry = {"version": CACHE_VERSION, **artifacts.to_json()}
        entry["sha256"] = _digest(entry)
        payload = json.dumps(entry, separators=(",", ":"))
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
) -> Tuple[Session, bool]:
    """Build one session, warmed through ``cache`` under the caller's ``key``.

    Hands the cached artifacts to the session on a hit and stores the new
    session's on a miss.  Persistent transient cache IO degrades to
    cacheless for this call (``fallback.cache``): the cache can never take
    down session creation.  Returns the session and whether the cache hit.
    """
    tracer = runtime.tracer

    def cache_io(fn, label: str):
        try:
            return retry_transient(fn, rng=runtime.faults.rng_for(label), label=label)
        except TransientFault:
            # Like every reconciliation counter, this lands in the
            # process-wide registry (the one the fault plan itself
            # increments ``faults.injected`` in).
            get_metrics().counter("fallback.cache").inc()
            return None

    artifacts = None
    if cache is not None:
        with tracer.span("cache.lookup", "serving"):
            artifacts = cache_io(lambda: cache.load(key), "cache.load")
        tracer.instant(
            "cache.miss" if artifacts is None else "cache.hit", "serving", key=key
        )
    hit = artifacts is not None
    session = Session(graph, config, artifacts, runtime=runtime)
    if cache is not None and not hit:
        with tracer.span("cache.store", "serving"):
            cache_io(lambda: cache.store(key, session.export_artifacts()), "cache.store")
    return session, hit
