"""KV-cache memory planning: dynamic slabs over one pre-allocated arena.

The paper's static planner (:mod:`repro.core.memory`) lays activations
out once because shapes are fixed.  Autoregressive decoding breaks that
premise in one specific place — the per-sequence key/value cache grows by
one row per generated token, and sequences join and leave the batch at
unpredictable times.  This module confines all of that dynamism to a
single arena managed like an OS page allocator:

* the arena is carved into fixed-size **pages** (``page_tokens`` tokens
  of K+V across all layers, rounded up to the 64-byte ``ALIGNMENT``), so
  every slab offset is aligned by construction;
* a sequence owns a **slab** — contiguous pages holding bucketed
  capacity for its cache.  Capacities double (16, 32, 64... tokens), so
  a sequence re-plans at most ``log2`` times as it grows, and the engine
  needs one prepared decode graph per bucket instead of one per length;
* allocation is best-fit over an :class:`~repro.core.memory.ExtentFreeList`
  with coalescing frees — fragmentation stays bounded while requests
  churn;
* pressure degrades, never crashes: a failed allocation (genuine
  exhaustion or the injected ``kvcache.alloc`` fault) evicts
  least-recently-used *retired* slabs and retries, mirroring the serving
  layer's fallback ladder.

The live layout can be snapshotted as a standard
:class:`~repro.core.memory.MemoryPlan` (every slab co-live at step 0)
and proven alias-free/aligned/in-bounds by the independent sanitizer
(:func:`repro.analysis.check_slab_plan`) — the same distrust-the-planner
discipline the static path gets.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.memory import ALIGNMENT, ExtentFreeList, MemoryPlan, TensorLifetime
from ..faults.errors import FatalFault, ResilienceError, TransientFault, mark_isolated
from ..faults.resilience import retry_transient
from ..quant.kv import KV_DTYPES, dequantize_rows, kv_itemsize, quantize_rows
from ..runtime import Runtime
from ..sanitize import LifecycleFinding, Sanitizer

__all__ = [
    "KVCacheConfig",
    "KVCacheOOM",
    "KVCacheUseAfterFree",
    "KVSlab",
    "KVCacheAllocator",
]


def _align(n: int) -> int:
    return (n + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


class KVCacheOOM(ResilienceError):
    """The arena cannot hold another slab, even after eviction."""


class KVCacheUseAfterFree(ResilienceError):
    """A K/V view was requested through a freed slab.

    The slab's pages may already belong to another sequence, so the old
    silent behaviour (handing out a live view of someone else's cache)
    corrupted generations undetectably.  Freed slabs are poisoned
    instead; the sanitizer additionally records the access as a
    ``use-after-free`` lifecycle finding when enabled.
    """


@dataclass(frozen=True)
class KVCacheConfig:
    """Geometry of the KV arena.

    Attributes:
        layers/heads/d_head: the decoder architecture the cache serves.
        page_tokens: tokens per page — the allocation granule and the
            smallest capacity bucket.
        capacity_tokens: total arena capacity in tokens across all
            resident sequences (rounded down to whole pages).
        max_seq: the longest supported sequence; the largest bucket.
        retries: extra attempts for transient allocation faults.
        kv_dtype: storage dtype of the cached K/V rows.  ``"float32"``
            (default) stores rows verbatim; ``"int8"`` stores each row
            quantized per-row symmetric (one float32 scale per
            layer/K-or-V/token row, kept in a scales table at the slab
            tail) and dequantizes on read — see :mod:`repro.quant.kv`
            for why the scale granularity must be the row.
    """

    layers: int
    heads: int
    d_head: int
    page_tokens: int = 16
    capacity_tokens: int = 512
    max_seq: int = 64
    retries: int = 3
    kv_dtype: str = "float32"

    def __post_init__(self) -> None:
        kv_itemsize(self.kv_dtype)  # raises ValueError on unknown dtypes
        if self.quantized and self.d_head % 4 != 0:
            raise ValueError(
                f"kv_dtype={self.kv_dtype!r} needs d_head divisible by 4 "
                f"(the SIMD/NC4HW4 lane count; it keeps the int8 payload a "
                f"float32 multiple so the scales table is aligned), "
                f"got d_head={self.d_head}"
            )

    @property
    def quantized(self) -> bool:
        return self.kv_dtype != "float32"

    @property
    def kv_itemsize(self) -> int:
        """Bytes per stored K/V element."""
        return kv_itemsize(self.kv_dtype)

    @property
    def row_scale_bytes(self) -> int:
        """Per-row scale overhead (per layer, per K-or-V) in bytes."""
        return 4 if self.quantized else 0

    @property
    def per_token_bytes(self) -> int:
        """K+V bytes one token needs across every layer, scales included.

        This is the quantity capacity accounting runs on: int8 rows cost
        ``heads * d_head`` payload bytes plus one float32 scale, so the
        same arena holds ~4x the tokens of the fp32 layout (3x+ after
        the scale overhead at small ``d_head``).
        """
        row = self.heads * self.d_head * self.kv_itemsize + self.row_scale_bytes
        return self.layers * 2 * row

    @property
    def page_bytes(self) -> int:
        return _align(self.page_tokens * self.per_token_bytes)

    @property
    def total_pages(self) -> int:
        return self.capacity_tokens // self.page_tokens

    def buckets(self) -> List[int]:
        """Capacity buckets in tokens: doubling pages up to ``max_seq``."""
        out: List[int] = []
        cap = self.page_tokens
        while cap < self.max_seq:
            out.append(cap)
            cap *= 2
        out.append(self.max_seq)
        return out

    def bucket_for(self, tokens: int) -> int:
        """Smallest bucket holding ``tokens``; raises past ``max_seq``."""
        if tokens > self.max_seq:
            raise ValueError(f"sequence of {tokens} tokens exceeds max_seq {self.max_seq}")
        for cap in self.buckets():
            if cap >= tokens:
                return cap
        raise AssertionError("unreachable: buckets() ends at max_seq")


@dataclass
class KVSlab:
    """One sequence's contiguous K/V storage inside the arena.

    ``k(layer)`` / ``v(layer)`` are zero-copy ``(heads, capacity, d_head)``
    views into the arena buffer **in the storage dtype** (float32 or
    int8); ``length`` counts the rows actually written.  Layout within
    the slab is ``[layer][k|v][head][token][dim]``; under
    ``kv_dtype="int8"`` a per-row float32 scales table
    (``[layer][k|v][token]``) follows the payload planes at the slab
    tail.  The typed accessors are the decode/prefill API:

    * :meth:`k_read` / :meth:`v_read` — float32 rows, dequantized on
      read when quantized (zero-copy passthrough for fp32), optionally
      bounded to the first ``rows`` (decode reads only ``length``);
    * :meth:`write_k` / :meth:`write_v` — float32 rows in, quantized on
      write (scale stored alongside) when quantized.

    The raw ``k``/``v`` views stay available on purpose: re-bucketing
    copies (:meth:`copy_rows_from`) move int8 bytes and scales verbatim,
    never through a requantization round-trip.
    """

    seq_id: str
    page_start: int
    pages: int
    capacity: int          # tokens
    config: KVCacheConfig
    buffer: np.ndarray = field(repr=False)
    length: int = 0
    freed: bool = False
    #: Lifecycle identity: bumped on each re-carve of the same extent, so
    #: a stale handle is detectable even after the pages were recycled.
    generation: int = 0
    sanitizer: Optional[Sanitizer] = field(default=None, repr=False)
    scope: str = ""
    #: Copy-on-write child: this slab aliases a parent's pages (prefix
    #: sharing).  Its views are read-only; any write path must go through
    #: :meth:`KVCacheAllocator.materialize` first (``grow`` does this
    #: automatically, and the scheduler grows before every decode step).
    shared: bool = False
    #: ``(payload, scales)`` views per ``2 * layer + which``, carved on
    #: first access.  A slab's extent, capacity and ``shared`` flag never
    #: change (grow/materialize hand out a *new* slab), so the views stay
    #: valid for the object's life; :meth:`_guard` still runs on every
    #: access, so a freed slab raises before a cached view escapes.
    _planes: Optional[List[Tuple[np.ndarray, Optional[np.ndarray]]]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def lifecycle_key(self) -> str:
        return f"{self.seq_id}@{self.page_start}+{self.pages}"

    @property
    def offset_bytes(self) -> int:
        return self.page_start * self.config.page_bytes

    @property
    def nbytes(self) -> int:
        return self.pages * self.config.page_bytes

    def _guard(self, layer: int) -> None:
        cfg = self.config
        if self.freed:
            sanitizer = self.sanitizer
            if sanitizer is not None and sanitizer.enabled:
                sanitizer.use_extent(self.scope, self.lifecycle_key, self.generation)
            raise KVCacheUseAfterFree(
                f"K/V view of {self.seq_id!r} after its slab was freed "
                f"(pages [{self.page_start}, {self.page_start + self.pages}), "
                f"generation {self.generation}) — these pages may belong "
                f"to another sequence now"
            )
        if not 0 <= layer < cfg.layers:
            raise IndexError(f"layer {layer} out of range for {cfg.layers} layers")

    @property
    def _plane_bytes(self) -> int:
        """Bytes per K or V payload plane (one layer, storage dtype)."""
        cfg = self.config
        return cfg.heads * self.capacity * cfg.d_head * cfg.kv_itemsize

    def _carve_planes(self) -> List[Tuple[np.ndarray, Optional[np.ndarray]]]:
        """Every plane's ``(payload, scales)`` views (scales ``None`` for fp32).

        Per-row scales live after the last payload plane; the payload
        region is a float32 multiple (``d_head % 4 == 0`` is enforced for
        int8), so the table starts 4-byte aligned within the
        64-byte-aligned slab.
        """
        cfg = self.config
        plane = self._plane_bytes
        dtype = np.int8 if cfg.quantized else np.float32
        scales_base = self.offset_bytes + 2 * cfg.layers * plane
        planes = []
        for index in range(2 * cfg.layers):
            start = self.offset_bytes + index * plane
            payload = self.buffer[start : start + plane].view(dtype).reshape(
                cfg.heads, self.capacity, cfg.d_head
            )
            scales = None
            if cfg.quantized:
                start = scales_base + index * self.capacity * 4
                scales = self.buffer[start : start + self.capacity * 4].view(np.float32)
            if self.shared:
                # Hard guard: writing through a COW child would corrupt the
                # parent (and every sibling) silently.  NumPy turns such a
                # write into an immediate ValueError instead.
                payload.flags.writeable = False
                if scales is not None:
                    scales.flags.writeable = False
            planes.append((payload, scales))
        return planes

    def _plane(self, layer: int, which: int) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        self._guard(layer)
        if self._planes is None:
            self._planes = self._carve_planes()
        return self._planes[2 * layer + which]

    def _view(self, layer: int, which: int) -> np.ndarray:
        return self._plane(layer, which)[0]

    def _scales_view(self, layer: int, which: int) -> np.ndarray:
        """Float32 ``(capacity,)`` per-row scales for one K/V plane."""
        return self._plane(layer, which)[1]

    def k(self, layer: int) -> np.ndarray:
        return self._view(layer, 0)

    def v(self, layer: int) -> np.ndarray:
        return self._view(layer, 1)

    # -- typed accessors (the decode/prefill API) ---------------------------
    def _read(
        self, layer: int, which: int, out: Optional[np.ndarray], rows: Optional[int]
    ) -> np.ndarray:
        payload, scales = self._plane(layer, which)
        n = self.capacity if rows is None else rows
        if out is None:
            if scales is None:
                return payload[:, :n]
            return dequantize_rows(payload[:, :n], scales[:n])
        if scales is None:
            out[:, :n] = payload[:, :n]
        else:
            dequantize_rows(payload[:, :n], scales[:n], out[:, :n])
        return out

    def k_read(
        self, layer: int, out: Optional[np.ndarray] = None, rows: Optional[int] = None
    ) -> np.ndarray:
        """Float32 K rows ``[:rows]`` (default: all ``capacity``), dequantized
        on read.  With ``out`` (``(heads, >= rows, d_head)``) the rows land
        in ``out[:, :rows]``, the rest of ``out`` is untouched, and ``out``
        is returned; fp32 without ``out`` is a zero-copy view."""
        return self._read(layer, 0, out, rows)

    def v_read(
        self, layer: int, out: Optional[np.ndarray] = None, rows: Optional[int] = None
    ) -> np.ndarray:
        """Float32 V rows; see :meth:`k_read`."""
        return self._read(layer, 1, out, rows)

    def _write(self, layer: int, which: int, start: int, values: np.ndarray) -> None:
        values = np.asarray(values, np.float32)
        if values.ndim != 3:
            raise ValueError(f"expected (heads, rows, d_head) rows, got {values.shape}")
        if self.config.quantized:
            self.write_quantized(layer, which, start, *quantize_rows(values))
        else:
            self._view(layer, which)[:, start : start + values.shape[1]] = values

    def write_quantized(
        self, layer: int, which: int, start: int, q: np.ndarray, scales: np.ndarray
    ) -> None:
        """Store rows :func:`~repro.quant.kv.quantize_rows` already coded:
        ``(heads, rows, d_head)`` payload plus its per-row scales, verbatim
        (``which``: 0 = K, 1 = V).  Decode quantizes a whole step's rows in
        one call and scatters them here."""
        rows = q.shape[1]
        self._view(layer, which)[:, start : start + rows] = q
        self._scales_view(layer, which)[start : start + rows] = scales

    def write_k(self, layer: int, start: int, values: np.ndarray) -> None:
        """Store float32 K rows at ``start`` (quantize-on-write for int8)."""
        self._write(layer, 0, start, values)

    def write_v(self, layer: int, start: int, values: np.ndarray) -> None:
        """Store float32 V rows at ``start`` (quantize-on-write for int8)."""
        self._write(layer, 1, start, values)

    def reset_scales(self) -> None:
        """Zero the scales table after a fresh carve.

        Recycled pages hold whatever bytes the previous owner left, and
        scale 0.0 is the unwritten-row sentinel — zeroing here makes
        every unwritten row dequantize to exact zeros on every path
        (junk scales can even overflow to inf under the dequant
        multiply).  No-op geometry for fp32 arenas; callers skip it.
        """
        cfg = self.config
        base = self.offset_bytes + 2 * cfg.layers * self._plane_bytes
        self.buffer[base : base + 2 * cfg.layers * self.capacity * 4] = 0

    def copy_rows_from(self, src: "KVSlab", length: int) -> None:
        """Copy ``src``'s first ``length`` rows verbatim (scales included).

        This is the re-bucketing/materialize path: bytes move in the
        storage dtype, so quantized rows survive any number of
        grow/COW-materialize hops bit-identically — there is no
        dequantize→requantize round-trip anywhere in the slab lifecycle.
        """
        for layer in range(self.config.layers):
            for which in (0, 1):
                self._view(layer, which)[:, :length] = src._view(layer, which)[:, :length]
                if self.config.quantized:
                    self._scales_view(layer, which)[:length] = (
                        src._scales_view(layer, which)[:length]
                    )
        self.length = length

    @property
    def utilization(self) -> float:
        """Written tokens over bucketed capacity (bucketing's overhead)."""
        return self.length / self.capacity if self.capacity else 1.0


class KVCacheAllocator:
    """Page-granular slab allocator with bucketing, growth and eviction.

    Thread-safe; the continuous-batching scheduler allocates at admission
    time, grows at token boundaries, and either frees a finished slab or
    *retires* it (``release(evictable=True)``) so its pages can be
    reclaimed lazily under pressure — the KV analogue of the serving
    layer's pre-inference cache keeping warm artifacts around.

    Every allocation passes the ``kvcache.alloc`` fault point: injected
    transients are retried with backoff (``retry.attempts``), and hard
    failures — injected fatals or genuine exhaustion — walk the eviction
    ladder (``fallback.evict`` per absorbed injection, ``kvcache.evictions``
    for every reclaimed slab) before :class:`KVCacheOOM` escapes.
    """

    def __init__(
        self,
        config: KVCacheConfig,
        *,
        runtime: Optional[Runtime] = None,
    ) -> None:
        if config.total_pages <= 0:
            raise ValueError(
                f"arena of {config.capacity_tokens} tokens holds no "
                f"{config.page_tokens}-token page"
            )
        self.config = config
        runtime = runtime if runtime is not None else Runtime.resolve()
        self.metrics = runtime.metrics
        self.faults = runtime.faults
        self.sanitizer = runtime.sanitizer
        self.scope = f"kvcache#{id(self):x}"
        self._buffer = np.zeros(config.total_pages * config.page_bytes, np.uint8)
        self._pages = ExtentFreeList(config.total_pages)
        self._live: Dict[str, KVSlab] = {}
        self._retired: "OrderedDict[str, KVSlab]" = OrderedDict()  # LRU order
        #: Reference count per shared extent, keyed by ``page_start``.
        #: Absent means 1 (sole owner).  ``share`` increments; every
        #: free site goes through ``_drop_ref``, which returns the pages
        #: to the free list only when the last reference drops — so
        #: evicting a retired parent while children still alias its
        #: prefix leaves the pages alive.  Guarded by ``_lock``.
        self._extent_refs: Dict[int, int] = {}
        self._lock = threading.RLock()

    # -- allocation ----------------------------------------------------------
    def _pages_for(self, capacity: int) -> int:
        return -(-capacity // self.config.page_tokens)

    def _try_alloc(self, seq_id: str, pages: int) -> int:
        self.faults.fire("kvcache.alloc", seq=seq_id, pages=pages)
        start = self._pages.alloc(pages)
        if start is None:
            raise KVCacheOOM(
                f"no {pages}-page extent for {seq_id!r} "
                f"(free {self._pages.free_units}, largest {self._pages.largest_extent})"
            )
        return start

    def alloc(self, seq_id: str, tokens: int) -> KVSlab:
        """Reserve a bucketed slab able to hold ``tokens`` tokens.

        Raises:
            KVCacheOOM: when no extent fits even with every retired slab
                evicted (admission control catches this and queues).
        """
        capacity = self.config.bucket_for(max(1, tokens))
        pages = self._pages_for(capacity)
        with self.sanitizer.locked(self._lock, "kvcache.lock"):
            if seq_id in self._live:
                raise ValueError(f"sequence {seq_id!r} already owns a slab")
            while True:
                try:
                    start = retry_transient(
                        lambda: self._try_alloc(seq_id, pages),
                        retries=self.config.retries,
                        rng=self.faults.rng_for("kvcache.alloc"),
                        label="kvcache.alloc",
                        transient=(TransientFault,),
                    )
                    break
                except (FatalFault, TransientFault, KVCacheOOM) as exc:
                    injected = not isinstance(exc, KVCacheOOM)
                    if not self._evict_one():
                        if injected:
                            mark_isolated(exc)
                        raise KVCacheOOM(
                            f"arena exhausted allocating {pages} pages for "
                            f"{seq_id!r} with nothing left to evict"
                        ) from exc
                    if injected:
                        # The injection was absorbed by degrading to
                        # eviction; account it like the other fallbacks.
                        self.metrics.counter("fallback.evict").inc()
            slab = KVSlab(seq_id, start, pages, capacity, self.config, self._buffer)
            if self.config.quantized:
                slab.reset_scales()
            if self.sanitizer.enabled:
                slab.sanitizer = self.sanitizer
                slab.scope = self.scope
                slab.generation = self.sanitizer.carve(
                    self.scope, slab.lifecycle_key, start, pages
                )
                self.sanitizer.probe(self, "tables", "w")
            self._live[seq_id] = slab
            self._update_gauges()
            return slab

    def grow(self, slab: KVSlab, tokens: int) -> KVSlab:
        """Return a slab holding ``tokens``, copying rows when re-bucketing.

        A no-op while the current bucket still fits; otherwise allocates
        the next bucket, copies the ``length`` written rows layer by
        layer, and frees the old pages — the sequence never re-plans its
        graph, it just moves to the next prepared bucket.

        A *shared* (COW) slab always materializes here, even when the
        bucket still fits: growth precedes every decode step, and decode
        writes the next row — this is the copy-on-write barrier.
        """
        if slab.shared:
            return self.materialize(slab, max(tokens, slab.length))
        if tokens <= slab.capacity:
            return slab
        with self.sanitizer.locked(self._lock, "kvcache.lock"):
            length = slab.length
            self._forget(slab)
            try:
                bigger = self.alloc(slab.seq_id, tokens)
            except KVCacheOOM:
                # Put the original back so the caller still owns a slab.
                self._live[slab.seq_id] = slab
                raise
            bigger.copy_rows_from(slab, length)
            self._drop_ref(slab.page_start, slab.pages)
            slab.freed = True
            if self.sanitizer.enabled:
                self.sanitizer.free_extent(self.scope, slab.lifecycle_key)
                self.sanitizer.probe(self, "tables", "w")
            self._update_gauges()
            return bigger

    # -- copy-on-write prefix sharing ----------------------------------------
    def share(self, parent: KVSlab, seq_id: str, prefix_tokens: int) -> KVSlab:
        """Alias ``parent``'s pages as a read-only COW child slab.

        The child starts at ``length == prefix_tokens`` — those rows are
        the shared prompt prefix, served from the parent's pages without
        a copy.  The parent's extent gains a reference, so freeing or
        evicting the parent leaves the pages alive until the last child
        materializes.  The child is carved under its own lifecycle key
        (kind ``"kv-cow"``), so the sanitizer tracks its whole
        share→materialize→free arc independently of the parent's.

        Raises:
            KVCacheUseAfterFree: ``parent`` was already freed.
            ValueError: ``prefix_tokens`` exceeds the parent's written
                rows, or ``seq_id`` already owns a slab.
        """
        with self.sanitizer.locked(self._lock, "kvcache.lock"):
            if parent.freed:
                if self.sanitizer.enabled:
                    self.sanitizer.use_extent(
                        self.scope, parent.lifecycle_key, parent.generation
                    )
                raise KVCacheUseAfterFree(
                    f"cannot share freed slab {parent.seq_id!r} with {seq_id!r}"
                )
            if not 0 < prefix_tokens <= parent.length:
                raise ValueError(
                    f"prefix of {prefix_tokens} tokens outside the parent's "
                    f"{parent.length} written rows"
                )
            if seq_id in self._live:
                raise ValueError(f"sequence {seq_id!r} already owns a slab")
            child = KVSlab(
                seq_id, parent.page_start, parent.pages, parent.capacity,
                self.config, self._buffer, shared=True,
            )
            child.length = prefix_tokens
            self._extent_refs[parent.page_start] = (
                self._extent_refs.get(parent.page_start, 1) + 1
            )
            if self.sanitizer.enabled:
                child.sanitizer = self.sanitizer
                child.scope = self.scope
                child.generation = self.sanitizer.carve(
                    self.scope, child.lifecycle_key,
                    parent.page_start, parent.pages, kind="kv-cow",
                )
                self.sanitizer.probe(self, "tables", "w")
            self._live[seq_id] = child
            self.metrics.counter("kvcache.prefix_shares").inc()
            self._update_gauges()
            return child

    def materialize(self, slab: KVSlab, tokens: int = 0) -> KVSlab:
        """Give a COW child its own pages (the copy-on-write fault).

        Allocates a private slab holding ``max(tokens, length)``, copies
        the shared prefix rows out of the parent extent, and drops the
        child's reference on it — the parent's pages free only when the
        last reference is gone.  Non-shared slabs pass through untouched.

        Raises:
            KVCacheOOM: no room even after eviction; the caller still
                owns the original shared slab.
        """
        if not slab.shared:
            return slab
        with self.sanitizer.locked(self._lock, "kvcache.lock"):
            length = slab.length
            self._forget(slab)
            try:
                own = self.alloc(slab.seq_id, max(tokens, length, 1))
            except KVCacheOOM:
                self._live[slab.seq_id] = slab
                raise
            # Copy while the shared views are still valid; the eviction
            # ladder inside alloc() cannot have freed the parent extent,
            # because this child's reference pins it.
            own.copy_rows_from(slab, length)
            slab.freed = True
            if self.sanitizer.enabled:
                self.sanitizer.free_extent(self.scope, slab.lifecycle_key)
                self.sanitizer.probe(self, "tables", "w")
            self._drop_ref(slab.page_start, slab.pages)
            self.metrics.counter("kvcache.cow_materializes").inc()
            self._update_gauges()
            return own

    def _drop_ref(self, page_start: int, pages: int) -> None:
        """Release one reference on an extent; free it on the last drop.

        Called with the lock held.  Extents never shared are implicitly
        at refcount 1 and free immediately.
        """
        refs = self._extent_refs.get(page_start, 1)
        if refs > 1:
            self._extent_refs[page_start] = refs - 1
            return
        self._extent_refs.pop(page_start, None)
        self._pages.free(page_start, pages)

    # -- release / eviction --------------------------------------------------
    def release(self, slab: KVSlab, evictable: bool = False) -> None:
        """Give the slab up: free its pages now, or retire it for lazy
        reclamation under pressure (LRU)."""
        with self.sanitizer.locked(self._lock, "kvcache.lock"):
            self._forget(slab)
            if slab.freed:
                return
            if evictable:
                self._retired[slab.seq_id] = slab
                self._retired.move_to_end(slab.seq_id)
                if self.sanitizer.enabled:
                    self.sanitizer.retire_extent(self.scope, slab.lifecycle_key)
            else:
                self._drop_ref(slab.page_start, slab.pages)
                slab.freed = True
                if self.sanitizer.enabled:
                    self.sanitizer.free_extent(self.scope, slab.lifecycle_key)
            if self.sanitizer.enabled:
                self.sanitizer.probe(self, "tables", "w")
            self._update_gauges()

    def _forget(self, slab: KVSlab) -> None:
        """Drop ``slab``'s sequence from both tables.  Called with the lock held.

        An *older* retired slab under the same id (ids can be reused
        across ``generate`` calls) is displaced for good: nothing could
        reach it by id again, so its pages are reclaimed now.
        """
        self._live.pop(slab.seq_id, None)
        displaced = self._retired.pop(slab.seq_id, None)
        if displaced is not None and displaced is not slab:
            self._evict(displaced)

    def _evict(self, slab: KVSlab) -> None:
        self._drop_ref(slab.page_start, slab.pages)
        slab.freed = True
        if self.sanitizer.enabled:
            self.sanitizer.free_extent(self.scope, slab.lifecycle_key)
        self.metrics.counter("kvcache.evictions").inc()

    def _evict_one(self) -> bool:
        """Reclaim the least-recently-retired slab; False when none left."""
        if not self._retired:
            return False
        self._evict(self._retired.popitem(last=False)[1])
        return True

    # -- teardown ------------------------------------------------------------
    def close(self) -> List[LifecycleFinding]:
        """Run the lifecycle leak check and return its findings.

        Live slabs at close are leaks (someone allocated and never
        released); *retired* slabs are not — they are the LRU-evictable
        warm set, reclaimed by design whenever pressure needs them.  The
        check only observes; it does not free anything, so a reported
        leak stays reproducible in the allocator's state.
        """
        if not self.sanitizer.enabled:
            return []
        with self.sanitizer.locked(self._lock, "kvcache.lock"):
            return self.sanitizer.close_scope(self.scope)

    # -- introspection -------------------------------------------------------
    @property
    def free_pages(self) -> int:
        with self._lock:
            return self._pages.free_units

    @property
    def used_pages(self) -> int:
        return self.config.total_pages - self.free_pages

    def page_utilization(self) -> float:
        """Fraction of arena pages owned by live or retired slabs."""
        return self.used_pages / self.config.total_pages

    def token_utilization(self) -> float:
        """Written tokens over bucketed capacity across live slabs."""
        with self._lock:
            cap = sum(s.capacity for s in self._live.values())
            used = sum(s.length for s in self._live.values())
        return used / cap if cap else 1.0

    def _update_gauges(self) -> None:
        self.metrics.gauge("kvcache.used_pages").set(
            self.config.total_pages - self._pages.free_units
        )
        self.metrics.gauge("kvcache.live_slabs").set(len(self._live))

    def to_memory_plan(self) -> MemoryPlan:
        """Snapshot the resident layout as a standard :class:`MemoryPlan`.

        Every slab (live and retired) is co-live at step 0, so the plan's
        own :meth:`~repro.core.memory.MemoryPlan.validate` and the
        graph-free sanitizer (:func:`repro.analysis.check_slab_plan`)
        prove the dynamic allocator alias-free exactly like the static
        planner's output.
        """
        with self._lock:
            # COW children alias a parent extent: including one would be
            # a false mem-overlap (the aliasing is the whole point).
            slabs = [
                s for s in list(self._live.values()) + list(self._retired.values())
                if not s.shared
            ]
            offsets = {s.seq_id: s.offset_bytes for s in slabs}
            lifetimes = {
                s.seq_id: TensorLifetime(s.seq_id, s.nbytes, 0, 0) for s in slabs
            }
            arena = self.config.total_pages * self.config.page_bytes
            return MemoryPlan(
                offsets=offsets,
                arena_bytes=arena,
                total_tensor_bytes=sum(s.nbytes for s in slabs),
                lifetimes=lifetimes,
            )

    def check(self):
        """Run the independent sanitizer over the current layout."""
        from ..analysis.memcheck import check_slab_plan

        plan = self.to_memory_plan()
        plan.validate()
        with self._lock:
            caps = {
                s.seq_id: s.capacity
                for s in list(self._live.values()) + list(self._retired.values())
                if not s.shared
            }
        return check_slab_plan(
            plan,
            page_bytes=self.config.page_bytes,
            per_token_bytes=self.config.per_token_bytes,
            token_capacities=caps,
        )
