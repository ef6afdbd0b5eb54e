"""Zero-copy tensor transport over ``multiprocessing.shared_memory``.

Control messages travel over a pipe; tensor payloads travel through a
:class:`ShmSegment` so the bytes cross the process boundary exactly
once — written in place by the sender, mapped (not copied) by the
receiver.

The graph fixes every input and output shape before the first request,
so an infer RPC decides nothing per request:

* **Tensors at fixed offsets, bound once.**  :func:`tensor_offsets` is
  the one layout rule (tensors in order after the header, each at a
  cache-line-aligned offset).  :meth:`ShmSegment.bind` builds one NumPy
  view per graph input (request segment) or output (response segment)
  at those offsets; the router binds its pair at spawn and a worker
  binds the same views when it attaches, from the same graph.
  :meth:`~ShmSegment.write_bound` and :meth:`~ShmSegment.read_bound`
  then copy into and out of the views and touch the generation header,
  nothing else.  :meth:`~ShmSegment.write_tensors` /
  :meth:`~ShmSegment.read_tensors` lay out arbitrary dicts by the same
  rule.
* **One fixed-layout frame per infer message.**  :data:`FRAME` packs
  the tag, crash marker, generation, request sequence number and
  deadline (ms, NaN for none) into 26 bytes sent with
  ``Connection.send_bytes``.  Every other message (errors, ``generate``,
  ``hang``, ``stop``) stays a pickle; the receiver tells the two apart
  by the first byte, which for a pickle is always :data:`PICKLED`.

Ownership and recycling rules (DESIGN §14):

* The **router owns every segment**: it creates and unlinks them.
  Workers only ever attach.  A worker crash therefore can never leak a
  segment — dead workers own nothing.
* Each worker slot gets one request and one response segment for the
  cluster's life, recycled request after request and attached by every
  epoch of the slot's worker (workers execute serially, so one in-flight
  payload per direction is the invariant, not an optimization).  The
  graph fixes every input and output shape, so the router sizes both
  once, with :func:`payload_bytes` over the graph's descriptors.
* **Generation guard**: the first 8 bytes of every segment hold a
  generation counter.  The writer stamps the header with the request's
  generation before the control message is sent; the reader re-reads
  the header and refuses (typed :class:`~repro.cluster.StaleSegment`)
  when it disagrees with the generation the message named.  A recycled
  — or replaced-after-crash — segment can therefore never serve a stale
  read: the bytes may be gone, the *check* survives in the header.

The owner side threads every create/use/free through
:meth:`repro.sanitize.Sanitizer.carve` / ``use_extent`` / ``free_extent``
(scope ``"cluster.shm"``; every read and write, bound or laid out, is
a use), so under ``sanitize=True`` a use-after-unlink or double-unlink
is a lifecycle finding with the same machinery that guards the KV arena.
"""

from __future__ import annotations

import contextlib
import math
import struct
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..kernels.workspace import ALIGNMENT, align_up
from .errors import ProtocolError, StaleSegment

__all__ = [
    "TensorSpec", "ShmSegment", "payload_bytes", "tensor_offsets", "segment_descs",
    "HEADER_BYTES", "FRAME", "INFER", "OK", "PICKLED", "pack_frame", "unpack_frame",
]

#: Segment header: an 8-byte generation counter, padded to one cache line.
HEADER_BYTES = ALIGNMENT
_GENERATION = struct.Struct("<Q")

#: An infer request or its ``ok`` reply: tag, crash marker, generation,
#: request sequence number, deadline in ms (NaN: no deadline).
FRAME = struct.Struct("<cBQQd")
INFER = b"I"
OK = b"O"
#: The first byte of every pickle (the PROTO opcode of protocol >= 2):
#: a message starting with it is pickled, any other is a frame.
PICKLED = b"\x80"
#: Crash markers by their frame code.
CRASH_MARKERS = (None, "early", "mid")


def pack_frame(tag: bytes, crash: Optional[str], generation: int, seq: int,
               deadline_ms: Optional[float]) -> bytes:
    """One fixed-layout frame (``deadline_ms=None``: no deadline)."""
    return FRAME.pack(tag, CRASH_MARKERS.index(crash), generation, seq,
                      math.nan if deadline_ms is None else deadline_ms)


def unpack_frame(data: bytes, tag: bytes) -> Tuple[Optional[str], int, int, Optional[float]]:
    """``(crash, generation, seq, deadline_ms)`` of a ``tag`` frame.

    Raises:
        ProtocolError: ``data`` is not exactly one frame, or has another
            tag or an unknown crash code.
    """
    if len(data) != FRAME.size:
        raise ProtocolError(f"frame of {len(data)} bytes, expected {FRAME.size}")
    got, crash, generation, seq, deadline_ms = FRAME.unpack(data)
    if got != tag:
        raise ProtocolError(f"frame tag {got!r}, expected {tag!r}")
    if crash >= len(CRASH_MARKERS):
        raise ProtocolError(f"unknown crash marker code {crash}")
    return (CRASH_MARKERS[crash], generation, seq,
            None if math.isnan(deadline_ms) else deadline_ms)


@dataclass(frozen=True)
class TensorSpec:
    """Where one tensor lives inside a segment (picklable, sent on the pipe)."""

    name: str
    shape: Tuple[int, ...]
    dtype: str
    offset: int
    nbytes: int


def tensor_offsets(tensors: Dict[str, object]) -> Tuple[List[int], int]:
    """The one layout rule: each tensor's byte offset in a segment, and
    the bytes the segment needs.

    Tensors sit in ``tensors``' order after the header, each at a
    cache-line-aligned offset.  Reads only each value's ``nbytes``, so
    the graph's :class:`~repro.ir.TensorDesc` records lay a segment out
    exactly as the arrays they describe.
    """
    offsets: List[int] = []
    end = HEADER_BYTES
    for tensor in tensors.values():
        offsets.append(end)
        end += align_up(int(tensor.nbytes))
    return offsets, end


def payload_bytes(arrays: Dict[str, np.ndarray]) -> int:
    """Segment bytes needed to hold ``arrays`` (header + aligned tensors)."""
    return tensor_offsets(arrays)[1]


def segment_descs(graph) -> Dict[str, Dict[str, object]]:
    """What each segment of a slot holds: the graph's input descriptors
    in the request (``"req"``), its outputs in the response (``"resp"``).
    The router sizes and binds from this, and a worker binds from it."""
    return {"req": {t: graph.desc(t) for t in graph.inputs},
            "resp": {t: graph.desc(t) for t in graph.outputs}}


class ShmSegment:
    """One owned-or-attached shared-memory segment with a generation header."""

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        owner: bool,
        sanitizer=None,
    ) -> None:
        self._shm = shm
        self.owner = owner
        self.sanitizer = sanitizer
        self._closed = False
        #: One view per bound tensor, by name (:meth:`bind`).
        self._views: Dict[str, np.ndarray] = {}

    # -- construction --------------------------------------------------------
    @classmethod
    def create(cls, name: str, size: int, sanitizer=None) -> "ShmSegment":
        """Create (and own) a segment of at least ``size`` bytes."""
        size = max(int(size), HEADER_BYTES + ALIGNMENT)
        shm = shared_memory.SharedMemory(name=name, create=True, size=size)
        shm.buf[:HEADER_BYTES] = b"\0" * HEADER_BYTES
        seg = cls(shm, owner=True, sanitizer=sanitizer)
        if sanitizer is not None and sanitizer.enabled:
            sanitizer.carve("cluster.shm", name, 0, size, kind="shm-segment")
        return seg

    @classmethod
    def attach(cls, name: str, sanitizer=None) -> "ShmSegment":
        """Attach to an existing segment by name (never owns it).

        Works around the pre-3.13 resource-tracker behaviour where an
        *attaching* process registers the segment with the (shared)
        tracker daemon too: the daemon's cache is a set, so the router's
        own unlink-time unregister would then hit a double-remove
        KeyError — and a dying worker could take the segment down with
        it.  Attaching must leave tracking entirely to the owner.
        """
        try:
            shm = shared_memory.SharedMemory(name=name, track=False)
        except TypeError:  # Python < 3.13: no track flag; mute register
            orig = resource_tracker.register
            resource_tracker.register = lambda *a, **k: None
            try:
                shm = shared_memory.SharedMemory(name=name)
            finally:
                resource_tracker.register = orig
        return cls(shm, owner=False, sanitizer=sanitizer)

    # -- introspection -------------------------------------------------------
    @property
    def name(self) -> str:
        return self._shm.name

    @property
    def size(self) -> int:
        return self._shm.size

    @property
    def generation(self) -> int:
        """The generation currently stamped in the segment header."""
        return _GENERATION.unpack_from(self._shm.buf)[0]

    def stamp(self, generation: int) -> None:
        """Stamp ``generation`` into the header (writer side)."""
        _GENERATION.pack_into(self._shm.buf, 0, generation)

    def _use(self) -> None:
        """The sanitizer's extent check, ahead of every payload access."""
        if self.sanitizer is not None and self.sanitizer.enabled:
            self.sanitizer.use_extent("cluster.shm", self.name)

    def _layout(self, tensors: Dict[str, object]) -> List[int]:
        """:func:`tensor_offsets` of ``tensors``; ``ValueError`` when they
        do not fit the segment."""
        offsets, needed = tensor_offsets(tensors)
        if needed > self.size:
            raise ValueError(
                f"payload of {needed} bytes exceeds segment {self.name!r} "
                f"({self.size} bytes)"
            )
        return offsets

    def _check_generation(self, generation: int) -> None:
        found = self.generation
        if found != generation:
            raise StaleSegment(self.name, generation, found)

    # -- bound views ---------------------------------------------------------
    def bind(self, descs: Dict[str, object]) -> None:
        """Build one view per descriptor at :func:`tensor_offsets`' offsets.

        ``descs`` maps names to :class:`~repro.ir.TensorDesc` records
        (:func:`segment_descs`).  Raises ``ValueError`` when they do not
        fit the segment.
        """
        self._views = {
            name: np.ndarray(desc.shape, dtype=desc.dtype.np_dtype,
                             buffer=self._shm.buf, offset=offset)
            for (name, desc), offset in zip(descs.items(), self._layout(descs))
        }

    def write_bound(self, arrays: Dict[str, np.ndarray], generation: int) -> None:
        """Copy ``arrays`` into the bound views and stamp ``generation``.

        Each array must have its view's dtype (no cast) and shape.
        """
        self._use()
        if self._closed:
            raise ValueError(f"segment {self.name!r} is closed")
        for name, view in self._views.items():
            np.copyto(view, arrays[name], casting="no")
        self.stamp(generation)

    def read_bound(self, generation: int, copy: bool = False) -> Dict[str, np.ndarray]:
        """The bound tensors, guarding the generation.

        ``copy=False`` returns the bound views themselves (one dict, the
        same on every call; read it, do not keep it past the next
        request); ``copy=True`` detaches the result from the segment.

        Raises:
            StaleSegment: the header generation does not match.
        """
        self._use()
        if self._closed:
            raise ValueError(f"segment {self.name!r} is closed")
        self._check_generation(generation)
        if not copy:
            return self._views
        return {name: view.copy() for name, view in self._views.items()}

    # -- payload I/O ---------------------------------------------------------
    def write_tensors(
        self, arrays: Dict[str, np.ndarray], generation: int
    ) -> List[TensorSpec]:
        """Lay ``arrays`` out in the segment and stamp ``generation``.

        Returns the specs to send on the control channel.  Raises
        ``ValueError`` when the payload does not fit.  The router sizes
        segments from the graph and checks feeds against it, so a valid
        request always fits.
        """
        self._use()
        specs: List[TensorSpec] = []
        for (name, arr), offset in zip(arrays.items(), self._layout(arrays)):
            arr = np.ascontiguousarray(arr)
            view = np.ndarray(arr.shape, dtype=arr.dtype,
                              buffer=self._shm.buf, offset=offset)
            view[...] = arr
            specs.append(TensorSpec(
                name=name, shape=tuple(int(d) for d in arr.shape),
                dtype=arr.dtype.str, offset=offset, nbytes=int(arr.nbytes),
            ))
        self.stamp(generation)
        return specs

    def read_tensors(
        self,
        specs: Sequence[TensorSpec],
        generation: int,
        copy: bool = False,
    ) -> Dict[str, np.ndarray]:
        """Map the tensors ``specs`` describe, guarding the generation.

        ``copy=True`` detaches the result from the segment (the router
        does this for responses, since the segment is recycled for the
        next request the moment this call returns); ``copy=False``
        returns zero-copy views valid until the segment is reused
        (workers compute straight out of the mapping).

        Raises:
            StaleSegment: the header generation does not match —
                recycled or replaced bytes were about to be served.
        """
        self._use()
        self._check_generation(generation)
        out: Dict[str, np.ndarray] = {}
        for spec in specs:
            view = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype),
                              buffer=self._shm.buf, offset=spec.offset)
            out[spec.name] = np.array(view, copy=True) if copy else view
        return out

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        """Drop this process's mapping (both sides; idempotent)."""
        if self._closed:
            return
        self._closed = True
        # The bound views export the mapping's buffer: drop them first,
        # or the mapping cannot be released.
        self._views = {}
        with contextlib.suppress(Exception):
            self._shm.close()

    def unlink(self) -> None:
        """Destroy the segment (owner only; idempotent).

        Unlinking while a worker still has the old mapping is safe —
        POSIX keeps the mapping alive until the last close — and the
        generation guard turns any such straggler read into a typed
        :class:`StaleSegment` instead of silent garbage.
        """
        if not self.owner:
            raise RuntimeError(f"segment {self.name!r} is attached, not owned")
        self.close()
        if self.sanitizer is not None and self.sanitizer.enabled:
            self.sanitizer.retire_extent("cluster.shm", self.name)
            self.sanitizer.free_extent("cluster.shm", self.name)
        with contextlib.suppress(Exception):
            self._shm.unlink()
