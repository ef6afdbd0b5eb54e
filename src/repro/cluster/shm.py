"""Zero-copy tensor transport over ``multiprocessing.shared_memory``.

Control messages (request ids, shapes, deadlines) travel over a pipe;
tensor payloads travel through a :class:`ShmSegment` so the bytes cross
the process boundary exactly once — written in place by the sender,
mapped (not copied) by the receiver.

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
(scope ``"cluster.shm"``), so under ``sanitize=True`` a
use-after-unlink or double-unlink is a lifecycle finding with the same
machinery that guards the KV arena.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..kernels.workspace import ALIGNMENT, align_up
from .errors import StaleSegment

__all__ = ["TensorSpec", "ShmSegment", "payload_bytes", "HEADER_BYTES"]

#: Segment header: an 8-byte generation counter, padded to one cache line.
HEADER_BYTES = ALIGNMENT


@dataclass(frozen=True)
class TensorSpec:
    """Where one tensor lives inside a segment (picklable, sent on the pipe)."""

    name: str
    shape: Tuple[int, ...]
    dtype: str
    offset: int
    nbytes: int


def payload_bytes(arrays: Dict[str, np.ndarray]) -> int:
    """Segment bytes needed to hold ``arrays`` (header + aligned tensors).

    Reads only each value's ``nbytes``, so the graph's
    :class:`~repro.ir.TensorDesc` records size a segment before any
    tensor exists.
    """
    total = HEADER_BYTES
    for arr in arrays.values():
        total += align_up(int(arr.nbytes))
    return total


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
        return int.from_bytes(self._shm.buf[:8], "little")

    def stamp(self, generation: int) -> None:
        """Stamp ``generation`` into the header (writer side)."""
        self._shm.buf[:8] = int(generation).to_bytes(8, "little")

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
        if self.sanitizer is not None and self.sanitizer.enabled:
            self.sanitizer.use_extent("cluster.shm", self.name)
        needed = payload_bytes(arrays)
        if needed > self.size:
            raise ValueError(
                f"payload of {needed} bytes exceeds segment {self.name!r} "
                f"({self.size} bytes)"
            )
        specs: List[TensorSpec] = []
        offset = HEADER_BYTES
        for name, arr in arrays.items():
            arr = np.ascontiguousarray(arr)
            view = np.ndarray(arr.shape, dtype=arr.dtype,
                              buffer=self._shm.buf, offset=offset)
            view[...] = arr
            specs.append(TensorSpec(
                name=name, shape=tuple(int(d) for d in arr.shape),
                dtype=arr.dtype.str, offset=offset, nbytes=int(arr.nbytes),
            ))
            offset += align_up(int(arr.nbytes))
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
        if self.sanitizer is not None and self.sanitizer.enabled:
            self.sanitizer.use_extent("cluster.shm", self.name)
        found = self.generation
        if found != generation:
            raise StaleSegment(self.name, generation, found)
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
