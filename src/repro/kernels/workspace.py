"""Kernel workspaces: temporaries carved from one caller-owned buffer.

A kernel that needs temporaries (a zero-bordered copy of its input, an
accumulator, a GEMM operand) describes them as ``(shape, dtype)`` specs.
Given a ``scratch`` byte buffer it carves them from it back to back;
given ``None`` it allocates them fresh.  The arithmetic is the same
either way, so a kernel has one code path whichever its caller picks.

A session sizes one scratch buffer at prepare time from static shapes
(:func:`workspace_bytes` of every runner's specs, maximised) and every
runner of that session carves from it: operators run one at a time, so
their temporaries never need to coexist.
"""

from __future__ import annotations

import mmap
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "ALIGNMENT", "Spec", "align_up", "aligned_empty", "workspace_bytes", "carve", "pad_into",
]

#: One temporary: its shape and dtype.
Spec = Tuple[Tuple[int, ...], np.dtype]

#: Byte alignment of every carved temporary, arena tensor and shared-memory
#: payload (one cache line); :func:`align_up` is the one round-up to it.
ALIGNMENT = 64


def _nbytes(spec: Spec) -> int:
    shape, dtype = spec
    return int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize


def align_up(n: int) -> int:
    """``n`` rounded up to a multiple of :data:`ALIGNMENT`."""
    return (n + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


def aligned_empty(nbytes: int) -> np.ndarray:
    """An uninitialised page-aligned ``uint8`` buffer of ``nbytes``.

    Private anonymous memory mapped for this buffer alone, not heap
    memory: a long-lived buffer does not pin the heap below it, its pages
    go back to the system as soon as the last view of it is dropped, and
    a forked process gets a copy-on-write copy, as of any heap buffer.
    """
    if nbytes == 0:
        return np.empty(0, dtype=np.uint8)
    return np.frombuffer(mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE), dtype=np.uint8)


def workspace_bytes(specs: Iterable[Spec]) -> int:
    """Bytes :func:`carve` takes from a scratch buffer for ``specs``."""
    return sum(align_up(_nbytes(spec)) for spec in specs)


def carve(scratch: Optional[np.ndarray], specs: Sequence[Spec]) -> List[np.ndarray]:
    """Uninitialised C-contiguous arrays for ``specs``.

    Views of ``scratch`` (a ``uint8`` buffer of at least
    :func:`workspace_bytes` bytes) laid out back to back on 64-byte
    boundaries, or fresh arrays when ``scratch`` is ``None``.
    """
    if scratch is None:
        return [np.empty(shape, dtype) for shape, dtype in specs]
    arrays: List[np.ndarray] = []
    offset = 0
    for spec in specs:
        nbytes = _nbytes(spec)
        shape, dtype = spec
        arrays.append(scratch[offset : offset + nbytes].view(dtype).reshape(shape))
        offset += align_up(nbytes)
    return arrays


def pad_into(dst: np.ndarray, src: np.ndarray, before: Sequence[int], value=0) -> np.ndarray:
    """Copy ``src`` into ``dst`` at offset ``before`` and fill the rest of
    ``dst`` with ``value``.

    ``dst`` is a reused buffer, so its border is rewritten on every call;
    the result equals ``np.pad`` of ``src`` to ``dst``'s shape.
    """
    head = ()
    for axis, (lo, size) in enumerate(zip(before, src.shape)):
        hi = lo + size
        if lo:
            dst[head + (slice(0, lo),)] = value
        if hi < dst.shape[axis]:
            dst[head + (slice(hi, None),)] = value
        head += (slice(None),)
    dst[tuple(slice(lo, lo + size) for lo, size in zip(before, src.shape))] = src
    return dst
