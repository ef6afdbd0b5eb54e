"""Lockset + happens-before race detection (Eraser crossed with FastTrack).

The detector consumes three event kinds from :class:`repro.sanitize.Sanitizer`:

* **accesses** — ``access(tid, var, rw, lockset)`` for every instrumented
  read/write of a shared field;
* **lock edges** — release/acquire of a named lock, which double as
  happens-before channels (a release publishes the releasing thread's
  clock; the next acquire inherits it), exactly how TSan models mutexes;
* **message edges** — explicit ``send``/``recv`` on an arbitrary key, used
  for non-lock synchronization such as the session pool's ``queue.Queue``
  handoff (put happens-before get).

Each thread carries a vector clock (``{tid: counter}``).  An access is
recorded with the accessing thread's *epoch* — its own clock component —
plus the set of lock names held.  Two accesses to the same variable race
when (a) they come from different threads, (b) neither happens-before the
other (FastTrack's epoch test: the later thread's clock has not absorbed
the earlier access's epoch), and (c) their locksets are disjoint (Eraser's
test).  Requiring *both* (b) and (c) keeps the false-positive rate near
zero on lock-free-by-design single-owner state (a micro-batcher seat's
sessions, handed between callers with a message edge) while still
flagging genuinely unordered sharing.

Per-variable state is a last-write plus a bounded read ring — O(1) per
access, which is what makes the enabled mode usable inside the chaos
storm's inner loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, List

__all__ = ["AccessInfo", "RaceRecord", "RaceDetector", "VectorClock"]

#: A vector clock: thread id -> last event counter observed for it.
VectorClock = Dict[int, int]


@dataclass(frozen=True)
class AccessInfo:
    """One recorded access: who, when (own epoch), holding what."""

    tid: int
    epoch: int
    lockset: FrozenSet[str]
    rw: str  # "r" | "w"


@dataclass(frozen=True)
class RaceRecord:
    """Two conflicting accesses with no ordering and no common lock."""

    var: str
    kind: str  # "write-write" | "read-write" | "write-read"
    first: AccessInfo
    second: AccessInfo

    def describe(self) -> str:
        def side(a: AccessInfo) -> str:
            locks = ",".join(sorted(a.lockset)) or "no locks"
            return f"thread {a.tid} ({'write' if a.rw == 'w' else 'read'}, {locks})"

        return (
            f"{self.kind} race on {self.var}: {side(self.first)} vs "
            f"{side(self.second)} — unordered and lockset-disjoint"
        )


class RaceDetector:
    """Vector-clock + lockset checker over a stream of access events.

    Not internally synchronized: the owning :class:`Sanitizer` serializes
    every call under its own lock (the detector is shared mutable state
    itself, and eating our own dog food one level down would recurse).
    """

    def __init__(self, max_reads: int = 8) -> None:
        self.max_reads = max_reads
        self._clocks: Dict[int, VectorClock] = {}
        self._channels: Dict[Hashable, VectorClock] = {}
        self._writes: Dict[str, AccessInfo] = {}
        self._reads: Dict[str, List[AccessInfo]] = {}
        self.races: List[RaceRecord] = []
        self._seen: set = set()

    # -- clocks --------------------------------------------------------------
    def _clock(self, tid: int) -> VectorClock:
        clock = self._clocks.get(tid)
        if clock is None:
            clock = self._clocks[tid] = {tid: 1}
        return clock

    def _tick(self, tid: int) -> None:
        clock = self._clock(tid)
        clock[tid] = clock.get(tid, 0) + 1

    @staticmethod
    def _merge_into(dst: VectorClock, src: VectorClock) -> None:
        for tid, counter in src.items():
            if counter > dst.get(tid, 0):
                dst[tid] = counter

    # -- synchronization edges ----------------------------------------------
    def send(self, tid: int, key: Hashable) -> None:
        """Publish ``tid``'s clock on ``key`` (lock release, queue put)."""
        channel = self._channels.setdefault(key, {})
        self._merge_into(channel, self._clock(tid))
        self._tick(tid)

    def recv(self, tid: int, key: Hashable) -> None:
        """Absorb the clock published on ``key`` (lock acquire, queue get)."""
        channel = self._channels.get(key)
        if channel:
            self._merge_into(self._clock(tid), channel)

    # -- accesses ------------------------------------------------------------
    def access(
        self, tid: int, var: str, rw: str, lockset: FrozenSet[str]
    ) -> int:
        """Record one access; returns how many new races it exposed."""
        clock = self._clock(tid)
        current = AccessInfo(tid, clock.get(tid, 0), lockset, rw)

        def racy(prev: AccessInfo) -> bool:
            if prev.tid == tid:
                return False
            # FastTrack epoch test: prev happens-before current iff the
            # current thread's clock has absorbed prev's own component.
            if clock.get(prev.tid, 0) >= prev.epoch:
                return False
            return not (prev.lockset & lockset)

        found = 0
        last_write = self._writes.get(var)
        if rw == "w":
            if last_write is not None and racy(last_write):
                found += self._report(var, "write-write", last_write, current)
            for read in self._reads.get(var, ()):
                if racy(read):
                    found += self._report(var, "read-write", read, current)
            self._writes[var] = current
            self._reads[var] = []
        else:
            if last_write is not None and racy(last_write):
                found += self._report(var, "write-read", last_write, current)
            reads = self._reads.setdefault(var, [])
            reads.append(current)
            if len(reads) > self.max_reads:
                del reads[0]
        return found

    def _report(
        self, var: str, kind: str, first: AccessInfo, second: AccessInfo
    ) -> int:
        key = (var, kind, first.tid, second.tid)
        if key in self._seen:
            return 0
        self._seen.add(key)
        self.races.append(RaceRecord(var, kind, first, second))
        return 1

    def clear(self) -> None:
        """Drop all state (per-run isolation in tests and the CLI)."""
        self._clocks.clear()
        self._channels.clear()
        self._writes.clear()
        self._reads.clear()
        self.races.clear()
        self._seen.clear()
