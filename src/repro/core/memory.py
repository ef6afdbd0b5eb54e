"""Static memory planning (paper Figure 3).

Because input sizes are fixed, pre-inference can virtually walk the graph,
compute every tensor's lifetime, and lay all activations out in one arena
with aggressive reuse (the right-hand side of Figure 3).  The arena is the
buffer runs write into: a decoupled session allocates it once per
generation and binds each fp32 CNN runner's output to its planned slot
(:func:`repro.core.plan.build_plan`), so the hot loop allocates no
activation.  :func:`repro.analysis.check_memory_plan` proves a plan
alias-free independently of this module.

Lifetimes are alias-aware.  Some runners return a view of their input
(:func:`may_alias`); the bytes such a view reads belong to the tensor it
was cut from, its *root*, so a root stays live until its last view's
last use.  A tensor whose alias class holds a graph output is never bound
to the arena: whatever a run returns is a fresh array.

The planner is a classic greedy offset assigner: process tensors largest
first; place each at the lowest offset that does not overlap any
already-placed tensor with an intersecting lifetime.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..ir.graph import Graph, Node
from ..ir.ops import Op
from ..kernels.workspace import ALIGNMENT, align_up

__all__ = [
    "TensorLifetime",
    "MemoryPlan",
    "plan_memory",
    "compute_lifetimes",
    "may_alias",
    "alias_roots",
    "ExtentFreeList",
    "FreeListError",
    "doubling_buckets",
    "bucket_for",
]

@dataclass(frozen=True)
class TensorLifetime:
    """Liveness interval of a tensor over the execution order.

    ``first`` is the step producing it; ``last`` the final step consuming
    it (inclusive).  Graph outputs stay live until the end.
    """

    name: str
    nbytes: int
    first: int
    last: int

    def overlaps(self, other: "TensorLifetime") -> bool:
        return self.first <= other.last and other.first <= self.last


@dataclass
class MemoryPlan:
    """Result of static planning.

    Attributes:
        offsets: tensor name -> byte offset in the arena.
        arena_bytes: total arena size.
        total_tensor_bytes: sum of all tensor sizes (the no-reuse cost).
        lifetimes: the computed liveness intervals.
    """

    offsets: Dict[str, int]
    arena_bytes: int
    total_tensor_bytes: int
    lifetimes: Dict[str, TensorLifetime]

    @property
    def reuse_ratio(self) -> float:
        """How much memory reuse saved vs. naive allocation (>= 1.0)."""
        if self.arena_bytes == 0:
            return 1.0
        return self.total_tensor_bytes / self.arena_bytes

    @property
    def peak_bytes(self) -> int:
        """Maximum sum of live tensor bytes over any execution step.

        This is the information-theoretic floor for the arena: no plan can
        use fewer bytes than the worst-step live set.  The gap between
        ``arena_bytes`` and ``peak_bytes`` is fragmentation introduced by
        the greedy offset assignment.
        """
        horizon = max((t.last for t in self.lifetimes.values()), default=-1) + 1
        deltas = [0] * (horizon + 1)
        for t in self.lifetimes.values():
            deltas[t.first] += t.nbytes
            if t.last + 1 <= horizon:
                deltas[t.last + 1] -= t.nbytes
        peak = running = 0
        for delta in deltas:
            running += delta
            peak = max(peak, running)
        return peak

    def utilization(self) -> float:
        """Fraction of the arena carrying live data at the worst step.

        ``peak_bytes / arena_bytes`` — 1.0 means a perfectly packed arena,
        lower values quantify fragmentation (used by ``cli benchmark`` and
        the memory-plan sanitizer's wasted-gap statistics).
        """
        if self.arena_bytes == 0:
            return 1.0
        return self.peak_bytes / self.arena_bytes

    def to_json(self) -> Dict[str, object]:
        """JSON-serializable form (persisted by the serving cache)."""
        return {
            "offsets": dict(self.offsets),
            "arena_bytes": self.arena_bytes,
            "total_tensor_bytes": self.total_tensor_bytes,
            "lifetimes": {
                name: [t.nbytes, t.first, t.last]
                for name, t in self.lifetimes.items()
            },
        }

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "MemoryPlan":
        """Inverse of :meth:`to_json`."""
        lifetimes = {
            str(name): TensorLifetime(str(name), int(nbytes), int(first), int(last))
            for name, (nbytes, first, last) in dict(data["lifetimes"]).items()
        }
        return cls(
            offsets={str(k): int(v) for k, v in dict(data["offsets"]).items()},
            arena_bytes=int(data["arena_bytes"]),
            total_tensor_bytes=int(data["total_tensor_bytes"]),
            lifetimes=lifetimes,
        )

    def matches(self, lifetimes: Dict[str, "TensorLifetime"]) -> bool:
        """Whether this plan covers exactly ``lifetimes`` (same tensors,
        sizes and liveness intervals).

        Used to validate a deserialized plan against the current graph
        before trusting it: a stale cache entry (changed shapes, changed
        execution order) is rejected in O(n) instead of corrupting
        activations.
        """
        if set(self.offsets) != set(lifetimes) or set(self.lifetimes) != set(lifetimes):
            return False
        return all(self.lifetimes[name] == life for name, life in lifetimes.items())

    def validate(self) -> None:
        """Check the plan's soundness invariant.

        No two tensors with overlapping lifetimes may overlap in the arena;
        every tensor must lie inside the arena.  Raises ``AssertionError``
        on violation (used by tests and failure injection).
        """
        items = [
            (name, self.offsets[name], self.lifetimes[name])
            for name in self.offsets
        ]
        for name, offset, life in items:
            assert offset + life.nbytes <= self.arena_bytes, f"{name} exceeds arena"
        for i, (name_a, off_a, life_a) in enumerate(items):
            for name_b, off_b, life_b in items[i + 1 :]:
                if life_a.overlaps(life_b):
                    disjoint = off_a + life_a.nbytes <= off_b or off_b + life_b.nbytes <= off_a
                    assert disjoint, f"live tensors {name_a} and {name_b} overlap in arena"

    def sound(self) -> bool:
        """Whether every offset is aligned and in bounds and no two
        co-live tensors share a byte: the check a plan from outside this
        process (a cache entry) passes before a session writes through it.

        An O(n log n) sweep over steps: live tensors are kept sorted by
        offset, each pairwise disjoint, so a tensor entering the live set
        overlaps one of them only if it overlaps a neighbour in that order.
        """
        if set(self.offsets) != set(self.lifetimes):
            return False
        if not 0 <= self.arena_bytes <= sum(align_up(t.nbytes) for t in self.lifetimes.values()):
            return False
        entering = []
        for name, life in self.lifetimes.items():
            offset = self.offsets[name]
            if offset < 0 or offset % ALIGNMENT or offset + life.nbytes > self.arena_bytes:
                return False
            if life.nbytes:
                entering.append((life.first, offset, offset + life.nbytes, life.last))
        entering.sort()
        live: List[Tuple[int, int]] = []  # (offset, end), sorted
        leaving: List[Tuple[int, int, int]] = []  # heap of (last, offset, end)
        for first, offset, end, last in entering:
            while leaving and leaving[0][0] < first:
                _, gone, gone_end = heapq.heappop(leaving)
                del live[bisect.bisect_left(live, (gone, gone_end))]
            at = bisect.bisect_left(live, (offset, end))
            if at > 0 and live[at - 1][1] > offset:
                return False
            if at < len(live) and live[at][0] < end:
                return False
            live.insert(at, (offset, end))
            heapq.heappush(leaving, (last, offset, end))
        return True


def may_alias(node: Node, graph: Graph) -> bool:
    """Whether ``node``'s runner can return a view of its first input.

    The alias table: Reshape, Flatten, Dropout, Identity and Slice always
    can; Split when a part is contiguous (every part is when the axes
    before the split axis have extent 1, or one part is the whole); and
    Transpose when the permutation keeps the order of the axes longer
    than 1 (``np.ascontiguousarray`` then returns the view itself).
    """
    op = node.op_type
    if op in (Op.RESHAPE, Op.FLATTEN, Op.DROPOUT, Op.IDENTITY, Op.SLICE):
        return True
    if op not in (Op.SPLIT, Op.TRANSPOSE):
        return False
    shape = graph.desc(node.inputs[0]).shape
    if op == Op.SPLIT:
        axis = int(node.attrs["axis"]) % len(shape)
        return math.prod(shape[:axis]) == 1 or any(
            int(size) == shape[axis] for size in node.attrs["sizes"]
        )
    kept = [axis for axis in node.attrs["perm"] if shape[axis] != 1]
    return kept == sorted(kept)


def alias_roots(graph: Graph, order: Sequence[Node]) -> Dict[str, str]:
    """Each possible view's root: the tensor whose bytes it reads.

    Tensors absent from the result are their own roots.
    """
    roots: Dict[str, str] = {}
    for node in order:
        if node.inputs and may_alias(node, graph):
            root = roots.get(node.inputs[0], node.inputs[0])
            for out in node.outputs:
                roots[out] = root
    return roots


def compute_lifetimes(
    graph: Graph, order: Sequence[Node], skip: Optional[Set[str]] = None
) -> Dict[str, TensorLifetime]:
    """Liveness intervals of all intermediate tensors over ``order``.

    ``skip`` names tensors excluded from planning (graph inputs and
    constants — they are owned by the caller / constant table).  A root
    (:func:`alias_roots`) lives as long as its longest-lived view.
    """
    skip = skip if skip is not None else set(graph.inputs) | set(graph.constants)
    first: Dict[str, int] = {}
    last: Dict[str, int] = {}
    for step, node in enumerate(order):
        for out in node.outputs:
            if out not in skip:
                first.setdefault(out, step)
                last[out] = step
        for inp in node.inputs:
            if inp in first:
                last[inp] = step
    horizon = len(order)
    for out in graph.outputs:
        if out in first:
            last[out] = horizon  # outputs survive the whole run
    for view, root in alias_roots(graph, order).items():
        if view in last and root in last:
            last[root] = max(last[root], last[view])
    lifetimes = {}
    for name in first:
        desc = graph.desc(name)
        lifetimes[name] = TensorLifetime(name, desc.nbytes, first[name], last[name])
    return lifetimes


def plan_memory(
    graph: Graph, order: Optional[Sequence[Node]] = None, skip: Optional[Set[str]] = None
) -> MemoryPlan:
    """Assign arena offsets to every intermediate tensor (greedy best-fit)."""
    order = list(order) if order is not None else graph.toposort()
    lifetimes = compute_lifetimes(graph, order, skip)
    # Largest tensors first gives the classic 2-approximation behaviour.
    todo = sorted(lifetimes.values(), key=lambda t: (-t.nbytes, t.first))
    placed: List[Tuple[int, TensorLifetime]] = []
    offsets: Dict[str, int] = {}
    for tensor in todo:
        conflicts = sorted(
            (off, off + align_up(other.nbytes))
            for off, other in placed
            if tensor.overlaps(other)
        )
        candidate = 0
        for start, end in conflicts:
            if candidate + tensor.nbytes <= start:
                break
            candidate = max(candidate, end)
        offsets[tensor.name] = candidate
        placed.append((candidate, tensor))
    arena = max((off + align_up(life.nbytes) for off, life in placed), default=0)
    total = sum(t.nbytes for t in lifetimes.values())
    return MemoryPlan(offsets, arena, total, lifetimes)


def doubling_buckets(top: int, smallest: int) -> List[int]:
    """Buckets doubling from ``smallest`` and ending exactly at ``top``.

    The one bucketing rule of every prepared shape: decode batches
    (smallest 1), prompt lengths (smallest 8) and KV-slab capacities
    (smallest ``page_tokens``) each get one prepared shape per bucket,
    so a varying size re-runs pre-inference at most ``log2`` times
    instead of once per size.
    """
    if smallest < 1:
        raise ValueError(f"smallest bucket must be >= 1, got {smallest}")
    buckets: List[int] = []
    cap = smallest
    while cap < top:
        buckets.append(cap)
        cap *= 2
    buckets.append(top)
    return buckets


def bucket_for(n: int, buckets: List[int]) -> int:
    """Smallest bucket >= ``n``; raises ``ValueError`` past the largest."""
    for cap in buckets:
        if cap >= n:
            return cap
    raise ValueError(f"{n} exceeds the largest bucket {buckets[-1]}")


class FreeListError(ValueError):
    """A misuse of :class:`ExtentFreeList` (double/wild/out-of-range free).

    A ``ValueError`` subclass for backward compatibility; additionally
    carries a typed rule id and converts to a structured
    :class:`repro.analysis.Diagnostic` for the sanitizer/CLI reports.
    """

    def __init__(self, rule: str, message: str) -> None:
        super().__init__(message)
        self.rule = rule

    def as_diagnostic(self):
        # Imported lazily: repro.analysis.memcheck imports this module.
        from ..analysis.diagnostics import error

        return error(self.rule, str(self))


class ExtentFreeList:
    """Best-fit allocator over ``[start, end)`` unit extents with coalescing.

    The static planner above assigns offsets once, before inference; a KV
    cache (``repro.genai.kvcache``) instead allocates and frees slabs
    *while serving*, so it needs a dynamic allocator over the same arena
    abstraction.  Units are deliberately abstract (the KV cache uses
    fixed-size pages, keeping every returned offset aligned by
    construction); the free list stays sorted and adjacent extents merge
    on :meth:`free`, so fragmentation is bounded by genuine interleaving,
    not by allocator bookkeeping.

    Frees are verified, not trusted: every outstanding allocation is
    tracked by its start unit, and :meth:`free` raises a typed
    :class:`FreeListError` on out-of-range ranges, frees of never-
    allocated extents, size-mismatched frees, and double frees — *even
    when the pages have since been handed to another caller*, the case
    the old overlap-with-free-extent check could not see.
    """

    def __init__(self, total_units: int) -> None:
        if total_units < 0:
            raise ValueError(f"total_units must be >= 0, got {total_units}")
        self.total_units = total_units
        self._free: List[Tuple[int, int]] = [(0, total_units)] if total_units else []
        self._allocated: Dict[int, int] = {}  # start unit -> extent size

    def alloc(self, units: int) -> Optional[int]:
        """Reserve ``units`` contiguous units; ``None`` when nothing fits.

        Best-fit: the smallest extent that fits is carved, which keeps
        large holes intact for large future slabs.
        """
        if units <= 0:
            raise ValueError(f"units must be > 0, got {units}")
        best = None
        for i, (start, end) in enumerate(self._free):
            size = end - start
            if size >= units and (best is None or size < best[1]):
                best = (i, size)
        if best is None:
            return None
        i, _ = best
        start, end = self._free[i]
        if end - start == units:
            del self._free[i]
        else:
            self._free[i] = (start + units, end)
        self._allocated[start] = units
        return start

    def free(self, start: int, units: int) -> None:
        """Return ``[start, start + units)``, merging adjacent extents.

        Raises:
            FreeListError: (a ``ValueError``) with a typed rule id —
                ``mem-free-out-of-range`` for ranges outside the arena,
                ``mem-double-free`` for extents not currently allocated
                (freed twice, or never allocated), and
                ``mem-free-mismatched`` when the size does not match the
                original allocation (partial frees corrupt coalescing).
        """
        if units <= 0 or start < 0 or start + units > self.total_units:
            raise FreeListError(
                "mem-free-out-of-range",
                f"bad free of [{start}, {start + units}) over {self.total_units} units",
            )
        owned = self._allocated.get(start)
        if owned is None:
            raise FreeListError(
                "mem-double-free",
                f"double free (or free of a never-allocated extent): "
                f"[{start}, {start + units}) is not an outstanding allocation",
            )
        if owned != units:
            raise FreeListError(
                "mem-free-mismatched",
                f"mismatched free of [{start}, {start + units}): "
                f"the allocation at {start} spans {owned} units",
            )
        del self._allocated[start]
        new = (start, start + units)
        merged: List[Tuple[int, int]] = []
        inserted = False
        for ext in self._free:
            if ext[1] < new[0] or new[1] < ext[0]:
                if not inserted and ext[0] > new[1]:
                    merged.append(new)
                    inserted = True
                merged.append(ext)
            elif ext[1] == new[0] or new[1] == ext[0]:
                new = (min(ext[0], new[0]), max(ext[1], new[1]))
            else:
                raise ValueError(
                    f"double free: [{start}, {start + units}) overlaps free "
                    f"extent [{ext[0]}, {ext[1]})"
                )
        if not inserted:
            merged.append(new)
        merged.sort()
        self._free = merged

    @property
    def free_units(self) -> int:
        return sum(end - start for start, end in self._free)

    @property
    def largest_extent(self) -> int:
        return max((end - start for start, end in self._free), default=0)

    def extents(self) -> List[Tuple[int, int]]:
        """The sorted free extents (introspection/tests)."""
        return list(self._free)
