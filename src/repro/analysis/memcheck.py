"""Memory-plan sanitizer: an independent prover for arena soundness.

The greedy planner in :mod:`repro.core.memory` assigns every activation a
byte range in one pre-allocated arena (paper Figure 3).  An aliasing bug
there — two simultaneously-live tensors sharing bytes — is the
single-process analogue of a data race: silent, input-dependent corruption.

This module re-derives everything from first principles instead of trusting
the plan: tensor lifetimes are recomputed from the topological order, byte
sizes from the graph's own descriptors, and the checker then proves

* no two live tensors share arena bytes (``mem-overlap``),
* every tensor lies inside the arena (``mem-out-of-bounds``),
* every offset is 64-byte aligned (``mem-misaligned``),
* every live tensor was actually planned (``mem-unplanned``) with a
  lifetime at least as wide as the derived one (``mem-lifetime``) and the
  right byte size (``mem-size``),

and reports fragmentation statistics (peak live bytes, utilization, wasted
gap) on the side.  ``Session(config=SessionConfig(paranoid=True))`` runs
this checker on every plan it builds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..ir.graph import Graph, GraphError, Node
from ..core.memory import ALIGNMENT, MemoryPlan, may_alias
from .diagnostics import Diagnostic, Severity, error, has_errors, sort_diagnostics, warning

__all__ = [
    "Interval",
    "MemCheckReport",
    "derive_lifetimes",
    "check_memory_plan",
    "check_slab_plan",
]


@dataclass(frozen=True)
class Interval:
    """An independently derived liveness interval (steps, inclusive)."""

    name: str
    nbytes: int
    first: int
    last: int

    def overlaps(self, other: "Interval") -> bool:
        return self.first <= other.last and other.first <= self.last


@dataclass
class MemCheckReport:
    """Verdict of :func:`check_memory_plan`.

    Attributes:
        diagnostics: findings, errors first; empty means the plan is proven
            sound against the re-derived lifetimes.
        arena_bytes: the plan's arena size.
        peak_bytes: maximum sum of live tensor bytes over any step — the
            information-theoretic floor for the arena.
        utilization: ``peak_bytes / arena_bytes`` (1.0 for an empty plan);
            low values mean fragmentation.
        wasted_bytes: ``arena_bytes - peak_bytes`` — the planner's gap cost.
        checked_tensors: how many tensors were verified.
        checked_pairs: how many live-overlapping pairs were proven disjoint.
    """

    diagnostics: List[Diagnostic] = field(default_factory=list)
    arena_bytes: int = 0
    peak_bytes: int = 0
    utilization: float = 1.0
    wasted_bytes: int = 0
    checked_tensors: int = 0
    checked_pairs: int = 0

    @property
    def ok(self) -> bool:
        """True when no *error*-severity finding exists."""
        return not has_errors(self.diagnostics)

    def raise_if_failed(self) -> None:
        """Raise :class:`GraphError` carrying the diagnostics on failure."""
        if not self.ok:
            errors = [d for d in self.diagnostics if d.severity is Severity.ERROR]
            raise GraphError(
                "memory plan failed sanitization: "
                + "; ".join(d.message for d in errors),
                self.diagnostics,
            )

    def summary(self) -> str:
        return (
            f"{self.checked_tensors} tensors, {self.checked_pairs} live pairs checked; "
            f"arena {self.arena_bytes} B, peak {self.peak_bytes} B "
            f"({self.utilization * 100:.0f}% utilized, {self.wasted_bytes} B gap)"
        )


def derive_lifetimes(
    graph: Graph,
    order: Optional[Sequence[Node]] = None,
    skip: Optional[Set[str]] = None,
) -> Dict[str, Interval]:
    """Recompute liveness intervals from scratch (no planner code reused).

    Mirrors the planner's contract — graph inputs and constants are owned
    by the caller, graph outputs survive to the horizon, a tensor a view
    was cut from lives until the view's last use — but is written
    independently so a planner bug cannot hide behind shared code.  Only
    the alias table itself (:func:`repro.core.memory.may_alias`, which
    ops return views) is shared: it is a fact about the runners.
    """
    order = list(order) if order is not None else graph.toposort()
    skip = skip if skip is not None else set(graph.inputs) | set(graph.constants)
    first: Dict[str, int] = {}
    last: Dict[str, int] = {}
    for step, node in enumerate(order):
        for inp in node.inputs:
            if inp in first:
                last[inp] = max(last[inp], step)
        for out in node.outputs:
            if out not in skip and out not in first:
                first[out] = step
                last[out] = step
    horizon = len(order)
    for out in graph.outputs:
        if out in first:
            last[out] = horizon
    # A view's bytes are its root's: walk views in reverse topological
    # order, so a view's reach is final before it passes to its source,
    # and widen only the tensors that are no view (the roots).
    reach = dict(last)
    views = set()
    for node in reversed(order):
        if not node.inputs or not may_alias(node, graph):
            continue
        for out in node.outputs:
            if out in last:
                views.add(out)
                if node.inputs[0] in reach:
                    reach[node.inputs[0]] = max(reach[node.inputs[0]], reach[out])
    for name in last:
        if name not in views:
            last[name] = reach[name]
    intervals: Dict[str, Interval] = {}
    for name, start in first.items():
        desc = graph.desc(name)
        intervals[name] = Interval(name, desc.nbytes, start, last[name])
    return intervals


def check_slab_plan(
    plan: MemoryPlan,
    page_bytes: int = 0,
    per_token_bytes: int = 0,
    token_capacities: Optional[Dict[str, int]] = None,
) -> MemCheckReport:
    """Verify a *dynamic* slab plan (no graph, every slab co-live).

    The KV-cache allocator (:mod:`repro.genai.kvcache`) snapshots its live
    slabs as a :class:`MemoryPlan` whose lifetimes all cover step 0 — the
    "execution order" of a serving arena is a single eternal step, because
    every resident sequence's cache must coexist.  This checker reuses the
    same proofs as :func:`check_memory_plan` minus the graph-derived parts:

    * no two slabs share arena bytes (``mem-overlap``),
    * every slab lies inside the arena (``mem-out-of-bounds``),
    * every offset is 64-byte aligned (``mem-misaligned``) and, when
      ``page_bytes`` is given, page-granular (``mem-unpaged``),
    * when ``per_token_bytes`` and ``token_capacities`` (slab name ->
      bucketed token capacity) are given, every slab's byte extent
      actually holds its advertised capacity — payload *and*, for
      quantized arenas, the per-row scales table (``mem-quant-extent``).
      The same rule flags an extent more than ~2x oversized, which is
      what an allocator still accounting fp32 bytes for an int8 arena
      looks like,

    plus the usual fragmentation statistics (peak here is simply the sum
    of live slab bytes).
    """
    diags: List[Diagnostic] = []
    items: List[Tuple[str, int, int]] = []
    capacities = token_capacities or {}
    for name, offset in plan.offsets.items():
        life = plan.lifetimes.get(name)
        if life is None:
            diags.append(error(
                "mem-unplanned",
                f"slab {name!r} has an offset but no lifetime record",
                tensor=name,
            ))
            continue
        items.append((name, offset, life.nbytes))
        if per_token_bytes and name in capacities:
            need = capacities[name] * per_token_bytes
            if life.nbytes < need:
                diags.append(error(
                    "mem-quant-extent",
                    f"slab {name!r} holds {life.nbytes} B but its "
                    f"{capacities[name]}-token capacity needs {need} B "
                    f"({per_token_bytes} B/token incl. scales) — the "
                    f"scales table would spill into the next extent",
                    tensor=name,
                ))
            elif page_bytes and life.nbytes >= 2 * need + page_bytes:
                diags.append(error(
                    "mem-quant-extent",
                    f"slab {name!r} holds {life.nbytes} B for a "
                    f"{capacities[name]}-token capacity needing only "
                    f"{need} B — capacity accounting is not using the "
                    f"arena's storage dtype (fp bytes for an int8 arena?)",
                    tensor=name,
                ))
        if offset % ALIGNMENT != 0:
            diags.append(error(
                "mem-misaligned",
                f"slab {name!r} at offset {offset} is not {ALIGNMENT}-byte aligned",
                tensor=name,
            ))
        if page_bytes and offset % page_bytes != 0:
            diags.append(error(
                "mem-unpaged",
                f"slab {name!r} at offset {offset} is not {page_bytes}-byte "
                f"page granular",
                tensor=name,
            ))
        if offset < 0 or offset + life.nbytes > plan.arena_bytes:
            diags.append(error(
                "mem-out-of-bounds",
                f"slab {name!r} spans [{offset}, {offset + life.nbytes}) "
                f"outside arena of {plan.arena_bytes} B",
                tensor=name,
            ))

    checked_pairs = 0
    by_offset = sorted(items, key=lambda it: it[1])
    for (name_a, off_a, nb_a), (name_b, off_b, nb_b) in zip(by_offset, by_offset[1:]):
        checked_pairs += 1
        if off_a + nb_a > off_b:
            diags.append(error(
                "mem-overlap",
                f"live slabs {name_a!r} and {name_b!r} overlap in arena bytes "
                f"[{off_b}, {min(off_a + nb_a, off_b + nb_b)})",
                tensor=name_b,
                hint="the allocator handed out aliasing extents — free-list bug",
            ))

    peak = sum(nb for _, _, nb in items)
    return MemCheckReport(
        diagnostics=sort_diagnostics(diags),
        arena_bytes=plan.arena_bytes,
        peak_bytes=peak,
        utilization=(peak / plan.arena_bytes) if plan.arena_bytes else 1.0,
        wasted_bytes=max(0, plan.arena_bytes - peak),
        checked_tensors=len(items),
        checked_pairs=checked_pairs,
    )


def check_memory_plan(
    graph: Graph,
    plan: MemoryPlan,
    order: Optional[Sequence[Node]] = None,
    skip: Optional[Set[str]] = None,
) -> MemCheckReport:
    """Independently verify ``plan`` against ``graph`` (see module docstring).

    Args:
        graph: the graph the plan was built for (descriptors required).
        plan: the plan under test.
        order: the execution order the plan assumed (default: toposort).
        skip: tensors excluded from planning (default: inputs + constants).

    Returns:
        a :class:`MemCheckReport`; ``report.ok`` is the verdict and
        ``report.raise_if_failed()`` converts it into a :class:`GraphError`.
    """
    derived = derive_lifetimes(graph, order, skip)
    diags: List[Diagnostic] = []

    # 1. Coverage: every live tensor must be planned, sized correctly, and
    #    covered by a lifetime at least as wide as the derived one.
    for name, interval in derived.items():
        if name not in plan.offsets:
            diags.append(error(
                "mem-unplanned",
                f"live tensor {name!r} has no arena offset",
                tensor=name,
            ))
            continue
        planned = plan.lifetimes.get(name)
        if planned is None:
            diags.append(error(
                "mem-unplanned",
                f"tensor {name!r} has an offset but no planned lifetime",
                tensor=name,
            ))
        else:
            if planned.nbytes != interval.nbytes:
                diags.append(error(
                    "mem-size",
                    f"tensor {name!r} planned at {planned.nbytes} B but the "
                    f"descriptor needs {interval.nbytes} B",
                    tensor=name,
                ))
            if planned.first > interval.first or planned.last < interval.last:
                diags.append(error(
                    "mem-lifetime",
                    f"tensor {name!r} planned live [{planned.first}, {planned.last}] "
                    f"but is actually live [{interval.first}, {interval.last}]",
                    tensor=name,
                ))
    for name in plan.offsets:
        if name not in derived:
            diags.append(warning(
                "mem-unplanned",
                f"planned tensor {name!r} is never live in this order",
                tensor=name,
            ))

    # 2. Alignment and bounds, from the graph's own byte sizes.
    for name, interval in derived.items():
        offset = plan.offsets.get(name)
        if offset is None:
            continue
        if offset % ALIGNMENT != 0:
            diags.append(error(
                "mem-misaligned",
                f"tensor {name!r} at offset {offset} is not {ALIGNMENT}-byte aligned",
                tensor=name,
            ))
        if offset < 0 or offset + interval.nbytes > plan.arena_bytes:
            diags.append(error(
                "mem-out-of-bounds",
                f"tensor {name!r} spans [{offset}, {offset + interval.nbytes}) "
                f"outside arena of {plan.arena_bytes} B",
                tensor=name,
            ))

    # 3. The core soundness proof: live-overlapping tensors are byte-disjoint.
    #    Sweep by derived first-step so only genuinely co-live pairs compare.
    placed = sorted(
        (interval for interval in derived.values() if interval.name in plan.offsets),
        key=lambda iv: iv.first,
    )
    checked_pairs = 0
    active: List[Interval] = []
    for interval in placed:
        active = [a for a in active if a.last >= interval.first]
        off_b = plan.offsets[interval.name]
        for other in active:
            checked_pairs += 1
            off_a = plan.offsets[other.name]
            disjoint = (
                off_a + other.nbytes <= off_b or off_b + interval.nbytes <= off_a
            )
            if not disjoint:
                lo = max(off_a, off_b)
                hi = min(off_a + other.nbytes, off_b + interval.nbytes)
                diags.append(error(
                    "mem-overlap",
                    f"live tensors {other.name!r} and {interval.name!r} overlap "
                    f"in arena bytes [{lo}, {hi}) during steps "
                    f"[{max(other.first, interval.first)}, "
                    f"{min(other.last, interval.last)}]",
                    tensor=interval.name,
                    hint="the plans for these two tensors alias — re-plan",
                ))
        active.append(interval)

    # 4. Fragmentation statistics (peak live bytes via an event sweep).
    horizon = max((iv.last for iv in derived.values()), default=-1) + 1
    deltas = [0] * (horizon + 1)
    for iv in derived.values():
        deltas[iv.first] += iv.nbytes
        if iv.last + 1 <= horizon:
            deltas[iv.last + 1] -= iv.nbytes
    peak = running = 0
    for delta in deltas:
        running += delta
        peak = max(peak, running)
    report = MemCheckReport(
        diagnostics=sort_diagnostics(diags),
        arena_bytes=plan.arena_bytes,
        peak_bytes=peak,
        utilization=(peak / plan.arena_bytes) if plan.arena_bytes else 1.0,
        wasted_bytes=max(0, plan.arena_bytes - peak),
        checked_tensors=len(derived),
        checked_pairs=checked_pairs,
    )
    return report
