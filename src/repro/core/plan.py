"""Step plans: a prepared session's run, compiled (paper Section 3.2).

Pre-inference takes every decision that does not depend on the feed out
of the hot loop; :func:`build_plan` extends that to the run itself.  Each
feed, activation and output gets an integer slot in the run's tensor
environment (a list), and each operator becomes a :class:`Step` holding
its input/output slots, its cross-backend copy edges and its interleaved
acquire/release buffers.  A plan is immutable and belongs to one session
generation (``resize`` builds a new one).

Under decoupling the plan also owns the generation's memory: one arena of
the memory plan's ``arena_bytes`` and one kernel scratch buffer, both
allocated here.  Every fp32 CNN runner on the CPU backend is bound to
its output's planned slot and to the scratch (:meth:`OpRunner.bind`), so
every path that runs the plan — the plain loop, the wrapped steps, the
resilient executor — writes into them.  Binding is also when a
convolution or pooling runner carves its temporaries from the scratch
and builds every view of its run (windows, patches, weight slices, GEMM
reshapes): a run computes and carves nothing.  ``resize`` builds new
runners and a new plan, and a rolled-back resize keeps the old ones, so
no view outlives its binding and bindings need no bookkeeping.

Executing a plan is :func:`walk`, in topological order.  It takes a
per-step function ``(step, inputs) -> outputs`` that the session composes
once per run from the wrappers below, so a step pays only for the
concerns that are switched on; with none on, :func:`walk` runs the plan's
pre-bound ``(fn, ins, outs)`` triples directly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..backends.base import Backend, StorageType
from ..backends.cpu import CpuExecution
from ..faults.resilience import Deadline
from ..ir.graph import Graph, Node
from ..ir.tensor import DataType, TensorDesc
from ..kernels import aligned_empty
from ..obs.tracer import Tracer
from ..sim.clock import VirtualClock
from .memory import MemoryPlan, alias_roots

__all__ = [
    "Step",
    "StepPlan",
    "StepFn",
    "bind_arena",
    "build_plan",
    "walk",
    "bounded",
    "copying",
    "interleaved",
    "traced",
]


@dataclass(frozen=True)
class Step:
    """One operator of a step plan: everything about it no feed can change.

    ``copies`` are the inputs whose producer is placed on another
    backend, as ``(input position, producer backend)``;
    ``acquire``/``release`` the buffers this step allocates and frees
    under ``decouple=False``.
    """

    node: Node
    backend: Backend
    ins: Tuple[int, ...]
    outs: Tuple[int, ...]
    copies: Tuple[Tuple[int, Backend], ...]
    acquire: Tuple[TensorDesc, ...]
    release: Tuple[TensorDesc, ...]


#: A step's pre-bound callable with its input and output slots.
PlainStep = Tuple[Callable[[Sequence[np.ndarray]], List[np.ndarray]],
                  Tuple[int, ...], Tuple[int, ...]]
#: The per-step function of one run: ``(step, inputs) -> outputs``.
StepFn = Callable[[Step, List[np.ndarray]], List[np.ndarray]]


@dataclass(frozen=True)
class StepPlan:
    """One session generation's compiled run.

    ``names`` maps slot -> tensor name, feeds first, in ``feeds`` order.
    ``plain`` is the steps as bare ``(fn, ins, outs)`` triples, or
    ``None`` when some step always needs a wrapper (copy edges,
    interleaved memory).  ``outputs`` holds ``(name, slot)``: ``slot`` is
    ``None`` for an output no step produces.  ``hooks`` are the backends
    overriding the ``on_execute_begin``/``on_execute_end`` brackets;
    ``copies`` says whether any step has a copy edge.
    """

    steps: Tuple[Step, ...]
    plain: Optional[Tuple[PlainStep, ...]]
    names: Tuple[str, ...]
    feeds: Tuple[str, ...]
    outputs: Tuple[Tuple[str, Optional[int]], ...]
    hooks: Tuple[Backend, ...]
    copies: bool
    arena: Optional[np.ndarray] = None
    bound: int = 0


def bind_arena(
    graph: Graph,
    order: Sequence[Node],
    executions: Mapping[str, object],
    memory: MemoryPlan,
) -> Tuple[np.ndarray, int]:
    """Allocate ``memory``'s arena and one kernel scratch buffer, and bind
    every fp32 runner that takes ``out=`` to them.

    A runner's output gets its planned slot unless its alias class holds
    a graph output (it then stays a fresh array); its temporaries are
    carved from the scratch, sized to the largest need, and its views
    built, once (:meth:`OpRunner.bind`).  Returns the arena and the
    number of tensors bound to it.
    """
    fp32 = DataType.FLOAT32
    runners = []
    for node in order:
        execution = executions[node.name]
        if not isinstance(execution, CpuExecution) or not execution.runner.bindable:
            continue
        if all(graph.desc(name).dtype is fp32 for name in node.inputs + node.outputs):
            runners.append(execution.runner)
    roots = alias_roots(graph, order)
    escaping = {roots.get(name, name) for name in graph.outputs}
    arena = aligned_empty(memory.arena_bytes)
    scratch = aligned_empty(max((runner.scratch_bytes for runner in runners), default=0))
    bound = 0
    for runner in runners:
        name = runner.node.outputs[0]
        out = None
        if name in memory.offsets and roots.get(name, name) not in escaping:
            desc = graph.desc(name)
            offset = memory.offsets[name]
            nbytes = desc.size * fp32.itemsize
            out = arena[offset : offset + nbytes].view(fp32.np_dtype).reshape(desc.shape)
            bound += 1
        runner.bind(out, scratch)
    return arena, bound


def build_plan(
    graph: Graph,
    order: Sequence[Node],
    placement: Mapping[str, Backend],
    executions: Mapping[str, object],
    *,
    decouple: bool,
    memory: Optional[MemoryPlan] = None,
) -> StepPlan:
    """Compile a prepared session's run.

    Args:
        graph / order / placement: the session's graph, topological
            operator order and per-node backend.
        executions: prepared executions by node name (read only when the
            plan gets ``plain`` triples or binds the arena).
        decouple: ``False`` records per-step acquire/release buffers.
        memory: the generation's memory plan; given, its arena is
            allocated and bound (:func:`bind_arena`).
    """
    constants = graph.constants
    backends = [placement[node.name] for node in order]
    names = list(graph.inputs)
    producer: Dict[str, int] = {}
    for index, node in enumerate(order):
        for name in node.outputs:
            producer[name] = index
        names.extend(node.outputs)
    slots = {name: slot for slot, name in enumerate(names)}
    uses: Dict[str, int] = {}
    for node in order if not decouple else ():
        for name in node.inputs:
            if name not in constants:
                uses[name] = uses.get(name, 0) + 1

    steps = []
    for node, backend in zip(order, backends):
        dynamic = [name for name in node.inputs if name not in constants]
        release = []
        for name in node.inputs if not decouple else ():
            if name in uses:
                uses[name] -= 1
                if uses[name] == 0 and name not in graph.inputs:
                    release.append(graph.desc(name))
        steps.append(Step(
            node=node,
            backend=backend,
            ins=tuple(slots[name] for name in dynamic),
            outs=tuple(slots[name] for name in node.outputs),
            copies=tuple(
                (position, backends[producer[name]])
                for position, name in enumerate(dynamic)
                if name in producer and backends[producer[name]] is not backend
            ),
            acquire=(
                () if decouple else tuple(graph.desc(name) for name in node.outputs)
            ),
            release=tuple(release),
        ))

    copies = any(step.copies for step in steps)
    plain = None
    if decouple and not copies:
        plain = []
        for step in steps:
            execution = executions[step.node.name]
            fn = (
                execution.runner.fn if isinstance(execution, CpuExecution)
                else execution.run
            )
            plain.append((fn, step.ins, step.outs))
        plain = tuple(plain)
    hooks = {
        id(backend): backend for backend in backends
        if type(backend).on_execute_begin is not Backend.on_execute_begin
        or type(backend).on_execute_end is not Backend.on_execute_end
    }
    arena, bound = (
        bind_arena(graph, order, executions, memory) if memory is not None else (None, 0)
    )
    return StepPlan(
        steps=tuple(steps),
        plain=plain,
        names=tuple(names),
        feeds=tuple(graph.inputs),
        outputs=tuple((name, slots.get(name)) for name in graph.outputs),
        hooks=tuple(hooks.values()),
        copies=copies,
        arena=arena,
        bound=bound,
    )


# -- per-step wrappers (composed once per run, outermost first) ---------------
def bounded(inner: StepFn, deadline: Deadline) -> StepFn:
    """Check the run's deadline before every step."""
    def step_fn(step, inputs):
        deadline.check(step.node.name)
        return inner(step, inputs)
    return step_fn


def copying(inner: StepFn, counts: List[int]) -> StepFn:
    """Move cross-backend inputs, counting copies and bytes into ``counts``."""
    def step_fn(step, inputs):
        for position, producer in step.copies:
            array = producer.on_copy_buffer(inputs[position], step.backend)
            inputs[position] = array
            counts[0] += 1
            counts[1] += array.nbytes
        return inner(step, inputs)
    return step_fn


def interleaved(inner: StepFn) -> StepFn:
    """Interleaved memory management (left-hand side of Figure 3)."""
    def step_fn(step, inputs):
        backend = step.backend
        for desc in step.acquire:
            backend.on_acquire_buffer(desc, StorageType.DYNAMIC)
        outputs = inner(step, inputs)
        for desc in step.release:
            backend.on_release_buffer(desc, StorageType.DYNAMIC)
        return outputs
    return step_fn


def traced(inner: StepFn, tracer: Tracer, clock: VirtualClock) -> StepFn:
    """One ``"op"`` span per step, recorded from the executing thread."""
    def step_fn(step, inputs):
        start = time.perf_counter()
        virtual = clock.now_ms
        outputs = inner(step, inputs)
        node = step.node
        tracer.record(
            node.name, "op", start, time.perf_counter(),
            op=node.op_type,
            backend=step.backend.forward_type,
            virtual_ms=clock.now_ms - virtual,
        )
        return outputs
    return step_fn


# -- walker ----------------------------------------------------------------------
def walk(plan: StepPlan, env: List[Optional[np.ndarray]], step_fn: Optional[StepFn]) -> None:
    """Run the steps in topological order; ``step_fn=None`` runs ``plan.plain``."""
    if step_fn is None:
        for fn, ins, outs in plan.plain:
            for slot, value in zip(outs, fn([env[i] for i in ins])):
                env[slot] = value
    else:
        for step in plan.steps:
            for slot, value in zip(step.outs, step_fn(step, [env[i] for i in step.ins])):
                env[slot] = value
