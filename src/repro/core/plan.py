"""Step plans: a prepared session's run, compiled (paper Section 3.2).

Pre-inference takes every decision that does not depend on the feed out
of the hot loop; :func:`build_plan` extends that to the run itself.  Each
feed, activation and output gets an integer slot in the run's tensor
environment (a list), and each operator becomes a :class:`Step` holding
its input/output slots, its cross-backend copy edges, its arena landings,
its interleaved acquire/release buffers and — for the parallel scheduler
— its indegree and dependents.  A plan is immutable and belongs to one
session generation (``resize`` builds a new one).

Executing a plan is :func:`walk` (serial) or :func:`walk_parallel` (a
ready queue over the precomputed indegrees).  Both take a per-step
function ``(step, inputs) -> outputs`` that the session composes once per
run from the wrappers below, so a step pays only for the concerns that
are switched on; with none on, :func:`walk` runs the plan's pre-bound
``(fn, ins, outs)`` triples directly.
"""

from __future__ import annotations

import concurrent.futures
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..backends.base import Backend, StorageType
from ..backends.cpu import CpuExecution
from ..faults.resilience import Deadline
from ..ir.graph import Graph, GraphError, Node
from ..ir.tensor import TensorDesc
from ..obs.tracer import Tracer
from ..sim.clock import VirtualClock
from .memory import Arena

__all__ = [
    "Step",
    "StepPlan",
    "StepFn",
    "build_plan",
    "walk",
    "walk_parallel",
    "bounded",
    "ensuring",
    "copying",
    "interleaved",
    "landed",
    "traced",
]


@dataclass(frozen=True)
class Step:
    """One operator of a step plan: everything about it no feed can change.

    ``copies`` are the inputs whose producer is placed on another
    backend, as ``(input position, producer backend)``; ``landing`` the
    outputs with an arena slot, as ``(output position, desc)``, filled
    only under ``arena_execution``; ``acquire``/``release`` the buffers
    this step allocates and frees under ``decouple=False``;
    ``dependents`` holds, per output, the indices of the steps waiting on
    it.
    """

    node: Node
    backend: Backend
    ins: Tuple[int, ...]
    outs: Tuple[int, ...]
    copies: Tuple[Tuple[int, Backend], ...]
    landing: Tuple[Tuple[int, TensorDesc], ...]
    acquire: Tuple[TensorDesc, ...]
    release: Tuple[TensorDesc, ...]
    indegree: int
    dependents: Tuple[Tuple[int, ...], ...]


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
    ``None`` when some step always needs a wrapper (lazy prepare, copy
    edges, arena landing, interleaved memory).  ``outputs`` holds
    ``(name, slot, detach)``: ``slot`` is ``None`` for an output no step
    produces, ``detach`` marks arena-backed outputs.  ``hooks`` are the
    backends overriding the ``on_execute_begin``/``on_execute_end``
    brackets; ``copies`` says whether any step has a copy edge.
    """

    steps: Tuple[Step, ...]
    plain: Optional[Tuple[PlainStep, ...]]
    names: Tuple[str, ...]
    feeds: Tuple[str, ...]
    outputs: Tuple[Tuple[str, Optional[int], bool], ...]
    hooks: Tuple[Backend, ...]
    copies: bool
    parallel: bool


def build_plan(
    graph: Graph,
    order: Sequence[Node],
    placement: Mapping[str, Backend],
    executions: Mapping[str, object],
    *,
    decouple: bool,
    landing: Mapping[str, int],
    lazy: bool,
    parallel: bool,
) -> StepPlan:
    """Compile a prepared session's run.

    Args:
        graph / order / placement: the session's graph, topological
            operator order and per-node backend.
        executions: prepared executions by node name (read only when the
            plan gets ``plain`` triples, i.e. not under ``lazy``).
        decouple: ``False`` records per-step acquire/release buffers.
        landing: arena offsets of the tensors to land (empty unless
            ``arena_execution``).
        lazy: executions are still being created (``lazy_prepare``).
        parallel: ``parallel_branches`` applies; the plan keeps it only
            when no step copies across backends.
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
    consumers: Dict[str, List[int]] = {}
    for index, node in enumerate(order):
        for name in {name for name in node.inputs if name in producer}:
            consumers.setdefault(name, []).append(index)
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
            landing=tuple(
                (position, graph.desc(name))
                for position, name in enumerate(node.outputs)
                if name in landing
            ),
            acquire=(
                () if decouple else tuple(graph.desc(name) for name in node.outputs)
            ),
            release=tuple(release),
            indegree=len({name for name in dynamic if name in producer}),
            dependents=tuple(tuple(consumers.get(name, ())) for name in node.outputs),
        ))

    copies = any(step.copies for step in steps)
    plain = None
    if not (lazy or landing or not decouple or copies):
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
    return StepPlan(
        steps=tuple(steps),
        plain=plain,
        names=tuple(names),
        feeds=tuple(graph.inputs),
        outputs=tuple(
            (name, slots.get(name), name in landing) for name in graph.outputs
        ),
        hooks=tuple(hooks.values()),
        copies=copies,
        parallel=parallel and not copies,
    )


# -- per-step wrappers (composed once per run, outermost first) ---------------
def bounded(inner: StepFn, deadline: Deadline) -> StepFn:
    """Check the run's deadline before every step."""
    def step_fn(step, inputs):
        deadline.check(step.node.name)
        return inner(step, inputs)
    return step_fn


def ensuring(inner: StepFn, ensure: Callable[[Node], None]) -> StepFn:
    """Create + prepare the step's execution first if ``lazy_prepare`` has not."""
    def step_fn(step, inputs):
        ensure(step.node)
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


def landed(inner: StepFn, arena: Arena) -> StepFn:
    """Land each activation in its planned arena slot.

    The memory plan becomes load-bearing, not just accounting; lifetime
    soundness (``plan.validate``) guarantees the slot is not aliased by
    any still-live tensor — in topological order, which is why the
    parallel scheduler never lands.
    """
    def step_fn(step, inputs):
        outputs = inner(step, inputs)
        if step.landing:
            outputs = list(outputs)
            for position, desc in step.landing:
                value = outputs[position]
                if value.shape == desc.shape and value.dtype == desc.dtype.np_dtype:
                    slot = arena.view(desc)
                    if np.may_share_memory(slot, value):
                        # view-producing op (reshape/slice/...) whose
                        # input's now-dead slot overlaps the destination
                        value = value.copy()
                    np.copyto(slot, value)
                    outputs[position] = slot
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


# -- walkers ---------------------------------------------------------------------
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


def walk_parallel(
    plan: StepPlan,
    env: List[Optional[np.ndarray]],
    step_fn: StepFn,
    *,
    threads: int,
    sanitizer,
    owner: object,
) -> None:
    """Run the steps on a thread pool: a ready queue over the indegrees.

    Concurrency contract: ``env`` is only read and written while holding
    ``lock``; a first failure sets ``failed`` so in-flight and queued
    steps drain without doing further work, and *every* worker error is
    collected — multiple simultaneous failures raise one aggregate
    ``GraphError`` instead of silently dropping all but the first.
    Under an enabled ``sanitizer``, env accesses are probed as
    ``env.<tensor>`` on ``owner`` and task handoffs carry
    happens-before edges.
    """
    steps = plan.steps
    if not steps:
        return
    names = plan.names
    pending = [step.indegree for step in steps]
    lock = threading.Lock()
    errors: List[BaseException] = []
    done = threading.Event()
    failed = threading.Event()
    remaining = [len(steps)]
    sanitize_on = sanitizer.enabled
    channel = ("session.parallel", id(owner))
    lockset = ("session.env_lock",)

    def run_step(index: int, pool) -> None:
        if failed.is_set():  # drain: a sibling already failed
            return
        step = steps[index]
        try:
            if sanitize_on:
                # Executor submit happens-before the task runs; the
                # channel carries the submitter's clock (main for the
                # initial wave, the producing worker afterwards).
                sanitizer.hb_recv(channel)
            with lock:  # producers write env under this lock
                if sanitize_on:
                    for slot in step.ins:
                        sanitizer.probe(owner, f"env.{names[slot]}", "r", lockset=lockset)
                inputs = [env[slot] for slot in step.ins]
            outputs = step_fn(step, inputs)
            ready: List[int] = []
            with lock:
                for slot, value, consumers in zip(step.outs, outputs, step.dependents):
                    if sanitize_on:
                        sanitizer.probe(owner, f"env.{names[slot]}", "w", lockset=lockset)
                    env[slot] = value
                    for consumer in consumers:  # unlock consumers
                        pending[consumer] -= 1
                        if pending[consumer] == 0:
                            ready.append(consumer)
                remaining[0] -= 1
                if remaining[0] == 0:
                    done.set()
            if failed.is_set():
                return
            if sanitize_on:
                sanitizer.hb_send(channel)
            for consumer in ready:
                pool.submit(run_step, consumer, pool)
        except BaseException as exc:  # propagate to the caller
            with lock:
                errors.append(exc)
            failed.set()
            done.set()

    # Named workers so short-lived executor threads land on labeled
    # "exec-worker" lanes in the Chrome trace, not ThreadPoolExecutor-N.
    with concurrent.futures.ThreadPoolExecutor(
        max_workers=threads, thread_name_prefix="exec-worker"
    ) as pool:
        initial = [index for index, count in enumerate(pending) if count == 0]
        if not initial:
            raise GraphError("no runnable node; graph inputs unresolved")
        if sanitize_on:
            sanitizer.hb_send(channel)
        for index in initial:
            pool.submit(run_step, index, pool)
        done.wait()
    if sanitize_on:
        # The executor shutdown joined every worker: their writes
        # happen-before anything the caller does next.
        sanitizer.hb_recv(channel)
    if errors:
        if len(errors) == 1:
            raise errors[0]
        aggregate = GraphError(
            f"parallel execution failed with {len(errors)} worker errors: "
            + "; ".join(f"{type(e).__name__}: {e}" for e in errors)
        )
        aggregate.errors = list(errors)
        raise aggregate from errors[0]
