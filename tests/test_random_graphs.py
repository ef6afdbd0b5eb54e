"""Property-based integration tests over randomly generated CNN DAGs.

A hypothesis strategy builds random-but-valid networks (convs, depthwise,
pools, activations, BN, residual adds, concats) and checks the engine's
global invariants on each:

* Session output == reference-executor output (optimization is invisible),
* memory plans are sound and arenas never exceed naive allocation,
* serialization round-trips preserve semantics,
* simulated GPU backends compute exactly what the CPU computes,
* the graph optimizer never changes results,
* every generated graph lints clean and its memory plan survives the
  independent sanitizer,
* every way of running a session (traced, parallel, arena-landing,
  interleaved, lazy, resilient, deadline-bounded) reproduces the plain
  run bit for bit, and a hybrid session's copies and virtual time stay
  pinned.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import check_memory_plan, format_diagnostics, has_errors, lint_graph
from repro.core import Session, SessionConfig, plan_memory
from repro.core.reference import execute_reference
from repro.converter import optimize
from repro.devices import get_device
from repro.faults import FaultPlan
from repro.faults.resilience import Deadline
from repro.ir import GraphBuilder, dumps, loads
from repro.obs import Tracer
from repro.runtime import Runtime

RNG = np.random.default_rng(101)

#: (copies, copy_bytes, virtual_ms) of hybrid_net's first run and of the
#: run_profiled pass after it, as read from the pre-plan executor.
HYBRID_RUN = (3, 24576, 0.2035289868421304)
HYBRID_PROFILED = (3, 24576, 0.2035289868421304)


@st.composite
def random_cnn(draw):
    """Build a random valid CNN over an 8-24px input, 2-8 layers deep."""
    seed = draw(st.integers(0, 10_000))
    hw = draw(st.sampled_from([8, 12, 16, 24]))
    depth = draw(st.integers(2, 8))
    b = GraphBuilder(f"rand_{seed}", seed=seed)
    x = b.input("in", (1, draw(st.sampled_from([1, 3, 4])), hw, hw))
    branches = []  # same-shaped tensors usable for residual adds
    for _ in range(depth):
        kind = draw(st.sampled_from(
            ["conv", "conv1x1", "dwconv", "pool", "act", "bn", "add", "concat"]
        ))
        shape = b.graph.desc(x).shape
        if kind == "conv":
            k = draw(st.sampled_from([2, 3, 5]))
            stride = draw(st.sampled_from([1, 2]))
            oc = draw(st.sampled_from([4, 8, 12]))
            x = b.conv(x, oc=oc, kernel=k, stride=stride, pad_mode="same",
                       activation=draw(st.sampled_from([None, "relu", "relu6"])))
        elif kind == "conv1x1":
            x = b.conv(x, oc=draw(st.sampled_from([4, 8, 16])), kernel=1)
        elif kind == "dwconv":
            x = b.depthwise_conv(x, kernel=3, pad_mode="same")
        elif kind == "pool":
            if shape[2] >= 4:
                if draw(st.booleans()):
                    x = b.max_pool(x, 2)
                else:
                    x = b.avg_pool(x, 2)
        elif kind == "act":
            x = draw(st.sampled_from([b.relu, b.relu6, b.sigmoid, b.tanh]))(x)
        elif kind == "bn":
            x = b.batch_norm(x)
        elif kind == "add":
            match = [t for t in branches if b.graph.desc(t).shape == shape]
            if match:
                x = b.add(x, match[0])
        elif kind == "concat":
            match = [t for t in branches
                     if b.graph.desc(t).shape[2:] == shape[2:]
                     and b.graph.desc(t).shape[0] == shape[0]]
            if match:
                x = b.concat([x, match[0]])
        branches.append(x)
    x = b.fc(b.global_avg_pool(x), units=draw(st.integers(2, 6)))
    b.output(b.softmax(x))
    return b.finish()


def _feed(graph):
    desc = graph.desc(graph.inputs[0])
    return {graph.inputs[0]: RNG.standard_normal(desc.shape).astype(np.float32)}


@given(graph=random_cnn())
@settings(max_examples=20, deadline=None)
def test_session_matches_reference(graph):
    feed = _feed(graph)
    want = execute_reference(graph, feed)[graph.outputs[0]]
    got = list(Session(graph).run(feed).values())[0]
    np.testing.assert_allclose(got, want, atol=1e-4)


@given(graph=random_cnn())
@settings(max_examples=20, deadline=None)
def test_memory_plans_always_sound(graph):
    plan = plan_memory(graph)
    plan.validate()
    slack = 64 * max(1, len(plan.offsets))
    assert plan.arena_bytes <= plan.total_tensor_bytes + slack


@given(graph=random_cnn())
@settings(max_examples=20, deadline=None)
def test_generated_graphs_lint_clean(graph):
    diags = lint_graph(graph)
    assert not has_errors(diags), format_diagnostics(diags)


@given(graph=random_cnn())
@settings(max_examples=20, deadline=None)
def test_sanitizer_blesses_every_generated_plan(graph):
    report = check_memory_plan(graph, plan_memory(graph))
    assert report.ok, format_diagnostics(report.diagnostics)
    assert report.peak_bytes <= report.arena_bytes
    assert report.peak_bytes == plan_memory(graph).peak_bytes


@given(graph=random_cnn())
@settings(max_examples=15, deadline=None)
def test_serialization_preserves_semantics(graph):
    feed = _feed(graph)
    want = execute_reference(graph, feed)[graph.outputs[0]]
    round_tripped = loads(dumps(graph))
    got = execute_reference(round_tripped, feed)[round_tripped.outputs[0]]
    np.testing.assert_allclose(got, want, atol=1e-6)


@given(graph=random_cnn())
@settings(max_examples=10, deadline=None)
def test_gpu_simulation_is_bit_compatible(graph):
    feed = _feed(graph)
    want = list(Session(graph).run(feed).values())[0]
    gpu = Session(graph, SessionConfig(backend="vulkan", device=get_device("MI6")))
    got = list(gpu.run(feed).values())[0]
    np.testing.assert_allclose(got, want, atol=1e-4)


@given(graph=random_cnn())
@settings(max_examples=15, deadline=None)
def test_optimizer_never_changes_results(graph):
    feed = _feed(graph)
    want = execute_reference(graph, feed)[graph.outputs[0]]
    optimize(graph)
    got = execute_reference(graph, feed)[graph.outputs[0]]
    # BN fusion reassociates float32 arithmetic; deep random nets can drift
    # ~1e-2 through the final softmax, so assert distributional closeness.
    np.testing.assert_allclose(got, want, atol=5e-2)
    assert got.argmax() == want.argmax() or abs(np.sort(want.ravel())[-1]
                                                - np.sort(want.ravel())[-2]) < 0.05


#: Every way of running a session: each walks the same step plan, so each
#: must reproduce the plain run bit for bit.
#: Each variant builds a (config, runtime) pair.
EXECUTOR_VARIANTS = {
    "plain": lambda: (SessionConfig(), None),
    "traced": lambda: (SessionConfig(), Runtime.resolve(trace=Tracer())),
    "parallel_branches": lambda: (
        SessionConfig(parallel_branches=True, threads=2), None
    ),
    "arena_execution": lambda: (SessionConfig(arena_execution=True), None),
    "interleaved": lambda: (SessionConfig(decouple=False), None),
    "lazy_prepare": lambda: (SessionConfig(lazy_prepare=True), None),
    "resilient": lambda: (
        SessionConfig(resilience=True), Runtime.resolve(faults=FaultPlan())
    ),
    "far_deadline": lambda: (SessionConfig(), None),
}


@given(graph=random_cnn(), variant=st.sampled_from(sorted(EXECUTOR_VARIANTS)))
@settings(max_examples=24, deadline=None)
def test_decoupled_and_interleaved_agree(graph, variant):
    feed = _feed(graph)
    want = execute_reference(graph, feed)[graph.outputs[0]]
    plain = list(Session(graph).run(feed).values())[0]
    np.testing.assert_allclose(plain, want, atol=1e-4)
    config, runtime = EXECUTOR_VARIANTS[variant]()
    session = Session(graph, config, runtime=runtime)
    deadline = Deadline(60_000.0) if variant == "far_deadline" else None
    for _ in range(2):  # a second run reuses the plan (and the arena)
        got = list(session.run(feed, deadline=deadline).values())[0]
        assert got.dtype == plain.dtype
        assert got.tobytes() == plain.tobytes(), variant


def hybrid_net():
    """Conv layers the sparse OpenGL backend runs, with BN, pooling, FC and
    softmax it lacks: three cross-backend copies per run."""
    b = GraphBuilder("hybrid", seed=0)
    x = b.input("in", (1, 3, 16, 16))
    x = b.conv(x, oc=8, kernel=3, pad_mode="same", activation="relu")
    x = b.conv(b.batch_norm(x), oc=8, kernel=1)
    b.output(b.softmax(b.fc(b.global_avg_pool(x), units=4)))
    return b.finish()


def test_hybrid_copies_and_virtual_time_pinned():
    """Copy edges and virtual time of an OpenGL + CPU-fallback session,
    under ``run`` and ``run_profiled`` (the profiled pass runs second on
    the same clock); the numbers are pinned from the pre-plan executor."""
    graph = hybrid_net()
    feed = {"in": np.random.default_rng(5).standard_normal((1, 3, 16, 16)).astype(np.float32)}
    want = list(Session(graph).run(feed).values())[0]
    session = Session(graph, SessionConfig(backend="opengl", device=get_device("MI6")))
    assert session.placement_summary() == {"opengl": 2, "sim_cpu": 4}
    got = list(session.run(feed).values())[0]
    assert got.tobytes() == want.tobytes()
    stats = session.last_run
    assert (stats.copies, stats.copy_bytes, stats.virtual_ms) == HYBRID_RUN
    outputs, profile = session.run_profiled(feed)
    assert list(outputs.values())[0].tobytes() == want.tobytes()
    stats = session.last_run
    assert (stats.copies, stats.copy_bytes, stats.virtual_ms) == HYBRID_PROFILED
    assert len(profile) == 6
