"""The memory plan is load-bearing: CNN runners write into the planned arena.

A decoupled session allocates one arena per generation and binds every
fp32 CNN runner to its output's planned slot and to one shared kernel
scratch buffer.  These tests hold that to its contracts:

* the alias table (:func:`repro.core.memory.may_alias`) covers every
  runner that returns a view of its input, for every registered op type;
* every kernel writes the same bits with and without ``out``/``scratch``,
  also through a scratch buffer left dirty by an earlier call;
* ``tiled_matmul(out=)`` keeps Table 3's counters and product bits;
* what ``run`` returns is a fresh array that a later run never touches,
  on every zoo model and on a graph whose output is a view;
* a failed resize leaves the session on its old arena, bitwise;
* a cached plan whose offsets overlap is recomputed, never trusted.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.backends.op_runners import build_runner
from repro.core import Session, SessionArtifacts, SessionConfig
from repro.core.memory import MemoryPlan, compute_lifetimes, may_alias, plan_memory
from repro.ir import GraphBuilder, Op, all_op_types
from repro.kernels import (
    GemmStats,
    aligned_empty,
    apply_activation,
    avg_pool2d,
    axis_transforms,
    conv2d_1x1,
    conv2d_im2col,
    depthwise_conv2d_packed,
    depthwise_workspace,
    generate_transforms,
    im2col_workspace,
    matmul,
    max_pool2d,
    pack_depthwise_weights,
    pool_workspace,
    tiled_matmul,
    transform_kernel,
    transform_kernel_rect,
    winograd_conv2d_rect_with_kernel,
    winograd_conv2d_with_kernel,
    winograd_workspace,
    workspace_bytes,
)
from repro.models import MODEL_REGISTRY, build_model
from repro.obs import Tracer
from repro.runtime import Runtime

RNG = np.random.default_rng(32)

#: Inputs of the zoo models, by name (CNNs at a small size).
ZOO = sorted(MODEL_REGISTRY)


def _zoo_graph(name):
    return build_model(name, input_size=64) if "net" in name else build_model(name)


def _feeds(graph, seed):
    rng = np.random.default_rng(seed)
    feeds = {}
    for name in graph.inputs:
        desc = graph.desc(name)
        if desc.dtype.np_dtype == np.float32:
            feeds[name] = rng.standard_normal(desc.shape).astype(np.float32)
        else:
            feeds[name] = rng.integers(0, 2, desc.shape).astype(desc.dtype.np_dtype)
    return feeds


def _bits(array):
    return array.dtype, array.shape, array.tobytes()


# -- the alias table ---------------------------------------------------------
def _op(b, op_type, inputs, **attrs):
    out = f"{op_type.lower()}_out"
    b.graph.add_node(op_type, inputs, [out], attrs)
    return out


def _const(b, shape):
    return b.constant(RNG.standard_normal(shape).astype(np.float32))


#: One small graph per op type: ``builder(b, x)`` over x = (1, 4, 6, 6)
#: returns the op's output; the node under test is the last one added.
OP_GRAPHS = {
    Op.CONV2D: lambda b, x: b.conv(x, oc=4, kernel=3),
    Op.DEPTHWISE_CONV2D: lambda b, x: b.depthwise_conv(x, kernel=3),
    Op.CONV_TRANSPOSE2D: lambda b, x: _op(
        b, Op.CONV_TRANSPOSE2D, [x, _const(b, (4, 2, 2, 2))], kernel=(2, 2), stride=(2, 2)),
    Op.MATMUL: lambda b, x: b.matmul(b.reshape(x, (24, 6)), _const(b, (6, 3))),
    Op.FULLY_CONNECTED: lambda b, x: b.fc(x, units=3),
    Op.BATCH_NORM: lambda b, x: b.batch_norm(x),
    Op.RELU: lambda b, x: b.relu(x),
    Op.RELU6: lambda b, x: b.relu6(x),
    Op.PRELU: lambda b, x: _op(b, Op.PRELU, [x, _const(b, (4,))]),
    Op.SIGMOID: lambda b, x: b.sigmoid(x),
    Op.TANH: lambda b, x: b.tanh(x),
    Op.SOFTMAX: lambda b, x: b.softmax(x),
    Op.MAX_POOL: lambda b, x: b.max_pool(x, 2),
    Op.AVG_POOL: lambda b, x: b.avg_pool(x, 2),
    Op.GLOBAL_AVG_POOL: lambda b, x: b.global_avg_pool(x),
    Op.ADD: lambda b, x: b.add(x, b.relu(x)),
    Op.SUB: lambda b, x: _op(b, Op.SUB, [x, b.relu(x)]),
    Op.MUL: lambda b, x: b.mul(x, b.relu(x)),
    Op.ELTWISE_MAX: lambda b, x: _op(b, Op.ELTWISE_MAX, [x, b.relu(x)]),
    Op.CONCAT: lambda b, x: b.concat([x, b.relu(x)]),
    Op.SLICE: lambda b, x: b.slice(x, 1, 1, 3),
    Op.RESHAPE: lambda b, x: b.reshape(x, (1, 144)),
    Op.FLATTEN: lambda b, x: b.flatten(x),
    Op.PAD: lambda b, x: _op(b, Op.PAD, [x], pads=(0, 0, 0, 0, 1, 1, 1, 1)),
    Op.RESIZE: lambda b, x: _op(b, Op.RESIZE, [x], scale=(2, 2)),
    Op.REDUCE_MEAN: lambda b, x: _op(b, Op.REDUCE_MEAN, [x], axes=(2, 3)),
    Op.DROPOUT: lambda b, x: b.dropout(x),
    Op.IDENTITY: lambda b, x: b.identity(x),
    Op.SCALE: lambda b, x: _op(b, Op.SCALE, [x, _const(b, (4,)), _const(b, (4,))]),
    Op.QUANTIZE: lambda b, x: _op(b, Op.QUANTIZE, [x], scale=0.05),
    Op.DEQUANTIZE: lambda b, x: _op(
        b, Op.DEQUANTIZE, [_op(b, Op.QUANTIZE, [x], scale=0.05)], scale=0.05),
    Op.SPLIT: lambda b, x: b.split(x, (1, 3))[0],
    Op.TRANSPOSE: lambda b, x: b.transpose(x, (0, 1, 2, 3)),
    Op.GATHER: lambda b, x: b.gather(
        _const(b, (10, 6)), b.reshape(_op(b, Op.QUANTIZE, [x], scale=1e3), (144,))),
    Op.LAYER_NORM: lambda b, x: b.layer_norm(x),
    Op.GELU: lambda b, x: b.gelu(x),
    Op.LSTM: lambda b, x: b.lstm(b.reshape(x, (1, 24, 6)), hidden_size=3),
    Op.ATTENTION: lambda b, x: b.attention(*(b.reshape(x, (1, 4, 6, 6)),) * 3),
}

#: Extra geometries of the conditional rows: (input shape, builder).
ALIAS_EDGES = [
    ((2, 4, 3, 3), lambda b, x: b.split(x, (1, 3))[0]),          # non-contiguous parts
    ((2, 4, 3, 3), lambda b, x: b.split(x, (2,), axis=0)[0]),     # the whole input
    ((2, 4, 3, 3), lambda b, x: b.transpose(x, (0, 2, 3, 1))),    # a real transpose
    ((1, 4, 1, 6), lambda b, x: b.transpose(x, (2, 1, 0, 3))),    # moves only unit axes
    ((2, 4, 3, 3), lambda b, x: b.slice(x, 0, 1, 2)),
]


def _node_under_test(shape, builder):
    b = GraphBuilder("alias", seed=0)
    x = b.input("x", shape)
    b.output(builder(b, x))
    graph = b.finish()
    return graph, graph.nodes[-1]


def _shared(graph, node):
    """Whether any output of ``node``'s runner shares memory with an input."""
    runner = build_runner(node, graph)
    inputs = []
    for name in runner.dynamic_inputs:
        desc = graph.desc(name)
        inputs.append(RNG.standard_normal(desc.shape).astype(desc.dtype.np_dtype))
    outputs = runner.fn(inputs)
    return any(np.shares_memory(out, arr) for out in outputs for arr in inputs)


def test_op_graphs_cover_every_runnable_op():
    assert set(OP_GRAPHS) == set(all_op_types()) - {Op.INPUT, Op.CONSTANT}


@pytest.mark.parametrize("op_type", sorted(OP_GRAPHS))
def test_alias_table_covers_every_view(op_type):
    graph, node = _node_under_test((1, 4, 6, 6), OP_GRAPHS[op_type])
    assert node.op_type == op_type
    if _shared(graph, node):
        assert may_alias(node, graph), f"{op_type} returns a view the alias table misses"


@pytest.mark.parametrize("case", range(len(ALIAS_EDGES)))
def test_alias_table_conditional_rows(case):
    graph, node = _node_under_test(*ALIAS_EDGES[case])
    shared = _shared(graph, node)
    if shared:
        assert may_alias(node, graph)
    # The conditions are exact on C-contiguous inputs, not merely safe.
    if node.op_type in (Op.SPLIT, Op.TRANSPOSE):
        assert may_alias(node, graph) == shared


def test_views_extend_their_roots_lifetime():
    b = GraphBuilder("views", seed=0)
    x = b.input("in", (1, 4, 8, 8))
    r = b.relu(x, name="r")
    v = b.reshape(b.identity(r, name="v0"), (1, 256), name="v1")
    y = b.conv(b.relu6(x, name="side"), oc=4, kernel=1, name="late")
    b.output(b.add(b.flatten(y, name="yf"), v, name="sum"))
    graph = b.finish()
    order = [n for n in graph.toposort() if n.op_type not in (Op.INPUT, Op.CONSTANT)]
    lives = compute_lifetimes(graph, order)
    step = {n.name: i for i, n in enumerate(order)}
    # r's bytes are read through v1 until the Add.
    assert lives["r"].last == step["sum"]
    assert lives["v0"].last == step["v1"]
    plan = plan_memory(graph, order)
    plan.validate()
    assert plan.sound()


# -- kernels: out= and scratch= change no bit --------------------------------
def _dirty(specs):
    """A scratch buffer for ``specs`` full of NaN bytes (borders must be
    rewritten on every use, never assumed zero)."""
    scratch = aligned_empty(workspace_bytes(specs))
    scratch[...] = 0xFF
    return scratch


def _same_with_out_and_scratch(call, specs, out_shape, dtype=np.float32):
    want = call(None, None)
    scratch = _dirty(specs)
    out = np.full(out_shape, np.nan, dtype=dtype)
    for _ in range(2):  # the second call reuses the now-dirty scratch
        got = call(out, scratch)
        assert got is out
        assert _bits(got) == _bits(want)
    fresh = call(None, scratch)
    assert not np.shares_memory(fresh, scratch)
    assert _bits(fresh) == _bits(want)


@pytest.mark.parametrize("stride,pads,dilation", [
    ((1, 1), (1, 1, 1, 1), (1, 1)),
    ((2, 2), (0, 1, 0, 1), (1, 1)),
    ((1, 1), (2, 2, 2, 2), (2, 2)),
])
def test_depthwise_bits_with_out_and_scratch(stride, pads, dilation):
    x = RNG.standard_normal((2, 5, 9, 9)).astype(np.float32)
    packed = pack_depthwise_weights(RNG.standard_normal((5, 1, 3, 3)).astype(np.float32))
    bias = RNG.standard_normal(5).astype(np.float32)
    specs = depthwise_workspace(x.shape, (3, 3), stride, pads, dilation)
    oh, ow = specs[1][0][1:3]
    _same_with_out_and_scratch(
        lambda out, scratch: depthwise_conv2d_packed(
            x, packed, bias, stride, pads, dilation, out, scratch),
        specs, (2, 5, oh, ow))


@pytest.mark.parametrize("n_hw,pads", [((4, 4), (1, 1, 1, 1)), ((2, 2), (0, 0, 0, 0)),
                                       ((1, 2), (0, 0, 1, 1))])
def test_winograd_bits_with_out_and_scratch(n_hw, pads):
    x = RNG.standard_normal((1, 6, 13, 11)).astype(np.float32)
    weights = RNG.standard_normal((7, 6, 3, 3)).astype(np.float32)
    bias = RNG.standard_normal(7).astype(np.float32)
    if n_hw[0] == n_hw[1]:
        tr = generate_transforms(n_hw[0], 3)
        kernel = transform_kernel(weights, tr)
        tr_h = tr_w = tr

        def call(out, scratch):
            return winograd_conv2d_with_kernel(x, kernel, tr, bias, pads, (1, 1), out, scratch)
    else:
        tr_h, tr_w = axis_transforms(n_hw[0], 3), axis_transforms(n_hw[1], 3)
        kernel = transform_kernel_rect(weights, tr_h, tr_w)

        def call(out, scratch):
            return winograd_conv2d_rect_with_kernel(x, kernel, tr_h, tr_w, bias, pads,
                                                    out, scratch)
    oh, ow = 13 + pads[0] + pads[1] - 2, 11 + pads[2] + pads[3] - 2
    _same_with_out_and_scratch(call, winograd_workspace(x.shape, 7, tr_h, tr_w, pads),
                               (1, 7, oh, ow))


@pytest.mark.parametrize("stride,pads,groups", [
    ((2, 2), (1, 1, 1, 1), 1), ((1, 1), (0, 0, 0, 0), 1), ((1, 1), (1, 0, 1, 0), 2),
])
def test_im2col_bits_with_out_and_scratch(stride, pads, groups):
    x = RNG.standard_normal((2, 4, 10, 10)).astype(np.float32)
    weights = RNG.standard_normal((6, 4 // groups, 3, 3)).astype(np.float32)
    bias = RNG.standard_normal(6).astype(np.float32)
    specs = im2col_workspace(x.shape, weights.shape, stride, pads, (1, 1), groups)
    oh = (10 + pads[0] + pads[1] - 3) // stride[0] + 1
    ow = (10 + pads[2] + pads[3] - 3) // stride[1] + 1
    _same_with_out_and_scratch(
        lambda out, scratch: conv2d_im2col(x, weights, bias, stride, pads, (1, 1), groups,
                                           out=out, scratch=scratch),
        specs, (2, 6, oh, ow))


@pytest.mark.parametrize("pads,out_hw", [((0, 0, 0, 0), (4, 4)), ((1, 1, 1, 1), (5, 5))])
def test_pool_bits_with_out_and_scratch(pads, out_hw):
    x = RNG.standard_normal((1, 3, 9, 9)).astype(np.float32)
    specs = pool_workspace(x.shape, (3, 3), (2, 2), pads, out_hw)
    _same_with_out_and_scratch(
        lambda out, scratch: max_pool2d(x, (3, 3), (2, 2), pads, out_hw, out, scratch),
        specs, (1, 3) + out_hw)
    for include_pad in (False, True):
        _same_with_out_and_scratch(
            lambda out, scratch: avg_pool2d(x, (3, 3), (2, 2), pads, out_hw, include_pad,
                                            None, out, scratch),
            specs, (1, 3) + out_hw)


def test_gemm1x1_and_epilogue_bits_with_out():
    x = RNG.standard_normal((2, 300, 17, 19)).astype(np.float32)
    weights = RNG.standard_normal((260, 300)).astype(np.float32)
    bias = RNG.standard_normal(260).astype(np.float32)
    want = conv2d_1x1(x, weights, bias)
    out = np.full(want.shape, np.nan, dtype=np.float32)
    assert conv2d_1x1(x, weights, bias, out=out) is out
    assert _bits(out) == _bits(want)
    for activation in ("relu", "relu6"):
        fresh = apply_activation(want, activation)
        assert apply_activation(out, activation, out=out) is out
        assert _bits(out) == _bits(fresh)
        out[...] = want


def _tiled_matmul_zero_start(a, b, tile):
    """The previous ``tiled_matmul``, kept as an oracle: C starts as
    ``np.zeros`` and every tile product is added onto it."""
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.result_type(a, b))
    for i0 in range(0, a.shape[0], tile):
        for j0 in range(0, b.shape[1], tile):
            for p0 in range(0, a.shape[1], tile):
                out[i0:i0 + tile, j0:j0 + tile] += (
                    a[i0:i0 + tile, p0:p0 + tile] @ b[p0:p0 + tile, j0:j0 + tile])
    return out


@pytest.mark.parametrize("n,k,m,tile", [(70, 50, 90, 32), (40, 20, 300, 256), (9, 600, 7, 256)])
def test_tiled_matmul_bitwise_equals_a_zero_started_sum(n, k, m, tile):
    """Zero inputs times negative weights included: wherever a product
    is -0.0, the zero-started sum holds +0.0, and so must C."""
    a = -np.abs(RNG.standard_normal((n, k))).astype(np.float32)
    b = np.maximum(RNG.standard_normal((k, m)), 0).astype(np.float32)
    b[:, ::3] = 0.0
    want = _tiled_matmul_zero_start(a, b, tile)
    for out in (None, np.full((n, m), np.nan, dtype=np.float32)):
        assert _bits(tiled_matmul(a, b, tile, out=out)) == _bits(want)


#: Table 3's GEMM shapes ([n, k] x [k, m]), from the direct-only 256^3 row
#: to the rectangular ones Strassen recurses on.
TABLE3_SHAPES = [(256, 256, 256), (512, 512, 512), (512, 256, 1024), (1024, 512, 384)]


@pytest.mark.parametrize("n,k,m", TABLE3_SHAPES)
@pytest.mark.parametrize("use_strassen", [False, True])
def test_gemm_out_keeps_table3_counters_and_bits(n, k, m, use_strassen):
    a = RNG.standard_normal((n, k)).astype(np.float32)
    b = RNG.standard_normal((k, m)).astype(np.float32)
    plain, into = GemmStats(), GemmStats()
    want = matmul(a, b, use_strassen=use_strassen, stats=plain)
    out = np.full((n, m), np.nan, dtype=np.float32)
    got = matmul(a, b, use_strassen=use_strassen, stats=into, out=out)
    assert got is out
    assert _bits(got) == _bits(want)
    assert into == plain
    if not use_strassen:
        assert _bits(tiled_matmul(a, b)) == _bits(want)


# -- sessions -------------------------------------------------------------------
def view_output_net():
    """A graph whose output is a Reshape of a ReLU: the ReLU must stay
    unbound, or the returned view would point into the arena."""
    b = GraphBuilder("view_out", seed=3)
    x = b.input("in", (1, 3, 12, 12))
    x = b.conv(x, oc=8, kernel=3, pad_mode="same")
    x = b.batch_norm(b.depthwise_conv(x, kernel=3, pad_mode="same"))
    b.output(b.reshape(b.relu(x, name="last_relu"), (-1, 8 * 12 * 12)))
    return b.finish()


SESSION_GRAPHS = {name: (lambda name=name: _zoo_graph(name)) for name in ZOO}
SESSION_GRAPHS["view_output"] = view_output_net


@pytest.mark.parametrize("name", sorted(SESSION_GRAPHS))
def test_outputs_escape_and_match_an_unbound_session(name):
    graph = SESSION_GRAPHS[name]()
    session = Session(graph)
    oracle = Session(graph, SessionConfig(decouple=False))  # never binds
    kept = session.run(_feeds(graph, 0))
    snapshot = {key: _bits(value) for key, value in kept.items()}
    arena = session._plan.arena
    for value in kept.values():
        assert not np.shares_memory(value, arena)
    again = session.run(_feeds(graph, 1))
    # Run k's arrays survive run k+1 untouched.
    assert {key: _bits(value) for key, value in kept.items()} == snapshot
    want = oracle.run(_feeds(graph, 1))
    assert {k: _bits(v) for k, v in again.items()} == {k: _bits(v) for k, v in want.items()}


def test_cnn_runners_are_bound_and_graph_outputs_are_not():
    graph = view_output_net()
    session = Session(graph)
    runners = {name: ex.runner for name, ex in session._executions.items()}
    assert session._plan.bound == 3  # conv, depthwise, batch norm
    assert runners["last_relu"].fn.__kwdefaults__["out"] is None
    slots = [(runner.fn.__kwdefaults__ or {}).get("out") for runner in runners.values()]
    slots = [out for out in slots if out is not None]
    assert len(slots) == 3
    assert all(np.shares_memory(out, session._plan.arena) for out in slots)


def test_traced_and_profiled_runs_write_the_arena_bitwise():
    graph = _zoo_graph("squeezenet_v1.1")
    feeds = _feeds(graph, 2)
    want = Session(graph, SessionConfig(decouple=False)).run(feeds)
    traced = Session(graph, runtime=Runtime.resolve(trace=Tracer()))
    assert traced._plan.bound > 50
    for got in (traced.run(feeds), traced.run_profiled(feeds)[0]):
        assert {k: _bits(v) for k, v in got.items()} == {k: _bits(v) for k, v in want.items()}


@pytest.mark.parametrize("name", sorted(SESSION_GRAPHS))
def test_failed_resize_keeps_the_old_arena(name, monkeypatch):
    graph = SESSION_GRAPHS[name]()
    session = Session(graph)
    gold = {k: _bits(v) for k, v in session.run(_feeds(graph, 3)).items()}
    plan = session._plan

    import repro.core.session as session_mod

    def explode(*args, **kwargs):
        raise RuntimeError("step plan exploded")

    monkeypatch.setattr(session_mod, "build_plan", explode)
    with pytest.raises(RuntimeError, match="exploded"):
        # Same shapes: the new generation is prepared in full, then fails.
        session.resize({name: graph.desc(name).shape for name in graph.inputs})
    monkeypatch.undo()
    assert session._plan is plan
    session.run(_feeds(graph, 4))  # the old arena, overwritten once more
    assert {k: _bits(v) for k, v in session.run(_feeds(graph, 3)).items()} == gold


def test_resized_session_gets_a_new_arena():
    graph = _zoo_graph("mobilenet_v1")
    session = Session(graph)
    old = session._plan.arena
    session.resize({graph.inputs[0]: (2, 3, 64, 64)})
    assert session._plan.arena is not old
    assert session._plan.arena.nbytes == session.memory_plan.arena_bytes
    feeds = _feeds(session.graph, 5)
    want = Session(session.graph, SessionConfig(decouple=False)).run(feeds)
    got = session.run(feeds)
    assert {k: _bits(v) for k, v in got.items()} == {k: _bits(v) for k, v in want.items()}


# -- cached plans ---------------------------------------------------------------
def test_sound_accepts_planner_plans_and_rejects_broken_ones():
    graph = _zoo_graph("squeezenet_v1.1")
    plan = plan_memory(graph)
    assert plan.sound()
    data = plan.to_json()
    collapsed = MemoryPlan.from_json({**data, "offsets": {k: 0 for k in data["offsets"]}})
    assert collapsed.matches(plan.lifetimes) and not collapsed.sound()
    name = max(plan.lifetimes, key=lambda n: plan.lifetimes[n].nbytes)
    for offset in (-64, 8, plan.arena_bytes):
        broken = MemoryPlan.from_json({**data, "offsets": {**data["offsets"], name: offset}})
        assert not broken.sound(), offset
    huge = MemoryPlan.from_json({**data, "arena_bytes": 10 * plan.total_tensor_bytes + 2**20})
    assert not huge.sound()


@given(seed=st.integers(0, 10_000), moves=st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_sound_agrees_with_the_pairwise_check(seed, moves):
    """The O(n log n) sweep against ``validate``'s all-pairs proof, on a
    real plan with a few offsets moved by whole cache lines."""
    rng = np.random.default_rng(seed)
    plan = plan_memory(_zoo_graph("squeezenet_v1.1"))
    names = sorted(plan.offsets)
    offsets = dict(plan.offsets)
    for name in rng.choice(names, size=moves, replace=False):
        offsets[name] = max(0, offsets[name] + 64 * int(rng.integers(-40, 41)))
    moved = MemoryPlan(offsets, plan.arena_bytes, plan.total_tensor_bytes, plan.lifetimes)
    try:
        moved.validate()
        pairwise = True
    except AssertionError:
        pairwise = False
    assert moved.sound() == pairwise


def test_corrupt_cached_plan_is_recomputed_not_trusted():
    graph = _zoo_graph("squeezenet_v1.1")
    feeds = _feeds(graph, 6)
    cold = Session(graph)
    gold = {k: _bits(v) for k, v in cold.run(feeds).items()}
    data = cold.export_artifacts().to_json()
    offsets = data["memory_plan"]["offsets"]
    data["memory_plan"]["offsets"] = {name: 0 for name in offsets}
    artifacts = SessionArtifacts.from_json(data)
    tracer = Tracer()
    warm = Session(graph, artifacts=artifacts, runtime=Runtime.resolve(trace=tracer))
    (span,) = [s for s in tracer.spans if s.name == "memory_plan"]
    assert span.args["cached"] is False
    assert warm.memory_plan.sound()
    assert {k: _bits(v) for k, v in warm.run(feeds).items()} == gold
