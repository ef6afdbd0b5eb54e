"""Bound runners build their views at bind and keep the unbound bits.

``OpRunner.bind`` runs the kernel's bind step once: temporaries carved
from the shared scratch, windows, patches, weight slices and GEMM
reshapes built.  A bound call only computes, so these properties hold
it to the unbound call (the kernel bound on fresh buffers), bitwise,
over random shapes of every family that binds:

* the result of a bound call equals the unbound call's, also when a
  second runner bound to the same scratch overwrites it between calls
  and the scratch starts as NaN bytes;
* after ``bind`` to fresh buffers the runner answers the same again;
* ``Session.run`` carves nothing: every CNN of the zoo and the chaos
  graph build their views before the first feed;
* a session resized in place, or whose resize fails, answers bitwise
  as a fresh session at its shape: no view outlives its binding.
"""

import inspect
import itertools
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.backends.op_runners import build_runner
from repro.core import Session
from repro.core.schemes import SchemeDecision
from repro.faults import FaultPlan, FaultRule, FatalFault
from repro.faults.chaos import default_chaos_graph
from repro.ir import GraphBuilder
from repro.kernels import aligned_empty, workspace
from repro.models import MODEL_REGISTRY, build_model
from repro.runtime import Runtime


def _bits(array):
    return array.dtype, array.shape, array.tobytes()


def _feed(shape, seed, rectified=False):
    x = np.random.default_rng(seed).standard_normal(shape).astype(np.float32)
    return np.maximum(x, 0) if rectified else x  # signed zeros must match too


def _check_bound(graph, scheme=None, seed=0, rectified=False):
    """Bind ``graph``'s one node to an output and a NaN-filled scratch it
    shares with a second bound runner of the node, which runs on another
    input between the first runner's calls; every answer must be the
    unbound call's bits, before and after a rebind to fresh buffers."""
    node = graph.nodes[-1]
    x_shape = graph.desc(node.inputs[0]).shape
    y_desc = graph.desc(node.outputs[0])
    x, other = _feed(x_shape, seed, rectified), _feed(x_shape, seed + 1)
    want = build_runner(node, graph, scheme).fn([x])[0]
    runner, rival = build_runner(node, graph, scheme), build_runner(node, graph, scheme)
    assert runner.binder is not None
    scratch = aligned_empty(runner.scratch_bytes)
    scratch[...] = 0xFF
    out = np.full(y_desc.shape, np.nan, np.float32)
    runner.bind(out, scratch)
    rival.bind(np.empty(y_desc.shape, np.float32), scratch)
    for _ in range(2):
        assert runner.fn([x])[0] is out
        assert _bits(out) == _bits(want)
        rival.fn([other])
    fresh = np.full(y_desc.shape, np.nan, np.float32)
    runner.bind(fresh, aligned_empty(runner.scratch_bytes))
    assert runner.fn([x])[0] is fresh
    assert _bits(fresh) == _bits(want)
    runner.bind(None, scratch)  # a graph output: a fresh array per call
    got = runner.fn([x])[0]
    assert got is not fresh and not np.shares_memory(got, scratch)
    assert _bits(got) == _bits(want)


_pads = st.tuples(*[st.integers(0, 2)] * 4)
_seed = st.integers(0, 2**16)


@given(
    batch=st.integers(1, 3), groups=st.integers(1, 3), icg=st.integers(1, 4),
    ocg=st.integers(1, 4), kernel=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    stride=st.integers(1, 2), dilation=st.integers(1, 2), pads=_pads,
    hw=st.tuples(st.integers(7, 12), st.integers(7, 12)), seed=_seed,
)
@settings(max_examples=40, deadline=None)
def test_sliding(batch, groups, icg, ocg, kernel, stride, dilation, pads, hw, seed):
    b = GraphBuilder("sliding", seed=seed)
    x = b.input("x", (batch, groups * icg) + hw)
    b.output(b.conv(x, groups * ocg, kernel, stride=stride, pad_mode="explicit", pad=pads,
                    dilation=dilation, groups=groups, activation="relu"))
    _check_bound(b.finish(), SchemeDecision("sliding"), seed)


@given(
    batch=st.integers(1, 2), ic=st.integers(1, 6), oc=st.integers(1, 6),
    kernel=st.sampled_from([(3, 3), (1, 3), (3, 1), (5, 5), (1, 5)]),
    tile=st.tuples(st.integers(1, 4), st.integers(1, 4)), pads=_pads,
    hw=st.tuples(st.integers(5, 11), st.integers(5, 11)), seed=_seed,
)
@settings(max_examples=40, deadline=None)
def test_winograd_rect(batch, ic, oc, kernel, tile, pads, hw, seed):
    b = GraphBuilder("winograd", seed=seed)
    x = b.input("x", (batch, ic) + hw)
    b.output(b.conv(x, oc, kernel, pad_mode="explicit", pad=pads))
    tile = tuple(1 if k == 1 else n for n, k in zip(tile, kernel))
    _check_bound(b.finish(), SchemeDecision("winograd", tile=tile), seed)


@given(
    batch=st.integers(1, 3), c=st.integers(1, 12), k=st.sampled_from([3, 5]),
    stride=st.integers(1, 2), dilation=st.integers(1, 2), pads=_pads,
    hw=st.tuples(st.integers(9, 14), st.integers(9, 14)), rectified=st.booleans(),
    seed=_seed,
)
@settings(max_examples=40, deadline=None)
def test_depthwise(batch, c, k, stride, dilation, pads, hw, rectified, seed):
    b = GraphBuilder("depthwise", seed=seed)
    x = b.input("x", (batch, c) + hw)
    b.output(b.depthwise_conv(x, k, stride, pad_mode="explicit", pad=pads, dilation=dilation,
                              activation="relu6"))
    _check_bound(b.finish(), seed=seed, rectified=rectified)


@given(
    batch=st.integers(1, 3), c=st.integers(1, 6), kernel=st.integers(1, 3),
    stride=st.integers(1, 3), pads=_pads, ceil_mode=st.booleans(),
    average=st.booleans(), include_pad=st.booleans(),
    hw=st.tuples(st.integers(4, 12), st.integers(4, 12)), seed=_seed,
)
@settings(max_examples=60, deadline=None)
def test_pooling(batch, c, kernel, stride, pads, ceil_mode, average, include_pad, hw, seed):
    b = GraphBuilder("pool", seed=seed)
    x = b.input("x", (batch, c) + hw)
    pads = tuple(min(p, kernel - 1) for p in pads)
    if average:
        b.output(b.avg_pool(x, kernel, stride, pad_mode="explicit", pad=pads,
                            ceil_mode=ceil_mode, count_include_pad=include_pad))
    else:
        b.output(b.max_pool(x, kernel, stride, pad_mode="explicit", pad=pads,
                            ceil_mode=ceil_mode))
    _check_bound(b.finish(), seed=seed)


def _torch_pool_size(size, kernel, stride, pad_begin, pad_end):
    """PyTorch's ``pooling_output_shape_pad_lr`` in ceil mode."""
    out = (size + pad_begin + pad_end - kernel + stride - 1) // stride + 1
    if (out - 1) * stride >= size + pad_begin:
        out -= 1  # the last window would start past the input: dropped
    return out


def test_ceil_mode_pools_drop_a_window_past_the_input():
    """Every ceil-mode window holds an input row: over k, s <= 3, every
    pad pair below k and 4-12 rows, the pooled size is PyTorch's and max
    and average pooling answer finite numbers (a padding-only window
    would give -inf and 0/0)."""
    x = _feed((1, 2, 12, 12), seed=3)
    for kernel, stride, rows in itertools.product(range(1, 4), range(1, 4), range(4, 13)):
        for top, bottom in itertools.product(range(kernel), repeat=2):
            pads = (top, bottom, top, bottom)
            b = GraphBuilder("ceil")
            src = b.input("x", (1, 2, rows, rows))
            pools = [b.max_pool(src, kernel, stride, pad_mode="explicit", pad=pads,
                                ceil_mode=True)]
            pools += [b.avg_pool(src, kernel, stride, pad_mode="explicit", pad=pads,
                                 ceil_mode=True, count_include_pad=include)
                      for include in (False, True)]
            for y in pools:
                b.output(y)
            graph = b.finish()
            size = _torch_pool_size(rows, kernel, stride, top, bottom)
            for node in graph.nodes:
                assert graph.desc(node.outputs[0]).shape == (1, 2, size, size)
                got = build_runner(node, graph).fn([x[:, :, :rows, :rows]])[0]
                assert np.isfinite(got).all(), (node.op_type, kernel, stride, pads, rows)


@given(
    batch=st.integers(1, 3), ic=st.integers(1, 8), oc=st.integers(1, 8),
    stride=st.integers(1, 3), pads=_pads,
    hw=st.tuples(st.integers(1, 9), st.integers(1, 9)), seed=_seed,
)
@settings(max_examples=40, deadline=None)
def test_gemm1x1(batch, ic, oc, stride, pads, hw, seed):
    b = GraphBuilder("gemm1x1", seed=seed)
    x = b.input("x", (batch, ic) + hw)
    b.output(b.conv(x, oc, 1, stride=stride, pad_mode="explicit", pad=pads))
    _check_bound(b.finish(), SchemeDecision("gemm1x1"), seed)


# -- Session.run carves nothing -------------------------------------------------------
#: The zoo's CNNs: every model that takes an image size.
CNNS = sorted(
    name for name, factory in MODEL_REGISTRY.items()
    if "input_size" in inspect.signature(factory).parameters
)


def _graph(name):
    if name == "chaos":
        return default_chaos_graph()
    return build_model(name, input_size=75 if name == "inception_v3" else 64)


def _spy_on_carve(monkeypatch):
    """Count every call of ``workspace.carve``, under every name a module
    of the package imported it as."""
    calls = []
    carve = workspace.carve

    def spy(scratch, specs):
        calls.append([shape for shape, _ in specs])
        return carve(scratch, specs)

    for module in list(sys.modules.values()):
        if module is not None and module.__name__.startswith("repro.") and \
                getattr(module, "carve", None) is carve:
            monkeypatch.setattr(module, "carve", spy)
    return calls


@pytest.mark.parametrize("name", CNNS + ["chaos"])
def test_session_run_carves_nothing(name, monkeypatch):
    graph = _graph(name)
    calls = _spy_on_carve(monkeypatch)
    session = Session(graph)
    calls.clear()
    feeds = {n: _feed(graph.desc(n).shape, 3) for n in graph.inputs}
    for _ in range(2):
        session.run(feeds)
    assert calls == []
    # The spy sees what it should: a re-prepare binds, so it carves.
    session.resize({n: graph.desc(n).shape for n in graph.inputs})
    assert calls


# -- no view outlives its binding ------------------------------------------------------
def _net(batch):
    """SqueezeNet-v1.1 at 64 px: padded sliding and 1x1 convs, max pools."""
    return build_model("squeezenet_v1.1", input_size=64, batch=batch)


def test_resized_in_place_answers_like_a_fresh_session():
    session = Session(_net(1))
    name = session.graph.inputs[0]
    for batch in (1, 2, 1):
        shape = (batch,) + session.graph.desc(name).shape[1:]
        session.resize({name: shape})
        feeds = {name: _feed(shape, batch)}
        want = Session(_net(batch)).run(feeds)
        for _ in range(2):
            got = session.run(feeds)
            assert {k: _bits(v) for k, v in got.items()} == \
                {k: _bits(v) for k, v in want.items()}


def test_failed_resize_keeps_answering_at_the_old_shape():
    # skip=1 spares construction; the first resize hits the fault.
    plan = FaultPlan([FaultRule("session.prepare", "fatal", skip=1, times=1)])
    session = Session(_net(1), runtime=Runtime.resolve(faults=plan))
    name = session.graph.inputs[0]
    feeds = {name: _feed(session.graph.desc(name).shape, 5)}
    want = Session(_net(1)).run(feeds)
    with pytest.raises(FatalFault):
        session.resize({name: (2,) + session.graph.desc(name).shape[1:]})
    for _ in range(2):
        got = session.run(feeds)
        assert {k: _bits(v) for k, v in got.items()} == {k: _bits(v) for k, v in want.items()}
