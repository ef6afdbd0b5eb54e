"""Tests for sliding-window conv, 1x1 GEMM conv, depthwise and dispatch."""

import importlib

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.backends.base import BackendError
from repro.backends.op_runners import build_runner
from repro.core import Session, SessionConfig, node_muls
from repro.core.schemes import SchemeDecision, select_graph_schemes
from repro.ir import GraphBuilder
from repro.kernels import (
    GemmStats,
    aligned_empty,
    conv2d_1x1,
    conv2d_im2col,
    depthwise_conv2d,
    fully_connected,
    im2col,
    matmul,
    tiled_matmul,
)
from repro.models import mobilenet_v1, squeezenet_v1_1

from .gold import conv2d_naive, depthwise_conv2d_naive

RNG = np.random.default_rng(11)


def _bits(array):
    return array.dtype, array.shape, array.tobytes()


def _conv1x1_nhwc(x, weights, bias=None, stride=(1, 1), use_strassen=True, stats=None):
    """The previous ``conv2d_1x1``, kept as an oracle: one GEMM over the
    NHWC-transposed activation and the transposed weights."""
    if stride != (1, 1):
        x = x[:, :, :: stride[0], :: stride[1]]
    n, ic, h, w = x.shape
    oc = weights.shape[0]
    lhs = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).reshape(n * h * w, ic)
    rhs = np.ascontiguousarray(weights.reshape(oc, ic).T)
    out = matmul(lhs, rhs, use_strassen=use_strassen, stats=stats)
    out = out.reshape(n, h, w, oc).transpose(0, 3, 1, 2)
    if bias is not None:
        out = out + bias.reshape(1, -1, 1, 1)
    return np.ascontiguousarray(out)


class TestIm2col:
    def test_window_contents(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        cols = im2col(x, (2, 2), (1, 1), (0, 0, 0, 0))
        assert cols.shape == (1, 3, 3, 1, 2, 2)
        np.testing.assert_array_equal(cols[0, 0, 0, 0], [[0, 1], [4, 5]])
        np.testing.assert_array_equal(cols[0, 2, 2, 0], [[10, 11], [14, 15]])

    def test_stride_and_pad(self):
        x = np.ones((1, 2, 5, 5), np.float32)
        cols = im2col(x, (3, 3), (2, 2), (1, 1, 1, 1))
        assert cols.shape == (1, 3, 3, 2, 3, 3)

    def test_dilation(self):
        x = np.arange(25, dtype=np.float32).reshape(1, 1, 5, 5)
        cols = im2col(x, (2, 2), (1, 1), (0, 0, 0, 0), (2, 2))
        # dilated window picks elements 2 apart
        np.testing.assert_array_equal(cols[0, 0, 0, 0], [[0, 2], [10, 12]])


class TestConvIm2col:
    @pytest.mark.parametrize(
        "kernel,stride,pads,dilation,groups",
        [
            ((3, 3), (1, 1), (1, 1, 1, 1), (1, 1), 1),
            ((3, 3), (2, 2), (1, 1, 1, 1), (1, 1), 1),
            ((1, 7), (1, 1), (0, 0, 3, 3), (1, 1), 1),   # Inception 1x7
            ((7, 1), (1, 1), (3, 3, 0, 0), (1, 1), 1),   # Inception 7x1
            ((3, 3), (1, 1), (2, 2, 2, 2), (2, 2), 1),   # dilated
            ((3, 3), (1, 1), (1, 1, 1, 1), (1, 1), 2),   # grouped
            ((5, 5), (3, 3), (2, 2, 2, 2), (1, 1), 1),
        ],
    )
    def test_matches_naive(self, kernel, stride, pads, dilation, groups):
        ic, oc = 4, 6
        x = RNG.standard_normal((2, ic, 14, 14)).astype(np.float32)
        w = RNG.standard_normal((oc, ic // groups, *kernel)).astype(np.float32)
        b = RNG.standard_normal(oc).astype(np.float32)
        got = conv2d_im2col(x, w, b, stride, pads, dilation, groups)
        want = conv2d_naive(x, w, b, stride, pads, dilation, groups)
        np.testing.assert_allclose(got, want, atol=1e-4)

    def test_group_mismatch_raises(self):
        x = RNG.standard_normal((1, 5, 8, 8)).astype(np.float32)
        w = RNG.standard_normal((4, 2, 3, 3)).astype(np.float32)
        with pytest.raises(ValueError, match="groups"):
            conv2d_im2col(x, w, groups=2)

    @given(
        k=st.integers(1, 5),
        s=st.integers(1, 3),
        p=st.integers(0, 2),
        hw=st.integers(6, 18),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_matches_naive(self, k, s, p, hw):
        x = RNG.standard_normal((1, 3, hw, hw)).astype(np.float32)
        w = RNG.standard_normal((4, 3, k, k)).astype(np.float32)
        pads = (p, p, p, p)
        if hw + 2 * p < k:
            return
        got = conv2d_im2col(x, w, stride=(s, s), pads=pads)
        want = conv2d_naive(x, w, stride=(s, s), pads=pads)
        np.testing.assert_allclose(got, want, atol=1e-4)

    @given(
        n=st.integers(1, 3),
        groups=st.integers(1, 3),
        icg=st.integers(1, 4),
        ocg=st.integers(1, 4),
        kernel=st.tuples(st.integers(1, 4), st.integers(1, 4)),
        stride=st.tuples(st.integers(1, 3), st.integers(1, 3)),
        dilation=st.tuples(st.integers(1, 2), st.integers(1, 2)),
        pads=st.tuples(*[st.integers(0, 2)] * 4),
        hw=st.tuples(st.integers(1, 12), st.integers(1, 12)),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_rows_match_single_calls_and_muls_match_the_cost_model(
        self, n, groups, icg, ocg, kernel, stride, dilation, pads, hw, seed
    ):
        """One GEMM per sample and group: batch row i is bitwise the
        single-sample call, and the GEMMs issue exactly the sliding MULs."""
        for size, pad, k, d in zip(hw, (pads[0] + pads[1], pads[2] + pads[3]), kernel, dilation):
            assume(size + pad >= (k - 1) * d + 1)
        b = GraphBuilder("sliding", seed=seed)
        x = b.input("x", (n, groups * icg) + hw)
        b.output(b.conv(x, groups * ocg, kernel, stride=stride, pad_mode="explicit", pad=pads,
                        dilation=dilation, groups=groups, name="c"))
        graph = b.finish()
        node = graph.nodes[-1]
        w, bias = (graph.constants[name] for name in node.inputs[1:])
        feed = np.random.default_rng(seed).standard_normal((n, groups * icg) + hw)
        feed = feed.astype(np.float32)
        stats = GemmStats()
        got = conv2d_im2col(feed, w, bias, stride, pads, dilation, groups, stats=stats)
        assert got.shape == graph.desc("c").shape
        assert stats.mul_elements == node_muls(node, graph, "sliding")
        assert stats.base_multiplies == n * groups
        np.testing.assert_allclose(
            got, conv2d_naive(feed, w, bias, stride, pads, dilation, groups), atol=1e-4)
        for i in range(n):
            single = conv2d_im2col(feed[i : i + 1], w, bias, stride, pads, dilation, groups)
            assert _bits(got[i : i + 1]) == _bits(single)


class TestConv1x1:
    def test_matches_naive(self):
        x = RNG.standard_normal((2, 8, 10, 10)).astype(np.float32)
        w = RNG.standard_normal((16, 8, 1, 1)).astype(np.float32)
        b = RNG.standard_normal(16).astype(np.float32)
        got = conv2d_1x1(x, w, b)
        want = conv2d_naive(x, w, b)
        np.testing.assert_allclose(got, want, atol=1e-4)

    def test_strided_1x1(self):
        x = RNG.standard_normal((1, 4, 9, 9)).astype(np.float32)
        w = RNG.standard_normal((8, 4, 1, 1)).astype(np.float32)
        got = conv2d_1x1(x, w, stride=(2, 2))
        want = conv2d_naive(x, w, stride=(2, 2))
        np.testing.assert_allclose(got, want, atol=1e-4)

    def test_rejects_non_1x1(self):
        x = RNG.standard_normal((1, 4, 8, 8)).astype(np.float32)
        w = RNG.standard_normal((8, 4, 3, 3)).astype(np.float32)
        with pytest.raises(ValueError, match="1x1"):
            conv2d_1x1(x, w)

    def test_large_1x1_routes_through_strassen(self):
        x = RNG.standard_normal((1, 512, 24, 24)).astype(np.float32)
        w = RNG.standard_normal((512, 512, 1, 1)).astype(np.float32)
        stats = GemmStats()
        conv2d_1x1(x, w, use_strassen=True, stats=stats)
        assert stats.max_depth >= 1  # Strassen actually recursed
        direct = 576 * 512 * 512
        assert stats.mul_elements < direct
        old = GemmStats()
        _conv1x1_nhwc(x, w, stats=old)
        assert stats == old

    def test_accepts_the_runner_bound_2d_view(self):
        x = RNG.standard_normal((2, 8, 5, 5)).astype(np.float32)
        w = RNG.standard_normal((16, 8, 1, 1)).astype(np.float32)
        np.testing.assert_array_equal(conv2d_1x1(x, w.reshape(16, 8)), conv2d_1x1(x, w))

    @given(
        n=st.integers(1, 3),
        ic=st.integers(1, 40),
        oc=st.integers(1, 40),
        h=st.integers(1, 12),
        w=st.integers(1, 12),
        stride=st.sampled_from([(1, 1), (2, 2), (1, 2)]),
        bias=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_nchw_matches_nhwc_and_rows_match_single_calls(
        self, n, ic, oc, h, w, stride, bias, seed
    ):
        """Within 1e-5 of the NHWC formulation; batch row i is bitwise the
        single-sample call."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, ic, h, w)).astype(np.float32)
        wt = rng.standard_normal((oc, ic, 1, 1)).astype(np.float32)
        b = rng.standard_normal(oc).astype(np.float32) if bias else None
        got = conv2d_1x1(x, wt, b, stride)
        want = _conv1x1_nhwc(x, wt, b, stride)
        assert got.shape == want.shape and got.dtype == want.dtype
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)
        for i in range(n):
            np.testing.assert_array_equal(got[i : i + 1], conv2d_1x1(x[i : i + 1], wt, b, stride))

    @given(
        ic=st.integers(1, 600),
        oc=st.integers(1, 600),
        hw=st.integers(1, 24),
        use_strassen=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_gemm_stats_match_the_nhwc_orientation(self, ic, oc, hw, use_strassen):
        """Eq. 9 and the tile count are symmetric in the outer dimensions;
        a one-call GEMM counts the tiles the tiled substrate would issue,
        for a 1x1 conv and for each FC row alike."""
        x = np.ones((1, ic, hw, hw), np.float32)
        w = np.ones((oc, ic, 1, 1), np.float32)
        new, old = GemmStats(), GemmStats()
        conv2d_1x1(x, w, use_strassen=use_strassen, stats=new)
        _conv1x1_nhwc(x, w, use_strassen=use_strassen, stats=old)
        assert new == old
        rows, w2d = np.ones((2, ic), np.float32), w.reshape(oc, ic)
        new, old = GemmStats(), GemmStats()
        fully_connected(rows, w2d, stats=new)
        for row in rows:
            tiled_matmul(row[None], w2d.T, stats=old)
        assert new == old


@pytest.mark.parametrize("build", [mobilenet_v1, squeezenet_v1_1])
def test_cnn_sessions_never_reach_the_tiled_substrate(build, monkeypatch):
    """At 128 px no 1x1 conv is big enough for Strassen, so neither it nor
    FC may fall through to ``tiled_matmul``: each is one BLAS call."""
    def tiled(*args, **kwargs):
        raise AssertionError("tiled_matmul on the engine's path")

    graph = build(input_size=128)
    session = Session(graph)
    # The package re-exports a function named ``matmul``, which shadows
    # the module of that name as an attribute of ``repro.kernels``.
    monkeypatch.setattr(importlib.import_module("repro.kernels.matmul"), "tiled_matmul", tiled)
    monkeypatch.setattr("repro.kernels.tiled_matmul", tiled)
    out = session.run({graph.inputs[0]: RNG.standard_normal((1, 3, 128, 128)).astype(np.float32)})
    assert np.isfinite(out[graph.outputs[0]]).all()


def _depthwise_nchw(x, weights, bias=None, stride=(1, 1), pads=(0, 0, 0, 0), dilation=(1, 1)):
    """The previous NCHW ``depthwise_conv2d``, kept as an oracle: kh*kw
    multiply-adds over whole (N, C, h, w) planes, bias last."""
    n, c, _, _ = x.shape
    kh, kw = weights.shape[2], weights.shape[3]
    sh, sw = stride
    dh, dw = dilation
    top, bottom, left, right = pads
    if any(pads):
        x = np.pad(x, ((0, 0), (0, 0), (top, bottom), (left, right)))
    oh = (x.shape[2] - (kh - 1) * dh - 1) // sh + 1
    ow = (x.shape[3] - (kw - 1) * dw - 1) // sw + 1
    out = np.zeros((n, c, oh, ow), dtype=np.result_type(x.dtype, weights.dtype))
    for i in range(kh):
        for j in range(kw):
            di, dj = i * dh, j * dw
            patch = x[:, :, di : di + (oh - 1) * sh + 1 : sh, dj : dj + (ow - 1) * sw + 1 : sw]
            out += patch * weights[:, 0, i, j].reshape(1, c, 1, 1)
    if bias is not None:
        out += bias.reshape(1, -1, 1, 1)
    return out


class TestDepthwise:
    @pytest.mark.parametrize(
        "stride,pads,dilation",
        [((1, 1), (1, 1, 1, 1), (1, 1)), ((2, 2), (1, 1, 1, 1), (1, 1)),
         ((1, 1), (2, 2, 2, 2), (2, 2))],
    )
    def test_matches_naive(self, stride, pads, dilation):
        c = 6
        x = RNG.standard_normal((2, c, 12, 12)).astype(np.float32)
        w = RNG.standard_normal((c, 1, 3, 3)).astype(np.float32)
        b = RNG.standard_normal(c).astype(np.float32)
        got = depthwise_conv2d(x, w, b, stride, pads, dilation)
        want = depthwise_conv2d_naive(x, w, b, stride, pads, dilation)
        np.testing.assert_allclose(got, want, atol=1e-4)

    def test_channel_mismatch(self):
        x = RNG.standard_normal((1, 4, 8, 8)).astype(np.float32)
        w = RNG.standard_normal((5, 1, 3, 3)).astype(np.float32)
        with pytest.raises(ValueError, match="channels"):
            depthwise_conv2d(x, w)

    @given(
        c=st.integers(1, 64),
        batch=st.integers(1, 3),
        kernel=st.sampled_from([(3, 3), (5, 5), (1, 3), (3, 1)]),
        stride=st.sampled_from([(1, 1), (2, 2), (1, 2)]),
        dilation=st.sampled_from([(1, 1), (2, 2)]),
        pads=st.tuples(*[st.integers(0, 2)] * 4),
        hw=st.tuples(st.integers(9, 17), st.integers(9, 17)),  # fits a dilated 5x5
        with_bias=st.booleans(),
        rectified=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_bitwise_equals_nchw_sweep(
        self, c, batch, kernel, stride, dilation, pads, hw, with_bias, rectified
    ):
        """Channels-last does the same float ops in the same order."""
        rng = np.random.default_rng(c * 7 + batch)
        x = rng.standard_normal((batch, c) + hw).astype(np.float32)
        if rectified:  # zeros times negative taps: signed zeros must match too
            x = np.maximum(x, 0)
        w = rng.standard_normal((c, 1) + kernel).astype(np.float32)
        b = rng.standard_normal(c).astype(np.float32) if with_bias else None
        got = depthwise_conv2d(x, w, b, stride, pads, dilation)
        want = _depthwise_nchw(x, w, b, stride, pads, dilation)
        assert got.flags.c_contiguous and got.shape == want.shape
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))

    @staticmethod
    def _net(shape, k=3, stride=1, dilation=1, pads=(1, 1, 1, 1), seed=0):
        b = GraphBuilder("dw", seed=seed)
        x = b.input("x", shape)
        b.output(b.depthwise_conv(x, k, stride, pad_mode="explicit", pad=pads,
                                  dilation=dilation, name="dw"))
        return b.finish()

    @given(
        c=st.integers(1, 70),
        batch=st.integers(1, 3),
        k=st.sampled_from([3, 5]),
        stride=st.sampled_from([1, 2]),
        dilation=st.sampled_from([1, 2]),
        pads=st.tuples(*[st.integers(0, 2)] * 4),
        hw=st.tuples(st.integers(9, 17), st.integers(9, 17)),  # fits a dilated 5x5
        rectified=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_bound_runner_bitwise_equals_nchw_sweep(
        self, c, batch, k, stride, dilation, pads, hw, rectified, seed
    ):
        """Taps packed across the output width change no bit, at any width,
        writing into a bound slot through a dirty scratch."""
        graph = self._net((batch, c) + hw, k, stride, dilation, pads, seed)
        node = graph.nodes[-1]
        runner = build_runner(node, graph)
        out_shape = graph.desc("dw").shape
        assert runner.fn.__kwdefaults__["_w"].shape == (k, k, out_shape[3], c)
        weights, bias = (graph.constants[name] for name in node.inputs[1:])
        x = np.random.default_rng(seed).standard_normal((batch, c) + hw).astype(np.float32)
        if rectified:  # zeros times negative taps: signed zeros must match too
            x = np.maximum(x, 0)
        out = np.full(out_shape, np.nan, np.float32)
        scratch = aligned_empty(runner.scratch_bytes)
        scratch[...] = 0xFF
        runner.bind(out, scratch)
        assert runner.fn([x])[0] is out
        want = _depthwise_nchw(x, weights, bias, (stride, stride), pads, (dilation, dilation))
        assert _bits(out) == _bits(want)

    def test_resized_session_answers_like_a_fresh_one(self):
        """The runner packs its taps for the output width; a resize to a new
        width rebuilds them."""
        session = Session(self._net((1, 24, 16, 16)))
        for shape in [(1, 24, 16, 23), (2, 24, 11, 9), (1, 24, 16, 16)]:
            x = RNG.standard_normal(shape).astype(np.float32)
            session.resize({"x": shape})
            got = session.run({"x": x})["dw"]
            want = Session(self._net(shape)).run({"x": x})["dw"]
            assert _bits(got) == _bits(want)


class TestPaddedConvSchemes:
    """Every scheme the selector can return honours explicit padding; a
    padded 1x1 conv used to run as gemm1x1 with its padding dropped."""

    @pytest.mark.parametrize("kernel", [1, 3])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_every_selectable_scheme_matches_inferred_shape_and_sliding(self, kernel, stride):
        b = GraphBuilder("padded", seed=3)
        x = b.input("x", (1, 4, 6, 6))
        b.output(b.conv(x, 8, kernel, stride=stride, pad_mode="explicit",
                        pad=(1, 1, 1, 1), name="c"))
        graph = b.finish()
        node = graph.nodes[-1]
        weights, bias = (graph.constants[name] for name in node.inputs[1:])
        out_shape = graph.desc("c").shape
        natural = select_graph_schemes(graph)["c"]
        if kernel == 1:
            candidates = [natural]
        else:
            assert natural.kind in ("sliding", "winograd")
            candidates = [SchemeDecision("sliding")]
            if stride == 1:
                candidates += [SchemeDecision("winograd", (n, n)) for n in (2, 4, 6, 8)]
        feed = RNG.standard_normal((1, 4, 6, 6)).astype(np.float32)
        want = conv2d_naive(feed, weights, bias, (stride, stride), (1, 1, 1, 1))
        assert want.shape == out_shape
        for decision in candidates:
            session = Session(graph, SessionConfig(scheme_overrides={"c": decision}))
            got = session.run({"x": feed})["c"]
            assert got.shape == out_shape, decision.kind
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-5)


class TestDispatch:
    """``build_runner`` is where a conv's scheme becomes code."""

    @staticmethod
    def _conv(shape, oc, kernel, activation=None):
        b = GraphBuilder("dispatch", seed=5)
        b.output(b.conv(b.input("x", shape), oc, kernel, activation=activation, name="y"))
        graph = b.finish()
        return graph, graph.nodes[-1], RNG.standard_normal(shape).astype(np.float32)

    def test_all_schemes_agree(self):
        graph, node, x = self._conv((1, 8, 16, 16), 8, 3)
        [sliding] = build_runner(node, graph, SchemeDecision("sliding")).fn([x])
        [wino] = build_runner(node, graph, SchemeDecision("winograd", (2, 2))).fn([x])
        np.testing.assert_allclose(sliding, wino, atol=1e-3)

    def test_gemm1x1_scheme(self):
        graph, node, x = self._conv((1, 8, 8, 8), 4, 1)
        [got] = build_runner(node, graph, SchemeDecision("gemm1x1")).fn([x])
        want = conv2d_naive(x, *(graph.constants[name] for name in node.inputs[1:]))
        np.testing.assert_allclose(got, want, atol=1e-4)

    def test_fused_activation(self):
        for activation, high in (("relu", np.inf), ("relu6", 6)):
            graph, node, x = self._conv((1, 4, 8, 8), 4, 3, activation)
            [y] = build_runner(node, graph, SchemeDecision("sliding")).fn([x * 100])
            assert (y >= 0).all() and (y <= high).all() and y.max() > 0

    def test_unknown_scheme(self):
        graph, node, _ = self._conv((1, 4, 8, 8), 4, 3)
        with pytest.raises(BackendError, match="scheme"):
            build_runner(node, graph, SchemeDecision("magic"))
