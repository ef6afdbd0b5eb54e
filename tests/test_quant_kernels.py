"""Int8 GEMM kernels (:mod:`repro.kernels.qgemm`), their op-runner
dispatch, and the quantized entries in the scheme-selection cost model.

The load-bearing property is *exact integer accumulation*: the GEMM runs
through BLAS on integer-valued float operands (float32 while every
partial sum stays below 2**24, float64 past that), so it equals an
int64 reference bitwise and the batched product is bitwise the per-row
product (decode's token-invariance for free).  The pre-BLAS int32
formula is kept here as the oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.backends import BackendError
from repro.backends.op_runners import build_runner
from repro.core.schemes import (
    SchemeConfig,
    select_conv_scheme,
    select_graph_schemes,
)
from repro.core.session import Session
from repro.ir import GraphBuilder
from repro.kernels import (
    GemmStats,
    exact_int_gemm,
    im2col,
    matmul,
    prepack_int8,
    qconv2d,
    qmatmul,
    qmatmul_prepacked,
    quantize_float,
    quantize_rowwise,
    quantize_symmetric,
)
from repro.quant import quantize_graph

pytestmark = pytest.mark.quant

RNG = np.random.default_rng(99)


def quantize_weights(w):
    scales = (np.abs(w).max(axis=0) / 127.0).astype(np.float32)
    safe = np.where(scales > 0, scales, 1.0).astype(np.float32)
    wq = np.clip(np.rint(w / safe), -127, 127).astype(np.int8)
    return wq, scales


def qmatmul_int32_reference(x, wq, cs):
    """The int32 kernel qmatmul replaced, kept as the oracle."""
    rows = x.reshape(-1, x.shape[-1])
    scales = (np.max(np.abs(rows), axis=1) / 127.0).astype(np.float32)
    safe = np.where(scales > 0, scales, np.float32(1.0)).astype(np.float32)
    xq = np.clip(np.rint(rows / safe.reshape(-1, 1)), -127, 127).astype(np.int8)
    acc = xq.astype(np.int32) @ wq.astype(np.int32)
    out = acc.astype(np.float32) * (scales.reshape(-1, 1) * cs.reshape(1, -1))
    return out.reshape(*x.shape[:-1], wq.shape[1])


def quantize_symmetric_clip_always(x, axis):
    """The quantizer before its clip guard, kept as the oracle: divide by
    ``where(scale > 0, scale, 1)`` and clip to +-127 on every call."""
    scales = np.abs(x).max(axis=axis, keepdims=True, initial=0) / np.float32(127.0)
    q = x / np.where(scales > 0, scales, np.float32(1.0))
    np.rint(q, out=q)
    np.maximum(q, -127, out=q)
    return np.minimum(q, 127, out=q), scales


#: Row magnitudes: all-zero rows, maxima so small the scale rounds to 0,
#: subnormal maxima (``x / scale`` reaches ~190 before the clip), a
#: normal maximum with a subnormal scale, and ordinary to huge rows.
ROW_MAGNITUDES = [0.0, 1e-45, 3e-44, 1e-41, 1e-39, 1e-38, 1e-3, 1.0, 1e30]


@st.composite
def quantizer_cases(draw):
    """``(x, axis)`` with 1-9 rows, each row at its own drawn magnitude."""
    rows = draw(st.integers(1, 9))
    axis = draw(st.sampled_from([1, (0, 2)]))
    width = draw(st.integers(1, 40))
    heads = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    mags = np.array(draw(st.lists(st.sampled_from(ROW_MAGNITUDES),
                                  min_size=rows, max_size=rows)))
    if axis == 1:
        x = rng.standard_normal((rows, width)) * mags[:, None]
    else:
        x = rng.standard_normal((heads, rows, width)) * mags[None, :, None]
    return x.astype(np.float32), axis


def static_codes(x, input_scale):
    return np.clip(np.round(x / input_scale), -127, 127).astype(np.int64)


def _qconv2d_nhwc(x, weights_q, weight_scales, input_scale, bias=None, stride=(1, 1),
                  pads=(0, 0, 0, 0), dilation=(1, 1), groups=1):
    """The previous ``qconv2d``, kept as an oracle: one exact GEMM per group
    over a contiguous copy of the whole batch's ``(N*oh*ow, C*kh*kw)``
    im2col matrix, transposed back to NCHW."""
    n, ic = x.shape[:2]
    oc, _, kh, kw = weights_q.shape
    cols = im2col(quantize_float(x, input_scale), (kh, kw), stride, pads, dilation)
    _, oh, ow, _, _, _ = cols.shape
    icg, ocg = ic // groups, oc // groups
    out = np.empty((n, oc, oh, ow), dtype=np.float32)
    for g in range(groups):
        lhs = np.ascontiguousarray(
            cols[:, :, :, g * icg : (g + 1) * icg]
        ).reshape(n * oh * ow, icg * kh * kw)
        rhs = weights_q[g * ocg : (g + 1) * ocg].reshape(ocg, icg * kh * kw).T
        prod = exact_int_gemm(lhs, rhs)
        out[:, g * ocg : (g + 1) * ocg] = prod.reshape(n, oh, ow, ocg).transpose(0, 3, 1, 2)
    out *= input_scale * weight_scales.reshape(1, -1, 1, 1)
    if bias is not None:
        out += bias.reshape(1, -1, 1, 1)
    return out


class TestExactIntGemm:
    # 1040 is the last depth whose worst-case sum (k * 127 * 127) stays
    # below 2**24; 1041's is odd and above it, so float32 would round.
    @pytest.mark.parametrize("k", [1, 64, 1040, 1041, 4608])
    def test_worst_case_operands_match_int64(self, k):
        sign = np.where(np.arange(k) % 2 == 0, 1, -1)
        a = np.stack([np.full(k, 127), 127 * sign, np.full(k, -127)]).astype(np.int8)
        b = np.stack([np.full(k, 127), 127 * sign, -127 * sign], axis=1).astype(np.int8)
        want = a.astype(np.int64) @ b.astype(np.int64)
        assert abs(want).max() == k * 127 * 127
        for lhs, rhs in ((a, b), (a.astype(np.float32), prepack_int8(b, k))):
            got = exact_int_gemm(lhs, rhs)
            assert got.dtype == (np.float32 if k <= 1040 else np.float64)
            np.testing.assert_array_equal(got, want)

    def test_prepack_shares_one_copy_per_constant(self):
        wq = RNG.integers(-127, 128, (16, 8)).astype(np.int8)
        packed = prepack_int8(wq, 16)
        assert prepack_int8(wq.copy(), 16) is packed
        assert not packed.flags.writeable
        np.testing.assert_array_equal(packed, wq)

    @given(m=st.integers(1, 6), k=st.integers(1, 1100), n=st.integers(1, 12),
           seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_qmatmul_is_row_invariant_and_equals_the_int32_kernel(self, m, k, n, seed):
        rng = np.random.default_rng(seed)
        x = (rng.standard_normal((m, k)) * 10 ** rng.uniform(-3, 3)).astype(np.float32)
        wq, cs = quantize_weights(rng.standard_normal((k, n)).astype(np.float32))
        full = qmatmul(x, wq, cs)
        np.testing.assert_array_equal(full, qmatmul_int32_reference(x, wq, cs))
        np.testing.assert_array_equal(full, qmatmul(x, prepack_int8(wq, k), cs))
        for t in range(m):
            np.testing.assert_array_equal(full[t : t + 1], qmatmul(x[t : t + 1], wq, cs))

    @pytest.mark.parametrize("ic,groups", [(8, 1), (8, 2), (128, 1)])  # 128*9 > 1040
    def test_qconv2d_matches_int64_reference(self, ic, groups):
        oc, stride, pads = 4, (1, 1), (1, 1, 1, 1)
        x = RNG.standard_normal((2, ic, 5, 5)).astype(np.float32)
        wq = RNG.integers(-127, 128, (oc, ic // groups, 3, 3)).astype(np.int8)
        w_scales = RNG.uniform(0.01, 0.1, oc).astype(np.float32)
        bias = RNG.standard_normal(oc).astype(np.float32)
        input_scale = float(np.abs(x).max() / 127.0)
        cols = im2col(static_codes(x, input_scale), (3, 3), stride, pads)
        icg, ocg = ic // groups, oc // groups
        acc = np.concatenate([
            np.einsum("nhwckl,ockl->nohw", cols[:, :, :, g * icg : (g + 1) * icg],
                      wq[g * ocg : (g + 1) * ocg].astype(np.int64))
            for g in range(groups)
        ], axis=1)
        want = acc.astype(np.float32) * (input_scale * w_scales.reshape(1, -1, 1, 1))
        want += bias.reshape(1, -1, 1, 1)
        for weights in (wq, prepack_int8(wq, icg * 9)):
            got = qconv2d(x, weights, w_scales, input_scale, bias, stride, pads,
                          groups=groups)
            np.testing.assert_array_equal(got, want)

    @given(
        n=st.integers(1, 3),
        groups=st.integers(1, 2),
        icg=st.sampled_from([1, 3, 8, 120]),  # 120 * 9 > 1040: the float64 GEMM
        stride=st.tuples(st.integers(1, 2), st.integers(1, 2)),
        dilation=st.tuples(st.integers(1, 2), st.integers(1, 2)),
        pads=st.tuples(*[st.integers(0, 2)] * 4),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=30, deadline=None)
    def test_qconv2d_is_bitwise_the_nhwc_formulation(
        self, n, groups, icg, stride, dilation, pads, seed
    ):
        """The tap-gather unfold changes no int8 output bit: the integer
        accumulation is exact whatever the GEMM orientation."""
        rng = np.random.default_rng(seed)
        ic, oc = groups * icg, groups * 3
        x = rng.standard_normal((n, ic, 7, 6)).astype(np.float32)
        wq = rng.integers(-127, 128, (oc, icg, 3, 3)).astype(np.int8)
        w_scales = rng.uniform(0.01, 0.1, oc).astype(np.float32)
        bias = rng.standard_normal(oc).astype(np.float32)
        input_scale = float(np.abs(x).max() / 127.0)
        args = (w_scales, input_scale, bias, stride, pads, dilation, groups)
        want = _qconv2d_nhwc(x, wq, *args)
        for weights in (wq, prepack_int8(wq, icg * 9)):
            got = qconv2d(x, weights, *args)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("features", [32, 1200])
    def test_int8_fully_connected_matches_int64_reference(self, features):
        b = GraphBuilder("fc", seed=3)
        b.output(b.fc(b.input("x", (3, features)), units=5))
        feeds = {"x": RNG.standard_normal((3, features)).astype(np.float32)}
        q = quantize_graph(b.finish(), [feeds])
        (node,) = [n for n in q.nodes if n.op_type == "FullyConnected"]
        wq, bias = q.constants[node.inputs[1]], q.constants[node.inputs[2]]
        assert wq.dtype == np.int8
        input_scale = node.attrs["input_scale"]
        acc = static_codes(feeds["x"], input_scale) @ wq.astype(np.int64).T
        want = acc.astype(np.float32) * (
            input_scale * np.asarray(node.attrs["weight_scales"], np.float32))
        (got,) = Session(q).run(feeds).values()
        np.testing.assert_array_equal(got, want + bias)


class TestQuantizeSymmetric:
    @given(quantizer_cases())
    @settings(max_examples=150, deadline=None)
    def test_bitwise_the_clip_always_oracle(self, case):
        x, axis = case
        q, scales = quantize_symmetric(x, axis)
        want_q, want_scales = quantize_symmetric_clip_always(x, axis)
        assert q.dtype == want_q.dtype == np.float32
        assert scales.shape == want_scales.shape
        np.testing.assert_array_equal(scales.view(np.uint32), want_scales.view(np.uint32))
        np.testing.assert_array_equal(q.view(np.uint32), want_q.view(np.uint32))

    def test_subnormal_rows_need_the_clip(self):
        """The case the guard exists for: without the clip a subnormal
        row max gives codes past 127."""
        tick = np.finfo(np.float32).smallest_subnormal
        x = np.array([[190 * tick, -3 * tick, 100 * tick]], np.float32)
        scales = np.abs(x).max(axis=1, keepdims=True) / np.float32(127.0)
        assert scales[0, 0] == tick and np.rint(x / scales).max() == 190
        q, _ = quantize_symmetric(x, 1)
        assert np.abs(q).max() == 127

    @given(m=st.integers(1, 6), k=st.sampled_from([1, 16, 64, 1041]),
           n=st.integers(1, 12), ta=st.booleans(), seed=st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_runner_core_is_bitwise_the_public_qmatmul(self, m, k, n, ta, seed):
        rng = np.random.default_rng(seed)
        x = (rng.standard_normal((m, k)) * 10 ** rng.uniform(-3, 3)).astype(np.float32)
        wq, cs = quantize_weights(rng.standard_normal((k, n)).astype(np.float32))
        want = qmatmul(x, wq, cs)
        got = qmatmul_prepacked(x, prepack_int8(wq, k), cs)
        assert got.tobytes() == want.tobytes()

        b = GraphBuilder("mm", seed=0)
        xt = b.input("x", (k, m) if ta else (m, k))
        b.output(b.matmul(xt, b.constant(np.zeros((k, n), np.float32), name="w"),
                          transpose_a=ta))
        graph = b.finish()
        graph.constants["w"] = wq
        (node,) = graph.nodes
        node.attrs["weight_scales"] = [float(s) for s in cs]
        (out,) = build_runner(node, graph).fn([np.ascontiguousarray(x.T) if ta else x])
        assert out.tobytes() == want.tobytes()


class TestQuantizeRowwise:
    def test_scales_are_max_abs_over_127(self):
        x = RNG.standard_normal((4, 16)).astype(np.float32)
        xq, scales = quantize_rowwise(x)
        np.testing.assert_allclose(scales, np.abs(x).max(axis=1) / 127.0,
                                   rtol=1e-6)
        assert xq.dtype == np.int8
        assert np.abs(xq).max() <= 127

    def test_zero_row_gets_zero_scale_and_zero_codes(self):
        x = np.zeros((2, 8), np.float32)
        x[1] = RNG.standard_normal(8)
        xq, scales = quantize_rowwise(x)
        assert scales[0] == 0.0
        assert not xq[0].any()

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            quantize_rowwise(np.zeros((2, 2, 2), np.float32))


class TestQmatmul:
    def test_matches_fp_matmul_within_quant_error(self):
        x = RNG.standard_normal((6, 32)).astype(np.float32)
        w = RNG.standard_normal((32, 10)).astype(np.float32)
        wq, col_scales = quantize_weights(w)
        out = qmatmul(x, wq, col_scales)
        ref = matmul(x, w)
        # first-order error budget: per element, |dx*w| + |x*dw| with
        # dx <= x_scale/2 and dw <= w_scale/2, summed over the reduction
        bound = 32 * np.abs(x).max() * np.abs(w).max() / 127
        assert np.max(np.abs(out - ref)) <= bound

    def test_batched_equals_rowwise_bitwise(self):
        # THE decode contract: exact integer sums are order-independent,
        # so row t of the batched product is bitwise the single-row one.
        x = RNG.standard_normal((8, 24)).astype(np.float32)
        w = RNG.standard_normal((24, 12)).astype(np.float32)
        wq, cs = quantize_weights(w)
        full = qmatmul(x, wq, cs)
        for t in range(x.shape[0]):
            row = qmatmul(x[t : t + 1], wq, cs)
            np.testing.assert_array_equal(full[t : t + 1], row)

    def test_leading_axes_flatten_and_restore(self):
        x = RNG.standard_normal((2, 3, 16)).astype(np.float32)
        w = RNG.standard_normal((16, 5)).astype(np.float32)
        wq, cs = quantize_weights(w)
        out = qmatmul(x, wq, cs)
        assert out.shape == (2, 3, 5)
        np.testing.assert_array_equal(
            out.reshape(6, 5), qmatmul(x.reshape(6, 16), wq, cs)
        )

    def test_records_gemm_stats(self):
        stats = GemmStats()
        x = RNG.standard_normal((4, 8)).astype(np.float32)
        w = RNG.standard_normal((8, 4)).astype(np.float32)
        wq, cs = quantize_weights(w)
        qmatmul(x, wq, cs, stats=stats)
        assert stats.mul_elements == 4 * 8 * 4
        assert stats.base_multiplies >= 1

    def test_mismatched_scale_shape_rejected(self):
        wq = np.zeros((8, 4), np.int8)
        with pytest.raises(ValueError):
            qmatmul(np.zeros((1, 8), np.float32), wq, np.ones(3, np.float32))


class TestOpRunnerDispatch:
    def graph(self):
        b = GraphBuilder("mm", seed=1)
        x = b.input("x", (3, 16))
        w = b.constant(RNG.standard_normal((16, 8)).astype(np.float32), name="w")
        b.output(b.matmul(x, w))
        return b.finish()

    def test_int8_matmul_runs_and_tracks_fp(self):
        graph = self.graph()
        q = quantize_graph(graph)
        feeds = {"x": RNG.standard_normal((3, 16)).astype(np.float32)}
        ref = Session(graph).run(feeds)
        out = Session(q).run(feeds)
        (name,) = ref.keys()
        assert np.max(np.abs(out[name] - ref[name])) <= 0.1

    def test_int8_weights_without_scales_is_a_typed_error(self):
        q = quantize_graph(self.graph())
        for node in q.nodes:
            node.attrs.pop("weight_scales", None)
        with pytest.raises(BackendError):
            Session(q).run({"x": np.zeros((3, 16), np.float32)})


class TestSchemeSelection:
    def test_quantized_never_selects_winograd(self):
        # A geometry where fp happily picks Winograd.
        cfg = SchemeConfig()
        fp = select_conv_scheme((3, 3), 64, 64, (56, 56), config=cfg)
        assert fp.kind.startswith("winograd")
        q = select_conv_scheme((3, 3), 64, 64, (56, 56), config=cfg,
                               quantized=True)
        assert q.kind == "sliding"
        # ...but still reports the Winograd costs for the record.
        assert any(k.startswith("winograd") for k in q.alternatives)

    def test_memo_keys_do_not_collide(self):
        # The quantized layer asks first: a memo keyed without the legal
        # pool would hand the fp layer its sliding pick.
        cfg = SchemeConfig()
        q = select_conv_scheme((3, 3), 64, 64, (56, 56), config=cfg,
                               quantized=True)
        fp = select_conv_scheme((3, 3), 64, 64, (56, 56), config=cfg)
        assert (q.kind, fp.kind) == ("sliding", "winograd")

    def test_graph_walk_detects_int8_conv_weights(self):
        b = GraphBuilder("convnet", seed=0)
        x = b.input("in", (1, 8, 16, 16))
        x = b.conv(x, oc=8, kernel=3, pad_mode="same")
        b.output(x)
        graph = b.finish()
        fp_schemes = select_graph_schemes(graph)
        (wname,) = [n.inputs[1] for n in graph.nodes
                    if n.op_type == "Conv2D"]
        w = graph.constants[wname]
        scales = (np.abs(w.reshape(8, -1)).max(axis=1) / 127.0)
        graph.constants[wname] = np.clip(
            np.rint(w / scales.reshape(-1, 1, 1, 1)), -127, 127
        ).astype(np.int8)
        q_schemes = select_graph_schemes(graph)
        for name, decision in q_schemes.items():
            assert not decision.kind.startswith("winograd")
            assert decision.cost <= fp_schemes[name].cost
