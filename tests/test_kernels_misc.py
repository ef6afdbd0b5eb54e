"""Tests for pooling, elementwise, FC, deconv and resize."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.kernels import (
    avg_pool2d,
    batch_norm,
    conv_transpose2d,
    eltwise_max,
    fully_connected,
    global_avg_pool2d,
    max_pool2d,
    pad_nd,
    prelu,
    reduce_mean,
    relu,
    relu6,
    resize2d,
    sigmoid,
    softmax,
)

from .gold import avg_pool2d_naive, conv_transpose2d_naive, max_pool2d_naive

RNG = np.random.default_rng(23)


class TestPooling:
    @pytest.mark.parametrize(
        "kernel,stride,pads,out_hw",
        [((2, 2), (2, 2), (0, 0, 0, 0), (4, 4)),
         ((3, 3), (2, 2), (1, 1, 1, 1), (4, 4)),
         ((3, 3), (1, 1), (1, 1, 1, 1), (8, 8))],
    )
    def test_max_pool_matches_naive(self, kernel, stride, pads, out_hw):
        x = RNG.standard_normal((2, 3, 8, 8)).astype(np.float32)
        got = max_pool2d(x, kernel, stride, pads, out_hw)
        want = max_pool2d_naive(x, kernel, stride, pads, out_hw)
        np.testing.assert_array_equal(got, want)

    def test_max_pool_padding_never_wins(self):
        x = -np.ones((1, 1, 4, 4), np.float32)
        got = max_pool2d(x, (3, 3), (1, 1), (1, 1, 1, 1), (4, 4))
        np.testing.assert_array_equal(got, -np.ones((1, 1, 4, 4), np.float32))

    def test_max_pool_pads_with_minus_inf(self):
        """A border window of real -inf values pools to -inf, not float32's min."""
        x = np.full((1, 2, 4, 4), -np.inf, np.float32)
        got = max_pool2d(x, (3, 3), (1, 1), (1, 1, 1, 1), (4, 4))
        np.testing.assert_array_equal(got, x)
        np.testing.assert_array_equal(got, max_pool2d_naive(x, (3, 3), (1, 1), (1, 1, 1, 1), (4, 4)))

    def test_int_max_pool_pads_with_dtype_min(self):
        x = np.full((1, 1, 3, 3), np.iinfo(np.int32).min, np.int32)
        got = max_pool2d(x, (3, 3), (1, 1), (1, 1, 1, 1), (3, 3))
        assert got.dtype == np.int32
        np.testing.assert_array_equal(got, x)

    @given(
        n=st.integers(1, 2),
        c=st.integers(1, 3),
        h=st.integers(1, 9),
        w=st.integers(1, 9),
        kh=st.integers(1, 4),
        kw=st.integers(1, 4),
        sh=st.integers(1, 3),
        sw=st.integers(1, 3),
        pad=st.tuples(*[st.integers(0, 3)] * 4),
        ceil_mode=st.booleans(),
        specials=st.floats(0.0, 0.5),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=150, deadline=None)
    def test_running_maximum_is_bitwise_the_window_reduction(
        self, n, c, h, w, kh, kw, sh, sw, pad, ceil_mode, specials, seed
    ):
        """Oracle: the kernel's previous formulation, one reduction over a
        6-D sliding-window view (with the -inf padding the docstring states)."""
        top, bottom, left, right = (min(p, k - 1) for p, k in zip(pad, (kh, kh, kw, kw)))
        span_h, span_w = h + top + bottom - kh, w + left + right - kw
        if span_h < 0 or span_w < 0:
            return
        if ceil_mode:  # may grow the padded extent on the bottom/right
            out_hw = (-(-span_h // sh) + 1, -(-span_w // sw) + 1)
        else:
            out_hw = (span_h // sh + 1, span_w // sw + 1)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, c, h, w)).astype(np.float32)
        mask = rng.random(x.shape) < specials
        x[mask] = rng.choice(
            np.array([np.inf, -np.inf, np.nan, 0.0, -0.0], np.float32), size=int(mask.sum())
        )
        pads = (top, bottom, left, right)

        oh, ow = out_hw
        grow_h = max(0, (oh - 1) * sh + kh - (h + top + bottom))
        grow_w = max(0, (ow - 1) * sw + kw - (w + left + right))
        xp = np.pad(x, ((0, 0), (0, 0), (top, bottom + grow_h), (left, right + grow_w)),
                    constant_values=-np.inf)
        windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
        want = windows[:, :, ::sh, ::sw][:, :, :oh, :ow].max(axis=(4, 5))

        got = max_pool2d(x, (kh, kw), (sh, sw), pads, out_hw)
        assert got.shape == want.shape and got.dtype == want.dtype
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))

    @given(
        dtype=st.sampled_from([np.float32, np.float64, np.int8, np.uint8, np.int32]),
        n=st.integers(1, 2),
        c=st.integers(1, 3),
        h=st.integers(1, 9),
        w=st.integers(1, 9),
        kh=st.integers(1, 4),
        kw=st.integers(1, 4),
        sh=st.integers(1, 3),
        sw=st.integers(1, 3),
        pad=st.tuples(*[st.integers(0, 3)] * 4),
        ceil_mode=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=200, deadline=None)
    def test_separable_max_is_bitwise_the_tap_sweep(
        self, dtype, n, c, h, w, kh, kw, sh, sw, pad, ceil_mode, seed
    ):
        """Oracle: the kernel's previous formulation, a running maximum
        over the kh * kw strided taps in row-major order.  Values come from
        a small set, so windows tie often: +0.0 against -0.0, NaNs of
        either sign, infinities, and the integer dtypes' extremes."""
        top, bottom, left, right = (min(p, k - 1) for p, k in zip(pad, (kh, kh, kw, kw)))
        span_h, span_w = h + top + bottom - kh, w + left + right - kw
        if span_h < 0 or span_w < 0:
            return
        if ceil_mode:  # may grow the padded extent on the bottom/right
            oh, ow = -(-span_h // sh) + 1, -(-span_w // sw) + 1
        else:
            oh, ow = span_h // sh + 1, span_w // sw + 1
        if np.issubdtype(dtype, np.floating):
            neg = -np.inf
            values = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1.5, -2.0], dtype)
        else:
            info = np.iinfo(dtype)
            neg = info.min
            values = np.array([info.min, info.max, 0, 1, info.max - 1], dtype)
        x = np.random.default_rng(seed).choice(values, size=(n, c, h, w))

        hp = max(h + top + bottom, (oh - 1) * sh + kh)
        wp = max(w + left + right, (ow - 1) * sw + kw)
        xp = np.full((n, c, hp, wp), neg, dtype)
        xp[:, :, top:top + h, left:left + w] = x
        want = xp[:, :, 0:(oh - 1) * sh + 1:sh, 0:(ow - 1) * sw + 1:sw].copy()
        for i in range(kh):
            for j in range(kw):
                np.maximum(want, xp[:, :, i:i + (oh - 1) * sh + 1:sh, j:j + (ow - 1) * sw + 1:sw],
                           out=want)

        pads = (top, bottom, left, right)
        got = max_pool2d(x, (kh, kw), (sh, sw), pads, (oh, ow))
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("count_include_pad", [False, True])
    def test_avg_pool_matches_naive(self, count_include_pad):
        x = RNG.standard_normal((1, 2, 9, 9)).astype(np.float32)
        got = avg_pool2d(x, (3, 3), (2, 2), (1, 1, 1, 1), (5, 5), count_include_pad)
        want = avg_pool2d_naive(x, (3, 3), (2, 2), (1, 1, 1, 1), (5, 5), count_include_pad)
        np.testing.assert_allclose(got, want, atol=1e-5)

    @pytest.mark.parametrize(
        "hw,kernel,stride,pads,out_hw,pad_mode,ceil_mode",
        [((17, 17), (3, 3), (1, 1), (1, 1, 1, 1), (17, 17), "same", False),  # Inception-v3
         ((9, 9), (3, 3), (2, 2), (1, 1, 1, 1), (5, 5), "explicit", False),
         ((7, 7), (2, 2), (2, 2), (0, 0, 0, 0), (4, 4), "valid", True)],      # growth
    )
    def test_avg_pool_divisor_bound_once_is_bitwise_per_call(
        self, hw, kernel, stride, pads, out_hw, pad_mode, ceil_mode
    ):
        """The runner's build-time divisor equals rebuilding it every call.

        Oracle: the kernel's previous per-call formulation — zero-padded
        window sums divided by a padded ``ones`` tensor summed over the
        same windows.
        """
        from repro.backends.op_runners import build_runner
        from repro.ir import GraphBuilder, Op
        from repro.kernels import pool_counts

        (kh, kw), (sh, sw), (top, bottom, left, right) = kernel, stride, pads
        grow_h = max(0, (out_hw[0] - 1) * sh + kh - (hw[0] + top + bottom))
        grow_w = max(0, (out_hw[1] - 1) * sw + kw - (hw[1] + left + right))

        def window_sums(t):
            t = np.pad(t, ((0, 0), (0, 0), (top, bottom + grow_h), (left, right + grow_w)))
            windows = np.lib.stride_tricks.sliding_window_view(t, kernel, axis=(2, 3))
            return windows[:, :, ::sh, ::sw][:, :, :out_hw[0], :out_hw[1]].sum(axis=(4, 5))

        x = RNG.standard_normal((2, 3, *hw)).astype(np.float32)
        counts = window_sums(np.ones((1, 1, *hw), np.float32))
        want = window_sums(x) / counts

        bound = pool_counts(hw, kernel, stride, pads, out_hw)
        np.testing.assert_array_equal(bound, counts)
        assert bound.dtype == counts.dtype
        for got in (
            avg_pool2d(x, kernel, stride, pads, out_hw),
            avg_pool2d(x, kernel, stride, pads, out_hw, counts=bound),
        ):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

        b = GraphBuilder("avgpool")
        y = b.avg_pool(b.input("x", x.shape), kernel, stride, pad_mode=pad_mode, pad=pads,
                       ceil_mode=ceil_mode)
        b.output(y)
        g = b.finish()
        node = next(n for n in g.nodes if n.op_type == Op.AVG_POOL)
        assert g.desc(node.outputs[0]).shape[2:] == out_hw
        np.testing.assert_array_equal(build_runner(node, g).fn([x])[0], want)

    def test_ceil_mode_growth_region(self):
        # output larger than exact coverage: pooling must grow pad on the right
        x = RNG.standard_normal((1, 1, 7, 7)).astype(np.float32)
        got = max_pool2d(x, (2, 2), (2, 2), (0, 0, 0, 0), (4, 4))
        want = max_pool2d_naive(x, (2, 2), (2, 2), (0, 0, 0, 0), (4, 4))
        np.testing.assert_array_equal(got, want)

    def test_global_avg_pool(self):
        x = RNG.standard_normal((2, 5, 7, 9)).astype(np.float32)
        got = global_avg_pool2d(x)
        assert got.shape == (2, 5, 1, 1)
        np.testing.assert_allclose(got[:, :, 0, 0], x.mean(axis=(2, 3)), atol=1e-6)


class TestElementwise:
    def test_relu_relu6(self):
        x = np.array([-3.0, 0.0, 3.0, 9.0], np.float32)
        np.testing.assert_array_equal(relu(x), [0, 0, 3, 9])
        np.testing.assert_array_equal(relu6(x), [0, 0, 3, 6])

    def test_prelu(self):
        x = np.array([[[-2.0], [4.0]]]).reshape(1, 2, 1, 1)
        slope = np.array([0.5, 0.1], np.float64)
        got = prelu(x, slope)
        np.testing.assert_allclose(got.ravel(), [-1.0, 4.0])

    def test_sigmoid_stable_at_extremes(self):
        x = np.array([-1000.0, 0.0, 1000.0])
        got = sigmoid(x)
        assert np.isfinite(got).all()
        np.testing.assert_allclose(got, [0.0, 0.5, 1.0], atol=1e-12)

    def test_softmax_rows_sum_to_one(self):
        x = RNG.standard_normal((4, 10)).astype(np.float32) * 50
        got = softmax(x, axis=1)
        np.testing.assert_allclose(got.sum(axis=1), 1.0, atol=1e-5)
        assert np.isfinite(got).all()

    def test_batch_norm_matches_definition(self):
        x = RNG.standard_normal((2, 3, 4, 4)).astype(np.float32)
        gamma = RNG.standard_normal(3).astype(np.float32)
        beta = RNG.standard_normal(3).astype(np.float32)
        mean = RNG.standard_normal(3).astype(np.float32)
        var = np.abs(RNG.standard_normal(3)).astype(np.float32) + 0.5
        got = batch_norm(x, gamma, beta, mean, var, 1e-5)
        g = gamma.reshape(1, 3, 1, 1)
        want = g * (x - mean.reshape(1, 3, 1, 1)) / np.sqrt(
            var.reshape(1, 3, 1, 1) + 1e-5
        ) + beta.reshape(1, 3, 1, 1)
        np.testing.assert_allclose(got, want, atol=1e-5)

    def test_eltwise_max(self):
        a = np.array([1.0, 5.0])
        b = np.array([3.0, 2.0])
        np.testing.assert_array_equal(eltwise_max(a, b), [3.0, 5.0])


class TestMisc:
    def test_fc_matches_matmul(self):
        x = RNG.standard_normal((3, 4, 2, 2)).astype(np.float32)
        w = RNG.standard_normal((7, 16)).astype(np.float32)
        b = RNG.standard_normal(7).astype(np.float32)
        got = fully_connected(x, w, b)
        want = x.reshape(3, -1) @ w.T + b
        np.testing.assert_allclose(got, want, atol=1e-4)

    @pytest.mark.parametrize("n,k,units", [(4, 16, 10), (3, 1024, 1000), (5, 300, 7)])
    def test_fc_batch_rows_match_single_calls(self, n, k, units):
        x = RNG.standard_normal((n, k)).astype(np.float32)
        w = RNG.standard_normal((units, k)).astype(np.float32)
        b = RNG.standard_normal(units).astype(np.float32)
        got = fully_connected(x, w, b)
        for i in range(n):
            np.testing.assert_array_equal(got[i : i + 1], fully_connected(x[i : i + 1], w, b))

    @pytest.mark.parametrize(
        "stride,pads,output_padding",
        [((1, 1), (0, 0, 0, 0), (0, 0)), ((2, 2), (1, 1, 1, 1), (0, 0)),
         ((2, 2), (1, 1, 1, 1), (1, 1))],
    )
    def test_deconv_matches_naive(self, stride, pads, output_padding):
        x = RNG.standard_normal((1, 3, 6, 6)).astype(np.float32)
        w = RNG.standard_normal((3, 5, 3, 3)).astype(np.float32)
        got = conv_transpose2d(x, w, None, stride, pads, output_padding)
        want = conv_transpose2d_naive(x, w, None, stride, pads, output_padding)
        np.testing.assert_allclose(got, want, atol=1e-4)

    def test_resize_nearest(self):
        x = np.arange(4, dtype=np.float32).reshape(1, 1, 2, 2)
        got = resize2d(x, (2, 2), "nearest")
        np.testing.assert_array_equal(got[0, 0, 0], [0, 0, 1, 1])
        np.testing.assert_array_equal(got[0, 0, 3], [2, 2, 3, 3])

    def test_resize_bilinear_preserves_constant(self):
        x = np.full((1, 2, 4, 4), 3.5, np.float32)
        got = resize2d(x, (2, 2), "bilinear")
        np.testing.assert_allclose(got, 3.5, atol=1e-6)

    def test_resize_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            resize2d(np.zeros((1, 1, 2, 2)), (2, 2), "cubic")

    def test_pad_nd(self):
        x = np.ones((1, 1, 2, 2), np.float32)
        got = pad_nd(x, (0, 0, 0, 0, 1, 1, 2, 2), value=9.0)
        assert got.shape == (1, 1, 4, 6)
        assert got[0, 0, 0, 0] == 9.0
        assert got[0, 0, 1, 2] == 1.0

    def test_pad_nd_bad_length(self):
        with pytest.raises(ValueError, match="pads length"):
            pad_nd(np.zeros((2, 2)), (1, 1))

    def test_reduce_mean(self):
        x = RNG.standard_normal((2, 3, 4, 4))
        np.testing.assert_allclose(
            reduce_mean(x, (2, 3), keepdims=False), x.mean(axis=(2, 3)), atol=1e-12
        )
