"""Tests for the Winograd generator and Winograd convolution."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.kernels import (
    generate_transforms,
    transform_kernel,
    winograd_conv2d,
)
from repro.kernels.winograd import (
    interpolation_points,
    preload_transforms,
    transform_cache_entries,
)

from .gold import conv2d_naive

RNG = np.random.default_rng(7)


class TestInterpolationPoints:
    def test_eq8_sequence(self):
        f = Fraction(1, 2)
        pts = interpolation_points(5, f)
        assert pts == [0, f, -f, 2 * f, -2 * f]

    def test_points_distinct(self):
        pts = interpolation_points(11)
        assert len(set(pts)) == 11

    def test_custom_f(self):
        pts = interpolation_points(3, Fraction(1))
        assert pts == [0, 1, -1]


class TestGenerator:
    def test_f23_is_exact_bilinear_algorithm(self):
        """The generated (AT, G, BT) must satisfy the correlation identity."""
        tr = generate_transforms(2, 3)
        self._check_identity(tr)

    @pytest.mark.parametrize("n,k", [(2, 3), (4, 3), (6, 3), (2, 5), (4, 5), (2, 7), (3, 4), (2, 2)])
    def test_identity_many_sizes(self, n, k):
        self._check_identity(generate_transforms(n, k))

    @staticmethod
    def _check_identity(tr):
        # sum_l AT[j,l] G[l,c] BT[l,i] == [i == j + c]
        tensor = np.einsum("jl,lc,li->jci", tr.at, tr.g, tr.bt)
        expected = np.zeros_like(tensor)
        for j in range(tr.n):
            for c in range(tr.k):
                expected[j, c, j + c] = 1.0
        np.testing.assert_allclose(tensor, expected, atol=1e-9)

    def test_shapes(self):
        tr = generate_transforms(4, 3)
        assert tr.t == 6
        assert tr.at.shape == (4, 6)
        assert tr.g.shape == (6, 3)
        assert tr.bt.shape == (6, 6)

    def test_1d_correlation_random(self):
        tr = generate_transforms(3, 3)
        d = RNG.standard_normal(tr.t)
        g = RNG.standard_normal(3)
        y = tr.at @ ((tr.g @ g) * (tr.bt @ d))
        ref = np.correlate(d, g, mode="valid")
        np.testing.assert_allclose(y, ref, atol=1e-10)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError, match="invalid"):
            generate_transforms(0, 3)
        with pytest.raises(ValueError, match="invalid"):
            generate_transforms(2, 0)

    def test_cached(self):
        a = generate_transforms(2, 3)
        b = generate_transforms(2, 3)
        assert a is b

    def test_preload_rejects_misshapen_matrices(self):
        good = generate_transforms(2, 3)
        bad = dataclasses.replace(good, at=good.at[:-1])  # (1, 4), not (2, 4)
        with pytest.raises(ValueError, match="does not match"):
            preload_transforms({(2, 3, 7, 1): bad})
        assert (2, 3, 7, 1) not in transform_cache_entries()

    @given(st.integers(1, 6), st.integers(2, 5))
    @settings(max_examples=20, deadline=None)
    def test_property_identity_holds(self, n, k):
        self._check_identity(generate_transforms(n, k))


class TestTransformKernel:
    def test_output_layout(self):
        w = RNG.standard_normal((8, 4, 3, 3)).astype(np.float32)
        tr = generate_transforms(2, 3)
        wt = transform_kernel(w, tr)
        assert wt.shape == (4, 4, 4, 8)  # (t, t, ic, oc)

    def test_kernel_size_mismatch(self):
        w = RNG.standard_normal((8, 4, 5, 5)).astype(np.float32)
        with pytest.raises(ValueError, match="does not match"):
            transform_kernel(w, generate_transforms(2, 3))


class TestWinogradConv:
    @pytest.mark.parametrize(
        "n,k,ic,oc,hw",
        [
            (2, 3, 4, 8, 12),
            (4, 3, 3, 5, 14),
            (6, 3, 2, 2, 20),
            (2, 5, 3, 4, 13),
            (2, 7, 2, 2, 15),   # the Inception-style large kernel
            (2, 2, 3, 16, 10),  # Table 1's k=2 case
        ],
    )
    def test_matches_naive(self, n, k, ic, oc, hw):
        x = RNG.standard_normal((2, ic, hw, hw)).astype(np.float32)
        w = RNG.standard_normal((oc, ic, k, k)).astype(np.float32)
        bias = RNG.standard_normal(oc).astype(np.float32)
        pads = (k // 2,) * 4
        got = winograd_conv2d(x, w, bias, tile=(n, n), pads=pads)
        want = conv2d_naive(x, w, bias, pads=pads)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, atol=1e-3 * max(1, np.abs(want).max()))

    def test_no_padding(self):
        x = RNG.standard_normal((1, 3, 9, 9)).astype(np.float32)
        w = RNG.standard_normal((4, 3, 3, 3)).astype(np.float32)
        got = winograd_conv2d(x, w, tile=(2, 2))
        want = conv2d_naive(x, w)
        np.testing.assert_allclose(got, want, atol=1e-4)

    def test_tile_not_dividing_output(self):
        # 11x11 output with n=4 tiles: boundary tiles must be handled
        x = RNG.standard_normal((1, 2, 13, 13)).astype(np.float32)
        w = RNG.standard_normal((3, 2, 3, 3)).astype(np.float32)
        got = winograd_conv2d(x, w, tile=(4, 4))
        want = conv2d_naive(x, w)
        np.testing.assert_allclose(got, want, atol=1e-4)

    def test_asymmetric_padding(self):
        x = RNG.standard_normal((1, 3, 10, 10)).astype(np.float32)
        w = RNG.standard_normal((4, 3, 3, 3)).astype(np.float32)
        pads = (0, 1, 1, 0)
        got = winograd_conv2d(x, w, tile=(2, 2), pads=pads)
        want = conv2d_naive(x, w, pads=pads)
        np.testing.assert_allclose(got, want, atol=1e-4)

    def test_rejects_stride(self):
        x = RNG.standard_normal((1, 3, 8, 8)).astype(np.float32)
        w = RNG.standard_normal((4, 3, 3, 3)).astype(np.float32)
        with pytest.raises(ValueError, match="stride"):
            winograd_conv2d(x, w, tile=(2, 2), stride=(2, 2))

    def test_numerical_error_grows_with_tile(self):
        """Ablation premise: larger tiles are less numerically stable."""
        x = RNG.standard_normal((1, 8, 36, 36)).astype(np.float32)
        w = RNG.standard_normal((8, 8, 3, 3)).astype(np.float32)
        want = conv2d_naive(x, w)
        errs = []
        for n in (2, 4, 6):
            got = winograd_conv2d(x, w, tile=(n, n))
            errs.append(np.abs(got - want).max())
        assert errs[0] <= errs[-1] * 10  # small tiles never wildly worse
        assert all(e < 1e-2 for e in errs)

    @given(
        n=st.integers(1, 4),
        k=st.sampled_from([2, 3, 5]),
        hw=st.integers(8, 24),
        ic=st.integers(1, 6),
        oc=st.integers(1, 6),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_equals_direct_conv(self, n, k, hw, ic, oc):
        if hw < k:
            hw = k + n
        x = RNG.standard_normal((1, ic, hw, hw)).astype(np.float32)
        w = RNG.standard_normal((oc, ic, k, k)).astype(np.float32)
        got = winograd_conv2d(x, w, tile=(n, n))
        want = conv2d_naive(x, w)
        np.testing.assert_allclose(got, want, atol=1e-3 * max(1.0, np.abs(want).max()))


def _direct_conv_f64(x, w, bias, pads):
    """Stride-1 direct convolution in float64: a loop nest over the kernel
    taps, each a channel contraction.  Imports nothing from repro.kernels,
    so it is independent of every Winograd stage it checks."""
    top, bottom, left, right = pads
    x = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (top, bottom), (left, right)))
    w = w.astype(np.float64)
    kh, kw = w.shape[2:]
    oh, ow = x.shape[2] - kh + 1, x.shape[3] - kw + 1
    out = np.zeros((x.shape[0], w.shape[0], oh, ow))
    for i in range(kh):
        for j in range(kw):
            out += np.einsum("nchw,oc->nohw", x[:, :, i : i + oh, j : j + ow], w[:, :, i, j])
    return out + bias.astype(np.float64).reshape(1, -1, 1, 1)


class TestAgainstDirectOracle:
    @given(
        kernel=st.sampled_from([(2, 2), (3, 3), (5, 5), (1, 7), (7, 1), (3, 1)]),
        n_hw=st.tuples(st.sampled_from([2, 4, 6]), st.sampled_from([2, 4, 6])),
        batch=st.integers(1, 3),
        ic=st.integers(1, 8),
        oc=st.integers(1, 8),
        hw=st.tuples(st.integers(7, 20), st.integers(7, 20)),
        pads=st.tuples(*[st.integers(0, 3)] * 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_square_and_rect_match_direct(self, kernel, n_hw, batch, ic, oc, hw, pads):
        rng = np.random.default_rng(sum(kernel) + batch * ic * oc)
        x = rng.standard_normal((batch, ic) + hw).astype(np.float32)
        w = rng.standard_normal((oc, ic) + kernel).astype(np.float32)
        bias = rng.standard_normal(oc).astype(np.float32)
        got = winograd_conv2d(x, w, bias, tile=n_hw, pads=pads)
        want = _direct_conv_f64(x, w, bias, pads)
        assert got.shape == want.shape and got.dtype == np.float32
        # float64 stages: the only float32 rounding is the final cast.
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-6 * np.abs(want).max())
