"""Tests for rectangular Winograd and Session.resize (pre-inference re-run)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Session, SessionConfig, select_graph_schemes
from repro.ir import GraphBuilder, GraphError
from repro.kernels import winograd_conv2d

from .gold import conv2d_naive

RNG = np.random.default_rng(91)


class TestRectangularWinograd:
    @pytest.mark.parametrize(
        "kh,kw,nh,nw",
        [
            (1, 7, 1, 2),  # Inception's 1x7
            (7, 1, 2, 1),  # Inception's 7x1
            (1, 7, 1, 4),
            (3, 5, 2, 2),
            (5, 3, 2, 4),
            (1, 3, 1, 6),
            (3, 3, 2, 4),  # square kernel, rectangular tiles
        ],
    )
    def test_matches_naive(self, kh, kw, nh, nw):
        x = RNG.standard_normal((2, 3, 16, 16)).astype(np.float32)
        w = RNG.standard_normal((5, 3, kh, kw)).astype(np.float32)
        bias = RNG.standard_normal(5).astype(np.float32)
        pads = (kh // 2, kh // 2, kw // 2, kw // 2)
        got = winograd_conv2d(x, w, bias, tile=(nh, nw), pads=pads)
        want = conv2d_naive(x, w, bias, pads=pads)
        np.testing.assert_allclose(got, want, atol=1e-3 * max(1, np.abs(want).max()))

    def test_degenerate_1x1_kernel(self):
        """Both axes k=1: pure channel mixing, identity transforms."""
        x = RNG.standard_normal((1, 4, 8, 8)).astype(np.float32)
        w = RNG.standard_normal((6, 4, 1, 1)).astype(np.float32)
        got = winograd_conv2d(x, w, tile=(2, 2))
        want = conv2d_naive(x, w)
        np.testing.assert_allclose(got, want, atol=1e-4)

    def test_kernel_too_large(self):
        x = RNG.standard_normal((1, 2, 4, 4)).astype(np.float32)
        w = RNG.standard_normal((2, 2, 1, 9)).astype(np.float32)
        with pytest.raises(ValueError, match="does not fit"):
            winograd_conv2d(x, w, tile=(1, 2))

    @given(
        kh=st.sampled_from([1, 3]),
        kw=st.sampled_from([1, 3, 5, 7]),
        nh=st.integers(1, 3),
        nw=st.integers(1, 3),
    )
    @settings(max_examples=20, deadline=None)
    def test_property_any_rect_config(self, kh, kw, nh, nw):
        x = RNG.standard_normal((1, 2, 14, 14)).astype(np.float32)
        w = RNG.standard_normal((3, 2, kh, kw)).astype(np.float32)
        got = winograd_conv2d(x, w, tile=(nh, nw))
        want = conv2d_naive(x, w)
        np.testing.assert_allclose(got, want, atol=1e-3 * max(1, np.abs(want).max()))


def resizable_net():
    """Conv-only trunk + GAP head: valid at any spatial size >= 8."""
    b = GraphBuilder("resizable", seed=4)
    x = b.input("in", (1, 3, 32, 32))
    x = b.conv(x, oc=8, kernel=3, stride=2, activation="relu")
    x = b.conv(x, oc=16, kernel=3, activation="relu")
    x = b.fc(b.global_avg_pool(x), units=4)
    b.output(b.softmax(x))
    return b.finish()


def modeled(graph):
    """A config pinning the Eq. 2/3 picks, so the 3x3 conv keeps running
    Winograd through a resize whatever this host measures."""
    return SessionConfig(scheme_overrides=select_graph_schemes(graph))


class TestSessionResize:
    def test_resize_and_run(self):
        session = Session(resizable_net(), modeled(resizable_net()))
        session.resize({"in": (1, 3, 64, 64)})
        out = session.run(
            {"in": RNG.standard_normal((1, 3, 64, 64)).astype(np.float32)}
        )
        assert list(out.values())[0].shape == (1, 4)

    def test_old_shape_rejected_after_resize(self):
        session = Session(resizable_net())
        session.resize({"in": (1, 3, 48, 48)})
        with pytest.raises(GraphError, match="expected shape"):
            session.run({"in": np.zeros((1, 3, 32, 32), np.float32)})

    def test_memory_plan_recomputed(self):
        session = Session(resizable_net())
        small = session.memory_plan.arena_bytes
        session.resize({"in": (1, 3, 128, 128)})
        big = session.memory_plan.arena_bytes
        assert big > small * 4  # quadratic growth in resolution
        session.memory_plan.validate()

    def test_schemes_recomputed(self):
        session = Session(resizable_net())
        before = dict(session.schemes)
        session.resize({"in": (1, 3, 224, 224)})
        assert set(session.schemes) == set(before)  # same conv nodes
        # larger maps may change tile choices; decisions must exist & be valid
        for decision in session.schemes.values():
            assert decision.kind in ("sliding", "winograd", "gemm1x1")

    def test_unknown_input_rejected(self):
        session = Session(resizable_net())
        with pytest.raises(GraphError, match="not a graph input"):
            session.resize({"ghost": (1, 3, 64, 64)})

    def test_incompatible_resize_rejected(self):
        # a valid-padding conv stops fitting once the input shrinks below k
        b = GraphBuilder("strict", seed=0)
        x = b.input("in", (1, 3, 16, 16))
        x = b.conv(x, oc=4, kernel=3, pad_mode="valid")
        b.output(b.global_avg_pool(x))
        session = Session(b.finish())
        with pytest.raises(GraphError):
            session.resize({"in": (1, 3, 2, 2)})  # window no longer fits

    def test_tiny_resize_with_same_padding_still_works(self):
        session = Session(resizable_net(), modeled(resizable_net()))
        session.resize({"in": (1, 3, 8, 8)})
        out = session.run({"in": RNG.standard_normal((1, 3, 8, 8)).astype(np.float32)})
        assert list(out.values())[0].shape == (1, 4)

    def test_resize_matches_fresh_session(self):
        feed = {"in": RNG.standard_normal((1, 3, 64, 64)).astype(np.float32)}
        resized = Session(resizable_net(), modeled(resizable_net()))
        resized.resize({"in": (1, 3, 64, 64)})
        fresh = Session(resizable_net())
        # fresh graph built at 32 then resized must equal a 32->64 resize of
        # the same seeded weights: rebuild with identical seed at 64
        b = GraphBuilder("resizable", seed=4)
        x = b.input("in", (1, 3, 64, 64))
        x = b.conv(x, oc=8, kernel=3, stride=2, activation="relu")
        x = b.conv(x, oc=16, kernel=3, activation="relu")
        x = b.fc(b.global_avg_pool(x), units=4)
        b.output(b.softmax(x))
        fresh64 = b.finish()
        want = list(Session(fresh64, modeled(fresh64)).run(feed).values())[0]
        got = list(resized.run(feed).values())[0]
        np.testing.assert_allclose(got, want, atol=1e-5)

    def test_resize_on_gpu_session(self):
        from repro.devices import get_device

        session = Session(
            resizable_net(),
            SessionConfig(backend="vulkan", device=get_device("MI6")),
        )
        session.resize({"in": (1, 3, 64, 64)})
        out = session.run(
            {"in": RNG.standard_normal((1, 3, 64, 64)).astype(np.float32)}
        )
        assert np.isfinite(list(out.values())[0]).all()
