"""Tests for the Eq. 1/4/5 cost model and device specs."""

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from repro.core import (
    BackendCostModel, SchemeConfig, node_muls, strassen_mul_factor, winograd_plane_cost,
    winograd_tile_cost,
)
from repro.devices import DEVICES, GPU_FLOPS_TABLE, DeviceSpec, get_device
from repro.ir import GraphBuilder


class TestDeviceSpec:
    def test_cpu_flops_sums_top_k(self):
        dev = get_device("MI6")  # 4x2.45 + 4x1.9 GHz
        assert dev.cpu_flops(1) == pytest.approx(2.45e9)
        assert dev.cpu_flops(4) == pytest.approx(4 * 2.45e9)
        assert dev.cpu_flops(8) == pytest.approx((4 * 2.45 + 4 * 1.9) * 1e9)

    def test_cpu_flops_rejects_zero_threads(self):
        with pytest.raises(ValueError, match="threads"):
            get_device("MI6").cpu_flops(0)

    def test_gpu_flops_from_appendix_table(self):
        assert get_device("MI6").gpu_flops() == pytest.approx(42.74e9)  # Adreno 540
        assert get_device("Mate20").gpu_flops() == pytest.approx(31.61e9)  # Mali-G76

    def test_unknown_gpu_default(self):
        dev = DeviceSpec("x", "soc", (2.0,), "MysteryGPU", ("vulkan",))
        assert dev.gpu_flops() == pytest.approx(4e9)

    def test_t_schedule_constants(self):
        dev = get_device("MI6")
        assert dev.t_schedule_ms("opencl") == 0.05
        assert dev.t_schedule_ms("opengl") == 0.05
        assert dev.t_schedule_ms("vulkan") == 0.01
        with pytest.raises(ValueError, match="unknown GPU API"):
            dev.t_schedule_ms("cuda")

    def test_catalog_covers_all_paper_devices(self):
        for name in ["iPhoneX", "iPhone8", "MI6", "Mate20", "P10", "P20",
                     "Pixel2", "Pixel3", "EML-AL00", "PBEM00", "PACM00",
                     "COL-AL10", "OPPO R11", "GalaxyS8"]:
            assert name in DEVICES

    def test_get_device_unknown(self):
        with pytest.raises(KeyError, match="known devices"):
            get_device("Nokia3310")

    def test_appendix_table_values(self):
        # spot-check the paper's published list
        assert GPU_FLOPS_TABLE["Mali-T860"] == 6.83
        assert GPU_FLOPS_TABLE["Adreno 505"] == 3.19
        assert GPU_FLOPS_TABLE["Adreno 640"] == 42.74


def small_graph():
    b = GraphBuilder("g", seed=0)
    x = b.input("in", (1, 16, 32, 32))
    x = b.conv(x, oc=32, kernel=3, activation="relu")
    x = b.conv(x, oc=32, kernel=1)
    b.output(x)
    return b.finish()


class TestNodeMuls:
    def test_direct_conv_muls(self):
        g = small_graph()
        conv3 = next(n for n in g.nodes if n.attrs.get("kernel") == (3, 3))
        assert node_muls(conv3, g) == 32 * 32 * 32 * 16 * 9

    def test_winograd_reduces_muls(self):
        g = small_graph()
        conv3 = next(n for n in g.nodes if n.attrs.get("kernel") == (3, 3))
        direct = node_muls(conv3, g)
        wino = node_muls(conv3, g, scheme_kind="winograd", tile=(4, 4))
        assert wino < direct

    def test_strassen_reduces_large_1x1(self):
        b = GraphBuilder("g1", seed=0)
        x = b.input("in", (1, 512, 32, 32))
        x = b.conv(x, oc=512, kernel=1)
        b.output(x)
        g = b.finish()
        conv = next(n for n in g.nodes if n.op_type == "Conv2D")
        direct = node_muls(conv, g)
        fast = node_muls(conv, g, scheme_kind="gemm1x1")
        assert fast < direct

    def test_small_1x1_no_reduction(self):
        g = small_graph()
        conv1 = next(n for n in g.nodes if n.attrs.get("kernel") == (1, 1))
        assert node_muls(conv1, g, scheme_kind="gemm1x1") == node_muls(conv1, g)

    def test_unknown_scheme(self):
        g = small_graph()
        conv = next(n for n in g.nodes if n.op_type == "Conv2D")
        with pytest.raises(ValueError, match="scheme"):
            node_muls(conv, g, scheme_kind="hyperspeed")


class TestStrassenFactor:
    def test_small_is_one(self):
        assert strassen_mul_factor(64, 64, 64) == 1.0

    def test_large_shrinks(self):
        f = strassen_mul_factor(1024, 1024, 1024)
        assert f < (7 / 8) ** 2 + 1e-9

    def test_monotone_in_size(self):
        factors = [strassen_mul_factor(s, s, s) for s in (128, 256, 512, 1024)]
        assert factors == sorted(factors, reverse=True)


def eq2(n, k, ic, oc):
    """The paper's Eq. 2, literally: (transform terms, Hadamard term)."""
    t = n + k - 1
    return 2 * ic * t**3 + n * t * (2 * n + k - 1), ic * oc * t**2


class TestWinogradTileCost:
    def test_eq2_literal(self):
        # C(n) = 2*ic*t^3 + ic*oc*t^2 + n*t*(2n+k-1), t = n+k-1
        n, k, ic, oc = 2, 3, 64, 64
        t = n + k - 1
        expected = 2 * ic * t**3 + ic * oc * t**2 + n * t * (2 * n + k - 1)
        assert sum(winograd_tile_cost((n, n), (k, k), ic, oc)) == expected
        assert winograd_tile_cost((n, n), (k, k), ic, oc)[1] == ic * oc * t**2

    def test_transform_weight_scales_transform_terms_only(self):
        n, k, ic, oc = 2, 3, 8, 8
        tiles = 5 * 5  # a 10x10 output plane in 2x2 tiles
        transform, _ = winograd_tile_cost((n, n), (k, k), ic, oc)
        base, double = (
            winograd_plane_cost((n, n), (k, k), ic, oc, (10, 10), SchemeConfig(transform_weight=w))
            for w in (1.0, 2.0)
        )
        assert double - base == pytest.approx(tiles * transform)

    @given(
        n=st.sampled_from([1, 2, 4, 6, 8]),
        k=st.sampled_from([2, 3, 5, 7]),
        ic=st.integers(1, 48),
        oc=st.integers(1, 48),
        hw=st.integers(7, 40),
        batch=st.integers(1, 2),
    )
    @settings(max_examples=40, deadline=None)
    def test_square_tile_is_eq2_plane_cost_and_node_muls(self, n, k, ic, oc, hw, batch):
        """At tile (n, n) the per-axis formula is Eq. 2, its weighted plane
        cost is Eq. 2's, and node_muls counts Eq. 2 per tile."""
        transform, hadamard = eq2(n, k, ic, oc)
        assert winograd_tile_cost((n, n), (k, k), ic, oc) == (transform, hadamard)
        b = GraphBuilder("sq", seed=0)
        b.output(b.conv(b.input("in", (batch, ic, hw, hw)), oc=oc, kernel=k, name="c"))
        g = b.finish()
        oh, ow = g.desc("c").shape[2:]
        tiles = -(-oh // n) * -(-ow // n)
        assert node_muls(g.nodes[-1], g, "winograd", (n, n)) == batch * tiles * (
            transform + hadamard)
        cfg = SchemeConfig()
        weighted = tiles * (cfg.transform_weight * transform
                            + hadamard * (tiles + cfg.gemm_efficiency_u0) / tiles)
        assert winograd_plane_cost((n, n), (k, k), ic, oc, (oh, ow), cfg) == weighted


class TestBackendCostModel:
    def test_eq5_cpu(self):
        model = BackendCostModel(get_device("MI6"), threads=4)
        muls = 9_800_000  # == 4 threads x 2.45 GHz -> exactly 1 ms
        assert model.cpu_cost_ms(muls) == pytest.approx(1.0)

    def test_eq5_gpu_adds_t_schedule(self):
        model = BackendCostModel(get_device("MI6"), threads=4)
        base = model.gpu_cost_ms(0, "vulkan")
        assert base == pytest.approx(0.01)
        assert model.gpu_cost_ms(42_740_000, "vulkan") == pytest.approx(1.01)

    def test_graph_cost_with_fallback(self):
        g = small_graph()
        model = BackendCostModel(get_device("MI6"), threads=4)
        full = model.graph_cost_ms(g, "vulkan")
        # refusing Conv2D forces the expensive ops onto the (slower) CPU
        none = model.graph_cost_ms(g, "vulkan", supports=lambda op: op != "Conv2D")
        assert none > full

    def test_cpu_vs_gpu_choice_depends_on_size(self):
        model = BackendCostModel(get_device("MI6"), threads=4)
        # tiny op: t_schedule dominates -> CPU cheaper
        assert model.cpu_cost_ms(1000) < model.gpu_cost_ms(1000, "opencl")
        # huge op: GPU FLOPS dominate
        assert model.gpu_cost_ms(10**9, "opencl") < model.cpu_cost_ms(10**9)
