"""Tests for convolution scheme selection (Eq. 2/3 + Table 1 decisions)."""

import json
from pathlib import Path

import pytest

from repro.backends.base import BackendError
from repro.backends.op_runners import build_runner
from repro.core import (
    SchemeConfig, SchemeDecision, select_conv_scheme, select_graph_schemes,
)
from repro.core.schemes import winograd_tiles
from repro.ir import GraphBuilder
from repro.models import MODEL_REGISTRY, build_model


class TestSelectConvScheme:
    def test_1x1_uses_gemm(self):
        d = select_conv_scheme((1, 1), ic=64, oc=64, out_hw=(32, 32))
        assert d.kind == "gemm1x1"

    def test_table1_case1_small_channels_prefers_sliding(self):
        # (k, ic, oc, size) = (2, 3, 16, 224): Table 1 row 1, sliding wins
        d = select_conv_scheme((2, 2), ic=3, oc=16, out_hw=(223, 223))
        assert d.kind == "sliding"

    def test_table1_case2_deep_small_map_prefers_winograd(self):
        # (2, 512, 512, 16): Table 1 row 2, Winograd with a small block wins
        d = select_conv_scheme((2, 2), ic=512, oc=512, out_hw=(15, 15))
        assert d.kind == "winograd"
        # on a 15x15 output the largest candidate must NOT win (boundary waste)
        n = d.tile[0]
        assert d.tile == (n, n) and n <= 6

    def test_table1_case3_3x3_prefers_winograd(self):
        # (3, 64, 64, 112): Table 1 row 3
        d = select_conv_scheme((3, 3), ic=64, oc=64, out_hw=(110, 110))
        assert d.kind == "winograd"
        n = d.tile[0]
        assert d.tile == (n, n) and n >= 4  # big maps afford larger blocks

    def test_strided_conv_cannot_use_winograd(self):
        d = select_conv_scheme((3, 3), ic=64, oc=64, out_hw=(56, 56), stride=(2, 2))
        assert d.kind == "sliding"

    def test_dilated_conv_cannot_use_winograd(self):
        d = select_conv_scheme((3, 3), ic=64, oc=64, out_hw=(56, 56), dilation=(2, 2))
        assert d.kind == "sliding"

    def test_grouped_conv_cannot_use_winograd(self):
        d = select_conv_scheme((3, 3), ic=64, oc=64, out_hw=(56, 56), groups=2)
        assert d.kind == "sliding"

    def test_non_square_kernel_uses_rectangular_winograd(self):
        """Generator extension: asymmetric kernels get per-axis Winograd."""
        d = select_conv_scheme((1, 7), ic=128, oc=128, out_hw=(17, 17))
        assert d.kind == "winograd"
        nh, nw = d.tile
        assert nh == 1  # no tiling along the k=1 axis
        assert nw > 1
        assert d.cost < d.alternatives["sliding"]

    def test_non_square_small_channels_still_sliding(self):
        d = select_conv_scheme((1, 7), ic=4, oc=4, out_hw=(8, 8))
        assert d.kind == "sliding"

    def test_rect_winograd_strided_falls_back(self):
        d = select_conv_scheme((1, 7), ic=128, oc=128, out_hw=(9, 9), stride=(2, 2))
        assert d.kind == "sliding"

    def test_max_tile_respected(self):
        cfg = SchemeConfig(winograd_candidates=(1, 2, 4, 6, 8), max_tile=4)
        d = select_conv_scheme((3, 3), ic=256, oc=256, out_hw=(64, 64), config=cfg)
        if d.kind == "winograd":
            assert max(d.tile) + 3 - 1 <= 4

    def test_alternatives_recorded(self):
        d = select_conv_scheme((3, 3), ic=64, oc=64, out_hw=(56, 56))
        assert "sliding" in d.alternatives
        assert any(key.startswith("winograd") for key in d.alternatives)
        # the decision's cost is the minimum over alternatives it considered
        assert d.cost == pytest.approx(min(d.alternatives.values()))

    def test_eq3_nhat_one_means_sliding(self):
        # tiny channels make every Winograd candidate lose -> n-hat = 1
        d = select_conv_scheme((5, 5), ic=1, oc=1, out_hw=(8, 8))
        assert d.kind == "sliding"
        assert d.tile == (1, 1)

    def test_higher_transform_weight_discourages_winograd(self):
        borderline = dict(kernel=(3, 3), ic=8, oc=8, out_hw=(28, 28))
        cheap = select_conv_scheme(**borderline, config=SchemeConfig(transform_weight=0.5))
        pricey = select_conv_scheme(**borderline, config=SchemeConfig(transform_weight=50.0))
        assert cheap.kind == "winograd"
        assert pricey.kind == "sliding"


class TestSelectGraphSchemes:
    def test_covers_every_conv(self):
        b = GraphBuilder("g", seed=0)
        x = b.input("in", (1, 3, 56, 56))
        x = b.conv(x, oc=32, kernel=3, activation="relu")   # winograd-able
        x = b.conv(x, oc=64, kernel=1)                       # gemm1x1
        x = b.conv(x, oc=64, kernel=3, stride=2)             # sliding (stride)
        x = b.depthwise_conv(x, kernel=3)                    # not a Conv2D
        b.output(x)
        g = b.finish()
        decisions = select_graph_schemes(g)
        conv_nodes = [n for n in g.nodes if n.op_type == "Conv2D"]
        assert set(decisions) == {n.name for n in conv_nodes}
        kinds = sorted(d.kind for d in decisions.values())
        assert kinds == ["gemm1x1", "sliding", "winograd"]


def rect_graph():
    """Inception-style 1x7 / 7x1 convs plus a square 3x3."""
    b = GraphBuilder("rect", seed=0)
    x = b.input("in", (1, 64, 17, 17))
    x = b.conv(x, oc=64, kernel=(1, 7), name="c17")
    x = b.conv(x, oc=64, kernel=(7, 1), name="c71")
    b.output(b.conv(x, oc=64, kernel=3, name="c33"))
    return b.finish()


class TestSchemeDecision:
    def test_one_label_for_square_and_rectangular_tiles(self):
        decisions = select_graph_schemes(rect_graph())
        assert decisions["c17"].label == "winograd n=1x4"
        assert decisions["c71"].label == "winograd n=4x1"
        assert decisions["c33"].label == "winograd n=4"
        assert SchemeDecision("sliding").label == "sliding"
        assert SchemeDecision("gemm1x1").label == "gemm1x1"
        # alternatives are keyed by the same label
        assert decisions["c17"].cost == decisions["c17"].alternatives["winograd n=1x4"]

    def test_json_roundtrip(self):
        for decision in select_graph_schemes(rect_graph()).values():
            assert SchemeDecision.from_json(decision.to_json()) == decision

    def test_from_json_rejects_stale_entries(self):
        good = SchemeDecision("winograd", (1, 4), 2.0, {"sliding": 3.0}).to_json()
        with pytest.raises(ValueError, match="winograd_rect"):
            SchemeDecision.from_json({**good, "kind": "winograd_rect"})
        with pytest.raises(KeyError):
            SchemeDecision.from_json({k: v for k, v in good.items() if k != "tile"})

    def test_build_runner_rejects_illegal_schemes(self):
        b = GraphBuilder("strided", seed=0)
        b.output(b.conv(b.input("in", (1, 8, 16, 16)), oc=8, kernel=3, stride=2, name="s"))
        g = b.finish()
        with pytest.raises(BackendError, match="unknown conv scheme"):
            build_runner(g.nodes[-1], g, SchemeDecision("winograd_rect", (1, 4)))
        with pytest.raises(BackendError, match="stride 1"):
            build_runner(g.nodes[-1], g, SchemeDecision("winograd", (2, 2)))

    def test_build_runner_rejects_winograd_with_groups(self):
        b = GraphBuilder("grouped", seed=0)
        b.output(b.conv(b.input("in", (1, 4, 8, 8)), oc=4, kernel=3, groups=2, name="g"))
        g = b.finish()
        with pytest.raises(BackendError, match="groups 1"):
            build_runner(g.nodes[-1], g, SchemeDecision("winograd", (2, 2)))


class TestWinogradTiles:
    CFG = SchemeConfig()

    def test_square_kernel_gets_square_tiles(self):
        assert winograd_tiles((3, 3), (1, 1), (1, 1), 1, self.CFG) == [
            (2, 2), (4, 4), (6, 6), (8, 8)]

    def test_rectangular_kernel_gets_per_axis_tiles(self):
        tiles = winograd_tiles((1, 7), (1, 1), (1, 1), 1, self.CFG)
        assert (1, 4) in tiles and (2, 2) in tiles and (1, 1) not in tiles
        assert all(nw + 7 - 1 <= self.CFG.max_tile for _, nw in tiles)

    @pytest.mark.parametrize("kernel,stride,dilation,groups", [
        ((1, 1), (1, 1), (1, 1), 1), ((3, 3), (2, 2), (1, 1), 1),
        ((3, 3), (1, 1), (2, 2), 1), ((1, 7), (1, 1), (1, 1), 2),
    ])
    def test_illegal_convs_get_none(self, kernel, stride, dilation, groups):
        assert winograd_tiles(kernel, stride, dilation, groups, self.CFG) == []

    def test_selection_costs_every_legal_tile(self):
        g = rect_graph()
        decisions = select_graph_schemes(g)
        for node in g.nodes:
            tiles = winograd_tiles(node.attrs["kernel"], (1, 1), (1, 1), 1, self.CFG)
            labels = {SchemeDecision("winograd", tile).label for tile in tiles}
            assert set(decisions[node.name].alternatives) == {"sliding"} | labels

    def test_quantized_non_square_costs_rectangular_tiles(self):
        d = select_conv_scheme((1, 7), ic=128, oc=128, out_hw=(17, 17), quantized=True)
        assert d.kind == "sliding"
        assert "winograd n=1x4" in d.alternatives


class TestPinnedDecisions:
    """Every zoo model's and every Table 1 setting's decision — kind, tile
    and cost, bitwise — as the selector made it when square and
    rectangular Winograd were two scheme kinds (``tests/zoo_schemes.json``,
    costs as ``float.hex``)."""

    PIN = json.loads((Path(__file__).parent / "zoo_schemes.json").read_text())

    @staticmethod
    def _row(decision):
        return [decision.kind, list(decision.tile), decision.cost.hex()]

    @pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
    def test_zoo_model(self, name):
        decisions = select_graph_schemes(build_model(name))
        assert {n: self._row(d) for n, d in decisions.items()} == self.PIN["models"][name]

    def test_table1_settings(self):
        for case, row in self.PIN["table1"].items():
            k, ic, oc, size = map(int, case.split(","))
            out = size - k + 1
            assert self._row(select_conv_scheme((k, k), ic, oc, (out, out))) == row, case
