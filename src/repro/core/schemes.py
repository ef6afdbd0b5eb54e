"""Computation scheme selection (paper Section 3.2, Eq. 2-3).

For every convolution, pre-inference picks the cheapest scheme from the
pool {sliding window, Winograd F(n x n, k x k), Strassen-GEMM for 1x1}:

1. ``k == 1``  -> the conv is a matrix multiplication; Strassen applies.
2. ``k > 1``   -> search the Winograd output tile size ``n`` minimizing the
   *total* Eq. 2 cost over the output plane (tile count x per-tile cost —
   this captures boundary-tile waste, which is why the biggest block loses
   on small feature maps), and compare against sliding window.
3. The paper's Eq. 3: if the optimal ``n`` is 1, sliding window wins.

Transform terms are weighted by ``transform_weight`` (default 2.0) because
transforms are bandwidth-bound; DESIGN.md Section 4 documents this
interpretation and shows it reproduces every Table 1 winner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from ..ir.graph import Graph, Node
from ..ir.ops import Op
from .cost import winograd_tile_cost

__all__ = [
    "SchemeConfig",
    "SchemeDecision",
    "winograd_plane_cost",
    "select_conv_scheme",
    "select_graph_schemes",
]


@dataclass(frozen=True)
class SchemeConfig:
    """Tunables of the scheme selector.

    Attributes:
        winograd_candidates: output tile sizes considered (1 = sliding).
        max_tile: upper bound on ``n + k - 1`` (numerical stability guard).
        transform_weight: bandwidth weight on Eq. 2's transform terms.
        sliding_weight: relative per-MUL cost of the sliding-window kernel
            (1.0 = same micro-kernel efficiency as the Hadamard GEMM).
        gemm_efficiency_u0: half-saturation constant of the Hadamard GEMM's
            efficiency in the parallel tile count ``U`` (the paper's Eq. 7
            multiplier): effective cost is scaled by ``(U + U0) / U``, so a
            handful of huge tiles cannot fully utilize the micro-kernel.
            This is what makes WinoMax lose on small feature maps (Table 1).
        int8_gemm_speedup: per-MUL throughput advantage of the int8
            micro-kernel over fp32 (4 lanes of 4x-narrower operands).
            Divides the *direct* scheme costs for quantized layers;
            Winograd/Strassen stay fp-only (their float transforms would
            forfeit exact integer accumulation), so their entries remain at
            fp cost in the ranking — which is exactly why direct wins.
    """

    winograd_candidates: Tuple[int, ...] = (1, 2, 4, 6, 8)
    max_tile: int = 10
    transform_weight: float = 2.0
    sliding_weight: float = 1.0
    gemm_efficiency_u0: float = 16.0
    int8_gemm_speedup: float = 4.0


@dataclass(frozen=True)
class SchemeDecision:
    """The chosen scheme for one convolution.

    Attributes:
        kind: ``"sliding"`` | ``"winograd"`` | ``"winograd_rect"`` |
            ``"gemm1x1"``.
        winograd_n: chosen output tile size (square winograd only).
        winograd_n_hw: per-axis tile sizes (rectangular winograd only).
        cost: modeled arithmetic cost of the chosen scheme.
        alternatives: modeled cost per considered scheme (for reports).
    """

    kind: str
    winograd_n: int = 1
    cost: float = 0.0
    alternatives: Dict[str, float] = field(default_factory=dict)
    winograd_n_hw: Tuple[int, int] = (1, 1)

    def to_json(self) -> Dict[str, object]:
        """JSON-serializable form (persisted by the serving cache)."""
        return {
            "kind": self.kind,
            "winograd_n": self.winograd_n,
            "cost": self.cost,
            "alternatives": dict(self.alternatives),
            "winograd_n_hw": list(self.winograd_n_hw),
        }

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "SchemeDecision":
        """Inverse of :meth:`to_json`."""
        return cls(
            kind=str(data["kind"]),
            winograd_n=int(data.get("winograd_n", 1)),
            cost=float(data.get("cost", 0.0)),
            alternatives={str(k): float(v)
                          for k, v in dict(data.get("alternatives", {})).items()},
            winograd_n_hw=tuple(data.get("winograd_n_hw", (1, 1))),
        )


def winograd_plane_cost(
    n: int,
    k: int,
    ic: int,
    oc: int,
    out_hw: Tuple[int, int],
    config: Optional[SchemeConfig] = None,
) -> float:
    """Weighted Eq. 2 cost of Winograd F(n x n) over a whole output plane.

    Includes tile-count boundary waste, the bandwidth weight on transform
    terms and the small-U GEMM de-rating — the same metric scheme selection
    minimizes, so selection and downstream latency modeling stay consistent.
    """
    cfg = config or SchemeConfig()
    oh, ow = out_hw
    tiles = (-(-oh // n)) * (-(-ow // n))
    t = n + k - 1
    transforms = winograd_tile_cost(n, k, ic, oc, cfg.transform_weight) - ic * oc * t**2
    hadamard = ic * oc * t**2 * (tiles + cfg.gemm_efficiency_u0) / tiles
    return tiles * (transforms + hadamard)


def winograd_rect_plane_cost(
    n_hw: Tuple[int, int],
    kernel: Tuple[int, int],
    ic: int,
    oc: int,
    out_hw: Tuple[int, int],
    config: Optional[SchemeConfig] = None,
) -> float:
    """Weighted cost of rectangular Winograd F(nh x nw, kh x kw).

    Generalizes :func:`winograd_plane_cost` per axis; a k = 1 axis has
    identity transforms (no transform cost along it).
    """
    cfg = config or SchemeConfig()
    nh, nw = n_hw
    kh, kw = kernel
    oh, ow = out_hw
    th, tw = nh + kh - 1, nw + kw - 1
    tiles = (-(-oh // nh)) * (-(-ow // nw))
    transform = 0.0
    if kh > 1:  # B_h^T X : th x th applied down columns of a th x tw tile
        transform += ic * th * th * tw + nh * th * tw  # input + output sides
    if kw > 1:
        transform += ic * th * tw * tw + nh * tw * nw
    hadamard = ic * oc * th * tw * (tiles + cfg.gemm_efficiency_u0) / tiles
    return tiles * (cfg.transform_weight * transform + hadamard)


def select_conv_scheme(
    kernel: Tuple[int, int],
    ic: int,
    oc: int,
    out_hw: Tuple[int, int],
    stride: Tuple[int, int] = (1, 1),
    dilation: Tuple[int, int] = (1, 1),
    groups: int = 1,
    config: Optional[SchemeConfig] = None,
    quantized: bool = False,
) -> SchemeDecision:
    """Pick the cheapest convolution scheme for one layer.

    Follows Eq. 2/3 with total-cost normalization (see module docstring).
    Winograd is only legal for square kernels, stride 1, dilation 1 and
    groups 1; illegal layers fall back to sliding window (or 1x1-GEMM).

    ``quantized=True`` (int8 weights) restricts the legal pool to the
    direct schemes — sliding window and 1x1-GEMM — whose costs divide by
    ``int8_gemm_speedup``.  Winograd flavours are still *costed* into
    ``alternatives`` (at fp cost; their float transforms cannot run the
    int8 contract) so reports show the ranking, but are never selected.
    """
    cfg = config or SchemeConfig()
    kh, kw = kernel
    oh, ow = out_hw

    sliding_cost = cfg.sliding_weight * oh * ow * (ic // groups) * kh * kw * oc
    if quantized:
        sliding_cost /= cfg.int8_gemm_speedup
    alternatives = {"sliding": sliding_cost}

    if kh == 1 and kw == 1 and dilation == (1, 1) and groups == 1:
        # Case 1 of the paper: plain matrix multiplication, Strassen applies.
        return SchemeDecision("gemm1x1", 1, sliding_cost, {**alternatives, "gemm1x1": sliding_cost})

    stride_dilation_ok = stride == (1, 1) and dilation == (1, 1) and groups == 1
    if quantized:
        # Winograd's float transforms would forfeit the exact-integer
        # contract: cost every flavour for the report, select none.
        if kh == kw and kh > 1 and stride_dilation_ok:
            for n in cfg.winograd_candidates:
                if n <= 1 or n + kh - 1 > cfg.max_tile:
                    continue
                alternatives[f"winograd_n{n}"] = winograd_plane_cost(
                    n, kh, ic, oc, (oh, ow), cfg
                )
        return SchemeDecision("sliding", 1, sliding_cost, alternatives)
    square_legal = kh == kw and kh > 1 and stride_dilation_ok
    # Rectangular Winograd (generator extension): asymmetric kernels like
    # Inception's 1x7/7x1 get per-axis tile search instead of falling
    # straight back to sliding window.
    rect_legal = kh != kw and max(kh, kw) > 1 and stride_dilation_ok

    best_n, best_cost = 1, sliding_cost
    best_n_hw: Tuple[int, int] = (1, 1)
    best_kind = "sliding"
    if square_legal:
        for n in cfg.winograd_candidates:
            if n <= 1 or n + kh - 1 > cfg.max_tile:
                continue
            total = winograd_plane_cost(n, kh, ic, oc, (oh, ow), cfg)
            alternatives[f"winograd_n{n}"] = total
            if total < best_cost:
                best_n, best_cost, best_kind = n, total, "winograd"
    elif rect_legal:
        h_candidates = [n for n in cfg.winograd_candidates
                        if n + kh - 1 <= cfg.max_tile and (n > 1 or kh == 1)] or [1]
        w_candidates = [n for n in cfg.winograd_candidates
                        if n + kw - 1 <= cfg.max_tile and (n > 1 or kw == 1)] or [1]
        for nh in h_candidates:
            for nw in w_candidates:
                if nh == 1 and nw == 1:
                    continue
                total = winograd_rect_plane_cost((nh, nw), kernel, ic, oc, (oh, ow), cfg)
                alternatives[f"winograd_rect_n{nh}x{nw}"] = total
                if total < best_cost:
                    best_cost, best_kind = total, "winograd_rect"
                    best_n_hw = (nh, nw)

    if best_kind == "sliding":
        # Eq. 3: n-hat == 1 -> sliding window.
        return SchemeDecision("sliding", 1, sliding_cost, alternatives)
    if best_kind == "winograd_rect":
        return SchemeDecision("winograd_rect", 1, best_cost, alternatives,
                              winograd_n_hw=best_n_hw)
    return SchemeDecision("winograd", best_n, best_cost, alternatives)


def select_graph_schemes(
    graph: Graph, config: Optional[SchemeConfig] = None
) -> Dict[str, SchemeDecision]:
    """Run scheme selection for every Conv2D node; keyed by node name."""
    decisions = {}
    for node in graph.nodes:
        if node.op_type != Op.CONV2D:
            continue
        x = graph.desc(node.inputs[0])
        y = graph.desc(node.outputs[0])
        weights = graph.constants.get(node.inputs[1]) if len(node.inputs) > 1 else None
        decisions[node.name] = select_conv_scheme(
            kernel=tuple(node.attrs["kernel"]),
            ic=x.shape[1],
            oc=y.shape[1],
            out_hw=y.shape[2:],
            stride=tuple(node.attrs["stride"]),
            dilation=tuple(node.attrs["dilation"]),
            groups=int(node.attrs["groups"]),
            config=config,
            quantized=weights is not None and weights.dtype == np.int8,
        )
    return decisions
