"""Computation scheme selection (paper Section 3.2, Eq. 2-3).

For every convolution, pre-inference picks the cheapest scheme from the
pool {sliding window, Winograd F(nh x nw, kh x kw), Strassen-GEMM for 1x1}:

1. ``k == 1``  -> the conv is a matrix multiplication; Strassen applies.
2. ``k > 1``   -> search the Winograd output tile ``(nh, nw)`` minimizing the
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
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..ir.graph import Graph, Node
from ..ir.ops import Op
from .cost import winograd_tile_cost

__all__ = [
    "SchemeConfig",
    "SchemeDecision",
    "winograd_plane_cost",
    "winograd_tiles",
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
    """

    winograd_candidates: Tuple[int, ...] = (1, 2, 4, 6, 8)
    max_tile: int = 10
    transform_weight: float = 2.0
    sliding_weight: float = 1.0
    gemm_efficiency_u0: float = 16.0


@dataclass(frozen=True)
class SchemeDecision:
    """The chosen scheme for one convolution.

    Attributes:
        kind: ``"sliding"`` | ``"winograd"`` | ``"gemm1x1"``.
        tile: Winograd output tile ``(nh, nw)`` — ``(n, n)`` for a square
            kernel, per axis for a rectangular one (Winograd only).
        cost: modeled arithmetic cost of the chosen scheme.
        alternatives: modeled cost per considered scheme, keyed by
            :attr:`label` (for reports).
    """

    kind: str
    tile: Tuple[int, int] = (1, 1)
    cost: float = 0.0
    alternatives: Dict[str, float] = field(default_factory=dict)

    @property
    def label(self) -> str:
        """``winograd n=4`` (square tile), ``winograd n=1x4``, ``gemm1x1``
        or ``sliding``."""
        if self.kind != "winograd":
            return self.kind
        nh, nw = self.tile
        return f"winograd n={nh}" if nh == nw else f"winograd n={nh}x{nw}"

    def to_json(self) -> Dict[str, object]:
        """JSON-serializable form (persisted by the serving cache)."""
        return {
            "kind": self.kind,
            "tile": list(self.tile),
            "cost": self.cost,
            "alternatives": dict(self.alternatives),
        }

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "SchemeDecision":
        """Inverse of :meth:`to_json`.

        Raises:
            ValueError: on a kind outside the three (``KeyError`` for a
                missing field), so a stale entry never decodes.
        """
        kind = str(data["kind"])
        if kind not in ("sliding", "winograd", "gemm1x1"):
            raise ValueError(f"unknown scheme kind {kind!r}")
        nh, nw = (int(n) for n in data["tile"])
        return cls(
            kind=kind,
            tile=(nh, nw),
            cost=float(data["cost"]),
            alternatives={str(k): float(v) for k, v in dict(data["alternatives"]).items()},
        )


def winograd_plane_cost(
    tile: Tuple[int, int],
    kernel: Tuple[int, int],
    ic: int,
    oc: int,
    out_hw: Tuple[int, int],
    config: Optional[SchemeConfig] = None,
) -> float:
    """Weighted Eq. 2 cost of Winograd F(nh x nw, kh x kw) over a whole
    output plane.

    Includes tile-count boundary waste, the bandwidth weight on transform
    terms and the small-U GEMM de-rating — the same metric scheme selection
    minimizes, so selection and downstream latency modeling stay consistent.
    """
    cfg = config or SchemeConfig()
    (nh, nw), (oh, ow) = tile, out_hw
    tiles = (-(-oh // nh)) * (-(-ow // nw))
    transform, hadamard = winograd_tile_cost(tile, kernel, ic, oc)
    hadamard = hadamard * (tiles + cfg.gemm_efficiency_u0) / tiles
    return tiles * (cfg.transform_weight * transform + hadamard)


def winograd_tiles(
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    dilation: Tuple[int, int],
    groups: int,
    config: SchemeConfig,
) -> List[Tuple[int, int]]:
    """The legal Winograd output tiles ``(nh, nw)`` for one conv.

    Winograd needs stride 1, dilation 1, groups 1 and a kernel wider than
    1 on some axis.  A square kernel gets the square tiles ``(n, n)``; a
    rectangular one (Inception's 1x7/7x1) gets every per-axis pair, where
    a ``k = 1`` axis may also stay untiled (``n = 1``).  ``n + k - 1`` never
    exceeds ``max_tile``.
    """
    if max(kernel) == 1 or stride != (1, 1) or dilation != (1, 1) or groups != 1:
        return []
    axes = [
        [n for n in config.winograd_candidates
         if n + k - 1 <= config.max_tile and (n > 1 or k == 1)] or [1]
        for k in kernel
    ]
    if kernel[0] == kernel[1]:
        tiles = [(n, n) for n in axes[0]]
    else:
        tiles = [(nh, nw) for nh in axes[0] for nw in axes[1]]
    return [tile for tile in tiles if tile != (1, 1)]


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

    Follows Eq. 2/3 with total-cost normalization (see module docstring)
    over the tiles of :func:`winograd_tiles`; layers with none fall back
    to sliding window (or 1x1-GEMM).

    ``quantized=True`` (int8 weights) restricts the legal pool to the
    direct schemes — sliding window and 1x1-GEMM.  Winograd tiles are
    still *costed* into ``alternatives`` (their float transforms cannot
    run the int8 contract) so reports show the ranking, but are never
    selected.
    """
    cfg = config or SchemeConfig()
    kh, kw = kernel
    oh, ow = out_hw

    sliding_cost = cfg.sliding_weight * oh * ow * (ic // groups) * kh * kw * oc
    alternatives = {"sliding": sliding_cost}

    if kh == 1 and kw == 1 and dilation == (1, 1) and groups == 1:
        # Case 1 of the paper: plain matrix multiplication, Strassen applies.
        return SchemeDecision("gemm1x1", (1, 1), sliding_cost,
                              {**alternatives, "gemm1x1": sliding_cost})

    best_tile, best_cost = (1, 1), sliding_cost
    for tile in winograd_tiles(kernel, stride, dilation, groups, cfg):
        cost = winograd_plane_cost(tile, kernel, ic, oc, out_hw, cfg)
        alternatives[SchemeDecision("winograd", tile).label] = cost
        if not quantized and cost < best_cost:
            best_tile, best_cost = tile, cost
    # Eq. 3: n-hat == 1 -> sliding window.
    kind = "sliding" if best_tile == (1, 1) else "winograd"
    return SchemeDecision(kind, best_tile, best_cost, alternatives)


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
