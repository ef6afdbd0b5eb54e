"""Measurement-based scheme auto-tuning (the paper's future work item 1:
"applying auto-tuning during backend evaluation").

Where pre-inference *predicts* the best convolution scheme from the Eq. 2
cost model, the auto-tuner *measures* every legal candidate on the actual
kernels with the layer's true shapes and picks the empirical winner.  This
recovers TVM-style measured quality while staying on-device and taking
milliseconds-to-seconds, not hours, because the candidate pool per layer
is the small scheme pool rather than an open schedule space.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, Optional

import numpy as np

from ..ir.graph import Graph, Node
from ..ir.ops import Op
from ..ir.shape_inference import resolve_padding
from ..kernels.conv import conv2d
from .schemes import SchemeConfig, SchemeDecision, select_conv_scheme, winograd_tiles

__all__ = ["TuneReport", "autotune_schemes"]


@dataclass
class TuneReport:
    """Result of auto-tuning one graph.

    Attributes:
        decisions: per-conv measured-best scheme (Session-compatible).
        measurements: per-conv candidate timings in ms.
        model_decisions: what the Eq. 2 cost model would have picked.
        tuning_ms: total wall time spent measuring.
    """

    decisions: Dict[str, SchemeDecision] = field(default_factory=dict)
    measurements: Dict[str, Dict[str, float]] = field(default_factory=dict)
    model_decisions: Dict[str, SchemeDecision] = field(default_factory=dict)
    tuning_ms: float = 0.0

    def to_json(self) -> Dict[str, object]:
        """JSON-serializable form — lets ``cli warm``/the serving cache
        persist measured overrides next to the model-predicted schemes."""
        return {
            "decisions": {n: d.to_json() for n, d in self.decisions.items()},
            "measurements": {n: dict(t) for n, t in self.measurements.items()},
            "model_decisions": {
                n: d.to_json() for n, d in self.model_decisions.items()
            },
            "tuning_ms": self.tuning_ms,
        }

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "TuneReport":
        """Inverse of :meth:`to_json`."""
        return cls(
            decisions={
                str(n): SchemeDecision.from_json(d)
                for n, d in dict(data.get("decisions", {})).items()
            },
            measurements={
                str(n): {str(k): float(v) for k, v in dict(t).items()}
                for n, t in dict(data.get("measurements", {})).items()
            },
            model_decisions={
                str(n): SchemeDecision.from_json(d)
                for n, d in dict(data.get("model_decisions", {})).items()
            },
            tuning_ms=float(data.get("tuning_ms", 0.0)),
        )

    def agreement_with_model(self) -> float:
        """Fraction of convs where measurement confirms the cost model."""
        if not self.decisions:
            return 1.0
        same = sum(
            1
            for name, d in self.decisions.items()
            if (d.kind, d.tile)
            == (self.model_decisions[name].kind, self.model_decisions[name].tile)
        )
        return same / len(self.decisions)


def _measure(fn, repeats: int) -> float:
    fn()  # warm-up (also builds Winograd transforms once)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best * 1000.0


def autotune_schemes(
    graph: Graph,
    repeats: int = 2,
    config: Optional[SchemeConfig] = None,
    rng: Optional[np.random.Generator] = None,
) -> TuneReport:
    """Measure every conv layer's scheme candidates and pick the fastest.

    Args:
        graph: shape-inferred graph (weights are used as-is).
        repeats: timing repeats per candidate (min is kept).

    Returns:
        a :class:`TuneReport`; pass ``report.decisions`` to
        ``SessionConfig(scheme_overrides=...)``.
    """
    cfg = config or SchemeConfig()
    rng = rng or np.random.default_rng(0)
    report = TuneReport()
    start_all = time.perf_counter()

    for node in graph.nodes:
        if node.op_type != Op.CONV2D:
            continue
        x_desc = graph.desc(node.inputs[0])
        y_desc = graph.desc(node.outputs[0])
        weights = graph.constants.get(node.inputs[1])
        if weights is None or weights.dtype == np.int8:
            continue
        kernel = tuple(node.attrs["kernel"])
        stride = tuple(node.attrs["stride"])
        dilation = tuple(node.attrs["dilation"])
        groups = int(node.attrs["groups"])
        pads = resolve_padding(
            node.attrs["pad_mode"], node.attrs["pad"], x_desc.shape[2:],
            kernel, stride, dilation,
        )
        x = rng.standard_normal(x_desc.shape).astype(np.float32)

        candidates = [SchemeDecision("sliding")] + [
            SchemeDecision("winograd", tile)
            for tile in winograd_tiles(kernel, stride, dilation, groups, cfg)
        ]
        if kernel == (1, 1) and dilation == (1, 1) and groups == 1:
            candidates.insert(0, SchemeDecision("gemm1x1"))
        timings: Dict[str, float] = {}
        by_label: Dict[str, SchemeDecision] = {}
        for candidate in candidates:
            try:
                timings[candidate.label] = _measure(
                    lambda c=candidate: conv2d(
                        x, weights, None, stride, pads, dilation, groups,
                        scheme=c.kind, tile=c.tile,
                    ),
                    repeats,
                )
            except (ValueError, MemoryError):
                continue
            by_label[candidate.label] = candidate
        if not timings:
            continue
        best_label = min(timings, key=timings.get)
        best = replace(by_label[best_label], cost=timings[best_label], alternatives=timings)
        report.decisions[node.name] = best
        report.measurements[node.name] = timings
        report.model_decisions[node.name] = select_conv_scheme(
            kernel, x_desc.shape[1], y_desc.shape[1], y_desc.shape[2:],
            stride, dilation, groups, cfg,
        )

    report.tuning_ms = (time.perf_counter() - start_all) * 1000.0
    return report
