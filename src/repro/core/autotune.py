"""Measurement-based scheme auto-tuning (the paper's future work item 1:
"applying auto-tuning during backend evaluation").

Where pre-inference *predicts* the best convolution scheme from the Eq. 2
cost model, the auto-tuner *measures* every legal candidate and picks the
empirical winner.  It times the program a session runs: each candidate
is the layer's :func:`~repro.backends.op_runners.build_runner` runner
(Winograd weights transformed once, at build, as pre-inference does),
bound to an output array and a kernel scratch as a session's arena binds
it, fed an input of the layer's true shape.  This recovers TVM-style
measured quality while staying on-device and taking milliseconds to
seconds, not hours, because the candidate pool per layer is the small
scheme pool rather than an open schedule space.

Pre-inference on the real ``"cpu"`` backend consumes the same timing in a
narrower form (:func:`keep_faster_winograd`): the Eq. 2 search proposes,
and each Winograd pick survives only if its runner measures faster than
sliding window's at the layer's shape.  One verdict per (host, conv
signature) is timed per process and memoized.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from typing import Collection, Dict, Optional, Tuple

import numpy as np

from ..backends.op_runners import OpRunner, build_runner
from ..devices.host import host_fingerprint
from ..ir.graph import Graph, Node
from ..ir.ops import Op
from ..kernels import aligned_empty
from .schemes import SchemeConfig, SchemeDecision, select_conv_scheme, winograd_tiles

__all__ = ["TuneReport", "autotune_schemes", "bound_runner", "keep_faster_winograd"]

#: Timed calls per runner in a pre-inference probe (the minimum is kept).
PROBE_REPEATS = 5

#: (host, conv signature, tile) -> (Winograd ms, sliding ms): each verdict
#: is timed once per process, whichever session asks first.
_VERDICTS: Dict[Tuple, Tuple[float, float]] = {}
_VERDICTS_LOCK = threading.Lock()


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


def bound_runner(node: Node, graph: Graph, scheme: SchemeDecision) -> OpRunner:
    """``build_runner(node, graph, scheme)``, bound as a session's arena
    binds it (:func:`repro.core.plan.bind_arena`): to one output array of
    the node's static shape and a scratch of ``runner.scratch_bytes``."""
    runner = build_runner(node, graph, scheme)
    desc = graph.desc(node.outputs[0])
    runner.bind(np.empty(desc.shape, desc.dtype.np_dtype), aligned_empty(runner.scratch_bytes))
    return runner


def _measure(runner: OpRunner, x: np.ndarray, repeats: int) -> float:
    fn, inputs = runner.fn, [x]
    fn(inputs)  # warm-up: first touch of the output and the scratch
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn(inputs)
        best = min(best, time.perf_counter() - start)
    return best * 1000.0


def _conv_signature(node: Node, graph: Graph, tile: Tuple[int, int]) -> Tuple:
    """What a conv runner's speed depends on: the host, the per-sample
    input and output shapes (so the channels), the dtype, every attribute
    (kernel, stride, pads, dilation, groups, fused activation), the bias
    and the Winograd tile.  Weight values are not part of it, and neither
    is the batch size: a session resized to a batch keeps the schemes of
    its one-sample twin, so its answers stay bitwise the serial ones."""
    x, y = graph.desc(node.inputs[0]), graph.desc(node.outputs[0])
    return (
        host_fingerprint().key, tuple(x.shape[1:]), tuple(y.shape[1:]), x.dtype.name,
        repr(sorted(node.attrs.items())), len(node.inputs), tuple(tile),
    )


def keep_faster_winograd(
    graph: Graph,
    schemes: Dict[str, SchemeDecision],
    skip: Collection[str] = (),
) -> int:
    """Demote, in ``schemes``, every Winograd pick that this host runs no
    faster than sliding window.

    Each Winograd decision outside ``skip`` is priced by timing its bound
    runner against sliding window's on an input of the layer's shape
    (:func:`_measure`, :data:`PROBE_REPEATS` calls each).  A demoted
    conv gets ``SchemeDecision("sliding")`` carrying the modeled sliding
    cost and the modeled alternatives.  Sliding and ``gemm1x1`` picks are
    never timed.  Verdicts are memoized per process under a lock, so a
    second session over the same shapes times nothing.

    Returns:
        the number of probes run (memo misses).
    """
    probes = 0
    for node in graph.nodes:
        decision = schemes.get(node.name)
        if decision is None or decision.kind != "winograd" or node.name in skip:
            continue
        key = _conv_signature(node, graph, decision.tile)
        with _VERDICTS_LOCK:
            verdict = _VERDICTS.get(key)
        if verdict is None:
            x_desc = graph.desc(node.inputs[0])
            x = np.random.default_rng(0).standard_normal(x_desc.shape).astype(
                x_desc.dtype.np_dtype)
            timed = (
                _measure(bound_runner(node, graph, decision), x, PROBE_REPEATS),
                _measure(bound_runner(node, graph, SchemeDecision("sliding")), x,
                         PROBE_REPEATS),
            )
            probes += 1
            with _VERDICTS_LOCK:
                verdict = _VERDICTS.setdefault(key, timed)
        winograd_ms, sliding_ms = verdict
        if winograd_ms >= sliding_ms:
            schemes[node.name] = SchemeDecision(
                "sliding", cost=decision.alternatives.get("sliding", 0.0),
                alternatives=decision.alternatives,
            )
    return probes


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
        x = rng.standard_normal(x_desc.shape).astype(x_desc.dtype.np_dtype)

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
                    bound_runner(node, graph, candidate), x, repeats)
            except MemoryError:
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
