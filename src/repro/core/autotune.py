"""Pre-inference's measured scheme check (the paper's future work item 1:
"applying auto-tuning during backend evaluation").

Where the Eq. 2 cost model *predicts* the best convolution scheme,
:func:`keep_faster_winograd` *measures* the one choice the model is
least sure of on this host: each Winograd pick survives only if its
runner times faster than sliding window's at the layer's shape.  It times
the program a session runs: the layer's
:func:`~repro.backends.op_runners.build_runner` runner (Winograd weights
transformed once, at build), bound to an output array and a kernel
scratch as a session's arena binds it (:func:`bound_runner`), fed an
input of the layer's true shape.  One verdict per (host, conv signature)
is timed per process and memoized; ``Session`` prepare is the only
caller, and a cluster's workers replay the router's prepared schemes
instead of timing their own.
"""

from __future__ import annotations

import threading
import time
from typing import Collection, Dict, Tuple

import numpy as np

from ..backends.op_runners import OpRunner, build_runner
from ..devices.host import host_fingerprint
from ..ir.graph import Graph, Node
from ..kernels import aligned_empty
from .schemes import SchemeDecision

__all__ = ["bound_runner", "keep_faster_winograd"]

#: Timed calls per runner in a pre-inference probe (the minimum is kept).
PROBE_REPEATS = 5

#: (host, conv signature, tile) -> (Winograd ms, sliding ms): each verdict
#: is timed once per process, whichever session asks first.
_VERDICTS: Dict[Tuple, Tuple[float, float]] = {}
_VERDICTS_LOCK = threading.Lock()


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

