"""Offline graph optimizer: the converter's rewrite passes (paper Figure 2).

The converter performs "basic graph optimizations, such as operator fusion,
replacement, and model quantization".  This module implements the pass
manager and the structural passes:

* ``FoldConstants``      — evaluate nodes whose inputs are all constant;
* ``FuseConvBatchNorm``  — fold BatchNorm (and Scale) into conv weights;
* ``FuseConvActivation`` — absorb ReLU/ReLU6 into the conv's fused activation;
* ``RemoveIdentity``     — drop Dropout/Identity nodes and rewire;
* ``ReplaceOps``         — operator replacement (ReduceMean(2,3) -> GlobalAvgPool,
                           Flatten-like Reshape -> Flatten).

Quantization lives in :mod:`repro.quant`.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ...ir.graph import Graph, GraphError, Node
from ...ir.ops import Op
from ...ir.shape_inference import infer_shapes
from ...obs.metrics import get_metrics
from ...obs.tracer import Tracer, get_tracer

__all__ = [
    "Pass",
    "PassResult",
    "PassManager",
    "FoldConstants",
    "FuseConvBatchNorm",
    "FuseConvActivation",
    "RemoveIdentity",
    "ReplaceOps",
    "optimize",
    "default_passes",
]


@dataclass
class PassResult:
    """Outcome of one pass application."""

    changed: int = 0

    def __bool__(self) -> bool:
        return self.changed > 0


class Pass(abc.ABC):
    """A graph-to-graph rewrite; mutates in place and reports changes."""

    name = "pass"

    @abc.abstractmethod
    def run(self, graph: Graph) -> PassResult:
        ...


def _remove_node(graph: Graph, node: Node, replacement: str) -> None:
    """Delete ``node``, rewiring consumers of its output to ``replacement``."""
    out = node.outputs[0]
    for other in graph.nodes:
        if other is node:
            continue
        other.inputs = [replacement if name == out else name for name in other.inputs]
    graph.outputs = [replacement if name == out else name for name in graph.outputs]
    graph.nodes.remove(node)
    graph.tensor_descs.pop(out, None)


class FoldConstants(Pass):
    """Evaluate nodes whose inputs are all constants at conversion time."""

    name = "fold-constants"

    def run(self, graph: Graph) -> PassResult:
        from ...backends.op_runners import build_runner

        result = PassResult()
        for node in list(graph.nodes):
            if node.op_type in (Op.INPUT, Op.CONSTANT):
                continue
            if not node.inputs or not all(name in graph.constants for name in node.inputs):
                continue
            runner = build_runner(node, graph)
            values = runner.fn([])
            graph.nodes.remove(node)
            for name, value in zip(node.outputs, values):
                graph.tensor_descs.pop(name, None)
                graph.add_constant(name, np.asarray(value))
            result.changed += 1
        return result


class FuseConvBatchNorm(Pass):
    """Fold BatchNorm/Scale into the preceding convolution's weights.

    BN(conv(x, W) + b) == conv(x, W') + b' with ``W' = W * s`` and
    ``b' = (b - mean) * s + beta`` where ``s = gamma / sqrt(var + eps)``.
    Only fuses when the conv output has a single consumer.
    """

    name = "fuse-conv-bn"

    def run(self, graph: Graph) -> PassResult:
        result = PassResult()
        consumers = graph.consumer_map()
        producers = graph.producer_map()
        for bn in list(graph.nodes):
            if bn.op_type not in (Op.BATCH_NORM, Op.SCALE):
                continue
            conv = producers.get(bn.inputs[0])
            if conv is None or conv.op_type not in (Op.CONV2D, Op.DEPTHWISE_CONV2D):
                continue
            if len(consumers.get(conv.outputs[0], [])) != 1:
                continue
            if not all(name in graph.constants for name in bn.inputs[1:]):
                continue
            if bn.op_type == Op.BATCH_NORM:
                gamma, beta, mean, var = (graph.constants[n] for n in bn.inputs[1:5])
                s = gamma / np.sqrt(var + float(bn.attrs["epsilon"]))
                shift = beta - mean * s
            else:  # Scale
                s = graph.constants[bn.inputs[1]]
                shift = (
                    graph.constants[bn.inputs[2]]
                    if len(bn.inputs) > 2
                    else np.zeros_like(s)
                )
            weights_name = conv.inputs[1]
            weights = graph.constants[weights_name]
            if conv.op_type == Op.CONV2D:
                scaled = weights * s.reshape(-1, 1, 1, 1)
            else:  # depthwise: weights are (C, 1, kh, kw)
                scaled = weights * s.reshape(-1, 1, 1, 1)
            graph.constants[weights_name] = scaled.astype(weights.dtype)
            if len(conv.inputs) > 2:
                bias_name = conv.inputs[2]
                bias = graph.constants[bias_name]
                graph.constants[bias_name] = ((bias - 0.0) * s + shift).astype(bias.dtype)
            else:
                bias_name = f"{conv.name}_fused_bias"
                graph.add_constant(bias_name, shift.astype(weights.dtype))
                conv.inputs.append(bias_name)
                conv.attrs["has_bias"] = True
            _remove_node(graph, bn, conv.outputs[0])
            consumers = graph.consumer_map()
            producers = graph.producer_map()
            result.changed += 1
        return result


class FuseConvActivation(Pass):
    """Absorb a following ReLU/ReLU6 into the conv's fused activation."""

    name = "fuse-conv-activation"

    _FUSABLE = {Op.RELU: "relu", Op.RELU6: "relu6"}

    def run(self, graph: Graph) -> PassResult:
        result = PassResult()
        consumers = graph.consumer_map()
        producers = graph.producer_map()
        for act in list(graph.nodes):
            fused_kind = self._FUSABLE.get(act.op_type)
            if fused_kind is None:
                continue
            conv = producers.get(act.inputs[0])
            if conv is None or conv.op_type not in (Op.CONV2D, Op.DEPTHWISE_CONV2D):
                continue
            if conv.attrs.get("activation") is not None:
                continue
            if len(consumers.get(conv.outputs[0], [])) != 1:
                continue
            conv.attrs["activation"] = fused_kind
            _remove_node(graph, act, conv.outputs[0])
            consumers = graph.consumer_map()
            producers = graph.producer_map()
            result.changed += 1
        return result


class RemoveIdentity(Pass):
    """Drop inference-time no-ops (Dropout, Identity)."""

    name = "remove-identity"

    def run(self, graph: Graph) -> PassResult:
        result = PassResult()
        for node in list(graph.nodes):
            if node.op_type not in (Op.DROPOUT, Op.IDENTITY):
                continue
            _remove_node(graph, node, node.inputs[0])
            result.changed += 1
        return result


class ReplaceOps(Pass):
    """Operator replacement rules.

    * ``ReduceMean(axes=(2,3), keepdims)`` -> ``GlobalAvgPool`` (+ reshape
      handled by keepdims semantics matching);
    * ``AvgPool`` covering the whole feature map -> ``GlobalAvgPool``.
    """

    name = "replace-ops"

    def run(self, graph: Graph) -> PassResult:
        result = PassResult()
        for node in graph.nodes:
            if node.op_type == Op.REDUCE_MEAN:
                axes = tuple(sorted(a % 4 for a in node.attrs["axes"]))
                if axes == (2, 3) and node.attrs["keepdims"]:
                    node.op_type = Op.GLOBAL_AVG_POOL
                    node.attrs = {}
                    result.changed += 1
            elif node.op_type == Op.AVG_POOL:
                in_desc = graph.tensor_descs.get(node.inputs[0])
                if in_desc is None or in_desc.rank != 4:
                    continue
                if (
                    tuple(node.attrs["kernel"]) == tuple(in_desc.shape[2:])
                    and tuple(node.attrs["pad"]) == (0, 0, 0, 0)
                    and node.attrs["pad_mode"] in ("explicit", "valid")
                ):
                    node.op_type = Op.GLOBAL_AVG_POOL
                    node.attrs = {}
                    result.changed += 1
        return result


def default_passes() -> List[Pass]:
    """The converter's standard pipeline, in application order."""
    return [
        RemoveIdentity(),
        FoldConstants(),
        ReplaceOps(),
        FuseConvBatchNorm(),
        FuseConvActivation(),
    ]


class PassManager:
    """Applies passes to fixpoint (bounded), re-inferring shapes after.

    Every pass application is traced (``"pass:<name>"`` spans in the
    ``optimizer`` category, carrying round index and change count) and its
    latency lands in the ``optimizer.pass_ms`` histogram of the process
    metrics registry — so ``cli trace`` over an unoptimized model shows
    the converter's cost next to pre-inference's.
    """

    def __init__(
        self,
        passes: Optional[Sequence[Pass]] = None,
        max_rounds: int = 4,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.passes = list(passes) if passes is not None else default_passes()
        self.max_rounds = max_rounds
        self.tracer = tracer
        self.log: List[str] = []

    def _apply(self, p: Pass, graph: Graph, round_idx: int) -> PassResult:
        """Run one pass with span + metrics accounting."""
        tracer = self.tracer if self.tracer is not None else get_tracer()
        start = time.perf_counter()
        result = p.run(graph)
        end = time.perf_counter()
        tracer.record(
            f"pass:{p.name}", "optimizer", start, end,
            round=round_idx, changed=result.changed,
        )
        metrics = get_metrics()
        metrics.histogram("optimizer.pass_ms").observe((end - start) * 1000.0)
        if result.changed:
            metrics.counter(f"optimizer.changed.{p.name}").inc(result.changed)
        return result

    def run(self, graph: Graph) -> Graph:
        tracer = self.tracer if self.tracer is not None else get_tracer()
        with tracer.span("optimizer", "optimizer", graph=graph.name):
            for round_idx in range(self.max_rounds):
                changed = 0
                for p in self.passes:
                    result = self._apply(p, graph, round_idx)
                    if result:
                        self.log.append(
                            f"round {round_idx}: {p.name} changed {result.changed}"
                        )
                    changed += result.changed
                if not changed:
                    break
            graph.validate()
            with tracer.span("shape_inference", "optimizer"):
                infer_shapes(graph)
        return graph


def optimize(
    graph: Graph,
    passes: Optional[Sequence[Pass]] = None,
    verify: bool = False,
    atol: float = 5e-2,
) -> Graph:
    """Run the default (or given) optimization pipeline on ``graph``.

    Args:
        passes: pass pipeline override (default: :func:`default_passes`).
        verify: re-check structure, shapes and numerical equivalence after
            every pass via :class:`repro.analysis.VerifyingPassManager`;
            a broken pass raises
            :class:`repro.analysis.PassVerificationError` naming it.
        atol: numerical tolerance for ``verify=True`` spot-checks.
    """
    if verify:
        from ...analysis.verify_passes import VerifyingPassManager

        return VerifyingPassManager(passes, atol=atol).run(graph)
    return PassManager(passes).run(graph)
