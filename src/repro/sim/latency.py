"""Cross-engine / cross-device latency estimation.

This is the substrate behind the paper's comparative experiments (Figures
7, 8, 9 and Tables 6, 8): given a *real* graph (real per-op MUL counts from
shape inference), an :class:`~repro.baselines.profiles.EngineProfile`
(which decides the *algorithm* each engine runs per op) and a
:class:`~repro.devices.specs.DeviceSpec` (Appendix-C capability constants),
it predicts inference latency as

    compute-bound ops:  MULs_engine(op) / (peak MACs/s x efficiency)
    memory-bound ops:   bytes_touched / memory bandwidth
    GPU ops:            + t_schedule per dispatch
    library engines:    + per-op dispatch overhead

The comparison *shape* — who wins where, NCNN's Inception-v3 cliff, MNN's
cross-backend consistency — emerges from each engine's decision procedure,
not from transcribed numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..baselines.profiles import SIMD_LANES, EngineProfile
from ..core.cost import node_muls
from ..core.schemes import SchemeDecision, select_graph_schemes, winograd_plane_cost
from ..devices.specs import DeviceSpec
from ..ir.graph import Graph, Node
from ..ir.ops import Op

__all__ = ["OpLatency", "LatencyEstimate", "estimate_latency", "MEM_BANDWIDTH_CPU", "MEM_BANDWIDTH_GPU"]

#: Effective LPDDR4-class memory bandwidth available to the CPU (bytes/s).
MEM_BANDWIDTH_CPU = 12e9
#: Effective bandwidth for GPU-side elementwise work.
MEM_BANDWIDTH_GPU = 20e9

#: Ops that are memory-bound: cost is bytes moved, not multiplications.
_MEMORY_BOUND = {
    Op.BATCH_NORM, Op.RELU, Op.RELU6, Op.PRELU, Op.SIGMOID, Op.TANH,
    Op.SOFTMAX, Op.ADD, Op.SUB, Op.MUL, Op.ELTWISE_MAX, Op.CONCAT,
    Op.MAX_POOL, Op.AVG_POOL, Op.GLOBAL_AVG_POOL, Op.SCALE, Op.PAD,
    Op.RESIZE, Op.REDUCE_MEAN, Op.FLATTEN, Op.RESHAPE, Op.SLICE,
    Op.DROPOUT, Op.IDENTITY, Op.QUANTIZE, Op.DEQUANTIZE,
    Op.TRANSPOSE, Op.GATHER, Op.LAYER_NORM, Op.GELU, Op.SPLIT,
}
_COMPUTE_BOUND = {
    Op.CONV2D, Op.DEPTHWISE_CONV2D, Op.CONV_TRANSPOSE2D, Op.MATMUL,
    Op.FULLY_CONNECTED, Op.LSTM,
}
#: Fused-away by engines that fold BN/activations into the preceding conv.
_FUSABLE = {Op.BATCH_NORM, Op.RELU, Op.RELU6, Op.SCALE, Op.DROPOUT, Op.IDENTITY}


@dataclass(frozen=True)
class OpLatency:
    """Modeled latency of a single operator."""

    node: str
    op_type: str
    ms: float
    muls: float  # effective (weighted) multiply count under the chosen algorithm
    algorithm: str  # "direct" | "winograd n=X" | "strassen" | "fallback" | "memory" | "fused"


@dataclass
class LatencyEstimate:
    """Total modeled latency plus a per-op breakdown."""

    engine: str
    device: str
    mode: str  # "cpu2", "cpu4", "vulkan", ...
    total_ms: float
    per_op: List[OpLatency] = field(default_factory=list)

    def by_op_type(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for op in self.per_op:
            out[op.op_type] = out.get(op.op_type, 0.0) + op.ms
        return out

    def slowest(self, k: int = 5) -> List[OpLatency]:
        return sorted(self.per_op, key=lambda o: -o.ms)[:k]

    def fallback_share(self) -> float:
        """Fraction of time spent in un-optimized fallback kernels."""
        fb = sum(o.ms for o in self.per_op if o.algorithm == "fallback")
        return fb / self.total_ms if self.total_ms else 0.0


def _tensor_bytes(graph: Graph, names) -> int:
    total = 0
    for name in names:
        desc = graph.tensor_descs.get(name)
        if desc is not None and name not in graph.constants:
            total += desc.nbytes
    return total


def _conv_algorithm(
    node: Node, graph: Graph, profile: EngineProfile, schemes,
) -> Tuple[float, str, bool]:
    """(effective weighted MULs, algorithm label, is_optimized) for a Conv2D.

    All engines are costed with the *same* weighted metric
    (:func:`~repro.core.schemes.winograd_plane_cost` for Winograd paths),
    so an engine that blindly applies a fixed Winograd tile pays that
    metric's transform and small-map penalties, while MNN's searched
    scheme is by construction the metric's argmin.
    """
    kernel = tuple(node.attrs["kernel"])
    stride = tuple(node.attrs["stride"])
    dilation = tuple(node.attrs["dilation"])
    batch = graph.desc(node.outputs[0]).shape[0]
    optimized = profile.conv_is_optimized(kernel, stride, dilation)
    direct = node_muls(node, graph)

    if profile.scheme_search:
        decision = schemes[node.name]
        if decision.kind == "winograd":
            return batch * decision.cost, decision.label, True
        if decision.kind == "gemm1x1" and profile.uses_strassen:
            return node_muls(node, graph, "gemm1x1"), "strassen", True
        return direct, "direct", True

    if not optimized:
        return direct, "fallback", False

    # Manual/auto engines: hard-coded Winograd on plain 3x3 stride-1 convs.
    if (
        profile.winograd_fixed_n
        and kernel == (3, 3)
        and stride == (1, 1)
        and dilation == (1, 1)
        and int(node.attrs["groups"]) == 1
    ):
        fixed = SchemeDecision("winograd", (profile.winograd_fixed_n,) * 2)
        x = graph.desc(node.inputs[0])
        y = graph.desc(node.outputs[0])
        cost = winograd_plane_cost(fixed.tile, kernel, x.shape[1], y.shape[1], y.shape[2:])
        return batch * cost, fixed.label, True
    return direct, "direct", True


def estimate_latency(
    graph: Graph,
    profile: EngineProfile,
    device: DeviceSpec,
    backend: str = "cpu",
    threads: int = 4,
) -> LatencyEstimate:
    """Model one engine running one graph on one device.

    Args:
        backend: ``"cpu"`` or a GPU API name the engine supports.
        threads: CPU thread count (``"cpu"`` backend only).

    Raises:
        ValueError: if the engine does not support the device OS or the
            requested GPU API.
    """
    if not profile.supports_os(device.os):
        raise ValueError(f"{profile.name} does not ship on {device.os}")
    is_gpu = backend != "cpu"
    if is_gpu:
        if backend not in profile.gpu_efficiency:
            raise ValueError(f"{profile.name} has no {backend} backend")
        if not device.supports_api(backend):
            raise ValueError(f"{device.name} does not expose {backend}")
        gpu_peak = device.gpu_flops() * profile.gpu_efficiency[backend]
        t_schedule = device.t_schedule_ms(backend)
    else:
        cpu_peak_base = device.cpu_flops(threads) * SIMD_LANES * device.cpu_ipc

    schemes = select_graph_schemes(graph) if profile.scheme_search else {}

    per_op: List[OpLatency] = []
    for node in graph.toposort():
        if node.op_type in (Op.INPUT, Op.CONSTANT):
            continue
        if node.op_type in _FUSABLE and profile.fuses_elementwise:
            per_op.append(OpLatency(node.name, node.op_type, 0.0, 0, "fused"))
            continue

        if node.op_type in _COMPUTE_BOUND:
            if node.op_type == Op.CONV2D:
                muls, algorithm, optimized = _conv_algorithm(node, graph, profile, schemes)
            else:
                muls, algorithm, optimized = node_muls(node, graph), "direct", True
            if is_gpu:
                ms = muls / gpu_peak * 1000.0 + t_schedule
            else:
                if node.op_type == Op.DEPTHWISE_CONV2D:
                    eff = profile.depthwise_eff(device.os)
                elif optimized:
                    eff = profile.cpu_eff(device.os)
                else:
                    eff = profile.fallback_efficiency
                ms = muls / (cpu_peak_base * eff) * 1000.0
        else:
            bytes_touched = _tensor_bytes(graph, list(node.inputs) + list(node.outputs))
            muls, algorithm = 0, "memory"
            if is_gpu:
                ms = bytes_touched / MEM_BANDWIDTH_GPU * 1000.0 + t_schedule
            else:
                ms = bytes_touched / MEM_BANDWIDTH_CPU * 1000.0
        ms += profile.per_op_overhead_ms
        per_op.append(OpLatency(node.name, node.op_type, ms, muls, algorithm))

    mode = backend if is_gpu else f"cpu{threads}"
    total = sum(op.ms for op in per_op)
    return LatencyEstimate(profile.name, device.name, mode, total, per_op)
