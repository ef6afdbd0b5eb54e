"""Simulated device backends: real numerics, modeled time.

The paper's GPU results require Adreno/Mali/Apple GPUs and their graphics
APIs, none of which exist here.  Per DESIGN.md's substitution table these
backends compute *bit-identical* results with the shared NumPy kernels but
account execution time on a :class:`~repro.sim.clock.VirtualClock` using
the paper's own published cost model (Appendix C):

* compute:      MUL / FLOPS * 1000 ms  (Eq. 5),
* dispatch:     t_schedule per command submission (0.05 ms OpenCL/OpenGL,
                0.01 ms Vulkan),
* record:       t_setup per command-buffer build — paid once at
                pre-inference when preparation/execution decoupling is on,
                or on *every* inference when it is off (Table 2's GPU rows),
* allocation:   t_alloc per buffer acquire/release pair when memory is not
                pre-planned (Table 2's CPU rows).

t_setup (0.8 ms) and t_alloc (0.02 ms) are calibrated constants; DESIGN.md
documents them as substitutions.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set

import numpy as np

from ..core.cost import BackendCostModel
from ..devices.specs import DeviceSpec, GpuApi
from ..ir.graph import Graph, Node
from ..ir.ops import Op
from ..ir.tensor import TensorDesc
from ..sim.clock import VirtualClock
from .base import Backend, BackendError, Execution, StorageType
from .op_runners import OpRunner, build_runner

__all__ = [
    "SimulatedCPUBackend",
    "SimulatedGPUBackend",
    "GPU_OP_COVERAGE",
    "T_SETUP_MS",
    "T_ALLOC_MS",
]

#: Calibrated per-op command-buffer build cost (ms); see module docstring.
T_SETUP_MS = 0.8
#: Calibrated per-buffer allocate/free cost (ms) when memory is unplanned.
T_ALLOC_MS = 0.02

#: Per-API operator coverage, proportional to the paper's Table 4 counts
#: (MNN: CPU 94, Metal 55, OpenCL 33, Vulkan 35, OpenGL 15) scaled to this
#: reproduction's registry.  Unsupported ops fall back to the CPU during
#: hybrid scheduling, exactly as in the paper.
GPU_OP_COVERAGE = {
    GpuApi.METAL: {
        Op.CONV2D, Op.DEPTHWISE_CONV2D, Op.CONV_TRANSPOSE2D, Op.MATMUL,
        Op.FULLY_CONNECTED, Op.BATCH_NORM, Op.RELU, Op.RELU6, Op.PRELU,
        Op.SIGMOID, Op.TANH, Op.SOFTMAX, Op.MAX_POOL, Op.AVG_POOL,
        Op.GLOBAL_AVG_POOL, Op.ADD, Op.SUB, Op.MUL, Op.CONCAT, Op.RESHAPE,
        Op.FLATTEN, Op.SCALE,
    },
    GpuApi.OPENCL: {
        Op.CONV2D, Op.DEPTHWISE_CONV2D, Op.MATMUL, Op.FULLY_CONNECTED,
        Op.RELU, Op.RELU6, Op.SIGMOID, Op.SOFTMAX, Op.MAX_POOL, Op.AVG_POOL,
        Op.GLOBAL_AVG_POOL, Op.ADD, Op.CONCAT,
    },
    GpuApi.VULKAN: {
        Op.CONV2D, Op.DEPTHWISE_CONV2D, Op.MATMUL, Op.FULLY_CONNECTED,
        Op.BATCH_NORM, Op.RELU, Op.RELU6, Op.SIGMOID, Op.SOFTMAX,
        Op.MAX_POOL, Op.AVG_POOL, Op.GLOBAL_AVG_POOL, Op.ADD, Op.MUL,
        Op.CONCAT,
    },
    GpuApi.OPENGL: {
        Op.CONV2D, Op.DEPTHWISE_CONV2D, Op.MAX_POOL, Op.AVG_POOL,
        Op.RELU, Op.ADD,
    },
}


class _SimulatedExecution(Execution):
    """Runs the shared kernels and charges modeled time to the clock."""

    def __init__(self, backend: "_SimulatedBackend", node: Node, runner: OpRunner) -> None:
        super().__init__(backend, node)
        self.runner = runner
        self.command_recorded = False

    def prepare(self, graph: Graph) -> None:
        """Pre-record the command buffer (decoupled mode only)."""
        backend = self.backend
        if backend.decouple and backend.is_gpu:
            backend.prepare_cost_ms += backend.t_setup_ms
            self.command_recorded = True

    def run(self, inputs: Sequence[np.ndarray]) -> List[np.ndarray]:
        backend = self.backend
        cost = backend.cost_model.op_cost_ms(self.runner.muls, backend.cost_kind)
        if backend.is_gpu and not self.command_recorded:
            cost += backend.t_setup_ms  # rebuilt every inference
        backend.clock.advance(cost)
        return self.runner.fn(inputs)


class _SimulatedBackend(Backend):
    """Shared machinery of the simulated CPU and GPU backends."""

    is_gpu = False

    def __init__(
        self,
        device: DeviceSpec,
        clock: Optional[VirtualClock] = None,
        decouple: bool = True,
        use_strassen: bool = True,
    ) -> None:
        super().__init__()
        self.device = device
        self.clock = clock or VirtualClock()
        self.decouple = decouple
        self.use_strassen = use_strassen
        #: time charged during pre-inference (command recording, planning)
        self.prepare_cost_ms = 0.0
        self.t_setup_ms = T_SETUP_MS
        self.t_alloc_ms = T_ALLOC_MS

    def on_create(self, node: Node, graph: Graph, scheme=None) -> Execution:
        if not self.supports(node.op_type):
            raise BackendError(f"{self.forward_type}: unsupported op {node.op_type!r}")
        runner = build_runner(node, graph, scheme, self.use_strassen)
        return _SimulatedExecution(self, node, runner)

    # Unplanned allocation charges the clock (Table 2's "w/o" CPU rows).
    def on_acquire_buffer(self, desc: TensorDesc, storage: StorageType) -> bool:
        if not self.decouple and storage is not StorageType.STATIC:
            self.clock.advance(self.t_alloc_ms)
        return super().on_acquire_buffer(desc, storage)

    def on_release_buffer(self, desc: TensorDesc, storage: StorageType) -> bool:
        if not self.decouple and storage is not StorageType.STATIC:
            self.clock.advance(self.t_alloc_ms)
        return super().on_release_buffer(desc, storage)


class SimulatedCPUBackend(_SimulatedBackend):
    """A phone CPU modeled by its top-k core frequencies (Appendix C)."""

    forward_type = "sim_cpu"
    cost_kind = "cpu"

    def __init__(self, device: DeviceSpec, threads: int = 4, **kwargs) -> None:
        super().__init__(device, **kwargs)
        self.threads = threads
        self.cost_model = BackendCostModel(device, threads)

    def supports(self, op_type: str) -> bool:
        from ..ir.ops import all_op_types

        return op_type in set(all_op_types()) - {Op.INPUT, Op.CONSTANT}


class SimulatedGPUBackend(_SimulatedBackend):
    """A phone GPU behind one of the four graphics APIs.

    Unsupported ops (per :data:`GPU_OP_COVERAGE`) raise at ``on_create``;
    the session's hybrid scheduler routes them to a CPU backend instead.
    """

    is_gpu = True

    def __init__(self, device: DeviceSpec, api: str, **kwargs) -> None:
        if api not in GPU_OP_COVERAGE:
            raise ValueError(f"unknown GPU API {api!r}; expected one of {sorted(GPU_OP_COVERAGE)}")
        if not device.supports_api(api):
            raise BackendError(f"device {device.name} does not expose the {api} API")
        super().__init__(device, **kwargs)
        self.api = self.cost_kind = self.forward_type = api
        self.cost_model = BackendCostModel(device)
        self.t_schedule_ms = device.t_schedule_ms(api)

    def supports(self, op_type: str) -> bool:
        return op_type in GPU_OP_COVERAGE[self.api]

    def on_copy_buffer(self, src: np.ndarray, dst_backend: Backend) -> np.ndarray:
        # Host<->device transfer: modeled at 10 GB/s plus one dispatch.
        self.clock.advance(src.nbytes / 10e9 * 1000.0 + self.t_schedule_ms)
        return src
