"""repro — a pure-Python reproduction of MNN (MLSys 2020).

Public API tour::

    from repro import models, Session, SessionConfig
    graph = models.mobilenet_v1(input_size=224)
    session = Session(graph)                       # pre-inference happens here
    outputs = session.run({"data": image})         # pure compute

Subpackages:

* :mod:`repro.ir`         — tensors, operators, graphs, the .rmnn format
* :mod:`repro.converter`  — frontends, graph optimizer, pruning, fp16
* :mod:`repro.quant`      — int8 quantization, KV codec, accuracy contract
* :mod:`repro.kernels`    — Winograd / Strassen / im2col / NC4HW4 kernels
* :mod:`repro.core`       — pre-inference, cost model, memory planner, sessions
* :mod:`repro.runtime`    — the tracer/metrics/faults/sanitizer/requests bundle
* :mod:`repro.backends`   — the Backend abstraction + CPU & simulated GPUs
* :mod:`repro.devices`    — phone capability catalog (paper Appendix C)
* :mod:`repro.models`     — MobileNet/SqueezeNet/ResNet/Inception zoo
* :mod:`repro.baselines`  — NCNN/MACE/TF-Lite/CoreML/TVM-style engines
* :mod:`repro.sim`        — virtual clock + cross-device latency estimation
* :mod:`repro.bench`      — timing harness, tables, MLPerf-style loadgen
"""

from . import backends, baselines, bench, converter, core, devices, ir, kernels, models, sim
from .core import Session, SessionConfig
from .ir import Graph, GraphBuilder, load_model, save_model
from .runtime import Runtime

__version__ = "1.0.0"

__all__ = [
    "backends",
    "baselines",
    "bench",
    "converter",
    "core",
    "devices",
    "ir",
    "kernels",
    "models",
    "sim",
    "Session",
    "SessionConfig",
    "Runtime",
    "Graph",
    "GraphBuilder",
    "load_model",
    "save_model",
    "__version__",
]
