"""repro.quant: the int8 quantized inference subsystem.

One package threading a second dtype through every layer of the engine
(grounded in MNN's quantized kernels sharing the fp packed-layout
substrate, and MNN-LLM's int8 weights + quantized KV cache):

* :mod:`repro.quant.convert` — converter-time per-channel symmetric int8
  weight quantization (:func:`quantize_graph`, with :func:`calibrate` for
  the activation scales conv/FC layers need) stamping scale metadata
  into node attrs, plus :func:`quantization_fingerprint`, the per-tensor
  dtype/scale digest the pre-inference cache keys on.
* :mod:`repro.quant.kv` — the deterministic KV-cache codec: per-row
  symmetric int8 quantize/dequantize used by the dequant-on-read
  quantized KV mode (``GenerationConfig(kv_dtype="int8")``).
* :mod:`repro.quant.accuracy` — the max-abs-error accuracy contract vs
  the fp kernels, asserted in tests and recorded in BENCH trajectories.

The int8 GEMM micro-kernels themselves live beside the fp kernels in
:mod:`repro.kernels.qgemm`; the Q0xx lint rules and the int8 slab-extent
memcheck live in :mod:`repro.analysis` — this package holds the
conversion, codec and contract pieces that tie them together.
"""

from .accuracy import max_abs_error
from .convert import (
    CalibrationResult,
    calibrate,
    quantization_fingerprint,
    quantize_graph,
    weight_bytes,
)
from .kv import (
    KV_DTYPES,
    dequantize_rows,
    kv_itemsize,
    quantize_rows,
)

__all__ = [
    "CalibrationResult",
    "KV_DTYPES",
    "calibrate",
    "dequantize_rows",
    "kv_itemsize",
    "max_abs_error",
    "quantization_fingerprint",
    "quantize_graph",
    "quantize_rows",
    "weight_bytes",
]
