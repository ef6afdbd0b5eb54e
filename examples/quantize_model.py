#!/usr/bin/env python3
"""Post-training int8 quantization — the converter's model compressor.

Calibrates on synthetic data, quantizes conv/FC weights to per-channel
int8 with the same converter ``cli quantize`` runs, and compares model
size, output drift and top-1 agreement against float.

Run:  python examples/quantize_model.py
"""

import numpy as np

from repro import Session
from repro.converter import optimize
from repro.core.reference import execute_reference
from repro.models import mobilenet_v1
from repro.quant import quantize_graph, weight_bytes


def main():
    rng = np.random.default_rng(5)
    size = 96
    graph = optimize(mobilenet_v1(input_size=size, width=0.5))
    print(f"float model: {len(graph.nodes)} ops, "
          f"{weight_bytes(graph) / 2**20:.2f} MiB of weights")

    calibration = [
        {"data": rng.standard_normal((1, 3, size, size)).astype(np.float32)}
        for _ in range(8)
    ]
    quantized = quantize_graph(graph, calibration)
    print(f"int8 model: {weight_bytes(quantized) / 2**20:.2f} MiB of weights "
          f"({weight_bytes(graph) / weight_bytes(quantized):.2f}x smaller)")

    n_int8 = sum(1 for v in quantized.constants.values() if v.dtype == np.int8)
    print(f"{n_int8} weight tensors quantized to int8 (per-output-channel scales)")

    # accuracy drift on held-out inputs
    agree, drifts = 0, []
    trials = 20
    for _ in range(trials):
        feed = {"data": rng.standard_normal((1, 3, size, size)).astype(np.float32)}
        p_float = execute_reference(graph, feed)[graph.outputs[0]]
        p_int8 = execute_reference(quantized, feed)[quantized.outputs[0]]
        drifts.append(float(np.abs(p_float - p_int8).max()))
        agree += int(p_float.argmax() == p_int8.argmax())
    print(f"top-1 agreement with float: {agree}/{trials}")
    print(f"max softmax drift: {max(drifts):.4f} (mean {np.mean(drifts):.4f})")

    # the quantized model runs through the normal engine unchanged
    session = Session(quantized)
    out = session.run(calibration[0])[quantized.outputs[0]]
    print(f"quantized session inference OK: output sums to {out.sum():.4f}")


if __name__ == "__main__":
    main()
