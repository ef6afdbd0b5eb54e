#!/usr/bin/env python3
"""Image classification with MobileNet-v1 — the paper's flagship workload.

Demonstrates what pre-inference buys on a real network: the per-layer
scheme decisions (sliding window / Winograd / Strassen-GEMM), the memory
arena, and stable repeated-inference latency.

Run:  python examples/image_classification.py
"""

import numpy as np

from repro import Session, SessionConfig
from repro.bench import time_callable
from repro.converter import optimize
from repro.models import mobilenet_v1


def synthetic_image(size=160, seed=0):
    """A deterministic fake RGB image, ImageNet-style normalized."""
    rng = np.random.default_rng(seed)
    image = rng.uniform(0, 255, (1, 3, size, size)).astype(np.float32)
    mean = np.array([123.7, 116.3, 103.5], np.float32).reshape(1, 3, 1, 1)
    return (image - mean) / 58.4


def main():
    size = 160  # mobile-typical resolution; use 224 for the paper's setting
    graph = optimize(mobilenet_v1(input_size=size))
    session = Session(graph, SessionConfig(backend="cpu", threads=4))

    print(f"MobileNet-v1 @ {size}x{size}: {len(graph.nodes)} ops after fusion")
    print(f"scheme mix: {session.scheme_summary()}")

    # Show the actual per-conv decisions for the first few layers.
    print("\nper-layer scheme decisions (first 6 convolutions):")
    shown = 0
    for node in graph.toposort():
        decision = session.schemes.get(node.name)
        if decision is None:
            continue
        desc = graph.desc(node.outputs[0])
        print(f"  {node.name:14s} k={node.attrs['kernel']} out={desc.shape}"
              f"  -> {decision.label}")
        shown += 1
        if shown == 6:
            break

    plan = session.memory_plan
    print(f"\nactivation arena: {plan.arena_bytes / 2**20:.1f} MiB "
          f"(naive: {plan.total_tensor_bytes / 2**20:.1f} MiB, "
          f"{plan.reuse_ratio:.1f}x reuse)")

    feed = {"data": synthetic_image(size)}
    probs = session.run(feed)[graph.outputs[0]]
    top5 = np.argsort(probs[0])[::-1][:5]
    print("\ntop-5 predictions (random weights, so arbitrary classes):")
    for rank, cls in enumerate(top5, 1):
        print(f"  {rank}. class {int(cls):4d}  p={float(probs[0, cls]):.4f}")

    timing = time_callable(lambda: session.run(feed), repeats=10, warmup=1)
    print(f"\nlatency over 10 runs: median {timing.median_ms:.1f} ms, "
          f"min {timing.min_ms:.1f} ms, std {timing.std_ms:.2f} ms")


if __name__ == "__main__":
    main()
