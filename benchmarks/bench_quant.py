"""Quantized inference — int8 decode throughput, KV-slab capacity at
equal arena bytes, and the weight-quantization accuracy headline.

Claims checked: an int8 KV cache holds >= 3x the tokens of fp32 in the
same arena (per-row scales included in the accounting), quantized decode
emits bit-identical tokens on seeded replay at more than half of fp32
throughput (the int8 GEMM runs exactly through BLAS on float-held
operands; every number in the table is measured wall-clock), and
per-channel weight quantization moves the tiny
decoder's logits by at most the accuracy contract's bound."""

from dataclasses import replace

import numpy as np
import pytest

from repro.bench import time_callable
from repro.genai import (
    GenerationConfig,
    GenerationEngine,
    KVCacheConfig,
    SamplingParams,
)
from repro.kernels import prepack_int8, qconv2d
from repro.models.text import tiny_decoder
from repro.quant import max_abs_error, quantize_graph

SEED = 404
VOCAB = 96
MAX_SEQ = 48
D_MODEL = 32
HEADS = 2
LAYERS = 2
MAX_TOKENS = 16
ERROR_BOUND = 0.15


def _config(**overrides):
    base = dict(
        vocab=VOCAB, max_seq=MAX_SEQ, d_model=D_MODEL, heads=HEADS,
        layers=LAYERS, seed=SEED, max_batch=4, page_tokens=8,
    )
    base.update(overrides)
    return GenerationConfig(**base)


def _prompts(n, seed=SEED):
    rng = np.random.default_rng(seed)
    return [[int(t) for t in rng.integers(0, VOCAB, size=int(ln))]
            for ln in rng.integers(4, 9, size=n)]


def _run(config, prompts):
    engine = GenerationEngine(config)
    try:
        params = SamplingParams(max_tokens=MAX_TOKENS)
        engine.generate(prompts[:1], params)  # warm the prepared buckets

        def serve():
            return engine.generate(prompts, params)

        timing = time_callable(serve, repeats=3)
        results = serve()
        tokens = sum(len(r.tokens) for r in results)
        return {
            "timing": timing,
            "tokens": [r.tokens for r in results],
            "tps": tokens / (timing.median_ms / 1000.0),
            "stats": engine.stats(),
        }
    finally:
        engine.close()


def _int8_conv_ms():
    """One int8 conv layer past the float32 exactness depth (float64 GEMM)."""
    rng = np.random.default_rng(SEED)
    x = rng.standard_normal((1, 128, 28, 28)).astype(np.float32)
    wq = prepack_int8(rng.integers(-127, 128, (128, 128, 3, 3)).astype(np.int8), 1152)
    scales = np.full(128, 0.01, np.float32)

    def conv():
        return qconv2d(x, wq, scales, 0.03, None, (1, 1), (1, 1, 1, 1))

    return time_callable(conv, repeats=5).median_ms


def test_quant_decode_throughput(report_table):
    """int8 KV (+ int8 weights) vs fp32 decode, identical request mix."""
    prompts = _prompts(6)
    fp = _run(_config(), prompts)
    q_kv = _run(_config(kv_dtype="int8"), prompts)
    q_full = _run(_config(kv_dtype="int8", quantize_weights=True), prompts)

    replayed = _run(_config(kv_dtype="int8", quantize_weights=True), prompts)
    assert q_full["tokens"] == replayed["tokens"], (
        "quantized decode must be seeded-replayable bit-for-bit"
    )

    rows = []
    for label, run in (("fp32", fp), ("int8 KV", q_kv),
                       ("int8 KV + int8 weights", q_full)):
        rows.append([
            label,
            round(run["timing"].median_ms, 2),
            round(run["tps"], 1),
            int(run["stats"]["kv_bytes_per_token"]),
            "measured",
        ])
    rows.append(["int8 conv 3x3 128->128 @28x28 (K=1152, ms per call)",
                 round(_int8_conv_ms(), 2), "-", "-", "measured"])
    ratio = q_full["tps"] / fp["tps"]
    report_table(
        "Quant — decode throughput, int8 vs fp32 (same request mix)",
        ["variant", "ms", "tokens/s", "KV B/token", "source"],
        rows,
        config={"model": f"tiny_decoder L{LAYERS} D{D_MODEL}",
                "requests": len(prompts), "max_tokens": MAX_TOKENS},
        timing=q_full["timing"],
        headline={"int8_over_fp32_tokens_per_sec": {
            "value": round(ratio, 3), "direction": "higher", "source": "measured"}},
    )
    assert q_full["tps"] > fp["tps"] / 2.0, f"int8/fp32 tokens/s = {ratio:.2f}"


def test_quant_kv_slab_capacity(report_table):
    """Tokens per arena byte: the >= 3x acceptance criterion, plus the
    utilization comparison at equal arena bytes."""
    rows = []
    ratios = {}
    for d_head in (8, 16):
        fp = KVCacheConfig(layers=LAYERS, heads=HEADS, d_head=d_head,
                           page_tokens=8, capacity_tokens=256, max_seq=MAX_SEQ)
        q = replace(fp, kv_dtype="int8")
        arena = fp.total_pages * fp.page_bytes
        fp_tokens = arena // fp.per_token_bytes
        q_tokens = arena // q.per_token_bytes
        ratios[d_head] = fp.per_token_bytes / q.per_token_bytes
        rows.append([
            f"d_head={d_head}",
            fp.per_token_bytes, q.per_token_bytes,
            int(fp_tokens), int(q_tokens),
            round(ratios[d_head], 2),
        ])
    report_table(
        "Quant — KV-slab capacity at equal arena bytes (per-row scales included)",
        ["geometry", "fp32 B/token", "int8 B/token",
         "fp32 tokens", "int8 tokens", "ratio"],
        rows,
        config={"layers": LAYERS, "heads": HEADS,
                "arena": "capacity_tokens=256 fp32 carve"},
    )
    assert all(r >= 3.0 for r in ratios.values()), ratios


def test_quant_accuracy_headline(report_table):
    """Max-abs-error of per-channel int8 weights on decoder logits."""
    graph = tiny_decoder(mode="full", seq_len=16, batch=1, vocab=VOCAB,
                         max_seq=16, d_model=D_MODEL, heads=HEADS,
                         layers=LAYERS, seed=7)
    quantized = quantize_graph(graph)
    rng = np.random.default_rng(0)
    feeds = {
        "tokens": rng.integers(0, VOCAB, size=(1, 16)).astype(np.int32),
        "positions": np.arange(16, dtype=np.int32).reshape(1, 16),
    }
    err = max_abs_error(graph, quantized, feeds, outputs=["logits"])

    fp_bytes = sum(c.nbytes for c in graph.constants.values())
    q_bytes = sum(c.nbytes for c in quantized.constants.values())
    report_table(
        "Quant — per-channel int8 weight accuracy (logits max-abs-error)",
        ["metric", "value"],
        [
            ["logits max-abs-error", round(float(err), 5)],
            ["contract bound", ERROR_BOUND],
            ["weight bytes fp32", fp_bytes],
            ["weight bytes int8", q_bytes],
            ["weight compression", round(fp_bytes / q_bytes, 2)],
        ],
        config={"model": f"tiny_decoder L{LAYERS} D{D_MODEL}",
                "seq_len": 16},
    )
    assert err <= ERROR_BOUND
