"""Command-line tools (the paper's future work item 3: "more tools for
user convenience").

Usage::

    python -m repro.tools.cli info model.rmnn
    python -m repro.tools.cli lint model.rmnn [--strict]
    python -m repro.tools.cli build mobilenet_v1 -o model.rmnn --input-size 224
    python -m repro.tools.cli optimize model.rmnn -o optimized.rmnn [--verify]
    python -m repro.tools.cli quantize model.rmnn -o int8.rmnn
    python -m repro.tools.cli prune model.rmnn -o pruned.rmnn --sparsity 0.6
    python -m repro.tools.cli fp16 model.rmnn -o half.rmnn
    python -m repro.tools.cli benchmark model.rmnn --threads 4 --repeats 10
    python -m repro.tools.cli trace model.rmnn -o trace.json [--runs 3]
    python -m repro.tools.cli metrics [model.rmnn] [--runs 10] [--prom] [--selftest]
    python -m repro.tools.cli warm model.rmnn [--cache-dir DIR]
    python -m repro.tools.cli serve model.rmnn --requests 64 --clients 4 [--selftest]
    python -m repro.tools.cli cluster [model.rmnn] --workers 2 --requests 32 [--selftest]
    python -m repro.tools.cli estimate model.rmnn --device Mate20 --engine MNN
    python -m repro.tools.cli devices
    python -m repro.tools.cli schemes model.rmnn
    python -m repro.tools.cli chaos [model.rmnn] --seed 0 --faults 200 [--sanitize]
    python -m repro.tools.cli sanitize [--strict]
    python -m repro.tools.cli regress BENCH_decode.json [--threshold 0.5]

Every command returns 0 on success and prints human-readable output; the
module-level :func:`main` takes an argv list for testability.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np


def _load(path: str):
    from ..ir import load_model

    return load_model(path)


def _random_feeds(graph, seed: int = 0):
    rng = np.random.default_rng(seed)
    feeds = {}
    for name in graph.inputs:
        desc = graph.desc(name)
        if np.issubdtype(desc.dtype.np_dtype, np.integer):
            feeds[name] = rng.integers(0, 100, desc.shape).astype(desc.dtype.np_dtype)
        else:
            feeds[name] = rng.standard_normal(desc.shape).astype(desc.dtype.np_dtype)
    return feeds


def cmd_info(args) -> int:
    from ..quant import weight_bytes
    from ..core import node_muls

    graph = _load(args.model)
    muls = sum(node_muls(node, graph) for node in graph.nodes)
    print(f"model:     {graph.name}")
    print(f"inputs:    "
          + ", ".join(f"{n}{graph.desc(n).shape}:{graph.desc(n).dtype.value}"
                      for n in graph.inputs))
    print(f"outputs:   " + ", ".join(f"{n}{graph.desc(n).shape}" for n in graph.outputs))
    print(f"operators: {len(graph.nodes)}")
    for op, count in sorted(graph.op_histogram().items(), key=lambda kv: -kv[1]):
        print(f"  {op:20s} {count}")
    print(f"weights:   {len(graph.constants)} tensors, "
          f"{weight_bytes(graph) / 2**20:.2f} MiB")
    print(f"compute:   {muls / 1e6:.1f} M multiplications per inference")
    return 0


def cmd_lint(args) -> int:
    from ..analysis import (
        Severity,
        check_memory_plan,
        format_diagnostics,
        lint_graph,
        summarize,
    )
    from ..core import plan_memory
    from ..ir.graph import GraphError

    graph = _load(args.model)
    diags = list(lint_graph(graph))
    structural_errors = any(d.severity is Severity.ERROR for d in diags)
    if not structural_errors and not args.no_memcheck:
        # Only sanitize the memory plan once the graph itself is sound —
        # planning a structurally broken graph would just crash.
        try:
            report = check_memory_plan(graph, plan_memory(graph))
            diags.extend(report.diagnostics)
            print(f"memcheck: {report.summary()}")
        except GraphError as exc:
            from ..analysis.diagnostics import error

            diags.extend(exc.diagnostics or [error("memcheck-failed", str(exc))])
    if diags:
        print(format_diagnostics(diags))
    failing = [
        d for d in diags
        if d.severity is Severity.ERROR or (args.strict and d.severity is Severity.WARNING)
    ]
    print(f"lint: {summarize(diags)}"
          + (" (strict)" if args.strict else ""))
    return 1 if failing else 0


def cmd_build(args) -> int:
    from ..ir import save_model
    from ..models import MODEL_REGISTRY, build_model

    if args.model_name not in MODEL_REGISTRY:
        print(f"unknown model {args.model_name!r}; available: "
              f"{', '.join(sorted(MODEL_REGISTRY))}", file=sys.stderr)
        return 1
    kwargs = {"seed": args.seed}
    if args.model_name not in ("tiny_transformer", "tiny_decoder", "lstm_classifier"):
        kwargs["input_size"] = args.input_size
    graph = build_model(args.model_name, **kwargs)
    save_model(graph, args.output)
    print(f"wrote {args.output}: {len(graph.nodes)} ops")
    return 0


def cmd_optimize(args) -> int:
    from ..converter import optimize
    from ..ir import save_model

    graph = _load(args.model)
    before = len(graph.nodes)
    optimize(graph, verify=args.verify)
    save_model(graph, args.output)
    verified = " (every pass verified)" if args.verify else ""
    print(f"optimized {before} -> {len(graph.nodes)} ops{verified}; wrote {args.output}")
    return 0


def cmd_quantize(args) -> int:
    from ..ir import save_model
    from ..quant import quantize_graph, weight_bytes

    if args.selftest:
        return _quantize_selftest()
    if not args.model or not args.output:
        print("quantize: MODEL and -o/--output are required without --selftest")
        return 2
    graph = _load(args.model)
    feeds = [_random_feeds(graph, seed) for seed in range(args.calibration_batches)]
    quantized = quantize_graph(graph, feeds)
    save_model(quantized, args.output)
    print(f"quantized: {weight_bytes(graph) / 2**20:.2f} MiB -> "
          f"{weight_bytes(quantized) / 2**20:.2f} MiB; wrote {args.output}")
    return 0


def _quantize_selftest() -> int:
    """The int8 stack's four contracts, checked end to end.

    1. Exactness: the BLAS-backed integer GEMM equals an int64 reference
       on worst-case operands on both sides of the float32/float64
       switch (K = 1040 and 1041).
    2. Accuracy: quantizing the tiny decoder's MatMul weights moves its
       logits by at most a small bound (and the quantized graph is
       Q-rule clean).
    3. Determinism: two same-seed generations over int8 weights *and*
       an int8 KV cache emit bit-identical token streams.
    4. Capacity: the int8 KV layout holds at least 3x the tokens of the
       fp32 layout in the same arena bytes.

    Also prints (never asserts) the in-process int8/fp32 decode
    tokens/s ratio, labelled as measured.
    """
    import time
    from dataclasses import replace as _replace

    from ..analysis import lint_graph
    from ..genai import GenerationConfig, GenerationEngine, SamplingParams
    from ..kernels import exact_int_gemm
    from ..models.text import tiny_decoder
    from ..quant import max_abs_error, quantize_graph

    failures = 0
    bound = 0.15

    for k in (1040, 1041):
        a = np.full((2, k), 127, np.int8)
        a[1, ::2] = -127
        b = np.full((k, 2), 127, np.int8)
        got = exact_int_gemm(a, b)
        ok = np.array_equal(got, a.astype(np.int64) @ b.astype(np.int64))
        print(f"[{'ok' if ok else 'FAIL'}] exact_int_gemm == int64 reference at "
              f"K={k} ({got.dtype}, worst-case sum {k * 127 * 127})")
        failures += 0 if ok else 1

    graph = tiny_decoder(mode="full", seq_len=16, batch=1, vocab=64,
                         max_seq=16, d_model=32, heads=2, layers=2, seed=7)
    quantized = quantize_graph(graph)
    q_diags = [d for d in lint_graph(quantized) if d.rule.startswith("Q")]
    ok = not q_diags
    print(f"[{'ok' if ok else 'FAIL'}] quantized graph passes Q-rule lint "
          f"({len(q_diags)} findings)")
    failures += 0 if ok else 1

    rng = np.random.default_rng(0)
    feeds = {
        "tokens": rng.integers(0, 64, size=(1, 16)).astype(np.int32),
        "positions": np.arange(16, dtype=np.int32).reshape(1, 16),
    }
    err = max_abs_error(graph, quantized, feeds, outputs=["logits"])
    ok = err <= bound
    print(f"[{'ok' if ok else 'FAIL'}] logits max-abs-error {err:.4f} "
          f"<= {bound} (per-channel int8 weights, exact integer GEMM)")
    failures += 0 if ok else 1

    def _generate(**quant):
        engine = GenerationEngine(GenerationConfig(
            vocab=64, max_seq=24, d_model=16, heads=2, layers=1, seed=11,
            max_batch=2, page_tokens=4, capacity_tokens=64, **quant,
        ))
        try:
            gen = np.random.default_rng(11)
            prompts = [
                [int(t) for t in gen.integers(0, 64, size=int(n))]
                for n in gen.integers(2, 7, size=4)
            ]
            params = SamplingParams(max_tokens=8)
            results = engine.generate(prompts, params)
            start = time.perf_counter()     # second pass: every cell is prepared
            timed = engine.generate(prompts, params)
            tps = sum(len(r.tokens) for r in timed) / (time.perf_counter() - start)
            return [r.tokens for r in results], engine.kv_config, tps
        finally:
            engine.close()

    int8 = dict(kv_dtype="int8", quantize_weights=True)
    tokens_a, kv_config, tps_int8 = _generate(**int8)
    tokens_b, _, _ = _generate(**int8)
    ok = tokens_a == tokens_b
    print(f"[{'ok' if ok else 'FAIL'}] seeded replay of quantized decode is "
          f"bit-identical ({sum(len(t) for t in tokens_a)} tokens)")
    failures += 0 if ok else 1
    tps_fp32 = _generate()[2]
    print(f"[info] int8/fp32 decode tokens/s = {tps_int8 / tps_fp32:.2f} "
          f"({tps_int8:.0f} / {tps_fp32:.0f}, measured in-process)")

    fp_config = _replace(kv_config, kv_dtype="float32")
    ratio = fp_config.per_token_bytes / kv_config.per_token_bytes
    ok = ratio >= 3.0
    print(f"[{'ok' if ok else 'FAIL'}] int8 KV fits {ratio:.2f}x the tokens "
          f"per arena byte ({fp_config.per_token_bytes} -> "
          f"{kv_config.per_token_bytes} B/token; need >= 3x)")
    failures += 0 if ok else 1

    print("quantize selftest:", "ok" if failures == 0 else f"{failures} FAILED")
    return 0 if failures == 0 else 1


def cmd_prune(args) -> int:
    from ..converter import prune_model
    from ..ir import save_model

    graph = _load(args.model)
    pruned, report = prune_model(graph, args.sparsity)
    save_model(pruned, args.output)
    print(f"pruned to {report.achieved_sparsity * 100:.1f}% sparsity "
          f"(target {report.target_sparsity * 100:.0f}%); "
          f"sparse storage {report.compression:.2f}x denser-than-dense is "
          f"{'worth it' if report.compression > 1 else 'not worth it yet'}; "
          f"wrote {args.output}")
    return 0


def cmd_fp16(args) -> int:
    from ..converter import convert_to_fp16, fp16_savings
    from ..ir import save_model

    graph = _load(args.model)
    converted = convert_to_fp16(graph)
    before, after = fp16_savings(graph, converted)
    save_model(converted, args.output)
    print(f"fp16 weights: {before / 2**20:.2f} MiB -> {after / 2**20:.2f} MiB; "
          f"wrote {args.output}")
    return 0


def cmd_benchmark(args) -> int:
    from ..bench import time_callable
    from ..core import Session, SessionConfig

    graph = _load(args.model)
    session = Session(graph, SessionConfig(threads=args.threads))
    feeds = _random_feeds(graph)
    timing = time_callable(lambda: session.run(feeds), repeats=args.repeats)
    print(f"schemes: {session.scheme_summary()}")
    plan = session.memory_plan
    print(f"memory:  arena {plan.arena_bytes / 2**20:.1f} MiB "
          f"({plan.reuse_ratio:.1f}x reuse, peak {plan.peak_bytes / 2**20:.1f} MiB, "
          f"{plan.utilization() * 100:.0f}% utilized at worst step)")
    print(f"latency: median {timing.median_ms:.1f} ms, min {timing.min_ms:.1f} ms "
          f"over {args.repeats} runs ({args.threads} threads)")
    if args.profile:
        _, profile = session.run_profiled(feeds)
        profile.sort(key=lambda p: -p.wall_ms)
        print("slowest operators:")
        for p in profile[:args.profile]:
            print(f"  {p.node:24s} {p.op_type:16s} {p.wall_ms:7.2f} ms")
        by_type = {}
        for p in profile:
            by_type[p.op_type] = by_type.get(p.op_type, 0.0) + p.wall_ms
        total = sum(by_type.values()) or 1.0
        print("time by operator type:")
        for op_type, ms in sorted(by_type.items(), key=lambda kv: -kv[1]):
            print(f"  {op_type:24s} {ms:7.2f} ms {ms / total:6.1%}")
    return 0


def cmd_trace(args) -> int:
    """Record a Chrome trace of pre-inference + execution."""
    from ..core import Session, SessionConfig
    from ..obs import Tracer, save_chrome_trace, top_ops_report, waterfall_report
    from ..runtime import Runtime

    graph = _load(args.model)
    tracer = Tracer()
    runtime = Runtime.resolve(trace=tracer)
    feeds = _random_feeds(graph)
    # Pre-inference stage spans, then per-op spans on one lane.
    session = Session(graph, SessionConfig(threads=args.threads), runtime=runtime)
    for _ in range(args.runs):
        session.run(feeds)
    save_chrome_trace(tracer, args.output)
    lanes = len({s.tid for s in tracer.spans})
    print(f"wrote {args.output}: {len(tracer.spans)} spans on {lanes} thread lanes "
          f"(load in Perfetto or chrome://tracing)")
    print(top_ops_report(tracer, k=args.top))
    if args.waterfall:
        print(waterfall_report(tracer, min_dur_ms=args.waterfall_min_ms))
    return 0


#: Prometheus families the no-model metrics selftest must export — the
#: request-tracking generation workload populates every one of them.
_PROM_SELFTEST_FAMILIES = (
    "repro_slo_requests_total",
    "repro_slo_queue_wait_ms",
    "repro_slo_ttft_ms",
    "repro_slo_tpot_ms",
    "repro_slo_tokens_per_sec",
    "repro_res_kv_page_utilization",
)


def cmd_metrics(args) -> int:
    """Run a workload and print/export the metrics registry snapshot.

    With a model: N plain session runs.  Without one: a tiny
    request-tracked generation workload, so the SLO histograms
    (queue-wait/TTFT/TPOT/tokens-per-sec) and resource gauges populate —
    this is the ``check.sh`` Prometheus selftest path.  ``--prom``
    exports the registry in Prometheus text exposition format;
    ``--selftest`` re-parses that export through the validating parser
    and (on the generation workload) requires the SLO families.
    """
    import json as _json

    from ..obs import MetricsRegistry, set_metrics

    registry = MetricsRegistry()
    previous = set_metrics(registry)
    try:
        if args.model:
            from ..core import Session, SessionConfig
            from ..runtime import Runtime

            graph = _load(args.model)
            session = Session(
                graph, SessionConfig(threads=args.threads),
                runtime=Runtime.resolve(sanitize=args.sanitize),
            )
            feeds = _random_feeds(graph)
            for _ in range(args.runs):
                session.run(feeds)
            if args.sanitize:
                # Flush lock-cycle detection so sanitize.* counters are final.
                session.sanitizer.report()
            workload = f"{args.runs} runs of {graph.name}"
        else:
            from ..genai import GenerationConfig, GenerationEngine, SamplingParams

            engine = GenerationEngine(GenerationConfig(
                vocab=64, max_seq=24, d_model=16, heads=2, layers=1,
                max_batch=2, page_tokens=4, metrics=registry,
                requests=True, sanitize=args.sanitize,
            ))
            rng = np.random.default_rng(0)
            prompts = [
                [int(t) for t in rng.integers(0, 64, size=4)] for _ in range(4)
            ]
            try:
                engine.generate(prompts, SamplingParams(max_tokens=6))
            finally:
                engine.close()
            workload = f"{len(prompts)}-request tracked generation"
    finally:
        set_metrics(previous)
    print(f"metrics after {workload}:")
    print(registry.describe())
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            _json.dump(registry.snapshot(), fh, indent=2, sort_keys=True)
        print(f"wrote {args.output}")
    if args.prom or args.selftest:
        from ..obs import parse_prometheus, to_prometheus

        text = to_prometheus(registry)
        if args.prom:
            print(text, end="")
        if args.selftest:
            try:
                families = parse_prometheus(text)
            except ValueError as exc:
                print(f"prom selftest FAILED: {exc}", file=sys.stderr)
                return 1
            missing = (
                [f for f in _PROM_SELFTEST_FAMILIES if f not in families]
                if not args.model else []
            )
            if missing:
                print(f"prom selftest FAILED: missing SLO families "
                      f"{', '.join(missing)}", file=sys.stderr)
                return 1
            print(f"prom selftest: ok — {len(families)} families parsed"
                  + ("" if args.model else ", SLO histograms present"))
    return 0


def cmd_warm(args) -> int:
    """Populate the pre-inference cache for a model (cold once, warm after)."""
    import time as _time

    from ..core import Session, SessionConfig
    from ..kernels.winograd import clear_transform_cache
    from ..serving import Engine, EngineConfig

    graph = _load(args.model)
    config = EngineConfig(
        session=SessionConfig(threads=args.threads),
        pool_size=1,
        cache_dir=args.cache_dir,
    )
    engine = Engine(graph, config)
    cache = engine.cache
    print(f"cache dir: {cache.root}")
    print(f"cache key: {engine.cache_key}")
    if engine.metrics.value("engine.cache.misses"):
        cold = engine.metrics.histogram("engine.prepare.cold_ms").values[0]
        print(f"cold prepare: {cold:.1f} ms (entry written)")
        # Verify the warm path immediately, from a cleared transform cache.
        clear_transform_cache()
        artifacts = cache.load(engine.cache_key)
        start = _time.perf_counter()
        Session(graph, config.session, artifacts=artifacts)
        warm = (_time.perf_counter() - start) * 1000.0
        print(f"warm prepare: {warm:.1f} ms ({cold / max(warm, 1e-9):.1f}x faster)")
    else:
        warm = engine.metrics.histogram("engine.prepare.warm_ms").values[0]
        print(f"already warm: prepare {warm:.1f} ms (cache hit)")
    return 0


def cmd_serve(args) -> int:
    """Drive concurrent traffic through a pooled engine and report stats."""
    import time as _time

    from ..core import Session, SessionConfig
    from ..serving import Engine, EngineConfig

    graph = _load(args.model)
    tracer = None
    if args.trace:
        from ..obs import Tracer

        tracer = Tracer()
    config = EngineConfig(
        session=SessionConfig(threads=args.threads),
        pool_size=args.pool,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        batching=args.batch > 0,
        max_batch=max(args.batch, 1),
        batch_timeout_ms=args.batch_timeout_ms,
        trace=tracer,
    )
    requests = [_random_feeds(graph, seed) for seed in range(args.requests)]
    with Engine(graph, config) as engine:
        start = _time.perf_counter()
        outputs = engine.infer_many(requests, clients=args.clients)
        elapsed = _time.perf_counter() - start
        throughput = len(requests) / elapsed if elapsed else float("inf")
        if engine.pool is not None:
            print(f"pool:       {engine.pool.size} sessions, {args.clients} clients")
        else:
            print(f"batcher:    max batch {config.max_batch}, "
                  f"{config.batch_timeout_ms:g} ms window, {args.clients} clients")
        m = engine.metrics
        hits = int(m.value("engine.cache.hits"))
        misses = int(m.value("engine.cache.misses"))
        rate = hits / (hits + misses) if hits + misses else 0.0
        print(f"cache:      cache {hits} hits / {misses} misses "
              f"({rate * 100:.0f}% hit rate); prepare cold "
              f"{m.histogram('engine.prepare.cold_ms').mean:.1f} ms / warm "
              f"{m.histogram('engine.prepare.warm_ms').mean:.1f} ms; "
              f"{int(m.value('engine.requests'))} requests served")
        if engine.batcher is not None:
            bs = engine.batcher.stats
            print(f"batching:   {bs.requests} requests in {bs.batches} batches "
                  f"(mean {bs.mean_batch_size():.1f}/batch, "
                  f"max {bs.max_batch_seen}, {bs.resizes} resizes)")
        print(f"throughput: {len(requests)} requests in {elapsed * 1000:.0f} ms "
              f"= {throughput:.1f} req/s")

        if args.selftest:
            gold = Session(graph, SessionConfig(threads=args.threads))
            for feeds, got in zip(requests, outputs):
                want = gold.run(feeds)
                for name in want:
                    ok = (
                        np.array_equal(want[name], got[name])
                        if args.batch <= 0
                        else np.allclose(want[name], got[name], atol=1e-5)
                    )
                    if not ok:
                        print(f"selftest FAILED: output {name!r} diverges "
                              f"from serial execution", file=sys.stderr)
                        return 1
            mode = "allclose (batched)" if args.batch > 0 else "bit-identical"
            print(f"selftest:   ok — {len(requests)} concurrent results "
                  f"{mode} vs serial")
            print("metrics:")
            print(engine.metrics.describe())
    if tracer is not None:
        from ..obs import save_chrome_trace

        save_chrome_trace(tracer, args.trace)
        lanes = len({s.tid for s in tracer.spans})
        print(f"trace:      wrote {args.trace} "
              f"({len(tracer.spans)} spans, {lanes} lanes)")
    return 0


def cmd_cluster(args) -> int:
    """Multi-process router/worker tier: load drive, or crash-recovery
    selftest (spawn workers, SIGKILL one mid-session, assert supervised
    replacement and bit-identical post-recovery serving)."""
    import time as _time

    from ..bench import run_closed_loop
    from ..cluster import Backpressure, Cluster, ClusterConfig, Overloaded
    from ..obs import MetricsRegistry, to_prometheus

    if args.model:
        graph = _load(args.model)
    else:
        from ..faults.chaos import default_chaos_graph

        graph = default_chaos_graph()
    feeds = _random_feeds(graph)
    metrics = MetricsRegistry()
    cluster = Cluster(graph, ClusterConfig(
        workers=args.workers,
        max_queue_depth=args.queue_depth,
        device_dwell_ms=args.dwell_ms,
        metrics=metrics,
    ))
    try:
        print(f"cluster:  {args.workers} supervised workers, "
              f"queue bound {args.queue_depth}, "
              f"dwell {args.dwell_ms:.1f} ms")
        gold = cluster.infer(feeds)
        if args.selftest:
            health = cluster.health()
            if not all(h["up"] for h in health.values()):
                print("selftest: FAILED — not all workers came up")
                return 1
            print(f"selftest: all {args.workers} workers up, "
                  f"gold response recorded")
            pid = cluster.supervisor.kill(0)
            print(f"selftest: SIGKILLed worker 0 (pid {pid})")
            deadline = _time.monotonic() + 60.0
            while _time.monotonic() < deadline:
                if (cluster.supervisor.restarts(0) >= 1
                        and cluster.supervisor.is_up(0)):
                    break
                _time.sleep(0.02)
            else:
                print("selftest: FAILED — supervisor never replaced worker 0")
                return 1
            print(f"selftest: supervisor replaced worker 0 "
                  f"(restarts={cluster.supervisor.restarts(0)})")
            out = cluster.infer(feeds, session_key="selftest")
            identical = set(out) == set(gold) and all(
                np.array_equal(out[k], gold[k]) for k in out
            )
            health = cluster.health()
            if not identical:
                print("selftest: FAILED — post-recovery output diverged")
                return 1
            if not all(h["up"] for h in health.values()):
                print("selftest: FAILED — a worker is down after recovery")
                return 1
            print("selftest: post-recovery response bit-identical; health: "
                  + ", ".join(
                      f"w{s}(up={h['up']}, restarts={h['restarts']})"
                      for s, h in sorted(health.items())
                  ))
            print("selftest: OK")
            return 0
        rep = run_closed_loop(
            lambda c, i: cluster.infer(feeds),
            clients=args.clients,
            queries_per_client=max(1, args.requests // max(1, args.clients)),
            shed_errors=(Backpressure, Overloaded),
        )
        for label, value in rep.rows():
            print(f"  {label:32s} {value}")
        for slot, h in sorted(cluster.health().items()):
            print(f"  worker {slot}: up={h['up']} depth={h['queue_depth']} "
                  f"restarts={h['restarts']}")
        if args.prom:
            print(to_prometheus(metrics))
        return 0
    finally:
        cluster.close()


def cmd_estimate(args) -> int:
    from ..baselines import ENGINES
    from ..devices import DEVICES, get_device
    from ..sim import estimate_latency

    graph = _load(args.model)
    if args.device not in DEVICES:
        print(f"unknown device {args.device!r}; see `devices` command", file=sys.stderr)
        return 1
    if args.engine not in ENGINES:
        print(f"unknown engine {args.engine!r}; known: {', '.join(sorted(ENGINES))}",
              file=sys.stderr)
        return 1
    device = get_device(args.device)
    est = estimate_latency(graph, ENGINES[args.engine], device,
                           args.backend, args.threads)
    print(f"{args.engine} on {args.device} ({est.mode}): {est.total_ms:.1f} ms modeled")
    for op in est.slowest(5):
        print(f"  {op.node:24s} {op.op_type:16s} {op.ms:7.2f} ms ({op.algorithm})")
    return 0


def cmd_devices(args) -> int:
    from ..devices import DEVICES

    for name, spec in sorted(DEVICES.items()):
        freqs = "x".join(f"{f:g}" for f in sorted(set(spec.cpu_core_ghz), reverse=True))
        print(f"{name:10s} {spec.soc:16s} CPU {freqs} GHz  GPU {spec.gpu} "
              f"({spec.gpu_flops() / 1e9:.1f} GFLOPS)  [{spec.os}]")
    return 0


def cmd_autotune(args) -> int:
    from ..core import autotune_schemes

    graph = _load(args.model)
    report = autotune_schemes(graph, repeats=args.repeats)
    print(f"auto-tuned {len(report.decisions)} convolutions "
          f"in {report.tuning_ms:.0f} ms; cost-model agreement "
          f"{report.agreement_with_model() * 100:.0f}%")
    for name, decision in report.decisions.items():
        model = report.model_decisions[name]
        marker = "" if (decision.kind, decision.winograd_n) == (
            model.kind, model.winograd_n) else "   <- differs from cost model"
        extra = f" n={decision.winograd_n}" if decision.kind == "winograd" else ""
        print(f"  {name:24s} -> {decision.kind}{extra} "
              f"({decision.cost:.2f} ms){marker}")
    return 0


def cmd_dot(args) -> int:
    from ..core import select_graph_schemes
    from .visualize import to_dot

    graph = _load(args.model)
    schemes = select_graph_schemes(graph) if args.schemes else None
    text = to_dot(graph, schemes)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"wrote {args.output} ({text.count(chr(10)) + 1} lines)")
    else:
        print(text)
    return 0


def cmd_chaos(args) -> int:
    """Run the seeded fault-injection self-test storm (see repro.faults.chaos)."""
    from ..faults.chaos import run_chaos_storm

    graph = _load(args.model) if args.model else None
    report = run_chaos_storm(
        graph=graph, seed=args.seed, target_faults=args.faults,
        sanitize=args.sanitize, postmortem_dir=args.postmortem_dir,
        kv_dtype=args.kv_dtype,
    )
    print(report.describe())
    if args.events:
        print("injection sequence:")
        for i, (site, kind) in enumerate(report.events):
            print(f"  {i:4d} {site}:{kind}")
    return 0 if report.ok else 1


def cmd_sanitize(args) -> int:
    """Static concurrency lint (C0xx) over the source tree.  The dynamic
    half is ``chaos --sanitize``: the fault storm with the race /
    lock-order / lifecycle detectors live."""
    from pathlib import Path

    from ..analysis import (
        C_RULES,
        Severity,
        format_diagnostics,
        lint_source_tree,
        summarize,
    )

    root = Path(args.root) if args.root else Path(__file__).resolve().parents[1]
    diags = lint_source_tree(root)
    print(f"static lint over {root}: {len(C_RULES)} rules (C001..C005)")
    if diags:
        print(format_diagnostics(diags))
    print(f"static: {summarize(diags)}")
    failing = [
        d for d in diags
        if d.severity is Severity.ERROR
        or (args.strict and d.severity is Severity.WARNING)
    ]
    return 1 if failing else 0


def cmd_generate(args) -> int:
    """Continuous-batching generation demo over the tiny decoder."""
    import time as _time

    from ..genai import GenerationConfig, GenerationEngine, SamplingParams

    tracer = None
    if args.trace:
        from ..obs import Tracer

        tracer = Tracer()
    config = GenerationConfig(
        max_seq=args.max_seq, d_model=args.d_model, heads=args.heads,
        layers=args.layers, seed=args.seed, max_batch=args.batch,
        page_tokens=args.page_tokens, trace=tracer,
        prefix_cache=args.prefix_cache,
    )
    engine = GenerationEngine(config)
    rng = np.random.default_rng(args.seed)
    shared = (
        [int(t) for t in rng.integers(0, config.vocab, size=args.shared_prefix)]
        if args.shared_prefix > 0 else []
    )
    prompts = [
        shared + [int(t) for t in rng.integers(0, config.vocab, size=int(n))]
        for n in rng.integers(2, max(3, args.max_seq // 4), size=args.prompts)
    ]
    params = SamplingParams(
        max_tokens=args.max_tokens, temperature=args.temperature,
        top_k=args.top_k, seed=args.seed,
    )
    start = _time.perf_counter()
    results = engine.generate(prompts, params)
    elapsed = _time.perf_counter() - start
    generated = sum(len(r.tokens) for r in results)
    for r in results:
        shown = " ".join(str(t) for t in r.tokens[:12])
        more = "..." if len(r.tokens) > 12 else ""
        print(f"{r.request_id}: [{shown}{more}] ({len(r.tokens)} tokens, "
              f"{r.finish_reason})")
    stats = engine.stats()
    print(f"throughput: {generated} tokens in {elapsed * 1000:.0f} ms "
          f"= {generated / elapsed:.1f} tok/s across {len(results)} requests")
    print(f"kv arena:   {stats['kv_free_pages']:.0f} pages free, "
          f"{stats['evictions']:.0f} evictions, "
          f"{stats['decode_sessions']:.0f} decode sessions prepared")
    if args.prefix_cache:
        print(f"prefix:     {stats['prefix_hits']:.0f} hits, "
              f"{stats['prefix_hit_tokens']:.0f} tokens served from shared "
              f"KV, {stats['cow_materializes']:.0f} COW materializes")

    if args.selftest:
        failures = 0
        if args.temperature == 0.0:
            # Greedy: decode-with-cache must be bit-identical to a
            # token-by-token full recompute of the whole sequence.
            from ..core import Session
            from ..models import build_model

            for prompt, r in zip(prompts, results):
                toks = list(prompt)
                for _ in range(len(r.tokens)):
                    g = build_model(
                        "tiny_decoder", mode="full", seq_len=len(toks),
                        vocab=config.vocab, max_seq=config.max_seq,
                        d_model=config.d_model, heads=config.heads,
                        layers=config.layers, seed=config.seed,
                    )
                    out = Session(g).run({
                        "tokens": np.array([toks], np.int32),
                        "positions": np.arange(len(toks), dtype=np.int32)[None],
                    })
                    toks.append(int(np.argmax(out["logits"][0, -1])))
                if toks[len(prompt):] != r.tokens:
                    failures += 1
                    print(f"selftest FAILED: {r.request_id} diverges from "
                          f"full recompute", file=sys.stderr)
            mode = "bit-identical vs full recompute"
        else:
            # Sampled: a fresh engine must reproduce every token stream.
            replay = GenerationEngine(GenerationConfig(
                max_seq=args.max_seq, d_model=args.d_model, heads=args.heads,
                layers=args.layers, seed=args.seed, max_batch=args.batch,
                page_tokens=args.page_tokens,
            )).generate(prompts, params)
            for a, b in zip(results, replay):
                if a.tokens != b.tokens:
                    failures += 1
                    print(f"selftest FAILED: {a.request_id} not reproducible",
                          file=sys.stderr)
            mode = "reproducible under reseeded replay"
        if failures:
            return 1
        print(f"selftest:   ok — {len(results)} generations {mode}")

    if tracer is not None:
        from ..obs import save_chrome_trace

        save_chrome_trace(tracer, args.trace)
        print(f"trace:      wrote {args.trace} ({len(tracer.spans)} spans)")
    return 0


def cmd_regress(args) -> int:
    """Bench-regression gate: newest BENCH record vs its own trajectory."""
    from ..obs.regress import check_trajectory

    rc = 0
    for path in args.files:
        report = check_trajectory(
            path, threshold=args.threshold, min_history=args.min_history
        )
        print(report.describe())
        if not report.ok:
            rc = 1
    return rc


def cmd_schemes(args) -> int:
    from ..core import select_graph_schemes

    graph = _load(args.model)
    decisions = select_graph_schemes(graph)
    print(f"{len(decisions)} convolutions:")
    for name, decision in decisions.items():
        extra = f" n={decision.winograd_n}" if decision.kind == "winograd" else ""
        print(f"  {name:24s} -> {decision.kind}{extra}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="summarize a .rmnn model")
    p.add_argument("model")
    p.set_defaults(fn=cmd_info)

    p = sub.add_parser("build", help="build a zoo model into a .rmnn file")
    p.add_argument("model_name")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--input-size", type=int, default=224)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("lint", help="static-analysis report for a model")
    p.add_argument("model")
    p.add_argument("--strict", action="store_true",
                   help="treat warnings as failures (exit 1)")
    p.add_argument("--no-memcheck", action="store_true",
                   help="skip the memory-plan sanitizer")
    p.set_defaults(fn=cmd_lint)

    p = sub.add_parser("optimize", help="run the offline graph optimizer")
    p.add_argument("model")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--verify", action="store_true",
                   help="re-check structure, shapes and numerics after every pass")
    p.set_defaults(fn=cmd_optimize)

    p = sub.add_parser("quantize", help="post-training int8 quantization")
    p.add_argument("model", nargs="?", default=None)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--calibration-batches", type=int, default=4)
    p.add_argument("--selftest", action="store_true",
                   help="check the int8 stack's contracts instead: "
                        "accuracy bound, bit-identical seeded replay of "
                        "quantized decode, and >=3x KV token capacity")
    p.set_defaults(fn=cmd_quantize)

    p = sub.add_parser("prune", help="global magnitude pruning")
    p.add_argument("model")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--sparsity", type=float, default=0.5)
    p.set_defaults(fn=cmd_prune)

    p = sub.add_parser("fp16", help="store weights as float16")
    p.add_argument("model")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=cmd_fp16)

    p = sub.add_parser("benchmark", help="time a model on this host")
    p.add_argument("model")
    p.add_argument("--threads", type=int, default=4)
    p.add_argument("--repeats", type=int, default=10)
    p.add_argument("--profile", type=int, default=0, metavar="N",
                   help="also print the N slowest operators and the time per "
                        "operator type")
    p.set_defaults(fn=cmd_benchmark)

    p = sub.add_parser("trace", help="record a Chrome trace of pre-inference "
                                     "+ execution")
    p.add_argument("model")
    p.add_argument("-o", "--output", default="trace.json")
    p.add_argument("--threads", type=int, default=4)
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--top", type=int, default=10, metavar="K",
                   help="print the K most expensive operators")
    p.add_argument("--waterfall", action="store_true",
                   help="also print a per-lane text waterfall")
    p.add_argument("--waterfall-min-ms", type=float, default=0.05)
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("metrics", help="print the metrics snapshot for N runs")
    p.add_argument("model", nargs="?", default=None,
                   help=".rmnn model (default: a tiny request-tracked "
                        "generation workload that populates the SLO "
                        "histograms)")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--threads", type=int, default=4)
    p.add_argument("-o", "--output", default=None,
                   help="also write the snapshot as JSON")
    p.add_argument("--sanitize", action="store_true",
                   help="run with the concurrency sanitizer live; the "
                        "snapshot then includes the sanitize.* counters")
    p.add_argument("--prom", action="store_true",
                   help="also export the registry in Prometheus text "
                        "exposition format")
    p.add_argument("--selftest", action="store_true",
                   help="re-parse the Prometheus export through the "
                        "validating parser (and require the SLO families "
                        "on the generation workload)")
    p.set_defaults(fn=cmd_metrics)

    p = sub.add_parser("warm", help="populate the pre-inference cache")
    p.add_argument("model")
    p.add_argument("--threads", type=int, default=4)
    p.add_argument("--cache-dir", default=None,
                   help="cache location (default: $REPRO_CACHE_DIR or ~/.cache/repro)")
    p.set_defaults(fn=cmd_warm)

    p = sub.add_parser("serve", help="drive concurrent traffic through an engine")
    p.add_argument("model")
    p.add_argument("--requests", type=int, default=32)
    p.add_argument("--clients", type=int, default=4)
    p.add_argument("--pool", type=int, default=2)
    p.add_argument("--threads", type=int, default=4)
    p.add_argument("--batch", type=int, default=0, metavar="N",
                   help="coalesce requests into micro-batches of up to N (0 = off)")
    p.add_argument("--batch-timeout-ms", type=float, default=2.0)
    p.add_argument("--cache-dir", default=None)
    p.add_argument("--no-cache", action="store_true",
                   help="skip the pre-inference cache entirely")
    p.add_argument("--selftest", action="store_true",
                   help="verify concurrent results against serial execution")
    p.add_argument("--trace", default=None, metavar="FILE",
                   help="record serving + execution spans to a Chrome trace")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("cluster", help="multi-process router/worker serving "
                                       "tier (sharded, supervised, "
                                       "crash-tolerant)")
    p.add_argument("model", nargs="?", default=None,
                   help=".rmnn model (default: built-in chaos CNN)")
    p.add_argument("--workers", type=int, default=2)
    p.add_argument("--requests", type=int, default=32)
    p.add_argument("--clients", type=int, default=4)
    p.add_argument("--queue-depth", type=int, default=8,
                   help="per-worker admission bound (queued + in flight)")
    p.add_argument("--dwell-ms", type=float, default=2.0,
                   help="simulated per-request device dwell inside each "
                        "worker (models an accelerator-backed deployment)")
    p.add_argument("--selftest", action="store_true",
                   help="spawn workers, SIGKILL one, assert the supervisor "
                        "replaces it and serving stays bit-identical")
    p.add_argument("--prom", action="store_true",
                   help="also export the router registry in Prometheus "
                        "text exposition format")
    p.set_defaults(fn=cmd_cluster)

    p = sub.add_parser("estimate", help="model latency on a phone (simulator)")
    p.add_argument("model")
    p.add_argument("--device", default="Mate20")
    p.add_argument("--engine", default="MNN")
    p.add_argument("--backend", default="cpu")
    p.add_argument("--threads", type=int, default=4)
    p.set_defaults(fn=cmd_estimate)

    p = sub.add_parser("devices", help="list the device catalog")
    p.set_defaults(fn=cmd_devices)

    p = sub.add_parser("chaos", help="seeded fault-injection self-test storm")
    p.add_argument("model", nargs="?", default=None,
                   help=".rmnn model (default: built-in chaos CNN)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--faults", type=int, default=200,
                   help="keep storming until this many faults have fired")
    p.add_argument("--events", action="store_true",
                   help="also print the full injection sequence")
    p.add_argument("--sanitize", action="store_true",
                   help="storm with the race/lock-order/lifecycle "
                        "sanitizer live; any finding fails the storm")
    p.add_argument("--postmortem-dir", default=None, metavar="DIR",
                   help="attach a deterministic flight recorder: isolated "
                        "faults, KV OOMs and the deadline probe dump "
                        "replayable postmortem JSON into DIR")
    p.add_argument("--kv-dtype", default="float32",
                   choices=("float32", "int8"),
                   help="KV-cache storage dtype for the generation/prefix "
                        "phases (storm and gold alike)")
    p.set_defaults(fn=cmd_chaos)

    p = sub.add_parser("regress", help="bench-regression gate over "
                                       "BENCH_*.json trajectories")
    p.add_argument("files", nargs="+", metavar="BENCH_JSON",
                   help="trajectory files (repro.bench appends one stamped "
                        "record per run)")
    p.add_argument("--threshold", type=float, default=0.5,
                   help="tolerated relative regression before failing "
                        "(default 0.5 = 50%%)")
    p.add_argument("--min-history", type=int, default=1,
                   help="minimum comparable baseline runs; fewer skips the "
                        "gate with a note")
    p.set_defaults(fn=cmd_regress)

    p = sub.add_parser("sanitize", help="static concurrency lint (C0xx) over "
                                        "the source tree")
    p.add_argument("--root", default=None,
                   help="source tree to lint (default: the installed repro "
                        "package)")
    p.add_argument("--strict", action="store_true",
                   help="treat C0xx warnings as failures (exit 1)")
    p.set_defaults(fn=cmd_sanitize)

    p = sub.add_parser("generate", help="continuous-batching autoregressive "
                                        "generation over the tiny decoder")
    p.add_argument("--prompts", type=int, default=4,
                   help="number of random prompts to generate for")
    p.add_argument("--max-tokens", type=int, default=12)
    p.add_argument("--max-seq", type=int, default=48)
    p.add_argument("--d-model", type=int, default=32)
    p.add_argument("--heads", type=int, default=2)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--batch", type=int, default=4,
                   help="continuous-batch seat count")
    p.add_argument("--page-tokens", type=int, default=8,
                   help="KV-cache page granule in tokens")
    p.add_argument("--temperature", type=float, default=0.0,
                   help="0 = greedy (the bit-identity selftest mode)")
    p.add_argument("--top-k", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--prefix-cache", action="store_true",
                   help="serve shared prompt prefixes copy-on-write from "
                        "retired KV slabs (tokens stay bit-identical)")
    p.add_argument("--shared-prefix", type=int, default=0, metavar="N",
                   help="prepend one shared random N-token prefix to every "
                        "prompt (makes --prefix-cache hits observable)")
    p.add_argument("--selftest", action="store_true",
                   help="greedy: verify bit-identity vs full recompute; "
                        "sampled: verify reseeded replay reproduces tokens")
    p.add_argument("--trace", default=None, metavar="FILE",
                   help="record prefill/decode/batch spans to a Chrome trace")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("schemes", help="show per-conv scheme decisions")
    p.add_argument("model")
    p.set_defaults(fn=cmd_schemes)

    p = sub.add_parser("autotune", help="measure conv schemes on this host")
    p.add_argument("model")
    p.add_argument("--repeats", type=int, default=2)
    p.set_defaults(fn=cmd_autotune)

    p = sub.add_parser("dot", help="export the graph as Graphviz dot")
    p.add_argument("model")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--schemes", action="store_true",
                   help="annotate convs with their selected schemes")
    p.set_defaults(fn=cmd_dot)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError, KeyError) as exc:
        # Structurally invalid models carry structured diagnostics (see
        # repro.analysis); print them rule-tagged instead of a traceback.
        diagnostics = getattr(exc, "diagnostics", None)
        if diagnostics:
            from ..analysis import format_diagnostics, summarize

            print(format_diagnostics(diagnostics), file=sys.stderr)
            print(f"error: {summarize(diagnostics)}", file=sys.stderr)
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
