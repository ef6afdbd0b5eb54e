"""Command-line tools (the paper's future work item 3: "more tools for
user convenience").

Usage::

    python -m repro.tools.cli info model.rmnn
    python -m repro.tools.cli build mobilenet_v1 -o model.rmnn --input-size 224
    python -m repro.tools.cli lint model.rmnn [--strict]
    python -m repro.tools.cli optimize model.rmnn -o optimized.rmnn [--verify]
    python -m repro.tools.cli quantize model.rmnn -o int8.rmnn
    python -m repro.tools.cli prune model.rmnn -o pruned.rmnn --sparsity 0.6
    python -m repro.tools.cli fp16 model.rmnn -o half.rmnn
    python -m repro.tools.cli benchmark model.rmnn --repeats 10
    python -m repro.tools.cli trace model.rmnn -o trace.json [--runs 3]
    python -m repro.tools.cli metrics [model.rmnn] [--runs 10] [--prom]
    python -m repro.tools.cli warm model.rmnn [--cache-dir DIR]
    python -m repro.tools.cli serve model.rmnn --requests 64 --clients 4
    python -m repro.tools.cli cluster [model.rmnn] --workers 2 --requests 32
    python -m repro.tools.cli estimate model.rmnn --device Mate20 --engine MNN
    python -m repro.tools.cli devices
    python -m repro.tools.cli chaos [model.rmnn] --seed 0 --faults 200 [--sanitize]
    python -m repro.tools.cli regress BENCH_decode.json [--threshold 0.5]
    python -m repro.tools.cli sanitize [--strict]
    python -m repro.tools.cli generate --prompts 4 --max-tokens 12 [--trace FILE]
    python -m repro.tools.cli schemes model.rmnn
    python -m repro.tools.cli dot model.rmnn [-o graph.dot] [--schemes]

Each subcommand is one row of :data:`COMMANDS`: name, help, handler and
argument specs, where an argument several commands share is defined once.
The dispatcher loads the row's model into ``args.graph``, records a
``--trace FILE`` run into ``args.tracer`` and writes the Chrome trace
once the handler returns 0.  Every command returns 0 on success and
prints human-readable output; :func:`main` takes an argv list for
testability.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from typing import List, Optional

import numpy as np

from ..analysis import (
    C_RULES, Severity, check_memory_plan, format_diagnostics, lint_graph,
    lint_source_tree, summarize,
)
from ..analysis.verify_passes import random_feeds
from ..baselines import ENGINES
from ..bench import run_closed_loop, time_callable
from ..converter import convert_to_fp16, fp16_savings, optimize, prune_model
from ..core import Session, node_muls, plan_memory, select_graph_schemes
from ..devices import DEVICES, get_device
from ..ir import load_model, save_model
from ..ir.graph import GraphError
from ..kernels.winograd import clear_transform_cache
from ..models import MODEL_REGISTRY, build_model
from ..obs import (
    MetricsRegistry, Tracer, save_chrome_trace, set_metrics, to_prometheus,
    top_ops_report, waterfall_report,
)
from ..obs.regress import check_trajectory
from ..runtime import Runtime
from ..sim import estimate_latency


def _fails(diags, strict: bool) -> bool:
    """Whether ``diags`` hold an error, or with ``strict`` a warning."""
    return any(
        d.severity is Severity.ERROR or (strict and d.severity is Severity.WARNING)
        for d in diags
    )


def cmd_info(args) -> int:
    from ..quant import weight_bytes

    graph = args.graph
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
    graph = args.graph
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
    print(f"lint: {summarize(diags)}"
          + (" (strict)" if args.strict else ""))
    return 1 if _fails(diags, args.strict) else 0


def cmd_build(args) -> int:
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
    graph = args.graph
    before = len(graph.nodes)
    optimize(graph, verify=args.verify)
    save_model(graph, args.output)
    verified = " (every pass verified)" if args.verify else ""
    print(f"optimized {before} -> {len(graph.nodes)} ops{verified}; wrote {args.output}")
    return 0


def cmd_quantize(args) -> int:
    from ..quant import quantize_graph, weight_bytes

    graph = args.graph
    feeds = [random_feeds(graph, seed) for seed in range(args.calibration_batches)]
    quantized = quantize_graph(graph, feeds)
    save_model(quantized, args.output)
    print(f"quantized: {weight_bytes(graph) / 2**20:.2f} MiB -> "
          f"{weight_bytes(quantized) / 2**20:.2f} MiB; wrote {args.output}")
    return 0


def cmd_prune(args) -> int:
    pruned, report = prune_model(args.graph, args.sparsity)
    save_model(pruned, args.output)
    print(f"pruned to {report.achieved_sparsity * 100:.1f}% sparsity "
          f"(target {report.target_sparsity * 100:.0f}%); "
          f"sparse storage {report.compression:.2f}x denser-than-dense is "
          f"{'worth it' if report.compression > 1 else 'not worth it yet'}; "
          f"wrote {args.output}")
    return 0


def cmd_fp16(args) -> int:
    converted = convert_to_fp16(args.graph)
    before, after = fp16_savings(args.graph, converted)
    save_model(converted, args.output)
    print(f"fp16 weights: {before / 2**20:.2f} MiB -> {after / 2**20:.2f} MiB; "
          f"wrote {args.output}")
    return 0


def cmd_benchmark(args) -> int:
    session = Session(args.graph)
    feeds = random_feeds(args.graph)
    session.run(feeds)  # the warm-up run, outside the fault count
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    timing = time_callable(lambda: session.run(feeds), repeats=args.repeats, warmup=0)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    print(f"schemes: {session.scheme_summary()}")
    plan = session.memory_plan
    print(f"memory:  arena {plan.arena_bytes / 2**20:.1f} MiB "
          f"({plan.reuse_ratio:.1f}x reuse, peak {plan.peak_bytes / 2**20:.1f} MiB, "
          f"{plan.utilization() * 100:.0f}% utilized at worst step); "
          f"{session.arena_bound} of {len(plan.offsets)} planned tensors written there")
    print(f"latency: median {timing.median_ms:.1f} ms, min {timing.min_ms:.1f} ms "
          f"over {args.repeats} runs; "
          f"{faults / max(args.repeats, 1):.0f} minor page faults per run")
    if args.profile:
        _, profile = session.run_profiled(feeds)
        profile.sort(key=lambda p: -p.wall_ms)
        print("slowest operators:")
        for p in profile[:args.profile]:
            scheme = getattr(session.schemes.get(p.node), "label", "")
            print(f"  {p.node:24s} {p.op_type:16s} {p.wall_ms:7.2f} ms  {scheme}".rstrip())
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
    tracer = Tracer()
    feeds = random_feeds(args.graph)
    # Pre-inference stage spans, then per-op spans on one lane.
    session = Session(args.graph, runtime=Runtime.resolve(trace=tracer))
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


def cmd_metrics(args) -> int:
    """Run a workload and print/export the metrics registry snapshot.

    With a model: N plain session runs.  Without one: a tiny
    request-tracked generation workload, so the SLO histograms
    (queue-wait/TTFT/TPOT/tokens-per-sec) and resource gauges populate.
    ``--prom`` also prints the registry in Prometheus text exposition
    format (``tests/test_obs_requests.py::TestPrometheus`` re-parses such
    an export of a tracked generation run through the validating parser).
    """
    registry = MetricsRegistry()
    previous = set_metrics(registry)
    try:
        if args.graph is not None:
            session = Session(args.graph, runtime=Runtime.resolve(sanitize=args.sanitize))
            feeds = random_feeds(args.graph)
            for _ in range(args.runs):
                session.run(feeds)
            if args.sanitize:
                # Flush lock-cycle detection so sanitize.* counters are final.
                session.sanitizer.report()
            workload = f"{args.runs} runs of {args.graph.name}"
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
            json.dump(registry.snapshot(), fh, indent=2, sort_keys=True)
        print(f"wrote {args.output}")
    if args.prom:
        print(to_prometheus(registry), end="")
    return 0


def cmd_warm(args) -> int:
    """Populate the pre-inference cache for a model (cold once, warm after)."""
    from ..serving import Engine, EngineConfig

    config = EngineConfig(pool_size=1, cache_dir=args.cache_dir)
    engine = Engine(args.graph, config)
    cache = engine.cache
    print(f"cache dir: {cache.root}")
    print(f"cache key: {engine.cache_key}")
    if engine.metrics.value("engine.cache.misses"):
        cold = engine.metrics.histogram("engine.prepare.cold_ms").values[0]
        print(f"cold prepare: {cold:.1f} ms (entry written)")
        # Verify the warm path immediately, from a cleared transform cache.
        clear_transform_cache()
        artifacts = cache.load(engine.cache_key)
        start = time.perf_counter()
        Session(args.graph, config.session, artifacts=artifacts)
        warm = (time.perf_counter() - start) * 1000.0
        print(f"warm prepare: {warm:.1f} ms ({cold / max(warm, 1e-9):.1f}x faster)")
    else:
        warm = engine.metrics.histogram("engine.prepare.warm_ms").values[0]
        print(f"already warm: prepare {warm:.1f} ms (cache hit)")
    return 0


def cmd_serve(args) -> int:
    """Drive concurrent traffic through a pooled engine and report stats."""
    from ..serving import Engine, EngineConfig

    graph = args.graph
    config = EngineConfig(
        pool_size=args.pool,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        batching=args.batch > 0,
        max_batch=max(args.batch, 1),
        trace=args.tracer,
    )
    requests = [random_feeds(graph, seed) for seed in range(args.requests)]
    with Engine(graph, config) as engine:
        start = time.perf_counter()
        engine.infer_many(requests, clients=args.clients)
        elapsed = time.perf_counter() - start
        throughput = len(requests) / elapsed if elapsed else float("inf")
        if engine.pool is not None:
            print(f"pool:       {engine.pool.size} sessions, {args.clients} clients")
        else:
            print(f"batcher:    max batch {config.max_batch}, "
                  f"{engine.batcher.seats} seats, {args.clients} clients")
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
    return 0


def cmd_cluster(args) -> int:
    """Drive closed-loop load through the multi-process router/worker tier."""
    from ..cluster import Backpressure, Cluster, ClusterConfig, Overloaded
    from ..faults.chaos import default_chaos_graph

    graph = args.graph if args.graph is not None else default_chaos_graph()
    feeds = random_feeds(graph)
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
        cluster.infer(feeds)     # one warm-up request before the timed loop
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
    if args.device not in DEVICES:
        print(f"unknown device {args.device!r}; see `devices` command", file=sys.stderr)
        return 1
    if args.engine not in ENGINES:
        print(f"unknown engine {args.engine!r}; known: {', '.join(sorted(ENGINES))}",
              file=sys.stderr)
        return 1
    device = get_device(args.device)
    est = estimate_latency(args.graph, ENGINES[args.engine], device,
                           args.backend, args.threads)
    print(f"{args.engine} on {args.device} ({est.mode}): {est.total_ms:.1f} ms modeled")
    for op in est.slowest(5):
        print(f"  {op.node:24s} {op.op_type:16s} {op.ms:7.2f} ms ({op.algorithm})")
    return 0


def cmd_devices(args) -> int:
    for name, spec in sorted(DEVICES.items()):
        freqs = "x".join(f"{f:g}" for f in sorted(set(spec.cpu_core_ghz), reverse=True))
        print(f"{name:10s} {spec.soc:16s} CPU {freqs} GHz  GPU {spec.gpu} "
              f"({spec.gpu_flops() / 1e9:.1f} GFLOPS)  [{spec.os}]")
    return 0


def cmd_dot(args) -> int:
    from .visualize import to_dot

    schemes = Session(args.graph).schemes if args.schemes else None
    text = to_dot(args.graph, schemes)
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

    report = run_chaos_storm(
        graph=args.graph, seed=args.seed, target_faults=args.faults,
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

    root = Path(args.root) if args.root else Path(__file__).resolve().parents[1]
    diags = lint_source_tree(root)
    print(f"static lint over {root}: {len(C_RULES)} rules (C001..C005)")
    if diags:
        print(format_diagnostics(diags))
    print(f"static: {summarize(diags)}")
    return 1 if _fails(diags, args.strict) else 0


def cmd_generate(args) -> int:
    """Continuous-batching generation demo over the tiny decoder."""
    from ..genai import GenerationConfig, GenerationEngine, SamplingParams

    config = GenerationConfig(
        max_seq=args.max_seq, d_model=args.d_model, heads=args.heads,
        layers=args.layers, seed=args.seed, max_batch=args.batch,
        page_tokens=args.page_tokens, trace=args.tracer,
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
    start = time.perf_counter()
    results = engine.generate(prompts, params)
    elapsed = time.perf_counter() - start
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
    return 0


def cmd_regress(args) -> int:
    """Bench-regression gate: newest BENCH record vs its own trajectory."""
    rc = 0
    for path in args.files:
        report = check_trajectory(path, threshold=args.threshold,
                                  min_history=args.min_history)
        print(report.describe())
        if not report.ok:
            rc = 1
    return rc


def cmd_schemes(args) -> int:
    """The schemes a session runs; a conv whose Eq. 2 pick differs (this
    host timed the modeled Winograd slower than sliding) is marked."""
    modeled = select_graph_schemes(args.graph)
    running = Session(args.graph).schemes
    print(f"{len(modeled)} convolutions:")
    for name, model in modeled.items():
        label = running[name].label
        marker = "" if label == model.label else f"   <- Eq. 2 picks {model.label}"
        print(f"  {name:24s} -> {label}{marker}")
    return 0


class Arg:
    """One ``add_argument`` call; calling it copies it with overrides."""

    def __init__(self, *flags: str, **kwargs) -> None:
        self.flags, self.kwargs = flags, kwargs

    def __call__(self, **overrides) -> "Arg":
        return Arg(*self.flags, **{**self.kwargs, **overrides})


# The arguments several commands share, each defined once.  A row names
# one as is, or calls it to override what differs there (default, help).
MODEL = Arg("model")
MODEL_OPT = MODEL(nargs="?", default=None, help=".rmnn model (default: built-in chaos CNN)")
OUTPUT = Arg("-o", "--output", required=True)
OUTPUT_OPT = OUTPUT(required=False)
SEED = Arg("--seed", type=int, default=0)
RUNS = Arg("--runs", type=int, default=10)
REPEATS = Arg("--repeats", type=int, default=10)
REQUESTS = Arg("--requests", type=int, default=32)
CLIENTS = Arg("--clients", type=int, default=4)
CACHE_DIR = Arg("--cache-dir", default=None,
                help="cache location (default: $REPRO_CACHE_DIR or ~/.cache/repro)")
TRACE = Arg("--trace", default=None, metavar="FILE", help="record spans to a Chrome trace")
PROM = Arg("--prom", action="store_true",
           help="also export the registry in Prometheus text exposition format")
STRICT = Arg("--strict", action="store_true", help="treat warnings as failures (exit 1)")
SANITIZE = Arg("--sanitize", action="store_true")

#: One row per subcommand: (name, help, handler, argument specs).
COMMANDS = [
    ("info", "summarize a .rmnn model", cmd_info, [MODEL]),
    ("build", "build a zoo model into a .rmnn file", cmd_build, [
        Arg("model_name"), OUTPUT, Arg("--input-size", type=int, default=224), SEED,
    ]),
    ("lint", "static-analysis report for a model", cmd_lint, [
        MODEL, STRICT,
        Arg("--no-memcheck", action="store_true", help="skip the memory-plan sanitizer"),
    ]),
    ("optimize", "run the offline graph optimizer", cmd_optimize, [
        MODEL, OUTPUT,
        Arg("--verify", action="store_true",
            help="re-check structure, shapes and numerics after every pass"),
    ]),
    ("quantize", "post-training int8 quantization", cmd_quantize, [
        MODEL, OUTPUT,
        Arg("--calibration-batches", type=int, default=4),
    ]),
    ("prune", "global magnitude pruning", cmd_prune,
     [MODEL, OUTPUT, Arg("--sparsity", type=float, default=0.5)]),
    ("fp16", "store weights as float16", cmd_fp16, [MODEL, OUTPUT]),
    ("benchmark", "time a model on this host", cmd_benchmark, [
        MODEL, REPEATS,
        Arg("--profile", type=int, default=0, metavar="N",
            help="also print the N slowest operators and the time per operator type"),
    ]),
    ("trace", "record a Chrome trace of pre-inference + execution", cmd_trace, [
        MODEL, OUTPUT_OPT(default="trace.json"), RUNS(default=1),
        Arg("--top", type=int, default=10, metavar="K",
            help="print the K most expensive operators"),
        Arg("--waterfall", action="store_true", help="also print a per-lane text waterfall"),
        Arg("--waterfall-min-ms", type=float, default=0.05),
    ]),
    ("metrics", "print the metrics snapshot for N runs", cmd_metrics, [
        MODEL_OPT(help=".rmnn model (default: a tiny request-tracked generation "
                       "workload that populates the SLO histograms)"),
        RUNS, OUTPUT_OPT(help="also write the snapshot as JSON"),
        SANITIZE(help="run with the concurrency sanitizer live; the snapshot "
                      "then includes the sanitize.* counters"),
        PROM,
    ]),
    ("warm", "populate the pre-inference cache", cmd_warm, [MODEL, CACHE_DIR]),
    ("serve", "drive concurrent traffic through an engine", cmd_serve, [
        MODEL, REQUESTS, CLIENTS,
        Arg("--pool", type=int, default=2,
            help="pooled sessions, or batcher seats with --batch "
                 "(capped at the usable cores)"),
        Arg("--batch", type=int, default=0, metavar="N",
            help="coalesce requests into micro-batches of up to N (0 = off)"),
        CACHE_DIR,
        Arg("--no-cache", action="store_true", help="skip the pre-inference cache entirely"),
        TRACE,
    ]),
    ("cluster", "multi-process router/worker serving tier (sharded, supervised, "
                "crash-tolerant)", cmd_cluster, [
        MODEL_OPT, Arg("--workers", type=int, default=2), REQUESTS, CLIENTS,
        Arg("--queue-depth", type=int, default=8,
            help="per-worker admission bound (queued + in flight)"),
        Arg("--dwell-ms", type=float, default=2.0,
            help="simulated per-request device dwell inside each worker "
                 "(models an accelerator-backed deployment)"),
        PROM,
    ]),
    ("estimate", "model latency on a phone (simulator)", cmd_estimate, [
        MODEL, Arg("--device", default="Mate20"), Arg("--engine", default="MNN"),
        Arg("--backend", default="cpu"),
        Arg("--threads", type=int, default=4, help="CPU threads the cost model assumes"),
    ]),
    ("devices", "list the device catalog", cmd_devices, []),
    ("chaos", "seeded fault-injection self-test storm", cmd_chaos, [
        MODEL_OPT, SEED,
        Arg("--faults", type=int, default=200,
            help="keep storming until this many faults have fired"),
        Arg("--events", action="store_true", help="also print the full injection sequence"),
        SANITIZE(help="storm with the race/lock-order/lifecycle sanitizer live; "
                      "any finding fails the storm"),
        Arg("--postmortem-dir", default=None, metavar="DIR",
            help="track requests deterministically: isolated faults, KV OOMs "
                 "and the deadline probe dump replayable postmortem JSON "
                 "into DIR"),
        Arg("--kv-dtype", default="float32", choices=("float32", "int8"),
            help="KV-cache storage dtype for the generation/prefix phases "
                 "(storm and gold alike)"),
    ]),
    ("regress", "bench-regression gate over BENCH_*.json trajectories", cmd_regress, [
        Arg("files", nargs="+", metavar="BENCH_JSON",
            help="trajectory files (repro.bench appends one stamped record per run)"),
        Arg("--threshold", type=float, default=0.5,
            help="tolerated relative regression before failing (default 0.5 = 50%%)"),
        Arg("--min-history", type=int, default=1,
            help="minimum comparable baseline runs; fewer skips the gate with a note"),
    ]),
    ("sanitize", "static concurrency lint (C0xx) over the source tree", cmd_sanitize, [
        Arg("--root", default=None,
            help="source tree to lint (default: the installed repro package)"),
        STRICT,
    ]),
    ("generate", "continuous-batching autoregressive generation over the tiny "
                 "decoder", cmd_generate, [
        Arg("--prompts", type=int, default=4, help="number of random prompts to generate for"),
        Arg("--max-tokens", type=int, default=12), Arg("--max-seq", type=int, default=48),
        Arg("--d-model", type=int, default=32), Arg("--heads", type=int, default=2),
        Arg("--layers", type=int, default=2),
        Arg("--batch", type=int, default=4, help="continuous-batch seat count"),
        Arg("--page-tokens", type=int, default=8, help="KV-cache page granule in tokens"),
        Arg("--temperature", type=float, default=0.0,
            help="0 = greedy"),
        Arg("--top-k", type=int, default=0), SEED,
        Arg("--prefix-cache", action="store_true",
            help="serve shared prompt prefixes copy-on-write from retired KV "
                 "slabs (tokens stay bit-identical)"),
        Arg("--shared-prefix", type=int, default=0, metavar="N",
            help="prepend one shared random N-token prefix to every prompt "
                 "(makes --prefix-cache hits observable)"),
        TRACE,
    ]),
    ("schemes", "show the scheme each conv runs", cmd_schemes, [MODEL]),
    ("dot", "export the graph as Graphviz dot", cmd_dot, [
        MODEL, OUTPUT_OPT,
        Arg("--schemes", action="store_true", help="annotate convs with their selected schemes"),
    ]),
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler, specs in COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for spec in specs:
            p.add_argument(*spec.flags, **spec.kwargs)
        p.set_defaults(fn=handler)
    return parser


def _dispatch(args) -> int:
    """Load the model, start a ``--trace`` tracer, run the handler, and
    write the Chrome trace once it returns 0."""
    model = getattr(args, "model", None)
    args.graph = load_model(model) if model else None
    args.tracer = Tracer() if getattr(args, "trace", None) else None
    rc = args.fn(args)
    if rc == 0 and args.tracer is not None:
        spans = args.tracer.spans
        save_chrome_trace(args.tracer, args.trace)
        print(f"trace:      wrote {args.trace} "
              f"({len(spans)} spans, {len({s.tid for s in spans})} lanes)")
    return rc


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (OSError, ValueError, KeyError) as exc:
        # Structurally invalid models carry structured diagnostics (see
        # repro.analysis); print them rule-tagged instead of a traceback.
        diagnostics = getattr(exc, "diagnostics", None)
        if diagnostics:
            print(format_diagnostics(diagnostics), file=sys.stderr)
            print(f"error: {summarize(diagnostics)}", file=sys.stderr)
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
