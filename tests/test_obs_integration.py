"""End-to-end observability tests: spans through the whole engine.

Covers the acceptance criteria of the observability subsystem: Chrome
trace export is schema-valid and properly nested, a traced run covers
every pre-inference stage and every executed operator (serial *and*
parallel, on distinct thread lanes), ``run_profiled`` works on the
parallel path, serving spans cover cache/pool/batching, the stats
classes are live views over the metrics registry, the CLI surfaces all
of it, and a disabled tracer costs < 5% of a small-model run loop.
"""

import json
import time

import numpy as np
import pytest

from repro.core import Session, SessionConfig
from repro.runtime import Runtime
from repro.ir import GraphBuilder
from repro.obs import (
    MetricsRegistry,
    Tracer,
    chrome_trace_events,
    get_tracer,
    save_chrome_trace,
    to_chrome_trace,
    top_ops_report,
    waterfall_report,
)

RNG = np.random.default_rng(7)

PRE_INFERENCE_STAGES = {
    "graph.validate",
    "scheme_selection",
    "backend_selection",
    "create_executions",
    "prepare_executions",
    "memory_plan",
}


def chain_net(hw=16):
    """A small sequential net (serial-execution workhorse)."""
    b = GraphBuilder("chain", seed=3)
    x = b.input("data", (1, 3, hw, hw))
    x = b.conv(x, oc=8, kernel=3, activation="relu")
    x = b.depthwise_conv(x, kernel=3)
    x = b.conv(x, oc=8, kernel=1)
    x = b.fc(b.global_avg_pool(x), units=4)
    b.output(b.softmax(x))
    return b.finish()


def branchy_net(hw=16, branches=4):
    """Independent conv branches off one split — real branch parallelism."""
    b = GraphBuilder("branchy", seed=4)
    x = b.input("data", (1, 4 * branches, hw, hw))
    parts = b.split(x, sizes=(4,) * branches, axis=1)
    outs = [b.conv(p, oc=4, kernel=3) for p in parts]
    b.output(b.concat(outs, axis=1))
    return b.finish()


def chain_feed(hw=16):
    return {"data": RNG.standard_normal((1, 3, hw, hw)).astype(np.float32)}


def branchy_feed(hw=16, branches=4):
    return {
        "data": RNG.standard_normal((1, 4 * branches, hw, hw)).astype(np.float32)
    }


class TestSessionTracing:
    def test_pre_inference_stages_covered(self):
        tracer = Tracer()
        Session(chain_net(), runtime=Runtime.resolve(trace=tracer))
        names = {s.name for s in tracer.spans}
        assert "session.prepare" in names
        assert PRE_INFERENCE_STAGES <= names
        prepare = next(s for s in tracer.spans if s.name == "session.prepare")
        assert prepare.args["wall_ms"] > 0
        # stage spans nest inside session.prepare
        for span in tracer.spans:
            if span.name in PRE_INFERENCE_STAGES:
                assert span.depth == prepare.depth + 1
                assert prepare.start_us <= span.start_us
                assert span.end_us <= prepare.end_us + 1.0

    def test_every_op_traced_serial(self):
        tracer = Tracer()
        session = Session(chain_net(), runtime=Runtime.resolve(trace=tracer))
        session.run(chain_feed())
        op_spans = [s for s in tracer.spans if s.category == "op"]
        assert {s.name for s in op_spans} == {n.name for n in session._order}
        for span in op_spans:
            assert span.args["op"]
            assert span.args["backend"]
        run = next(s for s in tracer.spans if s.name == "session.run")
        assert run.args["parallel"] is False

    def test_every_op_traced_parallel_with_distinct_lanes(self):
        tracer = Tracer()
        session = Session(
            branchy_net(),
            SessionConfig(parallel_branches=True, threads=4),
            runtime=Runtime.resolve(trace=tracer),
        )
        session.run(branchy_feed())
        op_spans = [s for s in tracer.spans if s.category == "op"]
        assert {s.name for s in op_spans} == {n.name for n in session._order}
        # genuine parallelism: ops recorded from >= 2 worker threads
        assert len({s.tid for s in op_spans}) >= 2
        run = next(s for s in tracer.spans if s.name == "session.run")
        assert run.args["parallel"] is True

    def test_untraced_session_records_nothing(self):
        session = Session(chain_net())
        session.run(chain_feed())
        assert session.tracer is get_tracer()
        assert len(get_tracer()) == 0  # global default stays empty/disabled


class TestRunProfiled:
    def test_serial_profile_covers_every_op(self):
        session = Session(chain_net())
        outputs, profile = session.run_profiled(chain_feed())
        assert outputs
        assert {p.node for p in profile} == {n.name for n in session._order}
        assert all(p.wall_ms >= 0 for p in profile)

    def test_parallel_profile_has_per_op_rows_and_threads(self):
        """The historical gap: parallel_branches yielded no per-op data."""
        session = Session(
            branchy_net(), SessionConfig(parallel_branches=True, threads=4)
        )
        serial = Session(branchy_net())
        feeds = branchy_feed()
        outputs, profile = session.run_profiled(feeds)
        assert {p.node for p in profile} == {n.name for n in session._order}
        assert all(p.thread is not None for p in profile)
        assert len({p.thread for p in profile}) >= 2
        # and the outputs are still the real outputs
        want = serial.run(feeds)
        for name in want:
            np.testing.assert_allclose(outputs[name], want[name], atol=1e-5)

    def test_profiled_run_leaves_no_trace_when_untraced(self):
        session = Session(chain_net())
        session.run_profiled(chain_feed())
        assert len(get_tracer()) == 0

    def test_profiled_run_uses_session_tracer_when_enabled(self):
        tracer = Tracer()
        session = Session(chain_net(), runtime=Runtime.resolve(trace=tracer))
        mark = tracer.mark()
        _, profile = session.run_profiled(chain_feed())
        assert profile
        assert any(s.category == "op" for s in tracer.spans_since(mark))


class TestChromeTraceExport:
    def _traced(self):
        tracer = Tracer()
        session = Session(
            branchy_net(),
            SessionConfig(parallel_branches=True, threads=4),
            runtime=Runtime.resolve(trace=tracer),
        )
        session.run(branchy_feed())
        return tracer

    def test_schema_well_formed(self):
        tracer = self._traced()
        doc = to_chrome_trace(tracer)
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        events = doc["traceEvents"]
        metadata = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        assert len(metadata) + len(complete) + len(instants) == len(events)
        lanes = {e["tid"] for e in complete}
        # every lane is announced by a thread_name metadata event
        assert {e["tid"] for e in metadata} >= lanes
        for e in metadata:
            assert e["name"] == "thread_name"
            assert isinstance(e["args"]["name"], str)
        for e in complete:
            assert isinstance(e["name"], str) and e["name"]
            assert isinstance(e["cat"], str)
            assert isinstance(e["ts"], float)
            assert isinstance(e["dur"], float) and e["dur"] >= 0
            assert isinstance(e["tid"], int) and e["tid"] >= 0
            assert e["pid"] == 1
        for e in instants:
            assert e["s"] == "t"
            assert "dur" not in e
        # events are emitted in start-time order
        ts = [e["ts"] for e in events if e["ph"] != "M"]
        assert ts == sorted(ts)
        # lanes are small stable numbers, not raw thread idents
        assert max(lanes) < len(lanes)
        assert len(lanes) >= 2  # parallel run spreads over multiple lanes

    def test_spans_nest_properly_per_lane(self):
        """Complete events on one lane either nest or are disjoint."""
        events = [
            e for e in chrome_trace_events(self._traced()) if e["ph"] == "X"
        ]
        eps = 1.0  # µs tolerance: perf_counter endpoints of adjacent calls
        by_lane = {}
        for e in events:
            by_lane.setdefault(e["tid"], []).append(e)
        for lane_events in by_lane.values():
            for i, a in enumerate(lane_events):
                for b in lane_events[i + 1:]:
                    a0, a1 = a["ts"], a["ts"] + a["dur"]
                    b0, b1 = b["ts"], b["ts"] + b["dur"]
                    overlaps = a0 < b1 - eps and b0 < a1 - eps
                    if overlaps:
                        nested = (
                            (a0 <= b0 + eps and b1 <= a1 + eps)
                            or (b0 <= a0 + eps and a1 <= b1 + eps)
                        )
                        assert nested, (a["name"], b["name"])

    def test_worker_lanes_carry_executor_names(self):
        """Short-lived executor threads must land on labelled lanes: the
        parallel path names its workers ``exec-worker`` so the trace
        shows "exec-worker_0", not "ThreadPoolExecutor-3_0"."""
        events = chrome_trace_events(self._traced())
        names = [
            e["args"]["name"] for e in events if e["ph"] == "M"
        ]
        workers = [n for n in names if n.startswith("exec-worker")]
        assert len(workers) >= 2, names
        assert not any("ThreadPoolExecutor" in n for n in names), names

    def test_prepare_scheme_lanes_carry_executor_names(self):
        """The pre-inference scheme search fans out on named threads."""
        tracer = Tracer()
        session = Session(
            branchy_net(),
            SessionConfig(threads=4),
            runtime=Runtime.resolve(trace=tracer),
        )
        session.run(branchy_feed())
        names = set(tracer.thread_names.values())
        # the fan-out only spawns when there are enough candidates; the
        # invariant that matters is no anonymous executor lane ever leaks
        assert not any("ThreadPoolExecutor" in n for n in names), names

    def test_save_round_trips(self, tmp_path):
        tracer = self._traced()
        path = save_chrome_trace(tracer, str(tmp_path / "trace.json"))
        with open(path) as fh:
            doc = json.load(fh)
        assert doc["traceEvents"]

    def test_text_reports(self):
        tracer = self._traced()
        top = top_ops_report(tracer, k=3)
        assert "operators by total wall time" in top
        water = waterfall_report(tracer)
        assert "lane 0" in water and "#" in water
        assert top_ops_report(Tracer()) == "(no 'op' spans recorded)"
        assert waterfall_report(Tracer()) == "(no spans recorded)"


class TestOptimizerTracing:
    def test_pass_spans_recorded(self):
        from repro.converter.optimizer.passes import PassManager

        tracer = Tracer()
        graph = chain_net()
        PassManager(tracer=tracer).run(graph)
        names = {s.name for s in tracer.spans}
        assert "optimizer" in names
        assert "shape_inference" in names
        assert any(n.startswith("pass:") for n in names)

    def test_verified_pass_spans(self):
        from repro.analysis import VerifyingPassManager

        tracer = Tracer()
        graph = chain_net()
        manager = VerifyingPassManager()
        manager.tracer = tracer
        manager.run(graph)
        names = {s.name for s in tracer.spans}
        assert "optimizer.verified" in names


class TestServingObservability:
    def _engine(self, **kwargs):
        from repro.serving import Engine, EngineConfig

        tracer = Tracer()
        metrics = MetricsRegistry()
        config = EngineConfig(
            pool_size=2, use_cache=False, trace=tracer, metrics=metrics, **kwargs
        )
        return Engine(chain_net(), config), tracer, metrics

    def test_engine_spans_and_stats_view(self):
        engine, tracer, metrics = self._engine()
        engine.infer(chain_feed())
        names = {s.name for s in tracer.spans}
        assert "engine.create_session" in names
        assert "engine.infer" in names
        assert "pool.checkout_wait" in names
        # worker sessions inherit the engine tracer: op spans present
        assert any(s.category == "op" for s in tracer.spans)
        # EngineStats is a live view over the registry
        assert engine.stats.metrics is metrics
        assert engine.stats.requests == 1
        assert engine.stats.requests == metrics.counter("engine.requests").value
        assert metrics.counter("pool.checkouts").value == 1
        assert metrics.histogram("pool.wait_ms").count == 1

    def test_cache_hit_miss_instants(self, tmp_path):
        from repro.serving import Engine, EngineConfig

        tracer = Tracer()
        graph = chain_net()
        config = EngineConfig(
            pool_size=2, cache_dir=str(tmp_path), trace=tracer
        )
        engine = Engine(graph, config)
        events = {s.name for s in tracer.spans if s.instant}
        assert "cache.miss" in events  # first worker cold
        assert "cache.hit" in events   # second worker warm
        assert engine.stats.cache_hits == 1
        assert engine.stats.cache_misses == 1
        assert engine.stats.hit_rate == 0.5
        assert "prepare" in engine.stats.describe()

    def test_batcher_spans_and_stats_view(self):
        engine, tracer, metrics = self._engine(
            batching=True, max_batch=4, batch_timeout_ms=20.0
        )
        with engine:
            results = engine.infer_many(
                [chain_feed() for _ in range(8)], clients=4
            )
        assert len(results) == 8
        names = {s.name for s in tracer.spans}
        assert "batch.run" in names
        assert "batch.assemble" in names
        assert "batch.split" in names
        stats = engine.batcher.stats
        assert stats.metrics is metrics
        assert stats.requests == 8
        assert stats.batches >= 1
        assert stats.requests == metrics.counter("batch.requests").value
        assert metrics.histogram("batch.size").count == stats.batches


class TestOverheadGuard:
    def test_disabled_tracer_overhead_under_5_percent(self):
        """The per-op cost of disabled-tracer hooks must stay under 5% of
        a small-model run loop.

        Measured structurally rather than as an A/B wall-clock diff (which
        flakes on shared hosts): the disabled tracer's per-op work is at
        most one ``span()`` call + one ``record()`` call; we price those
        directly, scale by ops-per-run, and compare against the measured
        run time.
        """
        session = Session(chain_net())
        feeds = chain_feed()
        session.run(feeds)  # warm-up
        repeats = 10
        start = time.perf_counter()
        for _ in range(repeats):
            session.run(feeds)
        run_ms = (time.perf_counter() - start) * 1000.0 / repeats

        tracer = Tracer(enabled=False)
        calls = 100_000
        start = time.perf_counter()
        for _ in range(calls):
            tracer.span("op", "op")
            tracer.record("op", "op", 0.0, 0.0)
        per_op_ms = (time.perf_counter() - start) * 1000.0 / calls

        n_ops = len(session._order)
        overhead_ms = per_op_ms * n_ops
        assert overhead_ms < 0.05 * run_ms, (
            f"disabled tracer would add {overhead_ms:.4f} ms to a "
            f"{run_ms:.3f} ms run ({overhead_ms / run_ms * 100:.1f}%)"
        )


class TestCli:
    @pytest.fixture
    def model_path(self, tmp_path):
        from repro.ir import save_model

        path = str(tmp_path / "net.rmnn")
        save_model(chain_net(), path)
        return path

    def test_cli_trace(self, model_path, tmp_path, capsys):
        from repro.tools.cli import main

        out = str(tmp_path / "trace.json")
        assert main(["trace", model_path, "-o", out, "--threads", "2",
                     "--waterfall"]) == 0
        captured = capsys.readouterr().out
        assert "wrote" in captured and "thread lanes" in captured
        with open(out) as fh:
            doc = json.load(fh)
        names = {e["name"] for e in doc["traceEvents"]}
        assert "session.prepare" in names
        assert "session.run" in names

    def test_cli_metrics(self, model_path, tmp_path, capsys):
        from repro.tools.cli import main

        out = str(tmp_path / "metrics.json")
        assert main(["metrics", model_path, "--runs", "2", "-o", out]) == 0
        captured = capsys.readouterr().out
        assert "session.run_ms" in captured
        with open(out) as fh:
            snap = json.load(fh)
        assert snap["counters"]["session.runs"] == 2

    def test_cli_serve_selftest_prints_metrics(self, model_path, tmp_path, capsys):
        from repro.tools.cli import main

        trace_out = str(tmp_path / "serve.json")
        assert main([
            "serve", model_path, "--requests", "4", "--clients", "2",
            "--pool", "2", "--threads", "1", "--no-cache", "--selftest",
            "--trace", trace_out,
        ]) == 0
        captured = capsys.readouterr().out
        assert "selftest:   ok" in captured
        assert "metrics:" in captured
        assert "engine.requests" in captured
        with open(trace_out) as fh:
            names = {e["name"] for e in json.load(fh)["traceEvents"]}
        assert "engine.infer" in names
        assert "engine.create_session" in names


@pytest.mark.trace_self
class TestTraceSelf:
    """Trace the repo's own zoo models end-to-end (mirrors lint_self)."""

    @pytest.mark.parametrize("name", ["mobilenet_v1", "squeezenet_v1.1"])
    def test_zoo_model_traces_cleanly(self, name):
        from repro.analysis.verify_passes import random_feeds
        from repro.models import build_model

        graph = build_model(name, input_size=32)
        tracer = Tracer()
        session = Session(
            graph, SessionConfig(threads=2), runtime=Runtime.resolve(trace=tracer)
        )
        session.run(random_feeds(graph))
        names = {s.name for s in tracer.spans}
        assert "session.prepare" in names and "session.run" in names
        op_spans = [s for s in tracer.spans if s.category == "op"]
        assert {s.name for s in op_spans} == {n.name for n in session._order}
        # the trace is exportable as-is
        events = chrome_trace_events(tracer)
        assert len(events) == len(tracer.spans) + len({s.tid for s in tracer.spans})
