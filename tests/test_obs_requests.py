"""Request timelines, SLO histograms, Prometheus export, and the
disabled-tracker overhead guard (see repro.obs.requests / repro.obs.prom)."""

import time

import numpy as np
import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.prom import parse_prometheus, prom_name, to_prometheus
from repro.obs.requests import (
    NULL_TIMELINE,
    RING_EVENTS,
    RequestTracker,
    get_request_tracker,
    set_request_tracker,
)
from repro.obs.resources import ResourceSampler
from repro.obs.tracer import Tracer


class TestRequestTimeline:
    def test_slo_milestones(self):
        reg = MetricsRegistry()
        tracker = RequestTracker(metrics=reg)
        tl = tracker.start(tracker.next_id(), "generate", prompt_tokens=4)
        tl.admitted(batch=2)
        for _ in range(5):
            tl.token()
        tl.finish("length")

        hists = reg.snapshot()["histograms"]
        assert hists["slo.queue_wait_ms"]["count"] == 1
        assert hists["slo.ttft_ms"]["count"] == 1
        assert hists["slo.tpot_ms"]["count"] == 4  # 5 tokens -> 4 gaps
        assert hists["slo.tokens_per_sec"]["count"] == 1
        assert hists["slo.e2e_ms"]["count"] == 1
        assert reg.value("slo.requests") == 1
        # TTFT includes queue wait; e2e includes everything.
        assert tl.ttft_ms >= tl.queue_wait_ms
        assert tl.e2e_ms >= tl.ttft_ms
        assert tl.tokens == 5

    def test_readmission_does_not_reset_queue_wait(self):
        tracker = RequestTracker(metrics=MetricsRegistry())
        tl = tracker.start("r0")
        tl.admitted()
        first_wait = tl.queue_wait_ms
        time.sleep(0.002)
        tl.admitted()  # preempted sequence rejoining
        assert tl.queue_wait_ms == first_wait
        names = [e.name for e in tl.events]
        assert names.count("admitted") == 1
        assert names.count("readmitted") == 1

    def test_finish_is_idempotent_and_counts_failures(self):
        reg = MetricsRegistry()
        tracker = RequestTracker(metrics=reg)
        tl = tracker.start("r0")
        tl.finish("error")
        tl.finish("ok")  # second finish ignored
        assert tl.finish_reason == "error"
        assert reg.value("slo.failures") == 1
        assert reg.snapshot()["histograms"]["slo.e2e_ms"]["count"] == 1
        ok = tracker.start("r1")
        ok.finish("stop")
        assert reg.value("slo.failures") == 1  # stop/length/ok are not failures

    def test_live_table_retires_on_finish(self):
        tracker = RequestTracker(metrics=MetricsRegistry())
        a = tracker.start("a")
        tracker.start("b")
        assert tracker.live() == ["a", "b"]
        a.finish()
        assert tracker.live() == ["b"]
        assert tracker.get("a") is None

    def test_next_id_is_deterministic(self):
        tracker = RequestTracker(metrics=MetricsRegistry())
        assert [tracker.next_id() for _ in range(3)] == ["req-0", "req-1", "req-2"]

    def test_deterministic_serialization_drops_wall_clock(self):
        tracker = RequestTracker(metrics=MetricsRegistry())
        tl = tracker.start("r0")
        tl.event("probe", count=3, rate=1.5, site="kv")
        det = tl.to_dict(deterministic=True)
        assert "queue_wait_ms" not in det and "ttft_ms" not in det
        probe = [e for e in det["events"] if e["name"] == "probe"][0]
        assert "t_ms" not in probe
        assert probe["args"] == {"count": 3, "site": "kv"}  # float dropped
        full = tl.to_dict()
        probe_full = [e for e in full["events"] if e["name"] == "probe"][0]
        assert probe_full["args"]["rate"] == 1.5 and "t_ms" in probe_full

    def test_event_cap_bounds_timeline_memory(self):
        tracker = RequestTracker(metrics=MetricsRegistry())
        tl = tracker.start("r0")
        for i in range(RING_EVENTS + 20):
            tl.event("tick", i=i)
        assert len(tl.events) == RING_EVENTS
        assert tl.events[-1].args == {"i": RING_EVENTS + 19}  # the last N

    def test_engines_sharing_a_tracker_mint_distinct_ids(self):
        from repro.genai import GenerationConfig, GenerationEngine, SamplingParams
        from repro.ir import GraphBuilder
        from repro.serving import Engine, EngineConfig

        def gen_engine(requests):
            return GenerationEngine(GenerationConfig(
                vocab=32, max_seq=16, d_model=16, heads=2, layers=1,
                max_batch=2, page_tokens=4, metrics=reg, requests=requests,
            ))

        b = GraphBuilder("tiny", seed=0)
        x = b.input("data", (1, 3, 8, 8))
        b.output(b.softmax(b.fc(b.global_avg_pool(b.conv(x, oc=4, kernel=1)), units=4)))
        reg = MetricsRegistry()
        tracker = RequestTracker(metrics=reg)
        with Engine(b.finish(), EngineConfig(
                use_cache=False, metrics=reg, requests=tracker)) as engine:
            engine.infer({"data": np.zeros((1, 3, 8, 8), np.float32)})
        shared = gen_engine(tracker)
        try:
            [result] = shared.generate([[1, 2, 3]], SamplingParams(max_tokens=2))
        finally:
            shared.close()
        assert result.request_id == "req-1"  # Engine.infer took req-0
        assert reg.value("slo.requests") == 2
        assert tracker.events("req-0")[0].args["kind"] == "infer"
        assert tracker.events("req-1")[0].args["kind"] == "generate"

        # Untracked, or on a private tracker, raw prompts number from req-0.
        for requests in (None, True):
            engine = gen_engine(requests)
            try:
                ids = [
                    r.request_id
                    for _ in range(2)
                    for r in engine.generate([[1, 2]], SamplingParams(max_tokens=1))
                ]
            finally:
                engine.close()
            assert ids == ["req-0", "req-1"]


class TestTrackerToggle:
    def test_disabled_tracker_returns_shared_null_timeline(self):
        disabled = RequestTracker(enabled=False, metrics=MetricsRegistry())
        a = disabled.start("a")
        b = disabled.start("b")
        assert a is b  # one shared no-op object, no per-request allocation
        a.admitted()
        a.token()
        a.finish("error")
        assert disabled.metrics.snapshot()["histograms"] == {}
        assert disabled.dump("trigger") is None

    def test_process_default_is_disabled_and_swappable(self):
        assert not get_request_tracker().enabled
        mine = RequestTracker(metrics=MetricsRegistry())
        prev = set_request_tracker(mine)
        try:
            assert get_request_tracker() is mine
        finally:
            set_request_tracker(prev)

    def test_resolve_spec_forms(self):
        from repro.runtime import Runtime

        reg = MetricsRegistry()
        mine = RequestTracker(metrics=reg)
        assert Runtime.resolve(requests=mine).requests is mine
        fresh = Runtime.resolve(metrics=reg, requests=True).requests
        assert fresh.enabled and fresh.metrics is reg
        assert Runtime.resolve(metrics=reg).requests is get_request_tracker()
        assert Runtime.resolve(requests=False).requests is get_request_tracker()

    def test_disabled_tracker_overhead_under_5_percent(self):
        """The per-request cost of disabled request tracking must stay
        under 5% of a small-model run loop.

        Structural pricing (like the disabled-tracer guard, which flakes
        less than A/B wall-clock on shared hosts): a disabled tracker
        costs one ``enabled`` check plus the no-op timeline's method
        calls per request; we price the full per-request call pattern
        directly and compare against the measured run time.
        """
        from repro.core import Session
        from repro.ir import GraphBuilder

        b = GraphBuilder("tiny", seed=0)
        x = b.input("data", (1, 3, 16, 16))
        x = b.conv(x, oc=8, kernel=3, activation="relu")
        x = b.conv(x, oc=8, kernel=1)
        x = b.fc(b.global_avg_pool(x), units=4)
        b.output(b.softmax(x))
        session = Session(b.finish())
        feeds = {"data": np.zeros((1, 3, 16, 16), np.float32)}
        session.run(feeds)  # warm-up
        repeats = 10
        start = time.perf_counter()
        for _ in range(repeats):
            session.run(feeds)
        run_ms = (time.perf_counter() - start) * 1000.0 / repeats

        tracker = RequestTracker(enabled=False)
        assert not tracker.enabled
        calls = 100_000
        start = time.perf_counter()
        for _ in range(calls):
            # The engine's whole per-request pattern when tracking is off:
            # bind the shared no-op timeline, then stamp it unguarded.
            tl = NULL_TIMELINE
            if tracker.enabled:
                tl = tracker.start(tracker.next_id(), "infer")
            tl.admitted()
            tl.finish("ok")
        per_request_ms = (time.perf_counter() - start) * 1000.0 / calls

        assert per_request_ms < 0.05 * run_ms, (
            f"disabled request tracking would add {per_request_ms:.5f} ms to "
            f"a {run_ms:.3f} ms request ({per_request_ms / run_ms * 100:.2f}%)"
        )


class TestResourceSampler:
    def test_sample_fans_out_to_gauges_history_and_counter_events(self):
        reg = MetricsRegistry()
        tracer = Tracer()
        sampler = ResourceSampler(
            sources={"res.demo.util": lambda: 0.25},
            tracer=tracer,
            metrics=reg,
        )
        sampler.sample()
        sampler.sample({"res.demo.extra": 2.0})
        assert reg.gauge("res.demo.util").value == 0.25
        assert reg.gauge("res.demo.extra").value == 2.0
        series = sampler.series()
        assert series["res.demo.util"] == [0.25, 0.25]
        assert series["res.demo.extra"] == [2.0]
        counter_spans = [s for s in tracer.spans if s.counter]
        assert len(counter_spans) == 3
        assert all(s.args["value"] in (0.25, 2.0) for s in counter_spans)

    def test_raising_source_is_skipped(self):
        def boom():
            raise RuntimeError("closed")

        sampler = ResourceSampler(
            sources={"bad": boom, "good": lambda: 1.0},
            tracer=Tracer(enabled=False),
            metrics=MetricsRegistry(),
        )
        values = sampler.sample()
        assert values == {"good": 1.0}

    def test_history_is_bounded(self):
        sampler = ResourceSampler(
            sources={"v": lambda: 1.0},
            tracer=Tracer(enabled=False),
            metrics=MetricsRegistry(),
            max_samples=8,
        )
        for _ in range(32):
            sampler.sample()
        assert len(sampler.series()["v"]) == 8

    def test_counter_events_export_as_chrome_counter_tracks(self):
        from repro.obs.export import chrome_trace_events

        tracer = Tracer()
        tracer.counter("res.kv.page_utilization", 0.5)
        events = chrome_trace_events(tracer)
        counters = [e for e in events if e.get("ph") == "C"]
        assert len(counters) == 1
        assert counters[0]["name"] == "res.kv.page_utilization"
        assert counters[0]["args"]["value"] == 0.5


class TestPrometheus:
    def _populated(self):
        reg = MetricsRegistry()
        reg.counter("slo.requests").inc(3)
        reg.gauge("res.kv.page_utilization").set(0.75)
        h = reg.histogram("slo.ttft_ms")
        for v in (1.0, 2.0, 3.0, 10.0):
            h.observe(v)
        return reg

    def test_prom_name_sanitizes(self):
        assert prom_name("slo.ttft_ms") == "repro_slo_ttft_ms"
        assert prom_name("res.kv-free pages") == "repro_res_kv_free_pages"

    def test_export_round_trips_through_the_validating_parser(self):
        text = to_prometheus(self._populated())
        families = parse_prometheus(text)
        assert families["repro_slo_requests_total"]["type"] == "counter"
        assert families["repro_res_kv_page_utilization"]["type"] == "gauge"
        ttft = families["repro_slo_ttft_ms"]
        assert ttft["type"] == "summary"
        plain = {n: v for n, labels, v in ttft["samples"] if not labels}
        quantiles = {
            labels["quantile"]: v
            for n, labels, v in ttft["samples"] if "quantile" in labels
        }
        assert plain["repro_slo_ttft_ms_count"] == 4.0
        assert plain["repro_slo_ttft_ms_sum"] == 16.0
        assert set(quantiles) == {"0.5", "0.9", "0.99"}

    def test_parser_rejects_malformed_text(self):
        with pytest.raises(ValueError):
            parse_prometheus("# TYPE repro_x made_up_type\nrepro_x 1\n")
        with pytest.raises(ValueError):
            parse_prometheus("repro_untyped_sample 1\n")
        with pytest.raises(ValueError):
            parse_prometheus("# TYPE repro_x counter\nrepro_x notanumber\n")

    def test_engine_slo_metrics_export(self):
        """End to end: a tracked generation run exports SLO families."""
        from repro.genai import GenerationConfig, GenerationEngine, SamplingParams

        reg = MetricsRegistry()
        engine = GenerationEngine(GenerationConfig(
            vocab=32, max_seq=16, d_model=16, heads=2, layers=1,
            max_batch=2, page_tokens=4, metrics=reg, requests=True,
        ))
        try:
            engine.generate([[1, 2, 3], [4, 5]], SamplingParams(max_tokens=4))
        finally:
            engine.close()
        families = parse_prometheus(to_prometheus(reg))
        for family in (
            "repro_slo_requests_total",
            "repro_slo_queue_wait_ms",
            "repro_slo_ttft_ms",
            "repro_slo_tpot_ms",
            "repro_slo_tokens_per_sec",
            "repro_res_kv_page_utilization",
        ):
            assert family in families, f"missing {family}"
        assert engine.requests.live() == []  # every timeline retired
