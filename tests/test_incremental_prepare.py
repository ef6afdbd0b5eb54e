"""Incremental prepare and the serving-side bugfixes riding with it.

Covers the cold-start tentpole — parallel per-op scheme selection, lazy
execution preparation off the first ``run()``'s critical path, and
memory-plan adaptation across adjacent shape buckets — plus the batcher
EDF starvation fix, the cache corrupt-entry quarantine and the
empty-vs-absent schemes round-trip.
"""

import json
import time

import numpy as np
import pytest

from repro.core import Session, SessionConfig
from repro.core.memory import adapt_plan, compute_lifetimes, plan_memory
from repro.core.schemes import (
    clear_scheme_memo,
    scheme_memo_size,
    select_graph_schemes,
)
from repro.faults import FaultPlan, FaultRule
from repro.ir import GraphBuilder
from repro.obs.metrics import MetricsRegistry, get_metrics, set_metrics
from repro.runtime import Runtime
from repro.serving import (
    MicroBatcher,
    PreInferenceArtifacts,
    PreInferenceCache,
)


@pytest.fixture(autouse=True)
def _fresh_metrics():
    previous = set_metrics(MetricsRegistry())
    yield
    set_metrics(previous)


def conv_net(hw=32):
    """Conv net with several independent 3x3 convs (parallel scheme bait)."""
    b = GraphBuilder("incnet", seed=3)
    x = b.input("data", (1, 3, hw, hw))
    x = b.conv(x, oc=8, kernel=3, pad_mode="same", activation="relu")
    x = b.conv(x, oc=8, kernel=3, pad_mode="same", activation="relu")
    x = b.max_pool(x, 2)
    x = b.conv(x, oc=16, kernel=3, pad_mode="same")
    x = b.fc(b.global_avg_pool(x), units=10)
    b.output(b.softmax(x))
    return b.finish()


def conv_free_net():
    """No convs at all: scheme selection has nothing to decide."""
    b = GraphBuilder("fcnet", seed=5)
    x = b.input("data", (2, 12))
    x = b.relu(b.fc(x, units=8))
    b.output(b.fc(x, units=4))
    return b.finish()


def feed(hw=32, batch=1, seed=0):
    rng = np.random.default_rng(seed)
    return {"data": rng.standard_normal((batch, 3, hw, hw)).astype(np.float32)}


class TestParallelSchemeSelection:
    def test_parallel_identical_to_serial(self):
        g = conv_net()
        clear_scheme_memo()
        serial = select_graph_schemes(g)
        clear_scheme_memo()
        fanned = select_graph_schemes(g, workers=4)
        assert serial == fanned

    def test_memo_populates_and_clears(self):
        clear_scheme_memo()
        assert scheme_memo_size() == 0
        select_graph_schemes(conv_net())
        assert scheme_memo_size() > 0
        clear_scheme_memo()
        assert scheme_memo_size() == 0

    def test_session_with_workers_bit_identical(self):
        g = conv_net()
        x = feed()
        gold = Session(g).run(x)
        out = Session(g, SessionConfig(prepare_workers=4)).run(x)
        for name in gold:
            np.testing.assert_array_equal(out[name], gold[name])


class TestLazyPrepare:
    def test_lazy_run_bit_identical(self):
        g = conv_net()
        x = feed()
        gold = Session(g).run(x)
        lazy = Session(g, SessionConfig(lazy_prepare=True))
        out = lazy.run(x)
        for name in gold:
            np.testing.assert_array_equal(out[name], gold[name])
        # Second run reuses the now-fully-prepared executions.
        again = lazy.run(x)
        for name in gold:
            np.testing.assert_array_equal(again[name], gold[name])

    def test_lazy_survives_resize(self):
        g = conv_net()
        lazy = Session(g, SessionConfig(lazy_prepare=True))
        lazy.run(feed())
        lazy.resize({"data": (2, 3, 48, 48)})
        out = lazy.run(feed(hw=48, batch=2))
        gold = Session(conv_net(48))
        gold.resize({"data": (2, 3, 48, 48)})
        want = gold.run(feed(hw=48, batch=2))
        for name in want:
            np.testing.assert_array_equal(out[name], want[name])

    def test_lazy_without_decouple_is_eager(self):
        # lazy_prepare rides the prepare/execute split; with decoupling
        # off it quietly degrades to the eager path.
        g = conv_net()
        session = Session(g, SessionConfig(lazy_prepare=True, decouple=False))
        out = session.run(feed())
        want = Session(g, SessionConfig(decouple=False)).run(feed())
        for name in want:
            np.testing.assert_array_equal(out[name], want[name])


class TestPlanAdaptation:
    def test_adapt_plan_reuses_offsets_when_sizes_shrink(self):
        g = conv_net(48)
        session = Session(g)
        donor = session.memory_plan
        assert donor is not None
        small = conv_net(48)
        shrunk = Session(small)
        shrunk.resize({"data": (1, 3, 32, 32)})
        lifetimes = compute_lifetimes(shrunk.graph, shrunk._order)
        adapted = adapt_plan(donor, lifetimes)
        assert adapted is not None
        assert adapted.arena_bytes == donor.arena_bytes
        assert set(adapted.offsets) == set(donor.offsets)

    def test_adapt_plan_rejects_growth(self):
        g = conv_net(32)
        donor = Session(g).memory_plan
        big = Session(conv_net(32))
        big.resize({"data": (4, 3, 48, 48)})
        lifetimes = compute_lifetimes(big.graph, big._order)
        assert adapt_plan(donor, lifetimes) is None

    def test_shrink_resize_adapts_instead_of_replanning(self):
        session = Session(conv_net())
        x48 = {"data": (1, 3, 48, 48)}
        session.resize(x48)
        grown_arena = session.memory_plan.arena_bytes
        session.resize({"data": (1, 3, 32, 32)})
        # The big plan was kept as donor and re-proven for the small
        # shapes: same arena, no fresh planning pass.
        assert get_metrics().value("session.plan_adapted") >= 1
        assert session.memory_plan.arena_bytes == grown_arena
        out = session.run(feed())
        want = Session(conv_net()).run(feed())
        for name in want:
            np.testing.assert_array_equal(out[name], want[name])

    def test_offer_plan_donor_feeds_next_resize(self):
        big = Session(conv_net())
        big.resize({"data": (1, 3, 48, 48)})
        fresh = Session(conv_net())
        fresh.offer_plan_donor(big.memory_plan)
        before = get_metrics().value("session.plan_adapted")
        fresh.resize({"data": (1, 3, 16, 16)})
        assert get_metrics().value("session.plan_adapted") == before + 1
        out = fresh.run(feed(hw=16))
        want = Session(conv_net(16)).run(feed(hw=16))
        for name in want:
            np.testing.assert_array_equal(out[name], want[name])


class TestBatcherDeadlines:
    def test_second_bucket_not_starved_by_first(self):
        """EDF regression: a bucket opened while the dispatcher camps on
        another must keep its arrival-anchored deadline.

        Pre-fix, the dispatcher picked an arbitrary bucket and restarted
        the full timeout for it from *its own* wait start, so bucket B's
        wall time stacked A's entire window on top of its own.  With
        earliest-deadline-first both fill windows overlap.
        """
        g = conv_net(16)
        timeout_s = 0.3
        t0 = time.monotonic()
        with MicroBatcher(lambda: Session(g), max_batch=4,
                          timeout_ms=timeout_s * 1000.0) as batcher:
            fa = batcher.submit(feed(hw=16, seed=1))
            time.sleep(0.06)
            fb = batcher.submit(feed(hw=24, seed=2))  # distinct bucket
            fa.result(timeout=30)
            fb.result(timeout=30)
            elapsed = time.monotonic() - t0
        # Overlapping windows: everything resolves shortly after the
        # later deadline (~0.36s), nowhere near two stacked timeouts.
        assert elapsed < 2 * timeout_s, (
            f"bucket B starved: {elapsed:.3f}s for two overlapping "
            f"{timeout_s:.1f}s fill windows"
        )
        assert batcher.stats.batches == 2  # shapes never share a batch

    def test_fill_window_anchored_at_first_arrival(self):
        g = conv_net(16)
        timeout_s = 0.3
        t0 = time.monotonic()
        with MicroBatcher(lambda: Session(g), max_batch=8,
                          timeout_ms=timeout_s * 1000.0) as batcher:
            first = batcher.submit(feed(hw=16, seed=1))
            time.sleep(0.1)
            second = batcher.submit(feed(hw=16, seed=2))
            first.result(timeout=30)
            second.result(timeout=30)
            elapsed = time.monotonic() - t0
        # A later arrival must not extend the bucket's fill clock.
        assert elapsed < timeout_s + 0.25
        assert batcher.stats.batches == 1
        assert batcher.stats.batched_requests == 2

    def test_bucket_sessions_share_one_donor_arena(self):
        """Adjacent micro-batch sizes adapt the largest plan instead of
        re-planning: resize 1 -> 4 plans fresh, 4 -> 2 adapts."""
        g = conv_net(16)
        with MicroBatcher(lambda: Session(g), max_batch=4,
                          timeout_ms=20.0) as batcher:
            out4 = batcher.infer(feed(hw=16, batch=4, seed=3))
            assert get_metrics().value("session.plan_adapted") == 0
            out2 = batcher.infer(feed(hw=16, batch=2, seed=4))
            assert get_metrics().value("session.plan_adapted") >= 1
        assert list(out4.values())[0].shape == (4, 10)
        assert list(out2.values())[0].shape == (2, 10)
        serial = Session(conv_net(16))
        for out, batch, seed in ((out4, 4, 3), (out2, 2, 4)):
            serial.resize({"data": (batch, 3, 16, 16)})
            want = serial.run(feed(hw=16, batch=batch, seed=seed))
            for name in want:
                np.testing.assert_array_equal(out[name], want[name])


class TestCacheQuarantine:
    def test_corrupt_entry_unlinked_on_load(self, tmp_path):
        metrics = MetricsRegistry()
        cache = PreInferenceCache(tmp_path, runtime=Runtime.resolve(metrics=metrics))
        key = "deadbeef" * 8
        cache.root.mkdir(parents=True, exist_ok=True)
        cache.path(key).write_text("{torn", encoding="utf-8")
        assert cache.load(key) is None
        assert not cache.path(key).exists()
        assert metrics.value("cache.corrupt") == 1
        assert metrics.value("cache.quarantined") == 1
        # The second load is a clean miss: no re-parse, no re-count.
        assert cache.load(key) is None
        assert metrics.value("cache.corrupt") == 1

    def test_torn_store_quarantined_at_next_load(self, tmp_path):
        session = Session(conv_net(16))
        artifacts = PreInferenceArtifacts.from_session(session)
        plan = FaultPlan([FaultRule("cache.store", "torn", times=1)])
        torn_writer = PreInferenceCache(tmp_path, runtime=Runtime.resolve(faults=plan))
        key = torn_writer.key(session.graph, SessionConfig())
        torn_writer.store(key, artifacts)
        assert torn_writer.path(key).exists()

        metrics = MetricsRegistry()
        reader = PreInferenceCache(tmp_path, runtime=Runtime.resolve(metrics=metrics))
        assert reader.load(key) is None          # truncated JSON
        assert not reader.path(key).exists()     # and now quarantined
        assert metrics.value("cache.quarantined") == 1
        # A healing re-store round-trips cleanly afterwards.
        reader.store(key, artifacts)
        reloaded = reader.load(key)
        assert reloaded is not None
        assert reloaded.schemes == artifacts.schemes


class TestEmptySchemesRoundTrip:
    def test_captured_empty_schemes_stay_present(self):
        session = Session(conv_free_net())
        artifacts = PreInferenceArtifacts.from_session(session)
        assert artifacts.schemes == {}  # captured, and correctly empty
        wire = json.loads(json.dumps(artifacts.to_json()))
        assert wire["schemes"] == {}    # not null: coverage, not absence
        restored = PreInferenceArtifacts.from_json(wire)
        assert restored.schemes == {}
        assert restored.apply().schemes == {}

    def test_absent_schemes_stay_absent(self):
        artifacts = PreInferenceArtifacts()
        assert artifacts.schemes is None
        wire = json.loads(json.dumps(artifacts.to_json()))
        assert wire["schemes"] is None
        restored = PreInferenceArtifacts.from_json(wire)
        assert restored.schemes is None
        assert restored.apply().schemes is None

    def test_warm_session_honours_empty_coverage(self):
        g = conv_free_net()
        artifacts = PreInferenceArtifacts.from_session(Session(g))
        warm = Session(conv_free_net(), artifacts=artifacts.apply())
        assert warm.schemes == {}
        x = {"data": np.ones((2, 12), np.float32)}
        want = Session(conv_free_net()).run(x)
        out = warm.run(x)
        for name in want:
            np.testing.assert_array_equal(out[name], want[name])
