"""Prepare-path and serving-side fixes.

Covers fresh memory planning on every resize, the cache corrupt-entry
quarantine and the empty-vs-absent schemes round-trip of :class:`~repro.core.SessionArtifacts`.
"""

import json

import numpy as np
import pytest

from repro.core import Session, SessionArtifacts, SessionConfig
from repro.faults import FaultPlan, FaultRule
from repro.ir import GraphBuilder
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.runtime import Runtime
from repro.serving import PreInferenceCache


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


class TestResizePlanning:
    def test_shrink_resize_plans_fresh(self):
        """A resize plans memory for the new shapes: shrinking back keeps
        no arena sized for the larger ones."""
        session = Session(conv_net())
        session.resize({"data": (1, 3, 48, 48)})
        session.resize({"data": (1, 3, 32, 32)})
        fresh = Session(conv_net(32))
        assert session.memory_plan.arena_bytes == fresh.memory_plan.arena_bytes
        out = session.run(feed())
        want = fresh.run(feed())
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
        artifacts = session.export_artifacts()
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
        artifacts = session.export_artifacts()
        assert artifacts.schemes == {}  # captured, and correctly empty
        wire = json.loads(json.dumps(artifacts.to_json()))
        assert wire["schemes"] == {}    # not null: coverage, not absence
        restored = SessionArtifacts.from_json(wire)
        assert restored.schemes == {}

    def test_absent_schemes_stay_absent(self):
        artifacts = SessionArtifacts()
        assert artifacts.schemes is None
        wire = json.loads(json.dumps(artifacts.to_json()))
        assert wire["schemes"] is None
        restored = SessionArtifacts.from_json(wire)
        assert restored.schemes is None

    def test_warm_session_honours_empty_coverage(self):
        g = conv_free_net()
        artifacts = Session(g).export_artifacts()
        warm = Session(conv_free_net(), artifacts=artifacts)
        assert warm.schemes == {}
        x = {"data": np.ones((2, 12), np.float32)}
        want = Session(conv_free_net()).run(x)
        out = warm.run(x)
        for name in want:
            np.testing.assert_array_equal(out[name], want[name])
