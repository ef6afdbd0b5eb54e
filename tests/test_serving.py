"""Tests for the serving layer: cache, pool, batching, engine, CLI."""

import dataclasses
import json
import threading
import time

import numpy as np
import pytest

from repro.converter import optimize
from repro.core import (
    SchemeDecision, Session, SessionArtifacts, SessionConfig, autotune, select_graph_schemes,
)
from repro.devices import get_device
from repro.ir import GraphBuilder, save_model
from repro.models import squeezenet_v1_1
from repro.obs import Tracer
from repro.obs.metrics import get_metrics
from repro.kernels import winograd
from repro.kernels.winograd import (
    clear_transform_cache,
    transform_cache_entries,
)
from repro.serving import (
    CACHE_ENV_VAR,
    Engine,
    EngineConfig,
    MicroBatcher,
    PreInferenceCache,
    SessionPool,
    default_cache_dir,
)
from repro.serving.cache import RUN_TIME_ONLY_FIELDS, _digest
from repro.tools.cli import main

RNG = np.random.default_rng(11)


def serving_net(hw=32):
    """Small conv net with a 3x3 conv (so Winograd artifacts exist) that
    resizes cleanly to any spatial/batch size (GAP before the fc)."""
    b = GraphBuilder("servenet", seed=3)
    x = b.input("data", (1, 3, hw, hw))
    x = b.conv(x, oc=16, kernel=3, pad_mode="same", activation="relu")
    x = b.conv(x, oc=16, kernel=3, pad_mode="same", activation="relu")
    x = b.max_pool(x, 2)
    x = b.conv(x, oc=32, kernel=1)
    x = b.fc(b.global_avg_pool(x), units=10)
    b.output(b.softmax(x))
    return b.finish()


def modeled(graph):
    """A config pinning the Eq. 2/3 picks, so a test that needs Winograd
    artifacts has them whatever this host measures."""
    return SessionConfig(scheme_overrides=select_graph_schemes(graph))


def feed(hw=32, batch=1, seed=0):
    rng = np.random.default_rng(seed)
    return {"data": rng.standard_normal((batch, 3, hw, hw)).astype(np.float32)}


@pytest.fixture()
def cache_dir(tmp_path):
    return str(tmp_path / "cache")


class TestPreInferenceCache:
    def test_artifacts_roundtrip_through_json(self):
        session = Session(serving_net(), modeled(serving_net()))
        artifacts = session.export_artifacts()
        assert artifacts.schemes  # the 3x3 convs got scheme decisions
        assert artifacts.winograd  # ...and Winograd transforms
        wire = json.loads(json.dumps(artifacts.to_json()))
        restored = SessionArtifacts.from_json(wire)
        assert restored.to_json() == artifacts.to_json()
        warm = Session(serving_net(), artifacts=restored)
        x = feed()
        np.testing.assert_array_equal(
            list(warm.run(x).values())[0], list(session.run(x).values())[0]
        )

    def test_key_sensitive_to_graph_and_config(self):
        cache = PreInferenceCache("/nonexistent")
        g = serving_net()
        base = cache.key(g, SessionConfig())
        assert base == cache.key(serving_net(), SessionConfig())  # deterministic
        assert base != cache.key(serving_net(16), SessionConfig())
        assert base != cache.key(g, SessionConfig(threads=8))
        assert base != cache.key(g, SessionConfig(use_strassen=False))

    def test_key_covers_every_decision_field(self):
        """Changing any SessionConfig field moves the key, unless the field
        is run-time only; the table must name every field."""
        cache = PreInferenceCache("/nonexistent")
        g = serving_net()
        base = cache.key(g, SessionConfig())
        changed = {
            "backend": "sim_cpu", "device": get_device("MI6"), "threads": 8,
            "decouple": False, "use_strassen": False, "auto_backend": True,
            "scheme_overrides": {"conv_1": SchemeDecision("sliding")},
            "paranoid": True, "check_feeds": False, "breaker_cooldown_s": 1.0,
        }
        assert set(changed) == {f.name for f in dataclasses.fields(SessionConfig)}
        assert RUN_TIME_ONLY_FIELDS == {"check_feeds", "breaker_cooldown_s"}
        for name, value in changed.items():
            key = cache.key(g, dataclasses.replace(SessionConfig(), **{name: value}))
            assert (key == base) == (name in RUN_TIME_ONLY_FIELDS), name

    def test_key_sees_an_override_decision_not_just_its_node(self):
        cache = PreInferenceCache("/nonexistent")
        g = serving_net()
        decisions = (SchemeDecision("sliding"), SchemeDecision("winograd", (2, 2)),
                     SchemeDecision("winograd", (4, 4)))
        keys = {cache.key(g, SessionConfig(scheme_overrides={"conv_1": d}))
                for d in decisions}
        assert len(keys) == len(decisions)

    def test_store_load_roundtrip(self, cache_dir):
        cache = PreInferenceCache(cache_dir)
        session = Session(serving_net())
        key = cache.key(session.graph, SessionConfig())
        assert cache.load(key) is None
        cache.store(key, session.export_artifacts())
        assert cache.entries() == [key]
        loaded = cache.load(key)
        assert loaded is not None
        assert set(loaded.schemes) == set(session.schemes or {})

    def test_corrupt_entry_is_a_miss(self, cache_dir):
        cache = PreInferenceCache(cache_dir)
        key = cache.key(serving_net(), SessionConfig())
        cache.root.mkdir(parents=True)
        cache.path(key).write_text("{not json", encoding="utf-8")
        assert cache.load(key) is None
        # the engine shrugs it off too: miss, recompute, overwrite
        engine = Engine(serving_net(), EngineConfig(
            pool_size=1, cache_dir=cache_dir))
        assert engine.metrics.value("engine.cache.misses") == 1
        assert cache.load(key) is not None

    def test_version_mismatch_is_a_miss(self, cache_dir):
        cache = PreInferenceCache(cache_dir)
        session = Session(serving_net())
        key = cache.key(session.graph, SessionConfig())
        cache.store(key, session.export_artifacts())
        data = json.loads(cache.path(key).read_text())
        data["version"] = 999
        cache.path(key).write_text(json.dumps(data))
        assert cache.load(key) is None

    def test_env_var_sets_default_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "envcache"))
        assert default_cache_dir() == tmp_path / "envcache"
        assert PreInferenceCache().root == tmp_path / "envcache"

    def test_stale_artifacts_fall_back_to_recompute(self, cache_dir):
        """Artifacts for the wrong graph under the right key: the session
        must detect the mismatch and silently recompute, not crash."""
        cache = PreInferenceCache(cache_dir)
        # different shapes => alien plan
        other = Session(serving_net(16), modeled(serving_net(16)))
        g = serving_net(32)
        key = cache.key(g, modeled(g))
        cache.store(key, other.export_artifacts())
        engine = Engine(g, EngineConfig(session=modeled(g), pool_size=1, cache_dir=cache_dir))
        assert engine.metrics.value("engine.cache.hits") == 1  # it *was* applied...
        out = engine.infer(feed())  # ...but inference is still correct
        gold = list(Session(serving_net(32), modeled(g)).run(feed()).values())[0]
        np.testing.assert_array_equal(list(out.values())[0], gold)


class TestDamagedEntryIsAMiss:
    """A parseable entry whose Winograd transforms were damaged on disk is
    an unreadable entry: counted in ``cache.corrupt``, quarantined and
    recomputed.  The warm engine answers bitwise like an uncached session,
    and so does an uncached session built afterwards in the same process
    (the damage never reaches the process-wide transform cache)."""

    def _check(self, cache_dir, damage):
        x = feed(seed=5)
        config = modeled(serving_net())
        gold = list(Session(serving_net(), config).run(x).values())[0]
        clear_transform_cache()
        cold = Engine(serving_net(), EngineConfig(
            session=config, pool_size=1, cache_dir=cache_dir))
        path = cold.cache.path(cold.cache_key)
        data = json.loads(path.read_text())
        damage(data["winograd"][0])
        path.write_text(json.dumps(data))

        clear_transform_cache()  # a fresh process
        corrupt = get_metrics().value("cache.corrupt")
        warm = Engine(serving_net(), EngineConfig(
            session=config, pool_size=1, cache_dir=cache_dir))
        assert warm.metrics.value("engine.cache.misses") == 1
        assert get_metrics().value("cache.corrupt") == corrupt + 1
        np.testing.assert_array_equal(list(warm.infer(x).values())[0], gold)
        later = list(Session(serving_net(), config).run(x).values())[0]
        np.testing.assert_array_equal(later, gold)
        assert warm.cache.load(warm.cache_key) is not None  # healed by the store

    def test_missing_transform_field(self, cache_dir):
        self._check(cache_dir, lambda item: item.pop("f_num"))

    def test_scaled_transform(self, cache_dir):
        def scale(item):
            item["bt"] = (np.asarray(item["bt"]) * 1.5).tolist()

        self._check(cache_dir, scale)

    def test_misshapen_transform(self, cache_dir):
        def drop_row(item):
            item["at"] = item["at"][:-1]

        self._check(cache_dir, drop_row)


def rect_net():
    """An Inception-style 1x7 conv, which selection runs as rectangular
    Winograd F(1x4, 1x7)."""
    b = GraphBuilder("rectnet", seed=5)
    x = b.input("data", (1, 64, 17, 17))
    x = b.conv(x, oc=64, kernel=(1, 7), name="c17")
    b.output(b.global_avg_pool(x))
    return b.finish()


class TestSchemeArtifacts:
    def test_rectangular_transforms_persist(self, monkeypatch):
        """A warm session over exported artifacts derives no transform,
        rectangular tiles included (their k > 1 axis is exported)."""
        session = Session(rect_net(), modeled(rect_net()))
        assert session.schemes["c17"].tile == (1, 4)
        artifacts = SessionArtifacts.from_json(
            json.loads(json.dumps(session.export_artifacts().to_json())))
        assert set(artifacts.winograd) == {(4, 7, 1, 2)}
        clear_transform_cache()  # a fresh process

        def rederive(*args):
            raise AssertionError(f"transform {args} re-derived")

        monkeypatch.setattr(winograd, "_generate", rederive)
        warm = Session(rect_net(), artifacts=artifacts)
        x = {"data": RNG.standard_normal((1, 64, 17, 17)).astype(np.float32)}
        np.testing.assert_array_equal(warm.run(x)[warm.graph.outputs[0]],
                                      session.run(x)[session.graph.outputs[0]])

    def test_stale_scheme_kind_is_a_miss(self, cache_dir):
        """An entry in the format that had a separate ``winograd_rect``
        kind, with a valid digest: it decodes to nothing, counts in
        ``cache.corrupt``, and the engine answers like a cold one."""
        x = feed(seed=9)
        gold = list(Session(serving_net()).run(x).values())[0]
        cold = Engine(serving_net(), EngineConfig(pool_size=1, cache_dir=cache_dir))
        path = cold.cache.path(cold.cache_key)
        data = json.loads(path.read_text())
        del data["sha256"]
        for decision in data["schemes"].values():
            n_hw = decision.pop("tile")
            decision.update(winograd_n=1, winograd_n_hw=n_hw)
            if decision["kind"] == "winograd":
                decision["kind"] = "winograd_rect"
        stale = json.dumps({**data, "sha256": _digest(data)})

        path.write_text(stale)
        corrupt = get_metrics().value("cache.corrupt")
        assert cold.cache.load(cold.cache_key) is None
        assert get_metrics().value("cache.corrupt") == corrupt + 1

        path.write_text(stale)
        clear_transform_cache()
        warm = Engine(serving_net(), EngineConfig(pool_size=1, cache_dir=cache_dir))
        assert warm.metrics.value("engine.cache.misses") == 1
        assert get_metrics().value("cache.corrupt") == corrupt + 2
        np.testing.assert_array_equal(list(warm.infer(x).values())[0], gold)


class TestEngineWarmup:
    def test_cold_then_warm_process(self, cache_dir):
        g = serving_net()
        cold = Engine(g, EngineConfig(session=modeled(g), pool_size=2, cache_dir=cache_dir))
        # first worker cold, second already warm from the fresh entry
        assert cold.metrics.value("engine.cache.misses") == 1
        assert cold.metrics.value("engine.cache.hits") == 1

        # simulate a new process: blow away the in-memory transform cache
        clear_transform_cache()
        warm = Engine(g, EngineConfig(session=modeled(g), pool_size=2, cache_dir=cache_dir))
        assert warm.metrics.value("engine.cache.misses") == 0
        assert warm.metrics.value("engine.cache.hits") == 2
        assert transform_cache_entries()  # preloaded from disk
        x = feed()
        np.testing.assert_array_equal(
            list(warm.infer(x).values())[0], list(cold.infer(x).values())[0]
        )

    def test_engine_reads_its_entry_once(self, cache_dir, monkeypatch):
        """Every session after an engine's first is built from the first
        one's artifacts: one read per engine, warm or cold."""
        loads = []
        real_load = PreInferenceCache.load
        monkeypatch.setattr(PreInferenceCache, "load",
                            lambda cache, key: loads.append(key) or real_load(cache, key))
        g = serving_net()
        cold = Engine(g, EngineConfig(pool_size=3, cache_dir=cache_dir))
        assert len(loads) == 1 and cold.cache.entries() == [cold.cache_key]
        warm = Engine(g, EngineConfig(pool_size=3, cache_dir=cache_dir))
        assert len(loads) == 2
        assert warm.metrics.value("engine.cache.hits") == 3
        x = feed()
        np.testing.assert_array_equal(
            list(warm.infer(x).values())[0], list(cold.infer(x).values())[0])

    def test_traced_warm_engine_replays_the_cold_products(self, cache_dir, monkeypatch):
        """On the serving bench graph, a traced warm engine hits the cache
        once (digest check and full decode of the entry), its
        scheme_selection and memory_plan spans say cached=True, its
        scheme selection times no runner, and it answers bitwise equal to
        the cold engine."""
        net = optimize(squeezenet_v1_1(input_size=96, classes=10))
        tracer = Tracer()
        clear_transform_cache()
        cold = Engine(net, EngineConfig(pool_size=1, cache_dir=cache_dir))
        clear_transform_cache()  # a fresh process: no transforms, no verdicts
        monkeypatch.setattr(autotune, "_VERDICTS", {})
        warm = Engine(net, EngineConfig(pool_size=1, cache_dir=cache_dir, trace=tracer))

        assert warm.metrics.value("engine.cache.hits") == 1, "warm engine missed the cache"
        for stage in ("scheme_selection", "memory_plan"):
            spans = [s for s in tracer.spans if s.name == stage]
            assert spans and all(s.args.get("cached") is True for s in spans), (
                f"warm engine recomputed {stage}: {[s.args for s in spans]}"
            )
        probes = [s.args.get("probes") for s in tracer.spans if s.name == "scheme_selection"]
        assert probes == [0], f"warm engine re-timed its scheme verdicts: {probes}"

        name = net.inputs[0]
        x = {name: np.random.default_rng(0).standard_normal(net.desc(name).shape).astype(np.float32)}
        gold = cold.infer(x)
        out = warm.infer(x)
        assert all(np.array_equal(out[k], gold[k]) for k in gold), (
            "warm engine diverges from the cold one"
        )

    def test_warm_prepare_is_faster(self, cache_dir):
        g = serving_net(64)
        clear_transform_cache()  # make the cold engine genuinely cold
        cold = Engine(g, EngineConfig(pool_size=1, cache_dir=cache_dir))
        clear_transform_cache()
        warm = Engine(g, EngineConfig(pool_size=1, cache_dir=cache_dir))
        warm_ms = warm.metrics.histogram("engine.prepare.warm_ms").values[0]
        assert warm_ms < cold.metrics.histogram("engine.prepare.cold_ms").values[0]

    def test_cache_disabled(self, cache_dir):
        engine = Engine(serving_net(), EngineConfig(
            pool_size=2, use_cache=False, cache_dir=cache_dir))
        assert engine.cache is None and engine.cache_key is None
        # uncached prepares all count as cold
        assert engine.metrics.value("engine.cache.hits") == 0
        assert engine.metrics.value("engine.cache.misses") == 2
        assert list(engine.infer(feed()).values())[0].shape == (1, 10)


class TestSessionPool:
    def test_checkout_and_return(self, cache_dir):
        pool = SessionPool(lambda: Session(serving_net()), size=2)
        assert pool.size == 2 and pool.idle() == 2
        with pool.acquire() as s:
            assert isinstance(s, Session)
            assert pool.idle() == 1
        assert pool.idle() == 2

    def test_acquire_timeout_backpressure(self):
        from repro.faults import PoolTimeout, ResilienceError

        pool = SessionPool(lambda: Session(serving_net(16)), size=1)
        with pool.acquire():
            with pytest.raises(PoolTimeout) as exc_info:
                with pool.acquire(timeout=0.05):
                    pass
        err = exc_info.value
        assert isinstance(err, ResilienceError)
        assert err.wait_s >= 0.05
        assert err.size == 1
        assert err.idle == 0

    def test_invalid_size(self):
        with pytest.raises(ValueError, match="pool size"):
            SessionPool(lambda: Session(serving_net(16)), size=0)


class TestConcurrentStress:
    def test_pooled_engine_bit_identical_to_serial(self, cache_dir):
        """ISSUE acceptance: N threads hammering one pooled engine must
        produce results bit-identical to a serial session."""
        g = serving_net()
        requests = [feed(seed=i) for i in range(24)]
        serial = Session(g)
        gold = [list(serial.run(x).values())[0] for x in requests]

        engine = Engine(g, EngineConfig(pool_size=3, cache_dir=cache_dir))
        results = engine.infer_many(requests, clients=6)
        assert engine.metrics.value("engine.requests") == len(requests)
        for got, want in zip(results, gold):
            np.testing.assert_array_equal(list(got.values())[0], want)

    def test_raw_threads_against_engine(self, cache_dir):
        g = serving_net()
        x = feed(seed=42)
        gold = list(Session(g).run(x).values())[0]
        engine = Engine(g, EngineConfig(pool_size=2, cache_dir=cache_dir))
        outs = [None] * 8

        def client(i):
            outs[i] = list(engine.infer(x).values())[0]

        threads = [threading.Thread(target=client, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for got in outs:
            np.testing.assert_array_equal(got, gold)


class TestMicroBatching:
    def test_coalesces_into_one_batch(self):
        g = serving_net()
        with MicroBatcher(lambda: Session(g), max_batch=4) as batcher:
            futures = batcher.submit_many([feed(seed=i) for i in range(4)])
            results = [f.result(timeout=30) for f in futures]
        assert batcher.stats.requests == 4
        assert batcher.stats.batches == 1  # one call, one free seat
        assert batcher.stats.batched_requests == 4
        assert batcher.stats.max_batch_seen == 4
        serial = Session(serving_net())
        for i, out in enumerate(results):
            got = list(out.values())[0]
            assert got.shape == (1, 10)
            want = list(serial.run(feed(seed=i)).values())[0]
            np.testing.assert_array_equal(got, want)

    def test_mixed_shapes_bucket_separately(self):
        g = serving_net()
        with MicroBatcher(lambda: Session(g), max_batch=4) as batcher:
            small = [batcher.submit(feed(hw=32, seed=i)) for i in range(2)]
            large = [batcher.submit(feed(hw=48, seed=i)) for i in range(2)]
            outs = [f.result(timeout=30) for f in small + large]
        for out in outs:
            assert list(out.values())[0].shape == (1, 10)
        assert batcher.stats.requests == 4
        assert batcher.stats.batches >= 2  # shapes never share a batch

    def test_multi_sample_requests_and_split(self):
        g = serving_net()
        with MicroBatcher(lambda: Session(g), max_batch=8) as batcher:
            f2 = batcher.submit(feed(batch=2, seed=1))
            f3 = batcher.submit(feed(batch=3, seed=2))
            out2, out3 = f2.result(timeout=30), f3.result(timeout=30)
        assert list(out2.values())[0].shape == (2, 10)
        assert list(out3.values())[0].shape == (3, 10)

    def test_batch_failure_hits_only_that_batch(self):
        g = serving_net()
        with MicroBatcher(lambda: Session(g), max_batch=2) as batcher:
            from repro.ir import GraphError

            with pytest.raises(GraphError):
                batcher.infer({"data": np.zeros((1, 3, 32, 32), np.float64)})
            # the batcher survives: the next well-formed request succeeds
            out = batcher.infer(feed())
            assert list(out.values())[0].shape == (1, 10)

    def test_rejects_mismatched_leading_dims(self):
        from repro.ir import GraphError

        b = GraphBuilder("two_in", seed=0)
        x = b.input("a", (2, 4))
        y = b.input("b", (3, 4))
        b.output(b.fc(x, units=2), b.fc(y, units=2))
        g = b.finish()
        with MicroBatcher(lambda: Session(g), max_batch=2) as batcher:
            with pytest.raises(GraphError, match="leading batch dimension"):
                batcher.submit({
                    "a": np.zeros((2, 4), np.float32),
                    "b": np.zeros((3, 4), np.float32),
                })

    def test_closed_batcher_rejects_submissions(self):
        batcher = MicroBatcher(lambda: Session(serving_net(16)), max_batch=2)
        batcher.close()
        with pytest.raises(RuntimeError, match="closed"):
            batcher.submit(feed(hw=16))

    def test_closing_an_engine_releases_its_bucket_sessions(self, cache_dir):
        """A batch session holds its activation arena, and an engine sits
        in a reference cycle with its batcher: close must drop every
        seat's sessions itself, not leave them to the cycle
        collector."""
        import gc
        import weakref

        gc.disable()
        try:
            engine = Engine(serving_net(), EngineConfig(
                pool_size=1, cache_dir=cache_dir, batching=True, max_batch=2,
            ))
            engine.infer(feed())
            engine.infer(feed(batch=2))
            sessions = [
                weakref.ref(s)
                for d in engine.batcher._seats for s in d.sessions.values()
            ]
            assert len(sessions) == 1  # one per signature, resized in place
            assert all(ref() is not None for ref in sessions)
            engine.close()
            assert all(ref() is None for ref in sessions)
        finally:
            gc.enable()

    def test_engine_batched_matches_serial(self, cache_dir):
        g = serving_net()
        requests = [feed(seed=i) for i in range(12)]
        serial = Session(g)
        gold = [list(serial.run(x).values())[0] for x in requests]
        with Engine(g, EngineConfig(
            pool_size=2, cache_dir=cache_dir, batching=True,
            max_batch=4,
        )) as engine:
            results = engine.infer_many(requests, clients=6)
        stats = engine.batcher.stats
        assert stats.requests == 12
        assert stats.batches <= 12
        for got, want in zip(results, gold):
            np.testing.assert_array_equal(list(got.values())[0], want)


def _barrier_session(barrier):
    """A serving_net session whose run waits on ``barrier`` first."""
    session = Session(serving_net(16))
    run = session.run

    def waiting_run(feeds, deadline=None):
        barrier.wait()
        return run(feeds, deadline=deadline)

    session.run = waiting_run
    return session


class TestDispatchers:
    def test_two_dispatchers_run_two_requests_at_once(self):
        """Work-conserving dispatch: two client threads run their requests
        side by side on two seats.  Each run waits for the other at a
        2-party barrier, so one seat (or one batch of two) would time the
        barrier out."""
        barrier = threading.Barrier(2, timeout=5)
        outs = [None, None]
        with MicroBatcher(lambda: _barrier_session(barrier), max_batch=4,
                          seats=2) as batcher:
            def client(i):
                outs[i] = batcher.infer(feed(hw=16, seed=i))

            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        assert not barrier.broken
        assert batcher.stats.batches == 2
        serial = Session(serving_net(16))
        for i, out in enumerate(outs):
            want = serial.run(feed(hw=16, seed=i))
            for name in want:
                np.testing.assert_array_equal(out[name], want[name])

    def test_steady_state_never_resizes(self):
        """Two closed-loop clients on two seats with a zero window
        never share a batch, so every batch runs at the graph's native
        batch of one and no pre-inference reruns; a repeated batch size
        resizes once, on its first batch."""
        g = serving_net(16)
        with MicroBatcher(lambda: Session(g), max_batch=4,
                          seats=2) as batcher:
            def client(seed):
                for i in range(8):
                    batcher.infer(feed(hw=16, seed=seed * 8 + i))

            threads = [threading.Thread(target=client, args=(k,))
                       for k in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert batcher.stats.requests == 16
            assert batcher.stats.max_batch_seen == 1
            assert batcher.stats.resizes == 0
        with MicroBatcher(lambda: Session(g), max_batch=4) as batcher:
            for seed in range(4):
                batcher.infer(feed(hw=16, batch=3, seed=seed))
            assert batcher.stats.resizes == 1

    def test_dispatchers_are_capped_at_the_usable_cores(self, cache_dir,
                                                        monkeypatch):
        """A process pinned to one core gets one seat, whatever
        ``pool_size`` asks for."""
        import os

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        with Engine(serving_net(16), EngineConfig(
            pool_size=4, cache_dir=cache_dir, batching=True,
        )) as engine:
            assert engine.batcher.seats == 1

    def test_oversized_requests_reuse_one_session(self):
        """Requests larger than max_batch run alone on the seat's
        one session for their signature, resized in place, so a stream
        of new sizes never grows the batcher's sessions."""
        g = serving_net(16)
        with MicroBatcher(lambda: Session(g), max_batch=2) as batcher:
            outs = {n: batcher.infer(feed(hw=16, batch=n, seed=n))
                    for n in (3, 4, 5)}
            assert len(batcher._seats[0].sessions) == 1
            assert batcher.stats.resizes == 3
        for n, out in outs.items():
            assert list(out.values())[0].shape == (n, 10)

    def test_buckets_dispatch_in_first_arrival_order(self):
        """One seat, ``max_batch=2``: of ``[A, A, A, B]`` the first
        two A's run, the leftover A requeues behind B, so no bucket
        starves behind a busy sibling."""
        order = []

        def recording_session():
            session = Session(serving_net(16))
            run = session.run

            def recording_run(feeds, deadline=None):
                shape = feeds["data"].shape
                order.append((shape[0], shape[2]))
                return run(feeds, deadline=deadline)

            session.run = recording_run
            return session

        requests = [feed(hw=16, seed=i) for i in range(3)] + [feed(hw=24)]
        with MicroBatcher(recording_session, max_batch=2) as batcher:
            outs = [f.result(timeout=30) for f in batcher.submit_many(requests)]
        assert order == [(2, 16), (1, 24), (1, 16)]
        assert batcher.stats.batches == 3
        for out in outs:
            assert list(out.values())[0].shape == (1, 10)

    def test_bucket_sessions_match_serial_across_resizes(self):
        """The seat's one session for a signature, resized in place
        1 -> 4 -> 2, answers bitwise like a serial session at each
        micro-batch size."""
        g = serving_net(16)
        with MicroBatcher(lambda: Session(g), max_batch=4) as batcher:
            out4 = batcher.infer(feed(hw=16, batch=4, seed=3))
            out2 = batcher.infer(feed(hw=16, batch=2, seed=4))
            assert batcher.stats.resizes == 2
            assert len(batcher._seats[0].sessions) == 1
        assert list(out4.values())[0].shape == (4, 10)
        assert list(out2.values())[0].shape == (2, 10)
        serial = Session(serving_net(16))
        for out, batch, seed in ((out4, 4, 3), (out2, 2, 4)):
            serial.resize({"data": (batch, 3, 16, 16)})
            want = serial.run(feed(hw=16, batch=batch, seed=seed))
            for name in want:
                np.testing.assert_array_equal(out[name], want[name])

    # The transformer graphs (tiny_transformer, tiny_decoder) are left
    # out: their Reshape fixes the batch size, so they cannot be resized
    # along the batch axis at all.
    @pytest.mark.parametrize("name,kwargs", [
        ("squeezenet_v1.0", {"input_size": 64}),
        ("squeezenet_v1.1", {"input_size": 64}),
        ("mobilenet_v1", {"input_size": 32}),
        ("mobilenet_v2", {"input_size": 32}),
        ("resnet18", {"input_size": 32}),
        ("resnet50", {"input_size": 32}),
        ("inception_v3", {"input_size": 75}),
        ("lstm_classifier", {"seq_len": 16}),
    ])
    def test_batched_rows_equal_batch_one(self, name, kwargs):
        """Three requests run as one batch of three: each row is bitwise
        equal to that request's batch-1 run, so a request's answer never
        depends on which requests share its batch."""
        from repro.analysis.verify_passes import random_feeds
        from repro.models import build_model

        g = build_model(name, **kwargs)
        requests = [random_feeds(g, seed=i) for i in range(3)]
        serial = Session(g)
        gold = [serial.run(x) for x in requests]
        with MicroBatcher(lambda: Session(g), max_batch=3) as batcher:
            outs = [f.result(timeout=60) for f in batcher.submit_many(requests)]
        assert batcher.stats.batches == 1
        for out, want in zip(outs, gold):
            for key in want:
                np.testing.assert_array_equal(out[key], want[key])


def _held_session(started, release):
    """A serving_net session whose first run signals ``started`` and
    blocks until ``release`` is set."""
    session = Session(serving_net(16))
    run = session.run

    def held_run(feeds, deadline=None):
        if not release.is_set():
            started.set()
            release.wait(timeout=30)
        return run(feeds, deadline=deadline)

    session.run = held_run
    return session


def _wait_pending(batcher, n, timeout_s=10.0):
    """Wait until ``n`` requests sit in the batcher's buckets."""
    stop = time.monotonic() + timeout_s
    while sum(map(len, list(batcher._pending.values()))) < n:
        assert time.monotonic() < stop, "requests never queued"
        time.sleep(0.005)


class TestCallersThread:
    def test_batches_run_on_the_callers_thread(self, cache_dir):
        """Batching starts no thread: a synchronous infer's batch runs
        on the caller's own thread."""
        tracer = Tracer()
        with Engine(serving_net(16), EngineConfig(
            pool_size=2, cache_dir=cache_dir, batching=True, trace=tracer,
        )) as engine:
            assert not [t for t in threading.enumerate()
                        if t.name.startswith("repro-microbatcher")]
            engine.infer(feed(hw=16))
        runs = [s for s in tracer.spans if s.name == "batch.run"]
        assert [s.tid for s in runs] == [threading.get_ident()]

    def test_waiting_callers_run_as_one_batch(self):
        """One seat, held by a blocked first run: three more clients
        queue meanwhile, and once the seat frees they run as one batch
        of three, each row bitwise the serial session's answer."""
        started, release = threading.Event(), threading.Event()
        outs = {}
        with MicroBatcher(lambda: _held_session(started, release),
                          max_batch=4, seats=1) as batcher:
            def client(i):
                outs[i] = batcher.infer(feed(hw=16, seed=i))

            threads = [threading.Thread(target=client, args=(0,))]
            threads[0].start()
            assert started.wait(timeout=30)
            threads += [threading.Thread(target=client, args=(i,))
                        for i in (1, 2, 3)]
            for t in threads[1:]:
                t.start()
            _wait_pending(batcher, 3)
            release.set()
            for t in threads:
                t.join(timeout=30)
        assert batcher.stats.batches == 2
        assert batcher.stats.max_batch_seen == 3
        serial = Session(serving_net(16))
        for i in range(4):
            want = serial.run(feed(hw=16, seed=i))
            for name in want:
                np.testing.assert_array_equal(outs[i][name], want[name])

    def test_a_batched_deadline_is_withdrawn(self, cache_dir, monkeypatch):
        """A request still queued when its deadline expires leaves its
        bucket typed (``batch.wait``) and never runs."""
        from repro.faults import DeadlineExceeded

        started, release = threading.Event(), threading.Event()
        monkeypatch.setattr(Engine, "_create_session",
                            lambda self: _held_session(started, release))
        engine = Engine(serving_net(16), EngineConfig(
            pool_size=1, cache_dir=cache_dir, batching=True,
        ))
        with engine:
            first = threading.Thread(target=engine.infer, args=(feed(hw=16),))
            first.start()
            assert started.wait(timeout=30)
            t0 = time.monotonic()
            with pytest.raises(DeadlineExceeded) as info:
                engine.infer(feed(hw=16, seed=1), deadline_ms=50)
            assert time.monotonic() - t0 < 0.5
            assert info.value.where == "batch.wait"
            release.set()
            first.join(timeout=30)
        assert engine.batcher.stats.requests == 1


class TestServingCli:
    @pytest.fixture()
    def model_path(self, tmp_path):
        path = str(tmp_path / "serve.rmnn")
        save_model(serving_net(), path)
        return path

    def test_warm_cold_then_hit(self, model_path, cache_dir, capsys):
        assert main(["warm", model_path, "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "cold prepare" in out and "warm prepare" in out
        assert main(["warm", model_path, "--cache-dir", cache_dir]) == 0
        assert "already warm" in capsys.readouterr().out

    def test_serve_selftest(self, model_path, cache_dir, capsys):
        """Pooled ``cli serve``; TestConcurrentStress proves its answers."""
        assert main([
            "serve", model_path, "--requests", "8", "--clients", "3",
            "--pool", "2", "--cache-dir", cache_dir,
        ]) == 0
        out = capsys.readouterr().out
        assert "pool:       2 sessions, 3 clients" in out
        assert "8 requests served" in out
        assert "req/s" in out

    def test_serve_selftest_batched(self, model_path, cache_dir, capsys):
        """Micro-batched ``cli serve``; TestMicroBatching proves its answers."""
        assert main([
            "serve", model_path, "--requests", "8", "--clients", "4",
            "--batch", "4", "--cache-dir", cache_dir,
        ]) == 0
        out = capsys.readouterr().out
        assert "batcher:    max batch 4" in out
        assert "batching:   8 requests in" in out

    def test_serve_honors_env_cache_dir(self, model_path, tmp_path,
                                        monkeypatch, capsys):
        cache = tmp_path / "envcache"
        monkeypatch.setenv(CACHE_ENV_VAR, str(cache))
        assert main(["warm", model_path]) == 0
        capsys.readouterr()
        assert cache.is_dir() and list(cache.glob("*.json"))
