"""Integration tests: the sanitizer live inside the real stack.

Three claims, each load-bearing for the ``scripts/check.sh`` gate:

1. **Clean code reports clean** — sanitized serving engines (pool +
   micro-batcher under real concurrent clients), sanitized sessions with
   parallel branches, and the sanitized generation stack all finish with
   zero races, zero lock cycles, zero lifecycle findings.
2. **Seeded bugs are caught** — the pre-fix races this PR fixed (the
   ``pool.idle`` gauge lost-update, the silent KV slab use-after-free)
   stay fixed, with regression tests that fail if the old behaviour
   returns; scheduler misuse (concurrent ``run()``) is detected.
3. **Disabled is ~free** — the structural overhead guard holds the
   disabled-mode cost under 10% of a small-model run loop.
"""

import threading
import time

import numpy as np
import pytest

from repro.core import Session, SessionConfig
from repro.ir import GraphBuilder
from repro.obs.metrics import MetricsRegistry
from repro.runtime import Runtime
from repro.sanitize import Sanitizer

pytestmark = pytest.mark.sanitize

RNG = np.random.default_rng(7)


def small_net(hw=16):
    b = GraphBuilder("saninet", seed=3)
    x = b.input("data", (1, 3, hw, hw))
    x = b.conv(x, oc=8, kernel=3, pad_mode="same", activation="relu")
    x = b.conv(x, oc=8, kernel=1)
    x = b.fc(b.global_avg_pool(x), units=4)
    b.output(b.softmax(x))
    return b.finish()


def branchy_net(hw=12):
    """Two independent conv branches: real thread-parallel execution."""
    b = GraphBuilder("branchnet", seed=5)
    x = b.input("data", (1, 4, hw, hw))
    left = b.conv(x, oc=8, kernel=3, pad_mode="same", activation="relu")
    right = b.conv(x, oc=8, kernel=1, activation="relu")
    out = b.add(left, right)
    b.output(b.fc(b.global_avg_pool(out), units=3))
    return b.finish()


def feed(graph, seed=0):
    rng = np.random.default_rng(seed)
    name = graph.inputs[0]
    return {name: rng.standard_normal(graph.desc(name).shape).astype(np.float32)}


class TestSanitizedSession:
    def test_parallel_branch_session_is_clean(self):
        g = branchy_net()
        session = Session(
            g, SessionConfig(decouple=True, threads=2),
            runtime=Runtime.resolve(sanitize=True),
        )
        feeds = feed(g)
        for _ in range(3):
            session.run(feeds)
        report = session.sanitizer.report()
        assert report.ok, report.describe()

    def test_sanitized_output_matches_unsanitized(self):
        g = small_net()
        feeds = feed(g)
        gold = Session(g).run(feeds)
        out = Session(g, runtime=Runtime.resolve(sanitize=True)).run(feeds)
        for k in gold:
            np.testing.assert_array_equal(gold[k], out[k])

    @pytest.mark.parametrize("entry", ["run", "run_profiled"])
    def test_concurrent_runs_on_one_session_are_a_detected_race(self, entry):
        """One Session is documented single-checkout; two threads running
        it concurrently is the bug the ``run_state`` probe exists for.
        The vector clocks never order the two runs (no handoff edge), so
        detection is deterministic — even if the GIL serializes them.
        ``run_profiled`` enters through the same path, probe included."""
        g = small_net()
        session = Session(g, runtime=Runtime.resolve(sanitize=True))
        feeds = feed(g)
        barrier = threading.Barrier(2)
        errors = []

        def worker():
            barrier.wait()
            try:
                getattr(session, entry)(feeds)
            except Exception as exc:  # a crash would mask the finding
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        report = session.sanitizer.report()
        assert any("run_state" in r.var for r in report.races), report.describe()


class TestSanitizedServing:
    def test_concurrent_pool_clients_are_clean(self):
        from repro.serving import Engine, EngineConfig

        g = small_net()
        engine = Engine(g, EngineConfig(
            pool_size=3, use_cache=False, sanitize=True,
        ))
        feeds = feed(g)
        gold = Session(g).run(feeds)
        failures = []

        def client():
            for _ in range(4):
                out = engine.infer(feeds)
                for k in gold:
                    if not np.array_equal(out[k], gold[k]):
                        failures.append(k)

        with engine:
            threads = [threading.Thread(target=client) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert not failures
        report = engine.sanitizer.report()
        assert report.ok, report.describe()

    def test_pool_idle_gauge_survives_concurrent_churn(self):
        """Regression for the sanitizer's first real find: ``pool.idle``
        was maintained with read-modify-write ``set(qsize())`` from
        concurrent checkouts — lost updates, and a stale final value.
        The fix (atomic ``Gauge.add``) must keep the books exact."""
        from repro.serving import SessionPool

        g = small_net()
        metrics = MetricsRegistry()
        pool = SessionPool(
            lambda: Session(g), size=3, runtime=Runtime.resolve(metrics=metrics)
        )

        def churn():
            for _ in range(25):
                with pool.acquire(timeout=10.0):
                    pass

        threads = [threading.Thread(target=churn) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert metrics.gauge("pool.idle").value == 3  # exact, not approximate

    def test_gauge_add_is_atomic_under_threads(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(0)

        def spin():
            for _ in range(1000):
                gauge.add(1)
                gauge.add(-1)

        threads = [threading.Thread(target=spin) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert gauge.value == 0

    def test_concurrent_batched_clients_are_clean(self):
        from repro.serving import Engine, EngineConfig

        g = small_net()
        engine = Engine(g, EngineConfig(
            pool_size=1, use_cache=False, batching=True,
            max_batch=4, batch_timeout_ms=5.0, sanitize=True,
        ))
        feeds = feed(g)
        gold = Session(g).run(feeds)
        mismatches = []

        def client():
            out = engine.infer(feeds)
            for k in gold:
                if not np.allclose(out[k], gold[k], rtol=1e-6, atol=1e-9):
                    mismatches.append(k)

        with engine:
            threads = [threading.Thread(target=client) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert not mismatches
        report = engine.sanitizer.report()
        assert report.ok, report.describe()


class TestSanitizedGenai:
    def _engine(self, **overrides):
        from repro.genai import GenerationConfig, GenerationEngine

        kwargs = dict(
            vocab=64, max_seq=24, d_model=16, heads=2, layers=1, seed=11,
            max_batch=2, page_tokens=4, capacity_tokens=64, smallest_bucket=8,
            metrics=MetricsRegistry(), sanitize=True,
        )
        kwargs.update(overrides)
        return GenerationEngine(GenerationConfig(**kwargs))

    def test_generation_stack_is_clean_including_close(self):
        from repro.genai import SamplingParams

        engine = self._engine()
        results = engine.generate(
            [[1, 2, 3], [4, 5], [6]], SamplingParams(max_tokens=6)
        )
        assert all(r.finish_reason in ("length", "stop") for r in results)
        engine.close()  # runs the KV leak check
        report = engine.sanitizer.report()
        assert report.ok, report.describe()

    def test_grown_slab_poisons_the_old_handle(self):
        """Regression (satellite fix): ``grow`` frees the old slab's pages
        while callers may still hold the old ``KVSlab``.  Reading K/V
        through it used to silently return memory that may now belong to
        another sequence; it must raise and record use-after-free."""
        from repro.genai.kvcache import (
            KVCacheAllocator, KVCacheConfig, KVCacheUseAfterFree,
        )

        metrics = MetricsRegistry()
        san = Sanitizer(metrics=metrics)
        alloc = KVCacheAllocator(
            KVCacheConfig(layers=1, heads=2, d_head=4, page_tokens=4,
                          capacity_tokens=64, max_seq=32),
            runtime=Runtime.resolve(metrics=metrics, sanitize=san),
        )
        old = alloc.alloc("s", 4)
        old.k(0)[:] = 1.0
        old.length = 4
        grown = alloc.grow(old, old.capacity + 1)
        assert grown is not old and not grown.freed
        with pytest.raises(KVCacheUseAfterFree):
            old.k(0)
        findings = san.report().lifecycle
        assert any(f.rule == "use-after-free" for f in findings)
        assert metrics.value("sanitize.leaks") >= 1
        alloc.release(grown)

    def test_leaked_slab_reported_at_engine_close(self):
        engine = self._engine()
        engine.allocator.alloc("dangling", 4)  # never released
        engine.close()
        report = engine.sanitizer.report()
        assert any(f.rule == "leak" for f in report.lifecycle)

    def test_retained_kv_slabs_are_not_leaks(self):
        from repro.genai import SamplingParams

        engine = self._engine(retain_kv=True)
        engine.generate([[1, 2, 3]], SamplingParams(max_tokens=4))
        engine.close()
        report = engine.sanitizer.report()
        assert not any(f.rule == "leak" for f in report.lifecycle), (
            "retired (LRU-evictable) slabs must not count as leaks"
        )

    def test_concurrent_scheduler_runs_are_a_detected_race(self):
        engine = self._engine()
        scheduler = engine.scheduler
        barrier = threading.Barrier(2)

        def worker():
            barrier.wait()
            scheduler.run([])  # empty: probes fire, no decode work races

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        report = engine.sanitizer.report()
        assert any("run_loop" in r.var for r in report.races), report.describe()
        engine.close()


class TestSlabPlanUnderChurn:
    def test_memory_plan_clean_across_100_grow_evict_cycles(self):
        """Satellite: the dynamic allocator's snapshot must stay provably
        alias-free through heavy LRU churn — 100 cycles of alloc, grow,
        retire and pressure-driven eviction, checked by the *independent*
        ``check_slab_plan`` sanitizer each cycle."""
        from repro.analysis.memcheck import check_slab_plan
        from repro.genai.kvcache import KVCacheAllocator, KVCacheConfig, KVCacheOOM

        metrics = MetricsRegistry()
        san = Sanitizer(metrics=metrics)
        config = KVCacheConfig(
            layers=1, heads=2, d_head=4, page_tokens=4,
            capacity_tokens=128, max_seq=32,
        )
        alloc = KVCacheAllocator(
            config, runtime=Runtime.resolve(metrics=metrics, sanitize=san)
        )
        rng = np.random.default_rng(0)
        for cycle in range(100):
            seq = f"seq-{cycle}"
            try:
                slab = alloc.alloc(seq, int(rng.integers(1, 9)))
            except KVCacheOOM:
                pytest.fail(f"cycle {cycle}: eviction ladder failed to make room")
            if rng.random() < 0.5:
                slab = alloc.grow(slab, slab.capacity + 1)
            # Retire (LRU-evictable): later cycles' allocations force
            # eviction once the arena fills.
            alloc.release(slab, evictable=True)
            plan = alloc.to_memory_plan()
            plan.validate()
            report = check_slab_plan(plan, page_bytes=config.page_bytes)
            assert report.ok, f"cycle {cycle}: {report.summary()}"
        assert metrics.value("kvcache.evictions") > 0  # churn actually evicted
        alloc.close()
        assert san.report().ok, san.report().describe()


class TestOverheadGuard:
    def test_disabled_sanitizer_overhead_under_10_percent(self):
        """Structural guard (same method as the tracer's): price the
        disabled-mode per-op cost — one ``enabled`` check at each probe
        site plus a worst-case full ``probe()``/``locked()`` call — and
        compare against a measured small-model run."""
        g = small_net()
        session = Session(g)
        feeds = feed(g)
        session.run(feeds)  # warm-up
        repeats = 10
        start = time.perf_counter()
        for _ in range(repeats):
            session.run(feeds)
        run_ms = (time.perf_counter() - start) * 1000.0 / repeats

        san = Sanitizer(enabled=False)
        lock = threading.Lock()
        obj = object()
        calls = 100_000
        start = time.perf_counter()
        for _ in range(calls):
            san.probe(obj, "f", "w")
            san.locked(lock, "n")
            san.hb_send("k")
        per_site_ms = (time.perf_counter() - start) * 1000.0 / calls

        # Worst case: every op pays three full disabled entry points
        # (reality is cheaper — hot loops guard on `.enabled` and skip
        # the calls entirely).
        n_ops = len(session._order)
        overhead_ms = per_site_ms * n_ops * 3
        assert overhead_ms < 0.10 * run_ms, (
            f"disabled sanitizer would add {overhead_ms:.4f} ms to a "
            f"{run_ms:.3f} ms run ({overhead_ms / run_ms * 100:.1f}%)"
        )


@pytest.mark.chaos
class TestSanitizedStorm:
    def test_200_fault_storm_reports_zero_findings(self):
        """The tentpole acceptance run: a full 200-fault chaos storm with
        the sanitizer live must stay OK *and* report zero races, zero
        lock cycles and zero lifecycle findings."""
        from repro.faults.chaos import run_chaos_storm

        report = run_chaos_storm(seed=0, target_faults=200, sanitize=True)
        assert report.sanitized
        assert report.races == 0, report.describe()
        assert report.lock_cycles == 0, report.describe()
        assert report.leaks == 0, report.describe()
        assert report.ok, report.describe()
        assert "sanitize" in report.describe()
