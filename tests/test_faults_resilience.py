"""Resilience-layer tests: deadlines, retries, the circuit breaker, and
the recovery paths wired through session, pool, batcher, cache and engine.

The recurring assertion is the robustness contract: whatever the fault
plan throws, a degraded response must be *bit-identical* to the
fault-free run (CPU re-dispatch preserves schemes; the numeric fallback
is the direct scheme, compared against a direct-scheme gold)."""

import random
import threading
import time

import numpy as np
import pytest

from repro.core import Session, SessionConfig
from repro.core.schemes import SchemeDecision
from repro.faults import (
    CircuitBreaker,
    Deadline,
    DeadlineExceeded,
    FatalFault,
    FaultPlan,
    FaultRule,
    InjectedFault,
    PoolTimeout,
    ResilienceError,
    TransientFault,
    retry_transient,
)
from repro.ir import GraphBuilder
from repro.obs import Tracer
from repro.obs.metrics import MetricsRegistry, get_metrics, set_metrics
from repro.runtime import Runtime

RNG = np.random.default_rng(0)


@pytest.fixture(autouse=True)
def _fresh_metrics():
    previous = set_metrics(MetricsRegistry())
    yield
    set_metrics(previous)


def tiny_net(hw=16):
    b = GraphBuilder("tiny", seed=2)
    x = b.input("data", (1, 3, hw, hw))
    x = b.conv(x, oc=8, kernel=3, activation="relu", name="conv1")
    x = b.conv(x, oc=8, kernel=1, name="conv2")
    x = b.fc(b.global_avg_pool(x), units=4)
    b.output(b.softmax(x))
    return b.finish()


def tiny_feed(hw=16):
    return {"data": RNG.standard_normal((1, 3, hw, hw)).astype(np.float32)}


class TestDeadline:
    def test_from_ms_none_propagates(self):
        assert Deadline.from_ms(None) is None
        assert isinstance(Deadline.from_ms(5.0), Deadline)

    def test_fresh_budget_not_expired(self):
        d = Deadline(1000.0)
        assert not d.expired
        assert d.remaining_s() > 0.5
        d.check("anywhere")  # must not raise

    def test_expired_check_raises_with_context(self):
        d = Deadline(0.0)
        time.sleep(0.001)
        assert d.expired
        with pytest.raises(DeadlineExceeded) as info:
            d.check("pool.checkout")
        assert info.value.where == "pool.checkout"
        assert info.value.elapsed_ms >= info.value.budget_ms
        assert isinstance(info.value, ResilienceError)

    def test_remaining_clamped_at_zero(self):
        d = Deadline(0.0)
        time.sleep(0.001)
        assert d.remaining_s() == 0.0


class TestRetryTransient:
    def test_retries_then_succeeds_and_counts(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise TransientFault("kernel.execute", "transient", 0)
            return "ok"

        assert retry_transient(flaky, retries=3, base_delay_ms=0.01) == "ok"
        assert len(calls) == 3
        assert get_metrics().value("retry.attempts") == 2

    def test_exhaustion_reraises_last_error(self):
        def always():
            raise TransientFault("pool.checkout", "transient", 0)

        with pytest.raises(TransientFault):
            retry_transient(always, retries=2, base_delay_ms=0.01)
        assert get_metrics().value("retry.attempts") == 2

    def test_non_transient_passes_through_uncounted(self):
        def fatal():
            raise FatalFault("kernel.execute", "fatal", 0)

        with pytest.raises(FatalFault):
            retry_transient(fatal, retries=5, base_delay_ms=0.01)
        assert get_metrics().value("retry.attempts") == 0

    def test_custom_transient_tuple(self):
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) == 1:
                raise OSError("blip")
            return 7

        assert retry_transient(
            flaky, retries=1, base_delay_ms=0.01, transient=(OSError,)
        ) == 7

    def test_deadline_bounds_backoff(self):
        d = Deadline(30.0)

        def always():
            raise TransientFault("pool.checkout", "transient", 0)

        start = time.perf_counter()
        with pytest.raises((TransientFault, DeadlineExceeded)):
            retry_transient(always, retries=50, base_delay_ms=10.0, deadline=d)
        assert (time.perf_counter() - start) < 1.0

    def test_jitter_rng_reproducible(self):
        def timings(seed):
            rng = random.Random(seed)
            draws = []
            orig = rng.random

            def spy():
                value = orig()
                draws.append(value)
                return value

            rng.random = spy
            with pytest.raises(TransientFault):
                retry_transient(
                    lambda: (_ for _ in ()).throw(
                        TransientFault("pool.checkout", "transient", 0)
                    ),
                    retries=3, base_delay_ms=0.01, rng=rng,
                )
            return draws

        assert timings(5) == timings(5)


class TestCircuitBreaker:
    def make(self, threshold=3, cooldown=10.0):
        clock = [0.0]
        breaker = CircuitBreaker(
            threshold=threshold, cooldown_s=cooldown,
            clock=lambda: clock[0], name="sim",
        )
        return breaker, clock

    def test_opens_after_consecutive_failures(self):
        breaker, _ = self.make()
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert get_metrics().value("breaker.opens") == 1
        assert get_metrics().value("breaker.opens.sim") == 1

    def test_success_resets_the_streak(self):
        breaker, _ = self.make()
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_open_short_circuits_and_counts(self):
        breaker, _ = self.make()
        for _ in range(3):
            breaker.record_failure()
        assert not breaker.allow()
        assert not breaker.allow()
        assert get_metrics().value("breaker.short_circuits") == 2

    def test_half_open_single_probe_then_close(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock[0] += 10.0
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.allow()        # the probe
        assert not breaker.allow()    # concurrent calls keep waiting
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()

    def test_failed_probe_restarts_cooldown(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock[0] += 10.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        clock[0] += 5.0
        assert not breaker.allow()
        clock[0] += 5.0
        assert breaker.allow()

    def test_zero_cooldown_every_call_probes(self):
        breaker, _ = self.make(cooldown=0.0)
        for _ in range(3):
            breaker.record_failure()
        for _ in range(5):
            assert breaker.allow()
        assert get_metrics().value("breaker.short_circuits") == 0


class TestSessionResilience:
    def test_dispatch_fatal_falls_back_bit_identical(self):
        graph = tiny_net()
        feeds = tiny_feed()
        gold = Session(graph).run(feeds)

        plan = FaultPlan([FaultRule("backend.dispatch", "fatal", times=1)])
        tracer = Tracer()
        out = Session(
            graph, runtime=Runtime.resolve(trace=tracer, faults=plan)
        ).run(feeds)
        assert plan.injected == 1
        assert get_metrics().value("fallback.ops") == 1
        for key in gold:
            assert np.array_equal(out[key], gold[key])
        assert any(s.name == "fallback.op" for s in tracer.spans)

    def test_kernel_transient_retried_away(self):
        graph = tiny_net()
        feeds = tiny_feed()
        gold = Session(graph).run(feeds)

        plan = FaultPlan([FaultRule("kernel.execute", "transient", times=2)])
        out = Session(graph, runtime=Runtime.resolve(faults=plan)).run(feeds)
        assert plan.injected == 2
        assert get_metrics().value("retry.attempts") == 2
        assert get_metrics().value("fallback.ops") == 0
        for key in gold:
            assert np.array_equal(out[key], gold[key])

    def test_breaker_demotes_after_repeated_fatals(self):
        graph = tiny_net()
        feeds = tiny_feed()
        gold = Session(graph).run(feeds)

        plan = FaultPlan([FaultRule("backend.dispatch", "fatal", times=8)])
        session = Session(
            graph, SessionConfig(breaker_threshold=2, breaker_cooldown_s=0.0),
            runtime=Runtime.resolve(faults=plan),
        )
        out = session.run(feeds)
        assert get_metrics().value("breaker.opens") >= 1
        for key in gold:
            assert np.array_equal(out[key], gold[key])
        # books stay balanced: every fired fault became an op fallback
        assert plan.injected == get_metrics().value("fallback.ops")

    def test_numeric_guard_reruns_winograd_on_direct_scheme(self):
        graph = tiny_net()
        feeds = tiny_feed()
        wino = {"conv1": SchemeDecision(kind="winograd", winograd_n=2)}
        direct = {"conv1": SchemeDecision(kind="sliding")}
        gold = Session(
            graph, SessionConfig(scheme_overrides=direct)
        ).run(feeds)

        plan = FaultPlan([FaultRule(
            "kernel.execute", "nan",
            match={"scheme": ("winograd", "winograd_rect")}, times=1,
        )])
        tracer = Tracer()
        out = Session(
            graph, SessionConfig(scheme_overrides=wino),
            runtime=Runtime.resolve(trace=tracer, faults=plan),
        ).run(feeds)
        assert plan.injected == 1
        assert get_metrics().value("fallback.numeric") == 1
        for key in gold:
            assert np.isfinite(out[key]).all()
            assert np.array_equal(out[key], gold[key])
        instants = [s for s in tracer.spans if s.name == "numeric_fallback"]
        assert len(instants) == 1

    def test_injected_nan_without_alternative_reruns_original(self):
        graph = tiny_net()
        feeds = tiny_feed()
        gold = Session(graph).run(feeds)

        # Poison the FC op (no direct-scheme alternative without
        # Strassen): the guard re-runs the original execution, which is
        # clean because the corruption was injected post-hoc.
        plan = FaultPlan([FaultRule(
            "kernel.execute", "nan", match={"op": "FullyConnected"}, times=1,
        )])
        out = Session(graph, runtime=Runtime.resolve(faults=plan)).run(feeds)
        assert plan.injected == 1
        assert get_metrics().value("fallback.numeric") == 1
        for key in gold:
            assert np.array_equal(out[key], gold[key])

    def test_resilience_off_lets_faults_escape(self):
        plan = FaultPlan([FaultRule("kernel.execute", "fatal", times=1)])
        session = Session(
            tiny_net(), SessionConfig(resilience=False),
            runtime=Runtime.resolve(faults=plan),
        )
        with pytest.raises(FatalFault):
            session.run(tiny_feed())

    def test_resize_rolls_back_under_injected_prepare_fault(self):
        graph = tiny_net()
        feeds = tiny_feed()
        # skip=1 spares construction; the first resize hits the fault.
        plan = FaultPlan([FaultRule("session.prepare", "fatal", skip=1, times=1)])
        session = Session(graph, runtime=Runtime.resolve(faults=plan))
        gold = session.run(feeds)

        with pytest.raises(FatalFault):
            session.resize({"data": (1, 3, 32, 32)})
        # the old shape must still serve, bit-identically
        out = session.run(feeds)
        for key in gold:
            assert np.array_equal(out[key], gold[key])
        # and a later fault-free resize works
        session.resize({"data": (1, 3, 32, 32)})
        session.run({"data": np.zeros((1, 3, 32, 32), np.float32)})

    def test_run_deadline_zero_raises(self):
        session = Session(tiny_net())
        with pytest.raises(DeadlineExceeded):
            session.run(tiny_feed(), deadline=Deadline(0.0))


class TestPoolResilience:
    def test_checkout_transient_retried(self):
        from repro.serving.pool import SessionPool

        graph = tiny_net()
        plan = FaultPlan([FaultRule("pool.checkout", "transient", times=2)])
        pool = SessionPool(
            lambda: Session(graph), size=1, runtime=Runtime.resolve(faults=plan)
        )
        with pool.acquire() as session:
            assert session is not None
        assert plan.injected == 2
        assert get_metrics().value("retry.attempts") == 2

    def test_checkout_exhaustion_escalates(self):
        from repro.serving.pool import SessionPool

        graph = tiny_net()
        plan = FaultPlan([FaultRule("pool.checkout", "transient")])
        pool = SessionPool(
            lambda: Session(graph), size=1, retries=2,
            runtime=Runtime.resolve(faults=plan),
        )
        with pytest.raises(TransientFault):
            with pool.acquire():
                pass

    def test_empty_pool_times_out_typed(self):
        from repro.serving.pool import SessionPool

        graph = tiny_net()
        pool = SessionPool(lambda: Session(graph), size=1)
        with pool.acquire():
            with pytest.raises(PoolTimeout) as info:
                with pool.acquire(timeout=0.05):
                    pass
        assert info.value.size == 1
        assert info.value.idle == 0
        assert info.value.wait_s >= 0.04

    def test_deadline_beats_timeout(self):
        from repro.serving.pool import SessionPool

        graph = tiny_net()
        pool = SessionPool(lambda: Session(graph), size=1)
        with pool.acquire():
            deadline = Deadline(30.0)
            with pytest.raises(DeadlineExceeded):
                with pool.acquire(timeout=10.0, deadline=deadline):
                    pass


class TestBatcherResilience:
    def _engine(self, plan, max_batch=4):
        from repro.serving.engine import Engine, EngineConfig

        return Engine(tiny_net(), EngineConfig(
            session=SessionConfig(breaker_cooldown_s=0.0),
            pool_size=1, use_cache=False,
            batching=True, max_batch=max_batch, batch_timeout_ms=200.0,
            faults=plan, metrics=get_metrics(),
        ))

    def test_bisect_isolates_poison_batch(self):
        gold_session = Session(tiny_net())
        requests = [tiny_feed() for _ in range(4)]
        golds = [gold_session.run(f) for f in requests]

        # budget 7 = full bisect cascade of a 4-batch: 4+2+2 then singles
        plan = FaultPlan([FaultRule("batch.assemble", "fatal", times=7)])
        with self._engine(plan) as engine:
            futures = [engine.batcher.submit(f) for f in requests]
            failures = []
            for future in futures:
                try:
                    future.result(timeout=30.0)
                except InjectedFault as exc:
                    failures.append(exc)
            # 7 faults kill the 4-batch, both 2-batches and all singles
            assert len(failures) == 4
            for exc in failures:
                assert exc.batch_members == 1  # failed alone
                assert hasattr(exc, "batch_bucket")
        # 3 bisection retries (one per failed multi-member batch) and 4
        # isolated failures absorb all 7 faults.
        assert get_metrics().value("retry.attempts") == 3
        assert get_metrics().value("faults.isolated") == 4
        assert plan.injected == 7

        # The engine is still serving, bit-identically.
        with self._engine(FaultPlan()) as engine:
            for feeds, gold in zip(requests, golds):
                out = engine.batcher.submit(feeds).result(timeout=30.0)
                for key in gold:
                    assert np.array_equal(out[key], gold[key])

    def test_partial_poison_other_requests_survive(self):
        gold_session = Session(tiny_net())
        requests = [tiny_feed() for _ in range(4)]
        golds = [gold_session.run(f) for f in requests]

        # 3 faults: the 4-batch and one 2-batch fail, one single fails;
        # the sibling single and the other half succeed on retry.
        plan = FaultPlan([FaultRule("batch.assemble", "fatal", times=3)])
        with self._engine(plan) as engine:
            futures = [engine.batcher.submit(f) for f in requests]
            served, failed = 0, 0
            for future, gold in zip(futures, golds):
                try:
                    out = future.result(timeout=30.0)
                except InjectedFault:
                    failed += 1
                else:
                    served += 1
                    for key in gold:
                        assert np.array_equal(out[key], gold[key])
        assert failed == 1 and served == 3
        assert get_metrics().value("faults.isolated") == 1
        assert get_metrics().value("retry.attempts") == 2

    def test_base_exception_not_delivered_to_futures(self, monkeypatch):
        # A KeyboardInterrupt in the dispatcher must not be swallowed
        # into a future like an op failure: pending requests get a
        # RuntimeError and the interrupt re-raises in the dispatcher
        # (whose excepthook we silence for the test).
        from repro.serving.batching import MicroBatcher

        monkeypatch.setattr(threading, "excepthook", lambda args: None)
        session = Session(tiny_net())

        def interrupted(feeds, deadline=None):
            raise KeyboardInterrupt

        session.run = interrupted
        batcher = MicroBatcher(lambda: session, max_batch=1, timeout_ms=1.0)
        future = batcher.submit(tiny_feed())
        with pytest.raises(RuntimeError, match="interrupted"):
            future.result(timeout=30.0)


class TestCacheResilience:
    def _engine(self, tmp_path, plan=None):
        from repro.serving.engine import Engine, EngineConfig

        return Engine(tiny_net(), EngineConfig(
            pool_size=1, use_cache=True, cache_dir=str(tmp_path),
            faults=plan if plan is not None else FaultPlan(),
            metrics=get_metrics(),
        ))

    def test_truncated_entry_recomputed(self, tmp_path):
        feeds = tiny_feed()
        with self._engine(tmp_path) as engine:
            gold = engine.infer(feeds)
        entries = list(tmp_path.glob("*.json"))
        assert entries
        for entry in entries:
            payload = entry.read_bytes()
            entry.write_bytes(payload[: len(payload) // 2])

        with self._engine(tmp_path) as engine:
            out = engine.infer(feeds)
        assert get_metrics().value("cache.corrupt") >= 1
        for key in gold:
            assert np.array_equal(out[key], gold[key])

    def test_garbage_entry_recomputed(self, tmp_path):
        with self._engine(tmp_path) as engine:
            engine.infer(tiny_feed())
        for entry in tmp_path.glob("*.json"):
            entry.write_text('{"schema": "not-a-cache-entry"}')
        with self._engine(tmp_path) as engine:
            engine.infer(tiny_feed())
        assert get_metrics().value("cache.corrupt") >= 1

    def test_torn_store_then_clean_reload(self, tmp_path):
        feeds = tiny_feed()
        plan = FaultPlan([FaultRule("cache.store", "torn", times=1)])
        with self._engine(tmp_path, plan) as engine:
            gold = engine.infer(feeds)
        assert plan.injected == 1
        assert get_metrics().value("fallback.cache") == 1

        # Next process finds the truncated entry, recovers, re-stores.
        with self._engine(tmp_path) as engine:
            out = engine.infer(feeds)
        assert get_metrics().value("cache.corrupt") >= 1
        for key in gold:
            assert np.array_equal(out[key], gold[key])
        # The re-store healed the cache: a third engine loads it clean.
        corrupt_before = get_metrics().value("cache.corrupt")
        with self._engine(tmp_path) as engine:
            engine.infer(feeds)
        assert get_metrics().value("cache.corrupt") == corrupt_before

    def test_load_transient_retried_then_exhausted(self, tmp_path):
        with self._engine(tmp_path) as engine:
            engine.infer(tiny_feed())

        # 2 transients: absorbed by the engine's cache-IO retry loop.
        plan = FaultPlan([FaultRule("cache.load", "transient", times=2)])
        with self._engine(tmp_path, plan) as engine:
            engine.infer(tiny_feed())
        assert get_metrics().value("retry.attempts") == 2
        assert get_metrics().value("fallback.cache") == 0

        # Unlimited transients: retries exhaust, the engine treats the
        # cache as unavailable (fallback.cache) and still serves.
        plan = FaultPlan([FaultRule("cache.load", "transient")])
        with self._engine(tmp_path, plan) as engine:
            engine.infer(tiny_feed())
        assert get_metrics().value("fallback.cache") >= 1


class TestEngineDeadlines:
    def test_expired_deadline_raises_typed(self):
        from repro.serving.engine import Engine, EngineConfig

        with Engine(tiny_net(), EngineConfig(
            pool_size=1, use_cache=False, metrics=get_metrics(),
        )) as engine:
            with pytest.raises(DeadlineExceeded):
                engine.infer(tiny_feed(), deadline_ms=0.0)
            # the engine still serves afterwards
            out = engine.infer(tiny_feed())
            assert out

    def test_config_default_deadline(self):
        from repro.serving.engine import Engine, EngineConfig

        with Engine(tiny_net(), EngineConfig(
            pool_size=1, use_cache=False, deadline_ms=0.0,
            metrics=get_metrics(),
        )) as engine:
            with pytest.raises(DeadlineExceeded):
                engine.infer(tiny_feed())
            out = engine.infer(tiny_feed(), deadline_ms=10_000.0)
            assert out
