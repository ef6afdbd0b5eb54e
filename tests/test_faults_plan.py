"""Fault-plan unit tests: spec grammar, determinism, budgets, matching,
env activation, and the disabled-plan overhead bound."""

import random
import time

import pytest

from repro.faults import (
    FAULT_KINDS,
    FAULT_SITES,
    FAULTS_ENV_VAR,
    FatalFault,
    FaultPlan,
    FaultRule,
    InjectedFault,
    TransientFault,
    get_fault_plan,
    parse_fault_spec,
    set_fault_plan,
)
from repro.obs.metrics import MetricsRegistry, set_metrics


@pytest.fixture(autouse=True)
def _fresh_metrics():
    previous = set_metrics(MetricsRegistry())
    yield
    set_metrics(previous)


class TestFaultRule:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultRule("kernel.execute", "explode")

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultRule("kernel.exec", "transient")

    def test_glob_site_allowed(self):
        rule = FaultRule("cache.*", "transient")
        assert rule.matches("cache.load", {})
        assert rule.matches("cache.store", {})
        assert not rule.matches("pool.checkout", {})

    def test_bad_probability_rejected(self):
        with pytest.raises(ValueError, match="probability"):
            FaultRule("kernel.execute", "transient", p=1.5)

    def test_match_exact_and_alternatives(self):
        rule = FaultRule(
            "kernel.execute", "nan",
            match={"scheme": ("winograd", "gemm1x1"), "op": "Conv2D"},
        )
        assert rule.matches("kernel.execute", {"scheme": "winograd", "op": "Conv2D"})
        assert rule.matches("kernel.execute", {"scheme": "gemm1x1", "op": "Conv2D"})
        assert not rule.matches("kernel.execute", {"scheme": "sliding", "op": "Conv2D"})
        assert not rule.matches("kernel.execute", {"scheme": "winograd", "op": "MatMul"})

    def test_catalog_covers_all_kinds(self):
        assert set(FAULT_KINDS) == {
            "transient", "fatal", "delay", "nan", "corrupt", "torn"
        }
        assert "kernel.execute" in FAULT_SITES


class TestFire:
    def test_transient_and_fatal_raise(self):
        plan = FaultPlan([FaultRule("kernel.execute", "transient", times=1),
                          FaultRule("kernel.execute", "fatal", times=1)])
        with pytest.raises(TransientFault):
            plan.fire("kernel.execute")
        with pytest.raises(FatalFault):
            plan.fire("kernel.execute")
        assert plan.injected == 2

    def test_injected_fault_is_common_base(self):
        plan = FaultPlan([FaultRule("kernel.execute", "fatal")])
        with pytest.raises(InjectedFault):
            plan.fire("kernel.execute")

    def test_nan_returned_not_raised(self):
        plan = FaultPlan([FaultRule("kernel.execute", "nan", times=1)])
        fault = plan.fire("kernel.execute")
        assert fault is not None and fault.kind == "nan"
        assert plan.fire("kernel.execute") is None  # budget spent

    def test_times_budget_and_skip(self):
        plan = FaultPlan([FaultRule("pool.checkout", "transient", times=2, skip=1)])
        assert plan.fire("pool.checkout") is None  # skipped
        for _ in range(2):
            with pytest.raises(TransientFault):
                plan.fire("pool.checkout")
        assert plan.fire("pool.checkout") is None  # exhausted
        assert plan.injected == 2

    def test_probability_draws_are_seeded(self):
        def events(seed):
            plan = FaultPlan(
                [FaultRule("kernel.execute", "nan", p=0.5)], seed=seed
            )
            return [plan.fire("kernel.execute") is not None for _ in range(64)]

        first = events(3)
        assert events(3) == first            # same seed, same decisions
        assert events(4) != first            # different seed diverges
        assert 10 < sum(first) < 54          # actually probabilistic

    def test_no_cascading_when_armed_rule_declines(self):
        # The p<1 rule owns the site; a declined draw must not fall
        # through to the later always-fire rule.
        plan = FaultPlan([
            FaultRule("kernel.execute", "nan", p=0.0),
            FaultRule("kernel.execute", "fatal"),
        ])
        assert plan.fire("kernel.execute") is None

    def test_first_matching_rule_wins(self):
        plan = FaultPlan([
            FaultRule("cache.load", "corrupt", times=1),
            FaultRule("cache.*", "transient"),
        ])
        assert plan.fire("cache.load").kind == "corrupt"
        with pytest.raises(TransientFault):
            plan.fire("cache.load")

    def test_match_filter_gates_firing(self):
        plan = FaultPlan([
            FaultRule("kernel.execute", "nan", match={"scheme": "winograd"}),
        ])
        assert plan.fire("kernel.execute", scheme="sliding") is None
        assert plan.fire("kernel.execute", scheme="winograd") is not None

    def test_delay_sleeps(self):
        plan = FaultPlan([FaultRule("pool.checkout", "delay", delay_ms=20, times=1)])
        start = time.perf_counter()
        fault = plan.fire("pool.checkout")
        elapsed_ms = (time.perf_counter() - start) * 1000
        assert fault.kind == "delay"
        assert elapsed_ms >= 15

    def test_counters_and_introspection(self):
        from repro.obs.metrics import get_metrics

        plan = FaultPlan([FaultRule("cache.load", "corrupt", times=2)])
        plan.fire("cache.load")
        plan.fire("cache.load")
        assert get_metrics().value("faults.injected") == 2
        assert get_metrics().value("faults.injected.corrupt") == 2
        assert plan.events() == [("cache.load", "corrupt")] * 2
        assert plan.site_counts() == {"cache.load": 2}
        assert "cache.load:corrupt fired 2/2" in plan.describe()


class TestDeterministicReplay:
    def test_same_seed_same_event_sequence(self):
        def storm(seed):
            plan = FaultPlan([
                FaultRule("kernel.execute", "transient", p=0.4, times=10),
                FaultRule("cache.load", "corrupt", p=0.3),
            ], seed=seed)
            for _ in range(50):
                try:
                    plan.fire("kernel.execute", op="Conv2D")
                except TransientFault:
                    pass
                plan.fire("cache.load")
            return plan.events()

        assert storm(11) == storm(11)
        assert storm(11) != storm(12)

    def test_per_site_rng_isolated(self):
        # Draws at one site must not perturb another site's sequence.
        lone = FaultPlan([FaultRule("cache.load", "corrupt", p=0.5)], seed=5)
        lone_events = [lone.fire("cache.load") is not None for _ in range(32)]

        mixed = FaultPlan([
            FaultRule("cache.load", "corrupt", p=0.5),
            FaultRule("pool.checkout", "delay", p=0.5, delay_ms=0),
        ], seed=5)
        mixed_events = []
        for _ in range(32):
            mixed.fire("pool.checkout")
            mixed_events.append(mixed.fire("cache.load") is not None)
        assert mixed_events == lone_events


class TestSpecParsing:
    def test_full_grammar(self):
        plan = parse_fault_spec(
            "seed=7;kernel.execute:transient@0.25x10+2~1.5,cache.*:corrupt x3"
        )
        assert plan.seed == 7
        assert len(plan.rules) == 2
        first, second = plan.rules
        assert (first.site, first.kind) == ("kernel.execute", "transient")
        assert (first.p, first.times, first.skip, first.delay_ms) == (0.25, 10, 2, 1.5)
        assert (second.site, second.kind, second.times) == ("cache.*", "corrupt", 3)

    def test_empty_clauses_ignored(self):
        plan = parse_fault_spec(" ;kernel.execute:fatal; ")
        assert len(plan.rules) == 1

    def test_missing_colon_rejected(self):
        with pytest.raises(ValueError, match="site:kind"):
            parse_fault_spec("kernel.execute")

    def test_dangling_modifier_rejected(self):
        with pytest.raises(ValueError, match="dangling"):
            parse_fault_spec("kernel.execute:transient@")

    def test_unknown_kind_propagates(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            parse_fault_spec("kernel.execute:boom")


class TestGlobalPlan:
    def test_env_activation_and_reset(self, monkeypatch):
        previous = set_fault_plan(None)  # force re-resolution
        try:
            monkeypatch.setenv(FAULTS_ENV_VAR, "seed=9;pool.checkout:transient x1")
            plan = get_fault_plan()
            assert plan.enabled and plan.seed == 9
            assert get_fault_plan() is plan  # resolved once

            set_fault_plan(None)
            monkeypatch.delenv(FAULTS_ENV_VAR)
            assert not get_fault_plan().enabled  # default no-op
        finally:
            set_fault_plan(previous)

    def test_set_returns_previous(self):
        mine = FaultPlan([FaultRule("cache.load", "corrupt")])
        previous = set_fault_plan(mine)
        try:
            assert get_fault_plan() is mine
        finally:
            assert set_fault_plan(previous) is mine


class TestOverheadGuard:
    def test_disabled_plan_overhead_under_5_percent(self):
        """A disabled plan's per-site cost must stay under 5% of a
        small-model run loop.

        Structural pricing (like the disabled-tracer guard): a disabled
        plan's ``fire`` is one attribute check and a return; we price it
        directly, scale by the per-op fault points, and compare against
        the measured run time.  The session does even less — it never
        calls ``fire`` while the plan is disabled.
        """
        import numpy as np

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

        plan = FaultPlan()
        assert not plan.enabled
        calls = 100_000
        start = time.perf_counter()
        for _ in range(calls):
            plan.fire("backend.dispatch")
            plan.fire("kernel.execute")
        per_op_ms = (time.perf_counter() - start) * 1000.0 / calls

        n_ops = len(session._order)
        overhead_ms = per_op_ms * n_ops
        assert overhead_ms < 0.05 * run_ms, (
            f"disabled fault plan would add {overhead_ms:.4f} ms to a "
            f"{run_ms:.3f} ms run ({overhead_ms / run_ms * 100:.1f}%)"
        )
