"""Property-based tests for the memory-plan sanitizer.

Strategy: start from a plan the greedy planner proved out, corrupt exactly
one thing (shift an offset, shrink a lifetime, lie about a size...), and
assert the sanitizer catches it — naming the exact tensors involved.  A
hypothesis property also cross-checks the sanitizer's verdict against the
brute-force O(n^2) ``MemoryPlan.validate`` oracle under random offset
shifts.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import check_memory_plan, derive_lifetimes
from repro.core.memory import ALIGNMENT, MemoryPlan, plan_memory
from repro.core.session import Session, SessionConfig
from repro.ir import GraphBuilder
from repro.ir.graph import GraphError
from repro.models import build_model


def branchy_graph():
    """A small CNN with a residual branch — long, overlapping lifetimes."""
    b = GraphBuilder("branchy", seed=11)
    x = b.input("in", (1, 8, 16, 16))
    left = b.conv(x, oc=8, kernel=3, pad_mode="same", activation="relu")
    right = b.conv(x, oc=8, kernel=1, pad_mode="same")
    x = b.add(left, right)
    x = b.conv(x, oc=16, kernel=3, stride=2, pad_mode="same", activation="relu")
    b.output(b.softmax(b.fc(b.global_avg_pool(x), units=10)))
    return b.finish()


GRAPH = branchy_graph()
PLAN = plan_memory(GRAPH)
DERIVED = derive_lifetimes(GRAPH)
CO_LIVE_PAIRS = sorted(
    (a.name, c.name)
    for a in DERIVED.values()
    for c in DERIVED.values()
    if a.name < c.name and a.overlaps(c)
)


def mutated(plan, **changes):
    """A deep-enough copy of ``plan`` with ``changes`` applied."""
    return dataclasses.replace(
        plan,
        offsets=dict(plan.offsets),
        lifetimes=dict(plan.lifetimes),
        **changes,
    )


class TestValidPlans:
    def test_sanitizer_accepts_the_planner_output(self):
        report = check_memory_plan(GRAPH, PLAN)
        assert report.ok, [d.format() for d in report.diagnostics]
        assert report.checked_tensors == len(DERIVED) > 0
        assert report.checked_pairs == len(CO_LIVE_PAIRS) > 0
        report.raise_if_failed()  # must not raise

    def test_statistics_are_consistent(self):
        report = check_memory_plan(GRAPH, PLAN)
        assert 0 < report.peak_bytes <= report.arena_bytes == PLAN.arena_bytes
        assert report.peak_bytes == PLAN.peak_bytes
        assert report.utilization == pytest.approx(PLAN.utilization())
        assert 0 < report.utilization <= 1.0
        assert report.wasted_bytes == PLAN.arena_bytes - PLAN.peak_bytes
        assert "tensors" in report.summary()

    def test_derived_lifetimes_match_planner(self):
        # Independent derivation must agree with the planner on a sound graph.
        assert set(DERIVED) == set(PLAN.lifetimes)
        for name, interval in DERIVED.items():
            planned = PLAN.lifetimes[name]
            assert (interval.first, interval.last, interval.nbytes) == (
                planned.first, planned.last, planned.nbytes,
            )

    @pytest.mark.lint_self
    @pytest.mark.parametrize("name", [
        "mobilenet_v1", "resnet18", "squeezenet_v1.1",
        "tiny_transformer", "lstm_classifier",
    ])
    def test_builtin_model_plans_are_sound(self, name):
        graph = build_model(name, input_size=64) if "net" in name else build_model(name)
        report = check_memory_plan(graph, plan_memory(graph))
        assert report.ok, [d.format() for d in report.diagnostics]


class TestCorruptions:
    @given(pair=st.sampled_from(CO_LIVE_PAIRS))
    @settings(max_examples=30, deadline=None)
    def test_aliasing_two_live_tensors_is_caught_naming_the_pair(self, pair):
        victim, squatter = pair
        plan = mutated(PLAN)
        plan.offsets[squatter] = plan.offsets[victim]
        report = check_memory_plan(GRAPH, plan)
        assert not report.ok
        overlaps = [d for d in report.diagnostics if d.rule == "mem-overlap"]
        assert any(
            f"{victim!r}" in d.message and f"{squatter!r}" in d.message
            for d in overlaps
        ), [d.message for d in overlaps]

    @given(
        name=st.sampled_from(sorted(PLAN.offsets)),
        shift=st.integers(min_value=-8, max_value=8).filter(lambda s: s != 0),
    )
    @settings(max_examples=60, deadline=None)
    def test_verdict_matches_brute_force_oracle_under_shifts(self, name, shift):
        plan = mutated(PLAN)
        plan.offsets[name] = max(0, plan.offsets[name] + shift * ALIGNMENT)
        report = check_memory_plan(GRAPH, plan)
        try:
            plan.validate()
            oracle_ok = all(
                off + plan.lifetimes[n].nbytes <= plan.arena_bytes
                for n, off in plan.offsets.items()
            )
        except AssertionError:
            oracle_ok = False
        assert report.ok == oracle_ok, [d.format() for d in report.diagnostics]

    def test_misaligned_offset(self):
        name = max(PLAN.offsets, key=PLAN.offsets.get)
        plan = mutated(PLAN)
        plan.offsets[name] += 1
        report = check_memory_plan(GRAPH, plan)
        rules = {d.rule for d in report.diagnostics}
        assert "mem-misaligned" in rules

    def test_out_of_bounds_offset(self):
        name = next(iter(PLAN.offsets))
        plan = mutated(PLAN)
        plan.offsets[name] = plan.arena_bytes  # aligned, but past the end
        report = check_memory_plan(GRAPH, plan)
        assert any(d.rule == "mem-out-of-bounds" and d.tensor == name
                   for d in report.diagnostics)

    def test_missing_offset(self):
        name = next(iter(PLAN.offsets))
        plan = mutated(PLAN)
        del plan.offsets[name]
        report = check_memory_plan(GRAPH, plan)
        assert any(d.rule == "mem-unplanned" and d.tensor == name
                   for d in report.diagnostics)

    def test_shrunken_lifetime(self):
        # Pick a tensor that is genuinely consumed after it is produced.
        name = next(n for n, iv in DERIVED.items() if iv.last > iv.first)
        plan = mutated(PLAN)
        old = plan.lifetimes[name]
        plan.lifetimes[name] = dataclasses.replace(old, last=old.first)
        report = check_memory_plan(GRAPH, plan)
        assert any(d.rule == "mem-lifetime" and d.tensor == name
                   for d in report.diagnostics)

    def test_wrong_size(self):
        name = next(iter(PLAN.offsets))
        plan = mutated(PLAN)
        old = plan.lifetimes[name]
        plan.lifetimes[name] = dataclasses.replace(old, nbytes=old.nbytes // 2)
        report = check_memory_plan(GRAPH, plan)
        assert any(d.rule == "mem-size" and d.tensor == name
                   for d in report.diagnostics)

    def test_raise_if_failed_carries_diagnostics(self):
        victim, squatter = CO_LIVE_PAIRS[0]
        plan = mutated(PLAN)
        plan.offsets[squatter] = plan.offsets[victim]
        report = check_memory_plan(GRAPH, plan)
        with pytest.raises(GraphError, match="overlap") as exc_info:
            report.raise_if_failed()
        assert exc_info.value.diagnostics == report.diagnostics


class TestParanoidMode:
    def test_paranoid_session_runs_clean_model(self):
        session = Session(GRAPH, SessionConfig(paranoid=True))
        import numpy as np

        out = session.run({"in": np.random.default_rng(0)
                          .standard_normal((1, 8, 16, 16)).astype(np.float32)})
        assert set(out) == set(GRAPH.outputs)
