"""Chaos-storm acceptance tests (the robustness contract, end to end).

Marked ``chaos`` so they can be selected with ``-m chaos``; they run in
the default suite too (the storm is sub-second on this substrate)."""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.faults.chaos import PHASES, STORM_SITES, run_chaos_storm

pytestmark = pytest.mark.chaos


class TestChaosStorm:
    @pytest.fixture(scope="class")
    def report(self):
        return run_chaos_storm(seed=0, target_faults=200)

    def test_storm_reaches_target_across_all_sites(self, report):
        assert report.injected >= 200
        for site in STORM_SITES:
            assert report.site_counts.get(site, 0) > 0, f"site {site} never fired"

    def test_zero_engine_crashes(self, report):
        assert report.crashes == 0
        assert all(p.crashes == 0 for p in report.phases)

    def test_degraded_responses_bit_identical(self, report):
        assert report.mismatched == 0
        # and the storm actually served most of its traffic
        assert report.requests - report.failed > report.failed

    def test_every_fault_absorbed_exactly_once(self, report):
        assert report.reconciled, (
            f"{report.injected} injected != {report.absorbed} absorbed "
            f"({report.retries} retries + {report.fallback_ops} op "
            f"+ {report.fallback_numeric} numeric + {report.fallback_cache} "
            f"cache + {report.isolated} isolated)"
        )

    def test_failed_requests_failed_alone(self, report):
        # Isolated failures exist (the storm injects unsurvivable
        # faults) but every one was typed — nothing took a batch or the
        # engine down with it.
        assert report.isolated > 0
        assert report.failed > 0

    def test_verdict_and_describe(self, report):
        assert report.ok
        text = report.describe()
        assert "verdict OK" in text
        assert "reconciled yes" in text

    def test_verdict_needs_a_replacement_once_a_worker_crashed(self, report):
        assert report.site_counts["worker.crash"] > 0
        assert report.replacements >= 1
        assert not replace(report, replacements=0).ok

    def test_injection_sequence_is_pinned(self, report):
        # Every fault of the seed-0 storm, in order: a refactor of the
        # phase table must not add, drop or reorder a single one.
        digest = hashlib.sha256(json.dumps(report.events).encode()).hexdigest()
        assert len(report.events) == 249
        assert digest == (
            "c7ae40f3459be3705b2975f0fc03cb8e09c7d52accb527dbc37364610c966925"
        )


def test_every_storm_site_is_named_by_a_phase_rule():
    named = {rule.site for phase in PHASES for rule in phase.rules}
    assert set(STORM_SITES) <= named


class TestChaosDeterminism:
    def test_same_seed_replays_identical_injection_sequence(self):
        first = run_chaos_storm(seed=3, target_faults=40)
        second = run_chaos_storm(seed=3, target_faults=40)
        assert first.ok and second.ok
        assert first.events == second.events
        assert first.site_counts == second.site_counts
        assert (first.retries, first.fallback_ops, first.fallback_numeric,
                first.fallback_cache, first.isolated) == (
            second.retries, second.fallback_ops, second.fallback_numeric,
            second.fallback_cache, second.isolated,
        )

    def test_different_seed_diverges(self):
        first = run_chaos_storm(seed=3, target_faults=40)
        other = run_chaos_storm(seed=4, target_faults=40)
        assert first.events != other.events


class TestChaosCli:
    def test_cli_chaos_selftest(self, capsys):
        from repro.tools.cli import main

        assert main(["chaos", "--seed", "1", "--faults", "40"]) == 0
        out = capsys.readouterr().out
        assert "verdict OK" in out
