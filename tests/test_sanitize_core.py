"""Unit tests for the sanitizer's three checkers and the facade.

Each detector is exercised with *seeded* defects — a synthetic data
race, a lock-order deadlock cycle, a leaked/double-freed/stale extent —
plus the matching clean pattern, because a detector that cannot tell the
two apart is worse than none (ISSUE acceptance: at least one of each
must be detected).
"""

import threading

import pytest

from repro.sanitize import (
    LifecycleTracker,
    LockOrderRecorder,
    RaceDetector,
    SanitizeError,
    Sanitizer,
    get_sanitizer,
    set_sanitizer,
)

pytestmark = pytest.mark.sanitize


class TestRaceDetector:
    def test_unordered_writes_without_locks_race(self):
        d = RaceDetector()
        assert d.access(1, "x", "w", frozenset()) == 0
        assert d.access(2, "x", "w", frozenset()) == 1
        assert d.races[0].kind == "write-write"
        assert d.races[0].var == "x"

    def test_common_lock_suppresses_race(self):
        d = RaceDetector()
        d.access(1, "x", "w", frozenset({"m"}))
        assert d.access(2, "x", "w", frozenset({"m"})) == 0

    def test_disjoint_locksets_still_race(self):
        d = RaceDetector()
        d.access(1, "x", "w", frozenset({"a"}))
        assert d.access(2, "x", "w", frozenset({"b"})) == 1

    def test_happens_before_edge_suppresses_race(self):
        d = RaceDetector()
        d.access(1, "x", "w", frozenset())
        d.send(1, "chan")
        d.recv(2, "chan")  # thread 2 absorbed thread 1's clock
        assert d.access(2, "x", "w", frozenset()) == 0

    def test_write_read_and_read_write_kinds(self):
        d = RaceDetector()
        d.access(1, "x", "w", frozenset())
        assert d.access(2, "x", "r", frozenset()) == 1
        assert d.races[-1].kind == "write-read"
        d2 = RaceDetector()
        d2.access(1, "y", "r", frozenset())
        assert d2.access(2, "y", "w", frozenset()) == 1
        assert d2.races[-1].kind == "read-write"

    def test_same_thread_never_races(self):
        d = RaceDetector()
        d.access(1, "x", "w", frozenset())
        assert d.access(1, "x", "w", frozenset()) == 0

    def test_duplicate_races_dedup(self):
        d = RaceDetector()
        d.access(1, "x", "w", frozenset())
        d.access(2, "x", "r", frozenset())
        d.access(2, "x", "r", frozenset())
        assert len(d.races) == 1  # same (var, kind, tid pair) reported once

    def test_lock_channel_orders_critical_sections(self):
        # release -> acquire is modelled as send -> recv on the lock key.
        d = RaceDetector()
        d.recv(1, ("lock", "m"))
        d.access(1, "x", "w", frozenset({"m"}))
        d.send(1, ("lock", "m"))
        d.recv(2, ("lock", "m"))
        # Second thread accesses *outside* the lock, but strictly after
        # the first critical section: ordered, so no race.
        assert d.access(2, "x", "w", frozenset()) == 0

    def test_read_ring_is_bounded(self):
        d = RaceDetector(max_reads=4)
        for tid in range(1, 10):
            d.access(tid, "x", "r", frozenset({"m"}))
        assert len(d._reads["x"]) == 4


class TestLockOrderRecorder:
    def test_inverted_order_is_a_cycle(self):
        r = LockOrderRecorder()
        r.acquire(1, "A"); r.acquire(1, "B"); r.release(1, "B"); r.release(1, "A")
        r.acquire(2, "B"); r.acquire(2, "A"); r.release(2, "A"); r.release(2, "B")
        cycles = r.cycles()
        assert len(cycles) == 1
        assert set(cycles[0].names) == {"A", "B"}

    def test_consistent_order_is_clean(self):
        r = LockOrderRecorder()
        for tid in (1, 2):
            r.acquire(tid, "A"); r.acquire(tid, "B")
            r.release(tid, "B"); r.release(tid, "A")
        assert r.cycles() == []

    def test_three_lock_cycle(self):
        r = LockOrderRecorder()
        for tid, (outer, inner) in enumerate([("A", "B"), ("B", "C"), ("C", "A")]):
            r.acquire(tid, outer); r.acquire(tid, inner)
            r.release(tid, inner); r.release(tid, outer)
        cycles = r.cycles()
        assert len(cycles) == 1
        assert set(cycles[0].names) == {"A", "B", "C"}

    def test_reentrant_self_acquire_is_not_an_edge(self):
        r = LockOrderRecorder()
        r.acquire(1, "A"); r.acquire(1, "A")  # RLock re-entry
        r.release(1, "A"); r.release(1, "A")
        assert r.cycles() == []

    def test_held_tracks_the_stack(self):
        r = LockOrderRecorder()
        r.acquire(1, "A"); r.acquire(1, "B")
        assert list(r.held(1)) == ["A", "B"]
        r.release(1, "B")
        assert list(r.held(1)) == ["A"]


class TestLifecycleTracker:
    def test_leak_at_scope_close(self):
        t = LifecycleTracker()
        t.carve("s", "k", 0, 4)
        leaks = t.close_scope("s")
        assert [f.rule for f in leaks] == ["leak"]

    def test_retired_extent_is_not_a_leak(self):
        t = LifecycleTracker()
        t.carve("s", "k", 0, 4)
        t.retire("s", "k")
        assert t.close_scope("s") == []

    def test_double_free(self):
        t = LifecycleTracker()
        t.carve("s", "k", 0, 4)
        t.free("s", "k")
        t.free("s", "k")
        assert [f.rule for f in t.findings] == ["double-free"]

    def test_use_after_free(self):
        t = LifecycleTracker()
        t.carve("s", "k", 0, 4)
        t.free("s", "k")
        assert t.use("s", "k") is False
        assert t.findings[-1].rule == "use-after-free"

    def test_generation_counter_poisons_stale_handles(self):
        t = LifecycleTracker()
        g0 = t.carve("s", "k", 0, 4)
        t.free("s", "k")
        g1 = t.carve("s", "k", 8, 4)  # same key re-carved elsewhere
        assert g1 == g0 + 1
        assert t.use("s", "k", generation=g1) is True
        assert t.use("s", "k", generation=g0) is False  # stale handle
        assert t.findings[-1].rule == "use-after-free"
        assert "stale handle" in t.findings[-1].message

    def test_wild_free_and_wild_use(self):
        t = LifecycleTracker()
        t.free("s", "ghost")
        t.use("s", "ghost")
        assert [f.rule for f in t.findings] == ["wild-free", "wild-use"]

    def test_close_scope_is_scoped(self):
        t = LifecycleTracker()
        t.carve("a", "k", 0, 4)
        t.carve("b", "k", 0, 4)
        assert len(t.close_scope("a")) == 1
        assert len(t.live_extents("b")) == 1


class TestSanitizerFacade:
    def test_probe_finds_planted_race_and_counts_it(self):
        from repro.obs.metrics import MetricsRegistry

        m = MetricsRegistry()
        san = Sanitizer(metrics=m)
        obj = object()
        barrier = threading.Barrier(2)

        def worker():
            barrier.wait()
            san.probe(obj, "field", "w")

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        report = san.report()
        assert len(report.races) == 1
        assert m.value("sanitize.races") == 1

    def test_locked_context_supplies_lockset(self):
        san = Sanitizer()
        lock = threading.Lock()
        obj = object()
        barrier = threading.Barrier(2)

        def worker():
            barrier.wait()
            with san.locked(lock, "m"):
                san.probe(obj, "field", "w")

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert san.report().ok

    def test_locked_records_cycles(self):
        san = Sanitizer()
        a, b = threading.Lock(), threading.Lock()
        with san.locked(a, "A"):
            with san.locked(b, "B"):
                pass
        with san.locked(b, "B"):
            with san.locked(a, "A"):
                pass
        report = san.report()
        assert len(report.lock_cycles) == 1
        assert set(report.lock_cycles[0].names) == {"A", "B"}

    def test_disabled_sanitizer_is_inert(self):
        san = Sanitizer(enabled=False)
        lock = threading.Lock()
        assert san.locked(lock, "m") is lock  # raw lock, zero wrapping
        san.probe(object(), "f", "w")
        san.hb_send("k"); san.hb_recv("k")
        assert san.carve("s", "k", 0, 1) == 0
        san.free_extent("s", "k"); san.free_extent("s", "k")
        assert san.report().ok

    def test_report_diagnostics_and_raise(self):
        san = Sanitizer()
        san.carve("s", "k", 0, 4)
        san.free_extent("s", "k")
        san.free_extent("s", "k")
        report = san.report()
        diags = report.diagnostics()
        assert [d.rule for d in diags] == ["sanitize-double-free"]
        with pytest.raises(SanitizeError) as exc:
            report.raise_if_failed()
        assert exc.value.report is report

    def test_counters_preregistered_at_zero(self):
        from repro.obs.metrics import MetricsRegistry

        m = MetricsRegistry()
        Sanitizer(metrics=m)
        snapshot = m.snapshot()["counters"]
        for name in ("sanitize.races", "sanitize.lock_cycles", "sanitize.leaks"):
            assert snapshot[name] == 0

    def test_resolve_semantics(self):
        from repro.runtime import Runtime

        default = get_sanitizer()
        assert Runtime.resolve(sanitize=False).sanitizer is default
        assert Runtime.resolve(sanitize=None).sanitizer is default
        fresh = Runtime.resolve(sanitize=True).sanitizer
        assert fresh.enabled and fresh is not default
        assert Runtime.resolve(sanitize=fresh).sanitizer is fresh

    def test_set_sanitizer_roundtrip(self):
        mine = Sanitizer()
        prev = set_sanitizer(mine)
        try:
            assert get_sanitizer() is mine
        finally:
            set_sanitizer(prev)
        assert get_sanitizer() is prev

    def test_clear_resets_findings(self):
        san = Sanitizer()
        san.probe(object(), "f", "w")
        san.carve("s", "k", 0, 1)
        san.clear()
        report = san.report()
        assert report.ok and report.total == 0
