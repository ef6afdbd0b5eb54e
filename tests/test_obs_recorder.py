"""Request-tracker postmortems: ring bounds, postmortem payloads,
deterministic dumps, and the chaos-storm replay contract (same seed ⇒
byte-identical artifacts; fault-free ⇒ zero dumps)."""

import hashlib
import json
import os

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.requests import (
    MAX_RINGS,
    POSTMORTEM_SCHEMA,
    RING_EVENTS,
    RequestTracker,
)


def _tracker(tmp_path, deterministic=True):
    reg = MetricsRegistry()
    tracker = RequestTracker(
        metrics=reg, postmortem_dir=str(tmp_path), deterministic=deterministic,
    )
    return tracker, reg


class TestRing:
    def test_per_request_ring_keeps_last_n_events(self, tmp_path):
        tracker, _ = _tracker(tmp_path)
        tl = tracker.start("r0")
        for i in range(RING_EVENTS + 10):
            tl.event("tick", i=i)
        kept = tracker.events("r0")
        assert len(kept) == RING_EVENTS
        assert [e.args["i"] for e in kept] == list(range(10, RING_EVENTS + 10))

    def test_request_table_evicts_fifo(self, tmp_path):
        tracker, _ = _tracker(tmp_path)
        rids = [f"r{n}" for n in range(MAX_RINGS + 1)]
        for rid in rids:
            tracker.start(rid).event("tick")
        assert tracker.events(rids[0]) == []  # oldest ring evicted
        assert tracker.events(rids[1]) and tracker.events(rids[-1])

    def test_timeline_past_the_ring_matches_its_postmortem(self, tmp_path):
        # One store: a long request's timeline and its postmortem show
        # the same (last RING_EVENTS) events.
        tracker, _ = _tracker(tmp_path)
        tl = tracker.start("r0", "generate")
        for i in range(RING_EVENTS + 44):
            tl.event("tick", i=i)
        with open(tracker.dump("probe", "r0"), encoding="utf-8") as fh:
            dumped = json.load(fh)["timelines"]["r0"]
        assert tl.to_dict(deterministic=True)["events"] == dumped
        assert [e.seq for e in tl.events] == [e["seq"] for e in dumped]
        assert dumped[0]["args"] == {"i": 44}


class TestDump:
    def test_payload_structure(self, tmp_path):
        tracker, reg = _tracker(tmp_path)
        reg.counter("faults.injected").inc(3)
        reg.counter("retry.attempts").inc(3)
        tl = tracker.start("r0", "infer")
        tl.event("deadline_exceeded", where="session.run")
        path = tracker.dump("DeadlineExceeded", "r0", detail="session.run")
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        assert payload["schema"] == POSTMORTEM_SCHEMA
        assert payload["trigger"] == "DeadlineExceeded"
        assert payload["request"] == "r0"
        assert payload["live_requests"] == ["r0"]
        assert payload["detail"] == "session.run"
        assert payload["fault_state"] == {
            "faults.injected": 3, "retry.attempts": 3,
        }
        events = payload["timelines"]["r0"]
        assert [e["name"] for e in events] == ["enqueued", "deadline_exceeded"]
        assert reg.value("recorder.dumps") == 1

    def test_fault_state_carries_every_absorbing_counter(self, tmp_path):
        # A WorkerLost postmortem must show the counter that resolved it.
        tracker, reg = _tracker(tmp_path)
        reg.counter("faults.injected").inc(2)
        reg.counter("fallback.replay").inc()
        reg.counter("cluster.worker_lost").inc()
        state = tracker.payload("WorkerLost", "r0")["fault_state"]
        assert state == {
            "faults.injected": 2, "fallback.replay": 1, "cluster.worker_lost": 1,
        }

    def test_dump_filenames_are_deterministic_and_ordered(self, tmp_path):
        tracker, _ = _tracker(tmp_path)
        tracker.start("req-7").event("tick")
        p0 = tracker.dump("KVCacheOOM", "req-7")
        p1 = tracker.dump("sanitizer")
        assert os.path.basename(p0) == "postmortem-000-req-7-KVCacheOOM.json"
        assert os.path.basename(p1) == "postmortem-001-all-sanitizer.json"
        assert tracker.dumps == [p0, p1]

    def test_deterministic_dumps_are_byte_identical_across_runs(self, tmp_path):
        def run(out_dir):
            tracker, reg = _tracker(out_dir)
            reg.counter("faults.injected").inc()
            tl = tracker.start("r0", "generate", prompt_tokens=3)
            tl.admitted(batch=2)
            tl.token()
            tl.event("kv_eviction", evictions=1, at="grow")
            tl.finish("error")
            return tracker.dump("KVCacheOOM", "r0")

        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(), b.mkdir()
        pa, pb = run(a), run(b)
        ha = hashlib.sha256(open(pa, "rb").read()).hexdigest()
        hb = hashlib.sha256(open(pb, "rb").read()).hexdigest()
        assert ha == hb

    def test_non_deterministic_dump_keeps_wall_clock(self, tmp_path):
        tracker, _ = _tracker(tmp_path, deterministic=False)
        tl = tracker.start("r0")
        tl.event("tick", rate=1.5)
        path = tracker.dump("probe", "r0")
        payload = json.load(open(path, encoding="utf-8"))
        tick = payload["timelines"]["r0"][-1]
        assert "t_ms" in tick
        assert tick["args"]["rate"] == 1.5


@pytest.mark.chaos
class TestChaosFlightRecorder:
    def _digest_dir(self, d):
        out = {}
        for name in sorted(os.listdir(d)):
            with open(os.path.join(d, name), "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
        return out

    def test_same_seed_storms_dump_byte_identical_postmortems(self, tmp_path):
        from repro.faults.chaos import run_chaos_storm

        a, b = tmp_path / "a", tmp_path / "b"
        first = run_chaos_storm(seed=3, target_faults=30, postmortem_dir=str(a))
        second = run_chaos_storm(seed=3, target_faults=30, postmortem_dir=str(b))
        assert first.ok and second.ok
        assert first.dumps == second.dumps > 0
        assert first.deadline_trips == second.deadline_trips == 1
        da, db = self._digest_dir(a), self._digest_dir(b)
        assert list(da) == list(db)          # same artifact names, same order
        assert da == db                      # byte-identical content
        triggers = {name.rsplit("-", 1)[-1] for name in da}
        assert "DeadlineExceeded.json" in triggers

    def test_recorder_does_not_change_the_verdict(self, tmp_path):
        from repro.faults.chaos import run_chaos_storm

        bare = run_chaos_storm(seed=5, target_faults=30)
        recorded = run_chaos_storm(
            seed=5, target_faults=30, postmortem_dir=str(tmp_path)
        )
        assert bare.ok and recorded.ok
        assert bare.events == recorded.events
        assert bare.site_counts == recorded.site_counts
        assert bare.dumps == 0 and recorded.dumps > 0

    def test_fault_free_run_dumps_nothing(self, tmp_path):
        from repro.genai import GenerationConfig, GenerationEngine, SamplingParams

        tracker, reg = _tracker(tmp_path)
        engine = GenerationEngine(GenerationConfig(
            vocab=32, max_seq=16, d_model=16, heads=2, layers=1,
            max_batch=2, page_tokens=4, metrics=reg, requests=tracker,
        ))
        try:
            results = engine.generate(
                [[1, 2, 3], [4, 5, 6]], SamplingParams(max_tokens=4)
            )
        finally:
            engine.close()
        assert all(r.finish_reason != "error" for r in results)
        assert os.listdir(tmp_path) == []
        assert tracker.dumps == []

    def test_cli_chaos_postmortem_dir(self, tmp_path, capsys):
        from repro.tools.cli import main

        rc = main([
            "chaos", "--seed", "1", "--faults", "30",
            "--postmortem-dir", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "postmortems dumped" in out
        assert any(
            name.startswith("postmortem-") for name in os.listdir(tmp_path)
        )
