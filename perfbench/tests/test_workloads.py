import numpy as np

from perfbench.layers import batch_waits
from perfbench.trace import Span
from perfbench.workloads import WORKLOADS, CnnStream, DecodePrefix, DecodeUnshared


def test_six_workloads_match_the_contract(tmp_path):
    import json
    from pathlib import Path

    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_seeded_inputs_are_deterministic_and_seed_sensitive(tmp_path):
    a, b, c = CnnStream(3, tmp_path), CnnStream(3, tmp_path), CnnStream(4, tmp_path)
    assert all(np.array_equal(x, y) for x, y in zip(a.inputs, b.inputs))
    assert not np.array_equal(a.inputs[0], c.inputs[0])

    waves = [[w.next_input(0, i) for i in range(3)]
             for w in (DecodeUnshared(3, tmp_path), DecodeUnshared(3, tmp_path),
                       DecodeUnshared(4, tmp_path))]
    assert waves[0] == waves[1]
    assert waves[0] != waves[2]


def test_every_wave_does_the_same_work(tmp_path):
    wl = DecodeUnshared(11, tmp_path)
    for i in range(5):
        wave = wl.next_input(0, i)
        assert sorted(len(p) for p, _ in wave) == sorted(wl.PROMPT_LENS)
        assert sorted(b for _, b in wave) == sorted(wl.BUDGETS)


def test_prefix_waves_share_one_per_run_prefix(tmp_path):
    wl = DecodePrefix(5, tmp_path)
    wave = wl.next_input(0, 0) + wl.next_input(0, 1)
    assert len(wl.prefix) == 64
    assert all(p[:64] == wl.prefix for p, _ in wave)
    assert len({tuple(p[64:]) for p, _ in wave}) == len(wave)      # unique suffixes
    assert DecodePrefix(6, tmp_path).prefix != wl.prefix


def test_batch_waits_joins_submits_to_the_run_that_served_them():
    def span(name, start, end, batch=None):
        s = Span(name, start, None, tid=1, op=None)
        s.end = end
        s.args = {"batch": batch}
        return s

    submits = [span("serving.batch_submit", 0.0, 0.1), span("serving.batch_submit", 0.5, 0.6),
               span("serving.batch_submit", 3.0, 3.1)]
    runs = [span("core.session_run", 2.0, 2.5, batch=2), span("core.session_run", 3.6, 4.0, batch=2)]
    waits = batch_waits(submits, runs)
    assert [round(w, 6) for w in waits] == [1.9, 1.4, 0.5]
