"""End-to-end numbers: every operation counts, scaled by its window's host factor."""

from types import SimpleNamespace

import pytest

from perfbench import probe, run


class _OneClient:
    clients = 1


def _window(start, periods, first):
    """Back-to-back one-unit operations lasting ``periods`` seconds each."""
    ops, t = [], start
    for period in periods:
        ops.append((t, t + period, 1.0))
        t += period
    return {"window": (start, t), "ops": ops, "next": first + len(ops),
            "attempted": len(ops), "failed": 0}


def test_a_round_scales_each_window_by_its_own_probes(monkeypatch):
    # The host runs the probe at reference speed around window 1 and at
    # half speed around window 2, whose operations take twice as long.
    probes = iter([1.0, 1.0, 3.0, 3.0])
    windows = iter([_window(0.0, [0.1] * 5, 0), _window(10.0, [0.2] * 5, 5)])
    firsts = []
    monkeypatch.setattr(probe, "probe", lambda: next(probes) * probe.REFERENCE_S)
    monkeypatch.setattr(
        run, "timed_window",
        lambda wl, seconds, first, pool, rec=None: firsts.append(first) or next(windows))
    r = run.timed_round(_OneClient(), 1.5)
    assert firsts == [0, 5]                                 # one input sequence
    assert r["attempted"] == 10 and r["failed"] == 0
    assert len(r["latencies_ms"]) == 10                     # nothing dropped
    assert r["wall_rate"] == pytest.approx(10 / 1.5)
    assert sorted(r["wall_latencies_ms"]) == pytest.approx([100.0] * 5 + [200.0] * 5)
    # window 1: factor (1+1)/2 = 1; window 2: factor (1+3)/2 = 2
    assert r["latencies_ms"] == pytest.approx([100.0] * 10)
    assert r["rate"] == pytest.approx(10.0)
    assert r["host_factor"] == pytest.approx(1.5)


def _round(rate, latencies_ms):
    return {"rate": rate, "latencies_ms": latencies_ms, "wall_rate": rate,
            "wall_latencies_ms": latencies_ms, "host_factor": 1.0,
            "attempted": len(latencies_ms), "failed": 0}


def test_end_to_end_pools_every_operation_and_takes_the_median_round(monkeypatch):
    # Round 2 holds a stall the program caused: 14 of its 40 operations take
    # 5x as long.  They are > 10 % of the 120 pooled operations, so p90 shows them.
    rounds = iter([
        _round(10.0, [100.0] * 40),
        _round(4.17, [100.0] * 26 + [500.0] * 14),
        _round(8.0, [125.0] * 40),
    ])
    monkeypatch.setattr(run, "timed_round", lambda wl, seconds: next(rounds))
    monkeypatch.setattr(run, "measure_setups",
                        lambda wl, rec=None, regen_gold=False: ([], [0.2, 0.4], 0))
    args = SimpleNamespace(seconds=16, regen_gold=False)
    values, misses, phases, setups = run.measure_end_to_end(None, args)
    assert misses == 0 and len(phases) == run.ROUNDS == 3
    assert setups == (run.ROUNDS + 1) * 2
    assert values["throughput_per_s"] == pytest.approx(8.0)
    assert values["latency_ms_p50"] == pytest.approx(100.0)
    assert values["latency_ms_p90"] == pytest.approx(500.0)
    assert values["setup_s"] == pytest.approx(0.3)
