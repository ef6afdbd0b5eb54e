"""Ablation — measured scheme selection vs. the Eq. 2 cost model (future work 1).

A plain ``Session`` on the ``"cpu"`` backend keeps each modeled Winograd
pick only where this host times it faster than sliding window
(``core.autotune.keep_faster_winograd``).  This compares that measured
session's end-to-end wall time with a session pinned to the cost model's
picks.  Claims checked: measuring costs milliseconds-to-seconds of
prepare time (not TVM's hours), the measured session is never
meaningfully slower, and on this host — whose BLAS substrate differs from
the ARM world the cost model is calibrated for — it is usually faster.
"""

import time

import numpy as np
import pytest

from repro.bench import time_callable
from repro.converter import optimize
from repro.core import Session, SessionConfig, autotune, select_graph_schemes
from repro.models import squeezenet_v1_1

RNG = np.random.default_rng(77)
SIZE = 96


@pytest.fixture(scope="module")
def net():
    return optimize(squeezenet_v1_1(input_size=SIZE, classes=10))


def cold_prepare(graph):
    """A session prepared by a process that has timed no verdict yet, and
    its prepare wall time in ms."""
    autotune._VERDICTS.clear()
    start = time.perf_counter()
    session = Session(graph)
    return session, (time.perf_counter() - start) * 1000.0


def test_ablation_autotune_vs_cost_model(net, report_table, benchmark):
    tuned, tuning_ms = cold_prepare(net)
    modeled = select_graph_schemes(net)
    feed = {"data": RNG.standard_normal((1, 3, SIZE, SIZE)).astype(np.float32)}
    # The cost model's picks, pinned: a plain "cpu" session demotes the
    # Winograd picks this host times slower than sliding window.
    base = Session(net, SessionConfig(scheme_overrides=modeled))
    benchmark(lambda: tuned.run(feed))
    t_base = time_callable(lambda: base.run(feed), repeats=8).median_ms
    t_tuned = time_callable(lambda: tuned.run(feed), repeats=8).median_ms
    changed = sum(
        1 for name, d in tuned.schemes.items()
        if (d.kind, d.tile) != (modeled[name].kind, modeled[name].tile)
    )
    report_table(
        "Ablation — measured selection vs Eq. 2 cost model",
        ["metric", "value"],
        [
            ["convs", len(modeled)],
            ["prepare wall time, verdicts timed (ms)", round(tuning_ms)],
            ["decisions changed vs model", changed],
            ["cost-model session (ms)", round(t_base, 1)],
            ["measured session (ms)", round(t_tuned, 1)],
            ["speedup", f"{t_base / t_tuned:.2f}x"],
        ],
        config={"model": "squeezenet_v1.1", "input_size": SIZE,
                "probe_repeats": autotune.PROBE_REPEATS},
        tuned_ms=t_tuned,
        base_ms=t_base,
    )
    # measuring stays in the interactive regime (vs TVM's hours, Table 5)
    assert tuning_ms < 60_000
    # never meaningfully slower than the cost model's choice
    assert t_tuned <= t_base * 1.15


def test_ablation_tuning_cost_scales_with_convs(report_table, benchmark):
    from repro.ir import GraphBuilder

    def net_with(n_convs):
        """``n_convs`` Winograd-modeled 3x3 convs, each of its own width,
        so every one is a verdict of its own to time."""
        b = GraphBuilder(f"n{n_convs}", seed=0)
        x = b.input("in", (1, 16, 24, 24))
        for i in range(n_convs):
            x = b.conv(x, oc=16 + 4 * i, kernel=3)
        b.output(x)
        return b.finish()

    _, small_ms = cold_prepare(net_with(2))
    _, large_ms = cold_prepare(net_with(8))
    benchmark(lambda: cold_prepare(net_with(2)))
    report_table(
        "Ablation — tuning cost scaling",
        ["convs", "prepare ms, verdicts timed"],
        [[2, round(small_ms, 1)], [8, round(large_ms, 1)]],
    )
    assert large_ms > small_ms
