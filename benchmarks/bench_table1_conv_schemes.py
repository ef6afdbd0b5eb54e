"""Table 1 — computation scheme selection vs. fixed conv schemes.

Two views of the paper's three convolution settings (kernel, ic, oc, size)
= (2,3,16,224), (2,512,512,16), (3,64,64,112):

* **modeled cost** (the Eq. 2/3 metric the selector minimizes) — this is
  where the paper's shape must reproduce exactly: each fixed scheme wins
  one column and loses another; "Ours" tracks the per-column best.
* **measured wall time** of the runner a session executes for the
  setting: :func:`repro.core.autotune.bound_runner` over a one-conv
  graph, so Winograd weights are transformed once, at build, as
  pre-inference does, and only the run is timed.  Both schemes run on
  OpenBLAS: sliding window is a tap gather plus one float32 ``W·T`` GEMM
  per sample, and every Winograd stage is a float64 GEMM.  The measured
  "Ours" is the scheme a ``"cpu"`` session runs: the modeled pick, kept
  only where this host times it faster than sliding window.
  EXPERIMENTS.md records the numbers and where the wall-clock columns
  depart from the paper's.  The within-Winograd ranking transfers and is
  asserted below: the modeled tile size n must beat the wrong fixed tile
  (WinoMin on big maps, WinoMax on small maps).
"""

import numpy as np
import pytest

from repro.bench import time_callable
from repro.core import SchemeConfig, SchemeDecision, Session, bound_runner, select_conv_scheme
from repro.core.schemes import winograd_plane_cost
from repro.ir import GraphBuilder

CASES = [
    (2, 3, 16, 224),
    (2, 512, 512, 16),
    (3, 64, 64, 112),
]
#: Paper Table 1 (ms): sliding, WinoMin, WinoMax, Ours.
PAPER = {
    (2, 3, 16, 224): (32.1, 42.2, 57.3, 32.7),
    (2, 512, 512, 16): (895.1, 287.7, 539.3, 286.0),
    (3, 64, 64, 112): (895.1, 389.8, 237.4, 236.4),
}

RNG = np.random.default_rng(0)
CFG = SchemeConfig()


def _make_case(k, ic, oc, size):
    """One unpadded, bias-free k x k conv as a graph, and an input for it."""
    b = GraphBuilder("table1", seed=0)
    b.output(b.conv(b.input("x", (1, ic, size, size)), oc, k, pad_mode="valid",
                    bias=False, name="y"))
    x = RNG.standard_normal((1, ic, size, size)).astype(np.float32)
    return b.finish(), x


def _conv(graph, x, scheme):
    """A call of the session runner for ``scheme``, bound once."""
    runner = bound_runner(graph.nodes[-1], graph, scheme)
    return lambda: runner.fn([x])


def _winograd(n):
    return SchemeDecision("winograd", (n, n))


def _max_legal_n(k):
    return max(n for n in CFG.winograd_candidates if n > 1 and n + k - 1 <= CFG.max_tile)


def _modeled_costs(k, ic, oc, size):
    out_hw = (size - k + 1, size - k + 1)
    decision = select_conv_scheme((k, k), ic, oc, out_hw, config=CFG)
    sliding = out_hw[0] * out_hw[1] * ic * k * k * oc
    return {
        "Sliding": float(sliding),
        "WinoMin": winograd_plane_cost((2, 2), (k, k), ic, oc, out_hw, CFG),
        "WinoMax": winograd_plane_cost((_max_legal_n(k),) * 2, (k, k), ic, oc, out_hw, CFG),
        "Ours": float(decision.cost),
    }, decision


def _measured_times(graph, x, k, decision, pick, repeats=5):
    """Median ms per column.  "Ours" is the session's measured ``pick``
    and "Modeled" the Eq. 2/3 ``decision``; a column that runs the same
    scheme as another reuses its one measurement."""
    schemes = {
        "Sliding": SchemeDecision("sliding"),
        "WinoMin": _winograd(2),
        "WinoMax": _winograd(_max_legal_n(k)),
        "Ours": pick,
        "Modeled": decision,
    }
    by_label = {}
    for scheme in schemes.values():
        if scheme.label not in by_label:
            by_label[scheme.label] = time_callable(
                _conv(graph, x, scheme), repeats=repeats).median_ms
    return {name: by_label[scheme.label] for name, scheme in schemes.items()}


@pytest.mark.parametrize("case", CASES, ids=[str(c) for c in CASES])
def test_table1_per_setting(case, report_table, benchmark):
    k, ic, oc, size = case
    modeled, decision = _modeled_costs(k, ic, oc, size)
    graph, x = _make_case(k, ic, oc, size)
    pick = Session(graph).schemes["y"]
    measured = _measured_times(graph, x, k, decision, pick)
    benchmark(_conv(graph, x, pick))

    paper = PAPER[case]
    report_table(
        f"Table 1 — setting (k,ic,oc,size)={case}; modeled: {decision.label}; "
        f"measured: {pick.label}",
        ["scheme", "modeled cost (M weighted MULs)", "measured ms", "paper ms"],
        [
            [name, modeled[name] / 1e6, measured[name], paper[i]]
            for i, name in enumerate(("Sliding", "WinoMin", "WinoMax", "Ours"))
        ],
        config={"case": case, "selected": decision.kind,
                "tile": list(decision.tile), "measured_pick": pick.label},
    )
    # Shape claim 1: "Ours" is the modeled best, by construction and in fact.
    assert modeled["Ours"] <= min(modeled.values()) * 1.0001
    # Shape claim 2 (transfers to wall clock): within the Winograd family,
    # the searched tile size beats or matches the wrong fixed tile.
    if decision.kind == "winograd":
        assert measured["Modeled"] <= min(measured["WinoMin"], measured["WinoMax"]) * 1.25


def test_table1_no_fixed_scheme_wins_everywhere(report_table, benchmark):
    """Paper's point: every fixed scheme has a losing column (modeled)."""
    benchmark(_conv(*_make_case(*CASES[0]), SchemeDecision("sliding")))
    losses = {"Sliding": 0, "WinoMin": 0, "WinoMax": 0}
    rows = []
    for case in CASES:
        modeled, _ = _modeled_costs(*case)
        best = min(modeled[s] for s in losses)
        for scheme in losses:
            if modeled[scheme] > best * 1.3:
                losses[scheme] += 1
        rows.append([str(case)] + [round(modeled[s] / best, 2) for s in losses])
    report_table(
        "Table 1 — modeled cost relative to per-setting best",
        ["setting", "Sliding", "WinoMin", "WinoMax"],
        rows,
    )
    assert all(count >= 1 for count in losses.values())


def test_table1_winograd_tile_ranking_transfers(report_table, benchmark):
    """Within-Winograd wall-clock ranking matches the paper's Min/Max rows:
    small maps favor small tiles, big maps favor big tiles."""
    small = _make_case(2, 512, 512, 16)
    big = _make_case(3, 64, 64, 112)
    benchmark(_conv(*small, _winograd(2)))
    t_small = {
        n: time_callable(_conv(*small, _winograd(n)), repeats=3).median_ms for n in (2, 8)
    }
    t_big = {
        n: time_callable(_conv(*big, _winograd(n)), repeats=3).median_ms for n in (2, 8)
    }
    report_table(
        "Table 1 — Winograd tile ranking (measured ms)",
        ["setting", "n=2", "n=8", "paper says"],
        [
            ["(2,512,512,16)", t_small[2], t_small[8], "small tile wins (288 vs 539)"],
            ["(3,64,64,112)", t_big[2], t_big[8], "big tile wins (237 vs 390)"],
        ],
    )
    assert t_small[2] < t_small[8]
    assert t_big[8] < t_big[2]
