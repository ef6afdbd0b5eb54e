"""Measured scheme selection: on the real CPU, pre-inference keeps a
modeled Winograd pick only where this host times it faster than sliding
window (``core.autotune.keep_faster_winograd``)."""

import itertools
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import SchemeDecision, Session, SessionConfig, autotune, select_graph_schemes
from repro.devices import HostFingerprint, get_device
from repro.ir import GraphBuilder
from repro.models import squeezenet_v1_1
from repro.obs import Tracer
from repro.runtime import Runtime
from repro.serving import PreInferenceCache
from repro.serving import cache as serving_cache

RNG = np.random.default_rng(5)


def net():
    """Two Winograd-modeled 3x3 convs of different shapes, a strided 3x3
    (sliding) and a 1x1 (gemm1x1)."""
    b = GraphBuilder("measured", seed=2)
    x = b.input("data", (1, 16, 24, 24))
    x = b.conv(x, oc=32, kernel=3, name="wino_a")
    x = b.conv(x, oc=32, kernel=3, stride=2, name="strided")
    x = b.conv(x, oc=48, kernel=3, name="wino_b")
    x = b.conv(x, oc=16, kernel=1, name="pointwise")
    b.output(b.global_avg_pool(x))
    return b.finish()


WINOGRAD = {"wino_a", "wino_b"}


@pytest.fixture(autouse=True)
def fresh_verdicts(monkeypatch):
    """A process that has timed nothing yet."""
    monkeypatch.setattr(autotune, "_VERDICTS", {})


@pytest.fixture()
def timer(monkeypatch):
    """Replaces the probe's runners and timer: each verdict reads
    ``ms[kind]``, and every timed (node, scheme kind) is logged."""
    state = SimpleNamespace(ms={"winograd": 1.0, "sliding": 2.0}, timed=[])

    def fake_runner(node, graph, scheme):
        return SimpleNamespace(node=node, scheme=scheme, x_shape=graph.desc(node.inputs[0]).shape)

    def fake_measure(runner, x, repeats):
        assert x.shape == runner.x_shape  # probed at the layer's own shape
        state.timed.append((runner.node.name, runner.scheme.kind))
        return state.ms[runner.scheme.kind]

    monkeypatch.setattr(autotune, "bound_runner", fake_runner)
    monkeypatch.setattr(autotune, "_measure", fake_measure)
    return state


def test_the_modeled_picks_are_what_measurement_prices():
    modeled = select_graph_schemes(net())
    assert {n for n, d in modeled.items() if d.kind == "winograd"} == WINOGRAD
    assert modeled["strided"].kind == "sliding"
    assert modeled["pointwise"].kind == "gemm1x1"


@pytest.mark.parametrize("faster", ["winograd", "sliding"])
def test_the_decision_follows_the_verdict(timer, faster):
    timer.ms = {"winograd": 1.0, "sliding": 2.0} if faster == "winograd" else {
        "winograd": 2.0, "sliding": 1.0}
    g = net()
    session = Session(g)
    modeled = select_graph_schemes(g)
    for name in WINOGRAD:
        if faster == "winograd":
            assert session.schemes[name] == modeled[name]
        else:
            assert session.schemes[name].kind == "sliding"
            # the demoted decision carries the modeled sliding cost
            assert session.schemes[name].cost == modeled[name].alternatives["sliding"]
            assert session.schemes[name].alternatives == modeled[name].alternatives
    assert sorted(timer.timed) == sorted(
        (name, kind) for name in WINOGRAD for kind in ("winograd", "sliding"))


def test_a_tie_keeps_sliding(timer):
    timer.ms = {"winograd": 1.0, "sliding": 1.0}
    assert {Session(net()).schemes[n].kind for n in WINOGRAD} == {"sliding"}


def test_sliding_and_gemm1x1_picks_are_never_timed(timer):
    Session(net())
    assert {name for name, _ in timer.timed} == WINOGRAD


def test_a_second_session_runs_no_probe(timer):
    tracer = Tracer()
    first = Session(net(), runtime=Runtime.resolve(trace=tracer))
    probes = len(timer.timed)
    assert probes == 2 * len(WINOGRAD)
    second = Session(net(), runtime=Runtime.resolve(trace=tracer))
    assert len(timer.timed) == probes
    assert second.schemes == first.schemes
    spans = [s.args for s in tracer.spans if s.name == "scheme_selection"]
    assert [s["probes"] for s in spans] == [len(WINOGRAD), 0]


def test_concurrent_prepares_agree_on_one_verdict_per_conv(timer, monkeypatch):
    """Eight threads prepare at once and every probe times the other way
    from the last, so two probes of one conv disagree: whichever verdict
    lands first in the memo is the one every session runs."""
    flip = itertools.count()
    monkeypatch.setattr(autotune, "_measure", lambda runner, x, repeats: float(next(flip) % 3))
    g = net()
    sessions = []
    threads = [threading.Thread(target=lambda: sessions.append(Session(g))) for _ in range(8)]
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(t.is_alive() for t in threads)
    assert len(sessions) == 8
    assert len(autotune._VERDICTS) == len(WINOGRAD)
    assert all(s.schemes == sessions[0].schemes for s in sessions)


def test_a_batched_twin_shares_the_verdicts(timer):
    """The batch size is not part of a verdict's key: resizing to a batch
    times nothing and keeps the one-sample schemes."""
    timer.ms = {"winograd": 2.0, "sliding": 1.0}
    session = Session(net())
    before = dict(session.schemes)
    probes = len(timer.timed)
    session.resize({"data": (3, 16, 24, 24)})
    assert len(timer.timed) == probes
    assert session.schemes == before


def test_a_new_shape_is_timed_again(timer):
    session = Session(net())
    probes = len(timer.timed)
    session.resize({"data": (1, 16, 32, 32)})
    assert len(timer.timed) == probes + 2 * len(WINOGRAD)


def test_overrides_take_precedence_over_measurement(timer):
    timer.ms = {"winograd": 2.0, "sliding": 1.0}
    g = net()
    pinned = {"wino_a": SchemeDecision("winograd", (2, 2))}
    session = Session(g, SessionConfig(scheme_overrides=pinned))
    assert session.schemes["wino_a"] == pinned["wino_a"]
    assert session.schemes["wino_b"].kind == "sliding"
    assert {name for name, _ in timer.timed} == {"wino_b"}

    modeled = select_graph_schemes(g)
    session = Session(g, SessionConfig(scheme_overrides=modeled))
    assert session.schemes == modeled
    assert {name for name, _ in timer.timed} == {"wino_b"}


def test_cached_schemes_take_precedence_over_measurement(timer):
    timer.ms = {"winograd": 2.0, "sliding": 1.0}
    g = net()
    cold = Session(g, SessionConfig(scheme_overrides=select_graph_schemes(g)))
    artifacts = cold.export_artifacts()
    autotune._VERDICTS.clear()
    warm = Session(g, artifacts=artifacts)
    assert not timer.timed
    assert warm.schemes == cold.schemes
    assert {warm.schemes[n].kind for n in WINOGRAD} == {"winograd"}


@pytest.mark.parametrize("config", [
    SessionConfig(backend="sim_cpu", device=get_device("MI6")),
    SessionConfig(backend="vulkan", device=get_device("MI6")),
    SessionConfig(auto_backend=True, device=get_device("MI6")),
], ids=["sim_cpu", "vulkan", "auto_backend"])
def test_simulated_backends_keep_the_modeled_picks(monkeypatch, config):
    def never(*args):
        raise AssertionError("a simulated backend timed a runner")

    monkeypatch.setattr(autotune, "_measure", never)
    g = squeezenet_v1_1(input_size=96)
    assert Session(g, config).schemes == select_graph_schemes(g)


def test_an_entry_keyed_under_another_host_misses(tmp_path, monkeypatch):
    g = net()
    cache = PreInferenceCache(tmp_path)
    here = cache.key(g, SessionConfig())
    cache.store(here, Session(g).export_artifacts())
    assert cache.load(here) is not None
    monkeypatch.setattr(serving_cache, "host_fingerprint",
                        lambda: HostFingerprint("Linux", "aarch64", 8, "3.11"))
    there = cache.key(g, SessionConfig())
    assert there != here
    assert cache.load(there) is None


def test_measured_session_answers_within_the_gold_tolerance():
    """Whichever way this host's verdicts go, the answer is the conv's."""
    g = net()
    x = {"data": RNG.standard_normal((1, 16, 24, 24)).astype(np.float32)}
    measured = Session(g).run(x)[g.outputs[0]]
    modeled = Session(g, SessionConfig(scheme_overrides=select_graph_schemes(g))).run(x)
    np.testing.assert_allclose(measured, modeled[g.outputs[0]], rtol=1e-4, atol=1e-4)
