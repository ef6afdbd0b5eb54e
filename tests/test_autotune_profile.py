"""Tests for measurement-based scheme auto-tuning and the op profiler."""

import numpy as np
import pytest

from repro.core import Session, SessionConfig, autotune_schemes
from repro.converter import optimize
from repro.ir import GraphBuilder

RNG = np.random.default_rng(71)


def conv_net(hw=32):
    b = GraphBuilder("tune", seed=3)
    x = b.input("in", (1, 8, hw, hw))
    x = b.conv(x, oc=16, kernel=3, activation="relu")
    x = b.conv(x, oc=16, kernel=1)
    x = b.conv(x, oc=16, kernel=3, stride=2)
    b.output(x)
    return b.finish()


class TestAutotune:
    def test_covers_all_convs(self):
        g = conv_net()
        report = autotune_schemes(g, repeats=1)
        convs = [n.name for n in g.nodes if n.op_type == "Conv2D"]
        assert set(report.decisions) == set(convs)
        assert report.tuning_ms > 0

    def test_decisions_carry_measurements(self):
        report = autotune_schemes(conv_net(), repeats=1)
        for name, decision in report.decisions.items():
            assert decision.alternatives  # per-candidate timings recorded
            assert decision.cost == min(decision.alternatives.values())

    def test_strided_conv_gets_no_winograd_candidates(self):
        g = conv_net()
        report = autotune_schemes(g, repeats=1)
        strided = next(
            n.name for n in g.nodes
            if n.op_type == "Conv2D" and tuple(n.attrs["stride"]) == (2, 2)
        )
        assert not any(
            label.startswith("winograd")
            for label in report.measurements[strided]
        )

    def test_model_agreement_metric(self):
        report = autotune_schemes(conv_net(), repeats=1)
        assert 0.0 <= report.agreement_with_model() <= 1.0

    def test_session_accepts_overrides(self):
        g = conv_net()
        report = autotune_schemes(g, repeats=1)
        session = Session(g, SessionConfig(scheme_overrides=report.decisions))
        for name, decision in report.decisions.items():
            assert session.schemes[name].kind == decision.kind
        out = session.run({"in": RNG.standard_normal((1, 8, 32, 32)).astype(np.float32)})
        assert np.isfinite(list(out.values())[0]).all()

    def test_tuned_session_not_slower_than_model_session(self):
        """The point of measuring: on this host the tuned schedule must be
        at least as fast as the ARM-calibrated cost model's choice."""
        from repro.bench import time_callable

        g = optimize(conv_net(hw=64))
        report = autotune_schemes(g, repeats=2)
        feed = {"in": RNG.standard_normal((1, 8, 64, 64)).astype(np.float32)}
        base = Session(g)
        tuned = Session(g, SessionConfig(scheme_overrides=report.decisions))
        t_base = time_callable(lambda: base.run(feed), repeats=5).min_ms
        t_tuned = time_callable(lambda: tuned.run(feed), repeats=5).min_ms
        assert t_tuned <= t_base * 1.2  # never meaningfully worse

    def test_skips_quantized_convs(self):
        from repro.quant import quantize_graph

        g = conv_net()
        q = quantize_graph(
            g, [{"in": RNG.standard_normal((1, 8, 32, 32)).astype(np.float32)}]
        )
        report = autotune_schemes(q, repeats=1)
        assert not report.decisions  # int8 convs have a single kernel


class TestProfiler:
    def test_profile_covers_every_op(self):
        g = conv_net()
        session = Session(g)
        feed = {"in": RNG.standard_normal((1, 8, 32, 32)).astype(np.float32)}
        outputs, profile = session.run_profiled(feed)
        runnable = [n for n in g.nodes if n.op_type not in ("Input", "Constant")]
        assert len(profile) == len(runnable)
        assert all(p.wall_ms >= 0 for p in profile)
        assert {p.backend for p in profile} == {"cpu"}

    def test_profiled_outputs_match_plain_run(self):
        g = conv_net()
        session = Session(g)
        feed = {"in": RNG.standard_normal((1, 8, 32, 32)).astype(np.float32)}
        plain = session.run(feed)
        profiled, _ = session.run_profiled(feed)
        for name in plain:
            np.testing.assert_array_equal(plain[name], profiled[name])

    def test_virtual_time_attribution_on_gpu(self):
        from repro.devices import get_device

        g = conv_net()
        session = Session(g, SessionConfig(backend="vulkan", device=get_device("MI6")))
        feed = {"in": RNG.standard_normal((1, 8, 32, 32)).astype(np.float32)}
        _, profile = session.run_profiled(feed)
        assert sum(p.virtual_ms for p in profile) == pytest.approx(
            session.last_run.virtual_ms, rel=0.01
        )
        assert all(p.virtual_ms > 0 for p in profile if p.backend == "vulkan")

    def test_profile_sums_to_run_wall_time_roughly(self):
        g = conv_net(hw=64)
        session = Session(g)
        feed = {"in": RNG.standard_normal((1, 8, 64, 64)).astype(np.float32)}
        session.run(feed)
        _, profile = session.run_profiled(feed)
        total_ops = sum(p.wall_ms for p in profile)
        assert total_ops <= session.last_run.wall_ms * 3  # sanity, not exact
