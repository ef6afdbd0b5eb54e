"""Tests for pre-inference's measured scheme selection and the op profiler."""

import numpy as np
import pytest

from repro.core import SchemeDecision, Session, SessionConfig, autotune, select_graph_schemes
from repro.converter import optimize
from repro.ir import GraphBuilder

RNG = np.random.default_rng(71)


@pytest.fixture()
def probes(monkeypatch):
    """A process that has timed nothing yet; logs every (conv, scheme
    label) runner the probe builds."""
    built, bound = [], autotune.bound_runner

    def spy(node, graph, scheme):
        built.append((node.name, scheme.label))
        return bound(node, graph, scheme)

    monkeypatch.setattr(autotune, "_VERDICTS", {})
    monkeypatch.setattr(autotune, "bound_runner", spy)
    return built


def conv_net(hw=32):
    b = GraphBuilder("tune", seed=3)
    x = b.input("in", (1, 8, hw, hw))
    x = b.conv(x, oc=16, kernel=3, activation="relu")
    x = b.conv(x, oc=16, kernel=1)
    x = b.conv(x, oc=16, kernel=3, stride=2)
    b.output(x)
    return b.finish()


class TestAutotune:
    """Pre-inference's measured selection: the one place a session's
    conv schemes are decided."""

    def test_covers_all_convs(self):
        g = conv_net()
        convs = [n.name for n in g.nodes if n.op_type == "Conv2D"]
        assert set(Session(g).schemes) == set(convs)

    def test_decisions_carry_measurements(self, probes):
        """The one modeled Winograd conv leaves one memoized verdict of
        two timings, and its decision follows them."""
        g = conv_net()
        session = Session(g)
        modeled = select_graph_schemes(g)
        (name,) = [name for name, d in modeled.items() if d.kind == "winograd"]
        ((winograd_ms, sliding_ms),) = autotune._VERDICTS.values()
        assert winograd_ms > 0 and sliding_ms > 0
        want = modeled[name].kind if winograd_ms < sliding_ms else "sliding"
        assert session.schemes[name].kind == want

    def test_strided_conv_gets_no_winograd_candidates(self, probes):
        g = conv_net()
        session = Session(g)
        strided = next(
            n.name for n in g.nodes
            if n.op_type == "Conv2D" and tuple(n.attrs["stride"]) == (2, 2)
        )
        assert strided not in {name for name, _ in probes}
        assert not any(
            label.startswith("winograd")
            for label in session.schemes[strided].alternatives
        )

    @pytest.mark.parametrize("repeats", [1, 3])
    def test_times_each_built_runner_and_transforms_weights_once(
            self, repeats, probes, monkeypatch):
        """The probe builds each modeled Winograd conv's runner and its
        sliding rival once, by the session's ``build_runner``, which
        transforms Winograd weights at build; the timing repeats rerun the
        bound runner, never the transform."""
        from repro import kernels

        transformed, transform = [], kernels.transform_kernel_rect

        def spy_transform(*args, **kwargs):
            transformed.append(probes[-1])
            return transform(*args, **kwargs)

        monkeypatch.setattr(autotune, "PROBE_REPEATS", repeats)
        monkeypatch.setattr(kernels, "transform_kernel_rect", spy_transform)
        g = conv_net()
        schemes = select_graph_schemes(g)
        modeled = {name: d.label for name, d in schemes.items() if d.kind == "winograd"}
        assert autotune.keep_faster_winograd(g, schemes) == len(modeled)
        assert len(probes) == len(set(probes))
        assert set(probes) == {(name, label) for name, winograd in modeled.items()
                               for label in (winograd, "sliding")}
        winograd = [key for key in probes if key[1].startswith("winograd")]
        assert winograd and transformed == winograd

    def test_session_accepts_overrides(self):
        g = conv_net()
        convs = [n for n in g.nodes if n.op_type == "Conv2D"]
        overrides = {
            n.name: SchemeDecision("winograd", (2, 2))
            if tuple(n.attrs["kernel"]) == (3, 3) and tuple(n.attrs["stride"]) == (1, 1)
            else SchemeDecision("sliding")
            for n in convs
        }
        session = Session(g, SessionConfig(scheme_overrides=overrides))
        assert {name: session.schemes[name] for name in overrides} == overrides
        feed = {"in": RNG.standard_normal((1, 8, 32, 32)).astype(np.float32)}
        (out,) = session.run(feed).values()
        (want,) = Session(g).run(feed).values()
        np.testing.assert_allclose(out, want, rtol=1e-4, atol=1e-4)

    def test_tuned_session_not_slower_than_model_session(self):
        """The point of measuring: on this host the measured schedule must
        be at least as fast as the ARM-calibrated cost model's choice."""
        from repro.bench import time_callable

        g = optimize(conv_net(hw=64))
        feed = {"in": RNG.standard_normal((1, 8, 64, 64)).astype(np.float32)}
        # The cost model's picks, pinned: measurement may demote Winograd.
        base = Session(g, SessionConfig(scheme_overrides=select_graph_schemes(g)))
        tuned = Session(g)
        # Alternating (base, tuned) pairs see the same host load, so the
        # median pair ratio is robust to a burst that one side alone
        # would absorb.
        ratios = []
        for _ in range(9):
            t_base = time_callable(lambda: base.run(feed), repeats=3).min_ms
            t_tuned = time_callable(lambda: tuned.run(feed), repeats=3).min_ms
            ratios.append(t_tuned / t_base)
        assert np.median(ratios) <= 1.2, ratios  # never meaningfully worse

    def test_skips_quantized_convs(self, probes):
        from repro.quant import quantize_graph

        g = conv_net()
        q = quantize_graph(
            g, [{"in": RNG.standard_normal((1, 8, 32, 32)).astype(np.float32)}]
        )
        session = Session(q)
        assert not probes  # int8 convs have a single kernel
        assert {d.kind for d in session.schemes.values()} <= {"sliding", "gemm1x1"}


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
