"""Integration tests for Session: pre-inference, hybrid scheduling, runs."""

import numpy as np
import pytest

from repro.backends import BackendError
from repro.core import Session, SessionConfig, choose_backend
from repro.devices import get_device
from repro.ir import GraphBuilder, GraphError

RNG = np.random.default_rng(5)


def build_net(hw=32):
    b = GraphBuilder("net", seed=1)
    x = b.input("data", (1, 3, hw, hw))
    x = b.conv(x, oc=16, kernel=3, stride=2, activation="relu")
    x = b.depthwise_conv(x, kernel=3)
    x = b.batch_norm(x)
    y = b.conv(x, oc=16, kernel=1)
    x = b.add(x, y)
    x = b.conv(x, oc=32, kernel=3)
    x = b.max_pool(x, 2)
    x = b.fc(b.global_avg_pool(x), units=10)
    b.output(b.softmax(x))
    return b.finish()


def feed(hw=32):
    return {"data": RNG.standard_normal((1, 3, hw, hw)).astype(np.float32)}


class TestCpuSession:
    def test_runs_and_produces_probabilities(self):
        session = Session(build_net())
        out = list(session.run(feed()).values())[0]
        assert out.shape == (1, 10)
        assert out.sum() == pytest.approx(1.0, abs=1e-4)

    def test_repeated_runs_deterministic(self):
        session = Session(build_net())
        f = feed()
        a = list(session.run(f).values())[0]
        b = list(session.run(f).values())[0]
        np.testing.assert_array_equal(a, b)

    def test_missing_input(self):
        session = Session(build_net())
        with pytest.raises(GraphError, match="missing input"):
            session.run({})

    def test_wrong_shape(self):
        session = Session(build_net())
        with pytest.raises(GraphError, match="expected shape"):
            session.run({"data": np.zeros((1, 3, 8, 8), np.float32)})

    def test_preinference_artifacts(self):
        session = Session(build_net())
        assert session.memory_plan is not None
        session.memory_plan.validate()
        assert session.scheme_summary()  # schemes were selected
        assert session.placement_summary() == {"cpu": 10}

    def test_decouple_off_still_correct(self):
        f = feed()
        ref = list(Session(build_net()).run(f).values())[0]
        raw = list(
            Session(build_net(), SessionConfig(decouple=False)).run(f).values()
        )[0]
        np.testing.assert_allclose(ref, raw, atol=1e-5)
        # no memory plan is built without decoupling
        assert Session(build_net(), SessionConfig(decouple=False)).memory_plan is None

    def test_non_decoupled_run_has_no_memory_plan(self):
        """Interleaved acquire/release around view-producing reshapes
        answers bitwise like the decoupled run."""
        b = GraphBuilder("views", seed=6)
        x = b.input("in", (1, 4, 16, 16))
        x = b.conv(x, oc=8, kernel=3, activation="relu")
        y = b.reshape(b.reshape(x, (1, 8 * 16 * 16)), (1, 8, 16, 16))
        x = b.fc(b.global_avg_pool(b.add(x, y)), units=3)
        b.output(b.softmax(x))
        g = b.finish()
        session = Session(g, SessionConfig(decouple=False))
        assert session.memory_plan is None
        f = {"in": RNG.standard_normal((1, 4, 16, 16)).astype(np.float32)}
        out = list(session.run(f).values())[0]
        assert out.sum() == pytest.approx(1.0, abs=1e-4)
        assert out.tobytes() == list(Session(g).run(f).values())[0].tobytes()


class TestSimulatedBackends:
    @pytest.mark.parametrize("api", ["vulkan", "opencl", "opengl", "metal"])
    def test_gpu_matches_cpu_numerics(self, api):
        device = get_device("iPhoneX" if api == "metal" else "MI6")
        f = feed()
        ref = list(Session(build_net()).run(f).values())[0]
        session = Session(build_net(), SessionConfig(backend=api, device=device))
        got = list(session.run(f).values())[0]
        np.testing.assert_allclose(ref, got, atol=1e-4)

    def test_gpu_requires_device(self):
        with pytest.raises(BackendError, match="DeviceSpec"):
            Session(build_net(), SessionConfig(backend="vulkan"))

    def test_metal_rejected_on_android(self):
        with pytest.raises(BackendError, match="does not expose"):
            Session(build_net(), SessionConfig(backend="metal", device=get_device("MI6")))

    def test_hybrid_placement_on_sparse_backend(self):
        # OpenGL supports only a handful of ops: the rest must fall to CPU
        session = Session(
            build_net(), SessionConfig(backend="opengl", device=get_device("MI6"))
        )
        placement = session.placement_summary()
        assert placement.get("opengl", 0) > 0
        assert placement.get("sim_cpu", 0) > 0
        out = list(session.run(feed()).values())[0]
        assert out.sum() == pytest.approx(1.0, abs=1e-4)
        # hybrid execution forces at least one cross-backend copy
        assert session.last_run.copies > 0

    def test_virtual_time_advances(self):
        session = Session(
            build_net(), SessionConfig(backend="vulkan", device=get_device("MI6"))
        )
        session.run(feed())
        assert session.last_run.virtual_ms > 0

    def test_decoupling_reduces_gpu_time(self):
        """Table 2's mechanism: pre-recorded command buffers."""
        device = get_device("MI6")
        with_d = Session(build_net(), SessionConfig(backend="vulkan", device=device))
        without = Session(
            build_net(), SessionConfig(backend="vulkan", device=device, decouple=False)
        )
        f = feed()
        with_d.run(f)
        without.run(f)
        assert with_d.last_run.virtual_ms < without.last_run.virtual_ms

    def test_decoupling_reduces_sim_cpu_time(self):
        device = get_device("MI6")
        f = feed()
        with_d = Session(build_net(), SessionConfig(backend="sim_cpu", device=device))
        without = Session(
            build_net(), SessionConfig(backend="sim_cpu", device=device, decouple=False)
        )
        with_d.run(f)
        without.run(f)
        assert with_d.last_run.virtual_ms < without.last_run.virtual_ms

    def test_modeled_cost_positive(self):
        session = Session(
            build_net(), SessionConfig(backend="vulkan", device=get_device("MI6"))
        )
        assert session.modeled_cost_ms() > 0

    @pytest.mark.parametrize("backend,decouple,virtual_ms,prepare_ms", [
        ("sim_cpu", True, 0.36180408163265315, 0.0),
        ("vulkan", True, 0.7535640887225085, 51.99999999999994),
        ("vulkan", False, 55.41356408872268, 0.0),
    ], ids=["sim_cpu", "vulkan", "vulkan-coupled"])
    def test_virtual_time_is_pinned(self, backend, decouple, virtual_ms, prepare_ms):
        """The virtual clock charges Eq. 5 through ``BackendCostModel``;
        these are exact float readings, so a reordered term shows."""
        from repro.analysis.verify_passes import random_feeds
        from repro.models import squeezenet_v1_1

        graph = squeezenet_v1_1(input_size=32)
        session = Session(graph, SessionConfig(
            backend=backend, device=get_device("MI6"), decouple=decouple))
        session.run(random_feeds(graph))
        assert session.last_run.virtual_ms == virtual_ms
        assert session.primary.prepare_cost_ms == prepare_ms


class TestBackendSelection:
    def test_choose_backend_prefers_gpu_for_heavy_graph(self):
        g = build_net(hw=128)  # heavy: GPU FLOPS win
        choice = choose_backend(g, get_device("MI6"), 4, ("sim_cpu", "vulkan", "opengl"))
        assert choice == "vulkan"

    def test_choose_backend_prefers_cpu_for_tiny_graph(self):
        b = GraphBuilder("tiny", seed=0)
        x = b.input("in", (1, 2, 4, 4))
        b.output(b.conv(x, oc=2, kernel=1))
        g = b.finish()
        choice = choose_backend(g, get_device("MI6"), 4, ("sim_cpu", "opencl"))
        assert choice == "sim_cpu"  # t_schedule dominates a 4x4 conv

    def test_auto_backend_session(self):
        session = Session(
            build_net(hw=64),
            SessionConfig(auto_backend=True, device=get_device("MI6")),
        )
        assert session.backend_kind in ("vulkan", "opencl", "opengl", "sim_cpu")
        out = list(session.run(feed(64)).values())[0]
        assert np.isfinite(out).all()

    def test_unknown_backend_kind(self):
        with pytest.raises(BackendError, match="unknown backend"):
            Session(build_net(), SessionConfig(backend="tpu", device=get_device("MI6")))
