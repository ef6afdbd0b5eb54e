"""Tests for sequence ops (Transpose/Gather/LayerNorm/GELU/LSTM) and the
Transformer / LSTM zoo models."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.backends.op_runners import build_runner
from repro.core import Session, SessionConfig, node_muls
from repro.core.reference import execute_reference
from repro.devices import get_device
from repro.ir import DataType, Graph, GraphBuilder, GraphError, Op, dumps, loads
from repro.kernels import gelu, layer_norm, lstm_forward
from repro.models import lstm_classifier, tiny_transformer

RNG = np.random.default_rng(55)


def _layer_norm_mean_var(x, gamma, beta, axis=-1, epsilon=1e-5):
    """Reference LayerNorm through ``ndarray.mean``/``ndarray.var`` (the
    kernel's former implementation)."""
    axis = axis % x.ndim
    mean = x.mean(axis=axis, keepdims=True)
    var = x.var(axis=axis, keepdims=True)
    normed = (x - mean) / np.sqrt(var + epsilon)
    shape = [1] * x.ndim
    shape[axis] = x.shape[axis]
    return normed * gamma.reshape(shape) + beta.reshape(shape)


class TestSequenceKernels:
    def test_gelu_known_values(self):
        x = np.array([-10.0, 0.0, 10.0])
        got = gelu(x)
        np.testing.assert_allclose(got, [0.0, 0.0, 10.0], atol=1e-3)
        # GELU(1) ~ 0.8412
        assert gelu(np.array([1.0]))[0] == pytest.approx(0.8412, abs=1e-3)

    def test_gelu_matches_float64_formula(self):
        """float32 GELU within 1e-6 of the same tanh formula in float64,
        densely over [-10, 10]."""
        x = np.linspace(-10.0, 10.0, 200_001, dtype=np.float32)
        got = gelu(x)
        assert got.dtype == np.float32
        x64 = x.astype(np.float64)
        want = 0.5 * x64 * (1.0 + np.tanh(np.sqrt(2.0 / np.pi)
                                          * (x64 + 0.044715 * x64**3)))
        assert np.abs(got - want).max() <= 1e-6

    def test_gelu_monotone_near_origin(self):
        x = np.linspace(-0.5, 3.0, 100)
        assert (np.diff(gelu(x)) > 0).all()

    def test_layer_norm_zero_mean_unit_var(self):
        x = RNG.standard_normal((2, 5, 16)).astype(np.float32) * 7 + 3
        out = layer_norm(x, np.ones(16, np.float32), np.zeros(16, np.float32))
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-5)
        np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=1e-3)

    def test_layer_norm_affine(self):
        x = RNG.standard_normal((1, 4, 8)).astype(np.float32)
        gamma = np.full(8, 2.0, np.float32)
        beta = np.full(8, 5.0, np.float32)
        out = layer_norm(x, gamma, beta)
        np.testing.assert_allclose(out.mean(axis=-1), 5.0, atol=1e-4)

    @given(
        data=st.data(),
        rank=st.integers(1, 4),
        last=st.sampled_from([1, 3, 7, 16, 64, 128]),
        magnitude=st.floats(1e-3, 1e3),
        x_dtype=st.sampled_from([np.float32, np.float64]),
        gamma_dtype=st.sampled_from([np.float32, np.float64]),
        beta_dtype=st.sampled_from([np.float32, np.float64]),
    )
    @settings(max_examples=300, deadline=None)
    def test_layer_norm_bitwise_equals_numpy_mean_var(
        self, data, rank, last, magnitude, x_dtype, gamma_dtype, beta_dtype
    ):
        """The wrapper-free reductions are NumPy's own mean/var arithmetic:
        every axis (negative included), mixed parameter dtypes, bit for bit."""
        shape = tuple(data.draw(st.lists(st.integers(1, 5), min_size=rank - 1,
                                         max_size=rank - 1))) + (last,)
        axis = data.draw(st.integers(-rank, rank - 1))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        x = (rng.standard_normal(shape) * magnitude).astype(x_dtype)
        n = shape[axis]
        gamma = rng.standard_normal(n).astype(gamma_dtype)
        beta = rng.standard_normal(n).astype(beta_dtype)
        want = _layer_norm_mean_var(x, gamma, beta, axis, 1e-5)
        got = layer_norm(x, gamma, beta, axis, 1e-5)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("axis", [-3, -1, 0, 1, 2])
    def test_layer_norm_runner_binds_the_same_bits(self, axis):
        """The op runner's build-time binding (normalized axis, reshaped
        affine, reduce count) gives the kernel's bits."""
        shape = (3, 5, 16)
        n = shape[axis]
        g = Graph()
        g.add_input("x", shape)
        g.add_constant("gamma", RNG.standard_normal(n).astype(np.float32))
        g.add_constant("beta", RNG.standard_normal(n).astype(np.float32))
        node = g.add_node(Op.LAYER_NORM, ["x", "gamma", "beta"], ["y"],
                          {"axis": axis, "epsilon": 1e-5})
        x = RNG.standard_normal(shape).astype(np.float32)
        got = build_runner(node, g).fn([x])[0]
        want = _layer_norm_mean_var(x, g.constants["gamma"], g.constants["beta"], axis, 1e-5)
        assert got.tobytes() == want.tobytes()

    def test_lstm_matches_step_by_step_reference(self):
        n, t, features, hidden = 2, 5, 3, 4
        x = RNG.standard_normal((n, t, features)).astype(np.float64)
        w_ih = RNG.standard_normal((4 * hidden, features))
        w_hh = RNG.standard_normal((4 * hidden, hidden))
        bias = RNG.standard_normal(4 * hidden)

        def sigmoid(v):
            return 1 / (1 + np.exp(-v))

        h = np.zeros((n, hidden))
        c = np.zeros((n, hidden))
        for step in range(t):
            gates = x[:, step] @ w_ih.T + h @ w_hh.T + bias
            i, f, g, o = (gates[:, k * hidden:(k + 1) * hidden] for k in range(4))
            c = sigmoid(f) * c + sigmoid(i) * np.tanh(g)
            h = sigmoid(o) * np.tanh(c)
        got = lstm_forward(x, w_ih, w_hh, bias)
        np.testing.assert_allclose(got, h, atol=1e-10)

    def test_lstm_return_sequences(self):
        x = RNG.standard_normal((1, 6, 3)).astype(np.float32)
        w_ih = RNG.standard_normal((16, 3)).astype(np.float32)
        w_hh = RNG.standard_normal((16, 4)).astype(np.float32)
        seq = lstm_forward(x, w_ih, w_hh, return_sequences=True)
        last = lstm_forward(x, w_ih, w_hh, return_sequences=False)
        assert seq.shape == (1, 6, 4)
        np.testing.assert_allclose(seq[:, -1], last, atol=1e-6)

    def test_lstm_bad_weights(self):
        x = RNG.standard_normal((1, 2, 3)).astype(np.float32)
        with pytest.raises(ValueError, match="w_ih"):
            lstm_forward(x, np.zeros((7, 3), np.float32), np.zeros((8, 2), np.float32))

    def test_lstm_state_saturates_bounded(self):
        """Hidden state stays in tanh's range regardless of input scale."""
        x = RNG.standard_normal((1, 20, 4)).astype(np.float32) * 100
        w_ih = RNG.standard_normal((32, 4)).astype(np.float32)
        w_hh = RNG.standard_normal((32, 8)).astype(np.float32)
        out = lstm_forward(x, w_ih, w_hh, return_sequences=True)
        assert np.isfinite(out).all()
        assert np.abs(out).max() <= 1.0 + 1e-6


class TestSequenceOpsInGraph:
    def test_transpose_op(self):
        b = GraphBuilder()
        x = b.input("x", (2, 3, 4))
        y = b.transpose(x, (2, 0, 1))
        b.output(y)
        g = b.finish()
        assert g.desc(y).shape == (4, 2, 3)
        data = RNG.standard_normal((2, 3, 4)).astype(np.float32)
        out = execute_reference(g, {"x": data})[y]
        np.testing.assert_array_equal(out, data.transpose(2, 0, 1))

    def test_transpose_bad_perm(self):
        b = GraphBuilder()
        x = b.input("x", (2, 3))
        y = b.transpose(x, (0, 0))  # build-time inference defers the error
        b.output(y)
        with pytest.raises(GraphError, match="permutation"):
            b.finish()

    def test_gather_embedding_lookup(self):
        b = GraphBuilder()
        table = b.constant(np.arange(12, dtype=np.float32).reshape(4, 3))
        idx = b.input("idx", (2, 2), DataType.INT32)
        y = b.gather(table, idx, axis=0)
        b.output(y)
        g = b.finish()
        assert g.desc(y).shape == (2, 2, 3)
        out = execute_reference(g, {"idx": np.array([[0, 3], [1, 1]], np.int32)})[y]
        np.testing.assert_array_equal(out[0, 1], [9, 10, 11])

    def test_layer_norm_op_shape_check(self):
        g = Graph()
        g.add_input("x", (1, 4, 8))
        g.add_constant("gamma", np.ones(5, np.float32))  # wrong size
        g.add_constant("beta", np.zeros(8, np.float32))
        with pytest.raises(GraphError, match="gamma"):
            g.add_node(Op.LAYER_NORM, ["x", "gamma", "beta"], ["y"])
            from repro.ir import infer_shapes
            infer_shapes(g)

    def test_lstm_op_muls(self):
        b = GraphBuilder()
        x = b.input("x", (2, 10, 8))
        y = b.lstm(x, hidden_size=16)
        b.output(y)
        g = b.finish()
        node = next(n for n in g.nodes if n.op_type == Op.LSTM)
        assert node_muls(node, g) == 2 * 10 * 4 * 16 * (8 + 16)

    def test_lstm_rejects_2d_input(self):
        g = Graph()
        g.add_input("x", (2, 8))
        g.add_constant("w_ih", np.zeros((16, 8), np.float32))
        g.add_constant("w_hh", np.zeros((16, 4), np.float32))
        with pytest.raises(GraphError, match="N, T, features"):
            g.add_node(Op.LSTM, ["x", "w_ih", "w_hh"], ["y"], {"hidden_size": 4})
            from repro.ir import infer_shapes
            infer_shapes(g)


class TestTransformer:
    @pytest.fixture(scope="class")
    def net(self):
        return tiny_transformer(vocab=200, seq_len=16, d_model=32, heads=2,
                                layers=2, classes=4, seed=1)

    def test_output_is_distribution(self, net):
        session = Session(net)
        tokens = RNG.integers(0, 200, (1, 16)).astype(np.int32)
        probs = list(session.run({"tokens": tokens}).values())[0]
        assert probs.shape == (1, 4)
        assert probs.sum() == pytest.approx(1.0, abs=1e-4)

    def test_op_inventory(self, net):
        hist = net.op_histogram()
        assert hist[Op.GATHER] == 1
        assert hist[Op.LAYER_NORM] == 5  # 2 per layer + final
        assert hist[Op.GELU] == 2
        assert hist[Op.SOFTMAX] == 3     # 2 attention + classifier
        assert hist[Op.MATMUL] == 2 * (4 + 2 + 2)  # qkv+out, scores+ctx, ffn x2

    def test_permutation_of_tokens_changes_output(self, net):
        session = Session(net)
        tokens = RNG.integers(0, 200, (1, 16)).astype(np.int32)
        a = list(session.run({"tokens": tokens}).values())[0]
        b = list(session.run({"tokens": tokens[:, ::-1].copy()}).values())[0]
        assert not np.allclose(a, b)  # positional embeddings break symmetry

    def test_serialization_round_trip(self, net):
        g2 = loads(dumps(net))
        tokens = RNG.integers(0, 200, (1, 16)).astype(np.int32)
        a = execute_reference(net, {"tokens": tokens})[net.outputs[0]]
        b2 = execute_reference(g2, {"tokens": tokens})[g2.outputs[0]]
        np.testing.assert_allclose(a, b2, atol=1e-6)

    def test_gpu_session_falls_back_for_sequence_ops(self, net):
        """Sequence ops are CPU-only: hybrid scheduling must kick in and the
        result must match the pure-CPU one."""
        session = Session(
            net, SessionConfig(backend="vulkan", device=get_device("MI6"))
        )
        placement = session.placement_summary()
        assert placement.get("sim_cpu", 0) > 0     # LN/Gather/... on CPU
        assert placement.get("vulkan", 0) > 0      # MatMul/Softmax on GPU
        tokens = RNG.integers(0, 200, (1, 16)).astype(np.int32)
        got = list(session.run({"tokens": tokens}).values())[0]
        want = list(Session(net).run({"tokens": tokens}).values())[0]
        np.testing.assert_allclose(got, want, atol=1e-4)

    def test_d_model_heads_divisibility(self):
        with pytest.raises(ValueError, match="divisible"):
            tiny_transformer(d_model=30, heads=4)

    @given(seq=st.integers(4, 24), heads=st.sampled_from([1, 2, 4]))
    @settings(max_examples=5, deadline=None)
    def test_property_any_geometry_runs(self, seq, heads):
        net = tiny_transformer(vocab=50, seq_len=seq, d_model=16 * heads,
                               heads=heads, layers=1, classes=3)
        tokens = RNG.integers(0, 50, (1, seq)).astype(np.int32)
        probs = list(Session(net).run({"tokens": tokens}).values())[0]
        assert probs.sum() == pytest.approx(1.0, abs=1e-4)


class TestLstmClassifier:
    def test_end_to_end(self):
        net = lstm_classifier(vocab=100, seq_len=12, d_model=16, hidden=24, classes=3)
        session = Session(net)
        tokens = RNG.integers(0, 100, (1, 12)).astype(np.int32)
        probs = list(session.run({"tokens": tokens}).values())[0]
        assert probs.shape == (1, 3)
        assert probs.sum() == pytest.approx(1.0, abs=1e-4)

    def test_lstm_dominates_compute(self):
        net = lstm_classifier(vocab=100, seq_len=32, d_model=32, hidden=64, classes=3)
        muls = {n.op_type: node_muls(n, net) for n in net.nodes}
        assert muls[Op.LSTM] > sum(v for k, v in muls.items() if k != Op.LSTM)

    def test_latency_sim_handles_sequence_models(self):
        from repro.baselines import ENGINES
        from repro.sim import estimate_latency

        net = lstm_classifier(vocab=100, seq_len=32, d_model=32, hidden=64)
        est = estimate_latency(net, ENGINES["MNN"], get_device("Mate20"), "cpu", 4)
        assert est.total_ms > 0
        lstm_ms = [o.ms for o in est.per_op if o.op_type == Op.LSTM]
        assert lstm_ms and lstm_ms[0] > 0
