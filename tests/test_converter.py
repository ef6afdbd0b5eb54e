"""Tests for the offline converter: frontends, optimizer passes, quantization."""

import numpy as np
import pytest

from repro.analysis import lint_graph
from repro.analysis.verify_passes import random_feeds
from repro.converter import (
    ConversionError,
    FuseConvActivation,
    FuseConvBatchNorm,
    PassManager,
    RemoveIdentity,
    ReplaceOps,
    convert_caffe_like,
    convert_onnx_like,
    optimize,
)
from repro.core import Session
from repro.core.reference import execute_reference
from repro.ir import GraphBuilder, GraphError, Op
from repro.models import MODEL_REGISTRY, build_model
from repro.quant import quantize_graph, weight_bytes

RNG = np.random.default_rng(31)

ZOO_CNNS = sorted(
    set(MODEL_REGISTRY) - {"tiny_transformer", "tiny_decoder", "lstm_classifier"}
)


def onnx_model():
    w1 = RNG.standard_normal((8, 3, 3, 3)).astype(np.float32) * 0.2
    b1 = RNG.standard_normal(8).astype(np.float32) * 0.05
    wdw = RNG.standard_normal((8, 1, 3, 3)).astype(np.float32) * 0.2
    w2 = RNG.standard_normal((10, 8 * 8 * 8)).astype(np.float32) * 0.05
    b2 = np.zeros(10, np.float32)
    return {
        "name": "toy",
        "inputs": [{"name": "x", "shape": [1, 3, 16, 16]}],
        "outputs": ["prob"],
        "initializers": {"w1": w1, "b1": b1, "wdw": wdw, "w2": w2, "b2": b2},
        "nodes": [
            {"op_type": "Conv", "inputs": ["x", "w1", "b1"], "outputs": ["c1"],
             "attrs": {"kernel_shape": [3, 3], "pads": [1, 1, 1, 1]}},
            {"op_type": "Relu", "inputs": ["c1"], "outputs": ["r1"]},
            {"op_type": "Conv", "inputs": ["r1", "wdw"], "outputs": ["dw"],
             "attrs": {"kernel_shape": [3, 3], "pads": [1, 1, 1, 1], "group": 8}},
            {"op_type": "MaxPool", "inputs": ["dw"], "outputs": ["p1"],
             "attrs": {"kernel_shape": [2, 2], "strides": [2, 2]}},
            {"op_type": "Flatten", "inputs": ["p1"], "outputs": ["flat"]},
            {"op_type": "Gemm", "inputs": ["flat", "w2", "b2"], "outputs": ["fc"]},
            {"op_type": "Softmax", "inputs": ["fc"], "outputs": ["prob"]},
        ],
    }


class TestOnnxFrontend:
    def test_converts_and_runs(self):
        g = convert_onnx_like(onnx_model())
        assert g.desc("prob").shape == (1, 10)
        out = execute_reference(g, {"x": RNG.standard_normal((1, 3, 16, 16)).astype(np.float32)})
        assert out["prob"].sum() == pytest.approx(1.0, abs=1e-5)

    def test_depthwise_detected(self):
        g = convert_onnx_like(onnx_model())
        ops = [n.op_type for n in g.nodes]
        assert Op.DEPTHWISE_CONV2D in ops
        assert ops.count(Op.CONV2D) == 1

    def test_onnx_pads_reordered(self):
        g = convert_onnx_like(onnx_model())
        conv = next(n for n in g.nodes if n.op_type == Op.CONV2D)
        assert conv.attrs["pad"] == (1, 1, 1, 1)

    def test_clip_maps_to_relu6(self):
        model = {
            "inputs": [{"name": "x", "shape": [1, 2, 4, 4]}],
            "outputs": ["y"],
            "initializers": {},
            "nodes": [{"op_type": "Clip", "inputs": ["x"], "outputs": ["y"],
                       "attrs": {"min": 0.0, "max": 6.0}}],
        }
        g = convert_onnx_like(model)
        assert g.nodes[0].op_type == Op.RELU6

    def test_weird_clip_rejected(self):
        model = {
            "inputs": [{"name": "x", "shape": [1, 2, 4, 4]}],
            "outputs": ["y"],
            "initializers": {},
            "nodes": [{"op_type": "Clip", "inputs": ["x"], "outputs": ["y"],
                       "attrs": {"min": -1.0, "max": 3.0}}],
        }
        with pytest.raises(ConversionError, match="ReLU6"):
            convert_onnx_like(model)

    def test_unknown_op_rejected(self):
        model = {
            "inputs": [{"name": "x", "shape": [1, 2]}],
            "outputs": ["y"],
            "initializers": {},
            "nodes": [{"op_type": "Einsum", "inputs": ["x"], "outputs": ["y"]}],
        }
        with pytest.raises(ConversionError, match="Einsum"):
            convert_onnx_like(model)

    def test_reshape_via_constant_input(self):
        model = {
            "inputs": [{"name": "x", "shape": [1, 12]}],
            "outputs": ["y"],
            "initializers": {"shape": np.array([1, 3, 2, 2], np.int32)},
            "nodes": [{"op_type": "Reshape", "inputs": ["x", "shape"], "outputs": ["y"]}],
        }
        g = convert_onnx_like(model)
        assert g.desc("y").shape == (1, 3, 2, 2)


def caffe_model():
    w = RNG.standard_normal((6, 3, 3, 3)).astype(np.float32) * 0.2
    b = np.zeros(6, np.float32)
    mean = RNG.standard_normal(6).astype(np.float32) * 0.1
    var = np.abs(RNG.standard_normal(6).astype(np.float32)) + 0.8
    gamma = np.abs(RNG.standard_normal(6).astype(np.float32)) + 0.5
    beta = RNG.standard_normal(6).astype(np.float32) * 0.1
    fc_w = RNG.standard_normal((4, 6)).astype(np.float32) * 0.1
    return {
        "name": "caffenet",
        "inputs": [{"name": "data", "shape": [1, 3, 12, 12]}],
        "layers": [
            {"name": "conv1", "type": "Convolution", "bottom": ["data"], "top": ["conv1"],
             "kernel_size": 3, "pad": 1},
            {"name": "bn1", "type": "BatchNorm", "bottom": ["conv1"], "top": ["bn1"]},
            {"name": "scale1", "type": "Scale", "bottom": ["bn1"], "top": ["scale1"]},
            {"name": "relu1", "type": "ReLU", "bottom": ["scale1"], "top": ["relu1"]},
            {"name": "pool_g", "type": "Pooling", "bottom": ["relu1"], "top": ["pool_g"],
             "pool": "AVE", "global_pooling": True},
            {"name": "fc", "type": "InnerProduct", "bottom": ["pool_g"], "top": ["fc"]},
            {"name": "prob", "type": "Softmax", "bottom": ["fc"], "top": ["prob"]},
        ],
        "blobs": {
            "conv1": [w, b],
            "bn1": [mean, var, np.float32(1.0)],
            "scale1": [gamma, beta],
            "fc": [fc_w],
        },
    }


class TestCaffeFrontend:
    def test_converts_and_runs(self):
        g = convert_caffe_like(caffe_model())
        assert g.outputs == ["prob"]
        out = execute_reference(g, {"data": RNG.standard_normal((1, 3, 12, 12)).astype(np.float32)})
        assert out["prob"].shape == (1, 4)
        assert out["prob"].sum() == pytest.approx(1.0, abs=1e-5)

    def test_outputs_inferred_from_dangling_tops(self):
        g = convert_caffe_like(caffe_model())
        assert g.outputs == ["prob"]

    def test_missing_blob_rejected(self):
        model = caffe_model()
        del model["blobs"]["conv1"]
        with pytest.raises(ConversionError, match="conv1"):
            convert_caffe_like(model)

    def test_unknown_layer_rejected(self):
        model = caffe_model()
        model["layers"].append({"name": "lstm", "type": "LSTM",
                                "bottom": ["prob"], "top": ["h"]})
        with pytest.raises(ConversionError, match="LSTM"):
            convert_caffe_like(model)

    def test_eltwise_ops(self):
        model = {
            "inputs": [{"name": "a", "shape": [1, 2, 4, 4]}],
            "layers": [
                {"name": "sum", "type": "Eltwise", "bottom": ["a", "a"], "top": ["s"],
                 "operation": "SUM"},
                {"name": "max", "type": "Eltwise", "bottom": ["s", "a"], "top": ["m"],
                 "operation": "MAX"},
            ],
            "blobs": {},
        }
        g = convert_caffe_like(model)
        out = execute_reference(g, {"a": np.ones((1, 2, 4, 4), np.float32)})
        np.testing.assert_array_equal(out["m"], np.full((1, 2, 4, 4), 2.0))


def graph_with_bn_relu():
    b = GraphBuilder("f", seed=9)
    x = b.input("in", (1, 3, 12, 12))
    x = b.conv(x, oc=8, kernel=3)
    x = b.batch_norm(x)
    x = b.relu(x)
    x = b.dropout(x)
    x = b.conv(x, oc=8, kernel=3)
    x = b.batch_norm(x)
    x = b.relu6(x)
    b.output(x)
    return b.finish()


class TestOptimizerPasses:
    def test_fusion_preserves_numerics(self):
        g = graph_with_bn_relu()
        feeds = {"in": RNG.standard_normal((1, 3, 12, 12)).astype(np.float32)}
        before = execute_reference(g, feeds)[g.outputs[0]]
        optimize(g)
        after = execute_reference(g, feeds)[g.outputs[0]]
        np.testing.assert_allclose(before, after, atol=1e-4)

    def test_fusion_shrinks_graph(self):
        g = graph_with_bn_relu()
        n_before = len(g.nodes)
        optimize(g)
        ops = [n.op_type for n in g.nodes]
        assert Op.BATCH_NORM not in ops
        assert Op.RELU not in ops and Op.RELU6 not in ops
        assert Op.DROPOUT not in ops
        assert len(g.nodes) == 2  # just the two fused convs
        assert len(g.nodes) < n_before
        # fused activations recorded
        assert sorted(n.attrs["activation"] for n in g.nodes) == ["relu", "relu6"]

    def test_bn_not_fused_across_fanout(self):
        b = GraphBuilder("fanout", seed=0)
        x = b.input("in", (1, 4, 8, 8))
        c = b.conv(x, oc=4, kernel=3)
        bn = b.batch_norm(c)
        other = b.relu(c)  # second consumer of the conv output
        b.output(b.add(bn, other))
        g = b.finish()
        optimize(g)
        assert Op.BATCH_NORM in [n.op_type for n in g.nodes]

    def test_fold_constants(self):
        b = GraphBuilder("const", seed=0)
        x = b.input("in", (1, 4))
        c1 = b.constant(np.ones((1, 4), np.float32))
        c2 = b.constant(np.full((1, 4), 2.0, np.float32))
        folded = b.add(c1, c2)  # fully constant
        b.output(b.add(x, folded))
        g = b.finish()
        optimize(g)
        assert len(g.nodes) == 1
        assert folded in g.constants
        np.testing.assert_array_equal(g.constants[folded], np.full((1, 4), 3.0))

    def test_fold_drops_the_operands_only_it_read(self):
        b = GraphBuilder("const", seed=0)
        x = b.input("in", (1, 4))
        own = b.constant(np.ones((1, 4), np.float32))
        shared = b.constant(np.full((1, 4), 2.0, np.float32))
        folded = b.add(own, shared)
        b.output(b.add(b.add(x, folded), shared))
        g = b.finish()
        optimize(g)
        assert own not in g.constants and own not in g.tensor_descs
        assert shared in g.constants
        assert not lint_graph(g, ["unused-constant"])

    @pytest.mark.parametrize("name", ZOO_CNNS)
    def test_zoo_optimize_leaves_no_orphaned_constants(self, name):
        g = build_model(name, input_size=75 if name == "inception_v3" else 32,
                        classes=7)
        feeds = random_feeds(g, seed=3)
        before = execute_reference(g, feeds)
        n_constants = len(g.constants)
        optimize(g)
        assert not lint_graph(g, ["unused-constant"])
        assert len(g.constants) <= n_constants
        after = execute_reference(g, feeds)
        for out in g.outputs:
            np.testing.assert_allclose(after[out], before[out], atol=1e-4)

    def test_replace_reduce_mean_with_gap(self):
        b = GraphBuilder("rm", seed=0)
        x = b.input("in", (1, 4, 8, 8))
        y = b._unary(Op.REDUCE_MEAN, x, {"axes": (2, 3), "keepdims": True})
        b.output(y)
        g = b.finish()
        ReplaceOps().run(g)
        assert g.nodes[0].op_type == Op.GLOBAL_AVG_POOL

    def test_replace_full_avgpool_with_gap(self):
        b = GraphBuilder("ap", seed=0)
        x = b.input("in", (1, 4, 7, 7))
        y = b.avg_pool(x, 7, pad_mode="explicit")
        b.output(y)
        g = b.finish()
        ReplaceOps().run(g)
        assert g.nodes[0].op_type == Op.GLOBAL_AVG_POOL

    def test_optimized_graph_runs_in_session(self):
        g = graph_with_bn_relu()
        optimize(g)
        session = Session(g)
        out = session.run({"in": RNG.standard_normal((1, 3, 12, 12)).astype(np.float32)})
        assert list(out.values())[0].shape == (1, 8, 12, 12)

    def test_bn_fold_leaves_a_shared_weight_alone(self):
        """Two 1x1 convs read one weight and one bias constant; folding the
        BatchNorm behind one of them must not rescale the other."""
        b = GraphBuilder("shared", seed=4)
        x = b.input("in", (1, 4, 6, 6))
        b.output(b.conv(x, oc=4, kernel=1, name="plain"),
                 b.batch_norm(b.conv(x, oc=4, kernel=1, name="bn_conv"), name="bn"))
        g = b.finish()
        plain, bn_conv = (node for node in g.nodes if node.op_type == Op.CONV2D)
        bn_conv.inputs[1:] = plain.inputs[1:]
        shared = {name: g.constants[name].copy() for name in plain.inputs[1:]}
        feeds = {"in": RNG.standard_normal((1, 4, 6, 6)).astype(np.float32)}
        before = execute_reference(g, feeds)
        optimize(g, passes=[FuseConvBatchNorm()])
        assert Op.BATCH_NORM not in [node.op_type for node in g.nodes]
        assert all(np.array_equal(g.constants[name], value) for name, value in shared.items())
        assert not set(bn_conv.inputs[1:]) & set(shared)
        after = execute_reference(g, feeds)
        np.testing.assert_array_equal(after["plain"], before["plain"])
        np.testing.assert_allclose(after["bn"], before["bn"], atol=1e-5)

    @pytest.mark.parametrize("fused", [
        (FuseConvBatchNorm, lambda b, c: b.batch_norm(c, name="features")),
        (FuseConvActivation, lambda b, c: b.relu(c, name="act_out")),
        (RemoveIdentity, lambda b, c: b.identity(c, name="same")),
        (RemoveIdentity, lambda b, c: b.dropout(c, name="kept")),
    ], ids=["batch_norm", "relu", "identity", "dropout"])
    def test_fusion_keeps_graph_output_names(self, fused):
        """The node that goes hands its output name to the one that stays."""
        pass_type, tail = fused
        b = GraphBuilder("named", seed=6)
        x = b.input("in", (1, 3, 8, 8))
        name = tail(b, b.conv(x, oc=4, kernel=3))
        b.output(name)
        g = b.finish()
        feeds = {"in": RNG.standard_normal((1, 3, 8, 8)).astype(np.float32)}
        before = execute_reference(g, feeds)[name]
        optimize(g, passes=[pass_type()])
        assert len(g.nodes) == 1 and g.outputs == [name]
        assert g.nodes[0].outputs == [name]
        np.testing.assert_allclose(Session(g).run(feeds)[name], before, atol=1e-5)

    def test_identity_on_a_graph_input_stays_to_keep_its_output(self):
        b = GraphBuilder("passthrough", seed=0)
        b.output(b.identity(b.input("in", (1, 4)), name="out"))
        g = b.finish()
        assert not RemoveIdentity().run(g)
        assert g.outputs == ["out"] and len(g.nodes) == 1

    @pytest.mark.parametrize("pass_type,tail", [
        (FuseConvBatchNorm, GraphBuilder.batch_norm),
        (FuseConvActivation, GraphBuilder.relu),
    ])
    def test_conv_that_is_itself_an_output_is_not_fused(self, pass_type, tail):
        b = GraphBuilder("both", seed=2)
        conv = b.conv(b.input("in", (1, 3, 8, 8)), oc=4, kernel=3)
        b.output(conv, tail(b, conv))
        g = b.finish()
        outputs = list(g.outputs)
        assert not pass_type().run(g)
        assert g.outputs == outputs and len(g.nodes) == 2


class TestQuantization:
    def _model(self):
        b = GraphBuilder("q", seed=4)
        x = b.input("in", (1, 3, 16, 16))
        x = b.conv(x, oc=16, kernel=3, activation="relu")
        x = b.conv(x, oc=16, kernel=3, activation="relu")
        x = b.fc(b.global_avg_pool(x), units=5)
        b.output(b.softmax(x))
        return b.finish()

    def _feeds(self, n=4):
        return [
            {"in": RNG.standard_normal((1, 3, 16, 16)).astype(np.float32)}
            for _ in range(n)
        ]

    def test_quantized_weights_are_int8(self):
        g = self._model()
        q = quantize_graph(g, self._feeds())
        convs = [n for n in q.nodes if n.op_type == Op.CONV2D]
        assert convs
        for conv in convs:
            assert q.constants[conv.inputs[1]].dtype == np.int8
            assert conv.attrs["input_scale"] > 0
            assert len(conv.attrs["weight_scales"]) == q.constants[conv.inputs[1]].shape[0]

    def test_model_size_shrinks(self):
        g = self._model()
        q = quantize_graph(g, self._feeds())
        # conv weights dominate this model; total weight bytes must drop a lot
        assert weight_bytes(q) < weight_bytes(g) * 0.65

    def test_outputs_close_to_float(self):
        g = self._model()
        q = quantize_graph(g, self._feeds())
        feeds = self._feeds(1)[0]
        ref = execute_reference(g, feeds)[g.outputs[0]]
        got = execute_reference(q, feeds)[q.outputs[0]]
        assert np.abs(ref - got).max() < 0.05  # softmax probabilities

    def test_original_untouched(self):
        g = self._model()
        quantize_graph(g, self._feeds())
        for value in g.constants.values():
            assert value.dtype != np.int8

    def test_runs_in_session(self):
        q = quantize_graph(self._model(), self._feeds())
        session = Session(q)
        out = list(session.run(self._feeds(1)[0]).values())[0]
        assert out.sum() == pytest.approx(1.0, abs=1e-4)

    def test_no_calibration_data_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            quantize_graph(self._model(), [])

    def test_no_convs_rejected(self):
        b = GraphBuilder("noconv", seed=0)
        x = b.input("in", (1, 4))
        b.output(b.relu(x))
        with pytest.raises(GraphError, match="no quantizable"):
            quantize_graph(b.finish(), [{"in": np.ones((1, 4), np.float32)}])

    def test_fc_quantized_too(self):
        g = self._model()
        q = quantize_graph(g, self._feeds())
        fc = next(n for n in q.nodes if n.op_type == Op.FULLY_CONNECTED)
        assert q.constants[fc.inputs[1]].dtype == np.int8
        assert len(fc.attrs["weight_scales"]) == fc.attrs["units"]

    def test_fc_quantized_output_close(self):
        g = self._model()
        q = quantize_graph(g, self._feeds())
        feeds = self._feeds(1)[0]
        ref = execute_reference(g, feeds)[g.outputs[0]]
        got = execute_reference(q, feeds)[q.outputs[0]]
        assert np.abs(ref - got).max() < 0.06

    def test_quantized_model_serializes(self):
        from repro.ir import dumps, loads
        q = quantize_graph(self._model(), self._feeds())
        q2 = loads(dumps(q))
        feeds = self._feeds(1)[0]
        a = execute_reference(q, feeds)[q.outputs[0]]
        b2 = execute_reference(q2, feeds)[q2.outputs[0]]
        np.testing.assert_allclose(a, b2, atol=1e-6)
