"""Converter-time int8 weight quantization (:mod:`repro.quant.convert`).

The contracts under test: per-output-channel symmetric scales stamped on
every consumer, serialization round-trip by construction, the original
graph untouched, ineligible weights left in float, and a quantization
fingerprint that separates the int8 variant from its fp twin everywhere
it matters (including the pre-inference cache key).
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import Severity, check_memory_plan, format_diagnostics, lint_graph
from repro.core import Session, plan_memory
from repro.ir import DataType, GraphBuilder, GraphError, dumps, load_model, loads, save_model
from repro.ir.ops import Op
from repro.kernels import qmatmul, quantize_weights_per_channel
from repro.models.text import tiny_decoder
from repro.quant import max_abs_error, quantization_fingerprint, quantize_graph
from repro.quant.convert import _merge_sibling_matmuls
from repro.quant.kv import quantize_rows

pytestmark = pytest.mark.quant

RNG = np.random.default_rng(42)


def matmul_graph(transpose_b=False, shared_with_relu=False, k=8, m=6):
    b = GraphBuilder("mm", seed=0)
    x = b.input("x", (2, k))
    w = b.constant(
        RNG.standard_normal((m, k) if transpose_b else (k, m)).astype(np.float32),
        name="w",
    )
    y = b.matmul(x, w, transpose_b=transpose_b)
    if shared_with_relu:
        # A second, non-GEMM consumer of the weights: disqualifying.
        b.graph.add_node(Op.RELU, [w], ["w_relu"])
        b.output(y, "w_relu")
    else:
        b.output(y)
    return b.finish()


class TestQuantizeGraph:
    def test_matmul_weights_become_int8_with_per_channel_scales(self):
        graph = matmul_graph()
        q = quantize_graph(graph)
        w = q.constants["w"]
        assert w.dtype == np.int8
        assert q.tensor_descs["w"].dtype == DataType.INT8
        (node,) = [n for n in q.nodes if n.attrs.get("weight_scales")]
        scales = node.attrs["weight_scales"]
        assert len(scales) == 6  # one per output channel
        # symmetric: scale == max_abs / 127 per column
        expect = np.abs(graph.constants["w"]).max(axis=0) / 127.0
        np.testing.assert_allclose(scales, expect, rtol=1e-6)

    def test_transpose_b_uses_the_other_axis(self):
        graph = matmul_graph(transpose_b=True)
        q = quantize_graph(graph)
        (node,) = [n for n in q.nodes if n.attrs.get("weight_scales")]
        assert len(node.attrs["weight_scales"]) == 6
        expect = np.abs(graph.constants["w"]).max(axis=1) / 127.0
        np.testing.assert_allclose(node.attrs["weight_scales"], expect, rtol=1e-6)

    def test_original_graph_is_untouched(self):
        graph = matmul_graph()
        before = graph.constants["w"].copy()
        quantize_graph(graph)
        assert graph.constants["w"].dtype == np.float32
        np.testing.assert_array_equal(graph.constants["w"], before)
        assert all(not n.attrs.get("weight_scales") for n in graph.nodes)

    def test_shared_non_gemm_consumer_stays_float(self):
        q = quantize_graph_or_none(matmul_graph(shared_with_relu=True))
        if q is not None:  # the decoder path may still quantize others
            assert q.constants["w"].dtype == np.float32

    def test_nothing_to_quantize_raises(self):
        b = GraphBuilder("plain", seed=0)
        x = b.input("x", (1, 4))
        b.output(b.relu(x))
        with pytest.raises(GraphError):
            quantize_graph(b.finish())

    def test_survives_serialization_round_trip(self):
        q = quantize_graph(matmul_graph())
        back = loads(dumps(q))
        assert back.constants["w"].dtype == np.int8
        np.testing.assert_array_equal(back.constants["w"], q.constants["w"])
        (node,) = [n for n in back.nodes if n.attrs.get("weight_scales")]
        (orig,) = [n for n in q.nodes if n.attrs.get("weight_scales")]
        assert node.attrs["weight_scales"] == orig.attrs["weight_scales"]

    def test_quantized_decoder_is_q_rule_clean(self):
        graph = tiny_decoder(mode="full", seq_len=8, batch=1, vocab=32,
                             max_seq=8, d_model=16, heads=2, layers=1, seed=3)
        q = quantize_graph(graph)
        diags = [d for d in lint_graph(q) if d.rule.startswith("Q")]
        assert diags == []

    def test_accuracy_contract_on_decoder_logits(self):
        graph = tiny_decoder(mode="full", seq_len=16, batch=1, vocab=64,
                             max_seq=16, d_model=32, heads=2, layers=2, seed=7)
        q = quantize_graph(graph)
        feeds = {
            "tokens": RNG.integers(0, 64, size=(1, 16)).astype(np.int32),
            "positions": np.arange(16, dtype=np.int32).reshape(1, 16),
        }
        err = max_abs_error(graph, q, feeds, outputs=["logits"])
        assert err <= 0.15


def quantize_graph_or_none(graph):
    try:
        return quantize_graph(graph)
    except GraphError:
        return None


@st.composite
def gemm_weights(draw):
    """A one-GEMM graph whose weights have some all-zero output channels."""
    kind = draw(st.sampled_from(["matmul", "matmul_transpose_b", "conv", "fc"]))
    oc, ic = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    zeros = draw(st.sets(st.integers(0, oc - 1), min_size=1))
    magnitude = draw(st.sampled_from([1e-3, 1.0, 50.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))

    b = GraphBuilder(kind, seed=0)
    if kind == "conv":
        x = b.input("x", (1, ic, 5, 5))
        b.output(b.conv(x, oc=oc, kernel=3))
        shape, axis = (oc, ic, 3, 3), 0
    elif kind == "fc":
        x = b.input("x", (2, ic))
        b.output(b.fc(x, units=oc))
        shape, axis = (oc, ic), 0
    else:
        transpose_b = kind == "matmul_transpose_b"
        shape, axis = ((oc, ic), 0) if transpose_b else ((ic, oc), 1)
        x = b.input("x", (2, ic))
        b.output(b.matmul(x, b.constant(np.zeros(shape, np.float32), name="w"),
                          transpose_b=transpose_b))
    graph = b.finish()
    (node,) = [n for n in graph.nodes if n.op_type in (Op.MATMUL, Op.CONV2D, Op.FULLY_CONNECTED)]
    weights = (rng.standard_normal(shape) * magnitude).astype(np.float32)
    for c in zeros:
        np.moveaxis(weights, axis, 0)[c] = 0.0
    graph.constants[node.inputs[1]] = weights
    feeds = None
    if kind in ("conv", "fc"):  # calibrated ops need an activation scale
        feeds = [{"x": rng.standard_normal(graph.desc("x").shape).astype(np.float32)}]
    return graph, node.inputs[1], axis, zeros, feeds


class TestPerChannelQuantizer:
    """MatMul (both ``transpose_b``), Conv2D and FC share one weight quantizer."""

    @given(gemm_weights())
    @settings(max_examples=40, deadline=None)
    def test_codes_and_scales_follow_the_formula(self, case):
        graph, wname, axis, zeros, feeds = case
        weights = graph.constants[wname]
        q = quantize_graph(graph, feeds)
        codes = q.constants[wname]
        assert codes.dtype == np.int8 and q.tensor_descs[wname].dtype == DataType.INT8
        (node,) = [n for n in q.nodes if n.attrs.get("weight_scales")]
        scales = node.attrs["weight_scales"]
        assert len(scales) == weights.shape[axis]
        for c, scale in enumerate(scales):
            w_c = np.take(weights, c, axis=axis)
            peak = np.abs(w_c).max()
            want_scale = peak / np.float32(127.0) if peak > 0 else np.float32(1.0)
            assert np.float32(scale) == want_scale
            want = np.clip(np.rint(w_c / want_scale), -127, 127).astype(np.int8)
            np.testing.assert_array_equal(np.take(codes, c, axis=axis), want)
            if c in zeros:
                assert scale == 1.0 and not np.take(codes, c, axis=axis).any()


#: (batch, tokens, capacity) decode cells of :func:`int8_decode_digest`.
DECODE_CELLS = [(1, 1, 8), (4, 1, 32), (2, 3, 16)]

#: ``int8_decode_digest(layers)`` recorded before sibling MatMuls merged:
#: the merge must not move one bit of logits, K/V rows or KV slab bytes.
DECODE_DIGESTS = {
    1: "bbdcf23cdb2add3daba1de2fd1366abe4c106c0591eafd0ba67d617973c2922c",
    2: "92b527e527740bb2e5e0b028c7f90f778c670ebac2aad4b2e66d71dcb30d42cf",
    3: "6525b4b9e2953cf61264a54bd654fb0b2413608b9232c2662d7928cedaa1df59",
}


def int8_decode_digest(layers):
    """sha256 over the int8 decoder's logits, K/V rows and their KV codec
    bytes, over fixed feeds in every cell of :data:`DECODE_CELLS`."""
    h = hashlib.sha256()
    for batch, tokens, capacity in DECODE_CELLS:
        graph = quantize_graph(tiny_decoder(mode="decode", batch=batch, seq_len=tokens,
                                            cache_len=capacity, layers=layers, seed=5))
        rng = np.random.default_rng([layers, batch, tokens, capacity])
        lengths = rng.integers(0, capacity - tokens + 1, batch).astype(np.int32)
        feeds = {
            "tokens": rng.integers(0, 256, (batch, tokens)).astype(np.int32),
            "positions": (lengths[:, None] + np.arange(tokens)).astype(np.int32),
            "lengths": lengths,
        }
        for name in graph.inputs:
            if name not in feeds:
                feeds[name] = rng.standard_normal(graph.desc(name).shape).astype(np.float32)
        out = Session(graph).run(feeds)
        for name in graph.outputs:
            h.update(out[name].tobytes())
            if name != "logits":
                q, scales = quantize_rows(out[name].reshape(-1, *out[name].shape[2:]))
                h.update(q.tobytes())
                h.update(scales.tobytes())
    return h.hexdigest()


def merged_groups(graph):
    """``{merged MatMul: its Slice consumers}``."""
    consumers = graph.consumer_map()
    return {
        node.name: consumers[node.outputs[0]] for node in graph.nodes
        if node.op_type == Op.MATMUL and node.outputs[0] in consumers
        and all(c.op_type == Op.SLICE for c in consumers[node.outputs[0]])
    }


def siblings_graph(widths, k, lead=(3,), rowwise=False, seed=0):
    """One activation read by one MatMul per width (column count)."""
    b = GraphBuilder("siblings", seed=seed)
    x = b.input("x", (*lead, k))
    rng = np.random.default_rng(seed)
    for i, m in enumerate(widths):
        w = b.constant(rng.standard_normal((k, m)).astype(np.float32), name=f"w{i}")
        b.output(b.matmul(x, w, rowwise=rowwise, name=f"y{i}"))
    return b.finish()


class TestSiblingMerge:
    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_int8_decode_outputs_are_bitwise_pinned(self, layers):
        assert int8_decode_digest(layers) == DECODE_DIGESTS[layers]

    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_decoder_qkv_merge_per_layer(self, layers):
        graph = tiny_decoder(mode="decode", batch=4, cache_len=32, layers=layers)
        q = quantize_graph(graph)
        count = lambda g: g.op_histogram().get(Op.MATMUL, 0)  # noqa: E731
        assert count(graph) == 6 * layers + 1
        assert count(q) == 4 * layers + 1
        groups = merged_groups(q)
        assert len(groups) == layers
        assert all(len(slices) == 3 for slices in groups.values())
        assert q.outputs == graph.outputs

    @given(widths=st.lists(st.integers(1, 9), min_size=2, max_size=4),
           k=st.sampled_from([1, 8, 1041]), lead=st.sampled_from([(1,), (3,), (2, 3)]),
           rowwise=st.booleans(), seed=st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_each_column_block_is_bitwise_its_own_qmatmul(self, widths, k, lead, rowwise,
                                                           seed):
        graph = siblings_graph(widths, k, lead, rowwise, seed)
        q = quantize_graph(graph)
        assert len(merged_groups(q)) == 1
        x = np.random.default_rng(seed).standard_normal((*lead, k)).astype(np.float32)
        out = Session(q).run({"x": x})
        for i in range(len(widths)):
            wq, scales = quantize_weights_per_channel(graph.constants[f"w{i}"], 1)
            want = qmatmul(x, wq, scales)
            assert out[f"y{i}"].shape == want.shape
            assert out[f"y{i}"].tobytes() == want.tobytes()

    def test_weight_shared_with_a_non_sibling_stays_separate(self):
        b = GraphBuilder("shared", seed=0)
        x, z = b.input("x", (2, 8)), b.input("z", (2, 8))
        w0 = b.constant(RNG.standard_normal((8, 4)).astype(np.float32), name="w0")
        w1 = b.constant(RNG.standard_normal((8, 4)).astype(np.float32), name="w1")
        b.output(b.matmul(x, w0), b.matmul(x, w1), b.matmul(z, w1))
        q = quantize_graph(b.finish())
        assert merged_groups(q) == {}
        assert q.op_histogram()[Op.MATMUL] == 3

    @pytest.mark.parametrize("flag", ["transpose_a", "transpose_b"])
    def test_transposed_siblings_stay_separate(self, flag):
        b = GraphBuilder("t", seed=0)
        x = b.input("x", (8, 8))
        for i in range(3):
            w = b.constant(RNG.standard_normal((8, 8)).astype(np.float32), name=f"w{i}")
            b.output(b.matmul(x, w, **{flag: i > 0}))
        q = quantize_graph(b.finish())
        assert q.op_histogram()[Op.MATMUL] == 3
        assert q.op_histogram().get(Op.SLICE, 0) == 0

    def test_different_inputs_stay_separate(self):
        b = GraphBuilder("apart", seed=0)
        x, z = b.input("x", (2, 8)), b.input("z", (2, 8))
        for i, a in enumerate((x, z)):
            w = b.constant(RNG.standard_normal((8, 4)).astype(np.float32), name=f"w{i}")
            b.output(b.matmul(a, w))
        q = quantize_graph(b.finish())
        assert q.op_histogram()[Op.MATMUL] == 2 and merged_groups(q) == {}

    def test_fp32_graphs_never_merge(self):
        graph = siblings_graph([4, 5, 6], 8)
        before = dumps(graph)
        quantize_graph(graph)
        assert dumps(graph) == before                      # the caller's graph
        _merge_sibling_matmuls(graph)
        assert dumps(graph) == before                      # fp32 MatMuls

    def test_merged_graph_lints_memchecks_and_round_trips(self, tmp_path):
        q = quantize_graph(tiny_decoder(mode="decode", batch=2, seq_len=3, cache_len=16,
                                        layers=2))
        diags = lint_graph(q)
        assert diags == [], format_diagnostics(diags)
        report = check_memory_plan(q, plan_memory(q))
        assert report.ok, format_diagnostics(report.diagnostics)
        path = tmp_path / "merged.rmnn"
        save_model(q, path)
        back = load_model(path)
        assert dumps(back) == dumps(q)
        (name, slices), *_ = merged_groups(back).items()
        (node,) = [n for n in back.nodes if n.name == name]
        assert len(node.attrs["weight_scales"]) == back.constants[node.inputs[1]].shape[1]
        assert [s.attrs["end"] - s.attrs["start"] for s in slices] == [64, 64, 64]


class TestFingerprint:
    def test_fp_and_quantized_fingerprints_differ(self):
        graph = matmul_graph()
        q = quantize_graph(graph)
        assert quantization_fingerprint(graph) != quantization_fingerprint(q)

    def test_fingerprint_is_deterministic(self):
        q = quantize_graph(matmul_graph())
        assert quantization_fingerprint(q) == quantization_fingerprint(
            loads(dumps(q))
        )

    def test_pre_inference_cache_keys_never_collide(self):
        # The satellite fix: graph_signature alone is dtype-blind for
        # constants, so without the quant fingerprint a cached fp plan
        # could be replayed against int8 tensors.
        from repro.core.session import SessionConfig
        from repro.serving.cache import PreInferenceCache

        graph = tiny_decoder(mode="full", seq_len=8, batch=1, vocab=32,
                             max_seq=8, d_model=16, heads=2, layers=1, seed=3)
        q = quantize_graph(graph)
        cache = PreInferenceCache("/tmp/unused-quant-key-test")
        config = SessionConfig()
        assert cache.key(graph, config) != cache.key(q, config)

    def test_scale_corruption_changes_fingerprint(self):
        q = quantize_graph(matmul_graph())
        fp_before = quantization_fingerprint(q)
        (node,) = [n for n in q.nodes if n.attrs.get("weight_scales")]
        node.attrs["weight_scales"] = [s * 2 for s in node.attrs["weight_scales"]]
        assert quantization_fingerprint(q) != fp_before


class TestLintRules:
    def test_q001_flags_nonfinite_and_nonpositive_scales(self):
        q = quantize_graph(matmul_graph())
        (node,) = [n for n in q.nodes if n.attrs.get("weight_scales")]
        node.attrs["weight_scales"] = [float("inf"), -1.0, 0.0, 1.0, 1.0, 1.0]
        diags = [d for d in lint_graph(q) if d.rule == "Q001"]
        assert len(diags) == 3
        assert all(d.severity is Severity.ERROR for d in diags)

    def test_q003_flags_missing_and_mismatched_scales(self):
        q = quantize_graph(matmul_graph())
        (node,) = [n for n in q.nodes if n.attrs.get("weight_scales")]
        node.attrs["weight_scales"] = node.attrs["weight_scales"][:-1]
        assert any(d.rule == "Q003" for d in lint_graph(q))
        node.attrs["weight_scales"] = None
        assert any(d.rule == "Q003" for d in lint_graph(q))

    def test_q002_zero_point_rules(self):
        b = GraphBuilder("zp", seed=0)
        x = b.input("x", (1, 4))
        b.graph.add_node(Op.QUANTIZE, [x], ["xq"],
                         {"scale": 0.1, "zero_point": 300})
        b.graph.add_node(Op.DEQUANTIZE, ["xq"], ["y"],
                         {"scale": 0.1, "zero_point": 1})
        b.output("y")
        diags = [d for d in lint_graph(b.finish()) if d.rule == "Q002"]
        assert any(d.severity is Severity.ERROR for d in diags)   # 300
        assert any(d.severity is Severity.WARNING for d in diags)  # 1

    def test_clean_fp_graph_has_no_q_findings(self):
        diags = [d for d in lint_graph(matmul_graph()) if d.rule.startswith("Q")]
        assert diags == []
