"""Tests for the model zoo: shapes, op inventory, MUL counts, execution."""

import numpy as np
import pytest

from repro.core import Session, SessionConfig, node_muls, select_graph_schemes
from repro.ir import Op
from repro.models import MODEL_REGISTRY, build_model

RNG = np.random.default_rng(77)


def total_muls(graph) -> float:
    return sum(node_muls(n, graph) for n in graph.nodes)


#: vision models output ImageNet logits; text models are covered in
#: tests/test_sequence_models.py
VISION_MODELS = sorted(
    set(MODEL_REGISTRY) - {"tiny_transformer", "tiny_decoder", "lstm_classifier"}
)


class TestArchitectures:
    @pytest.mark.parametrize("name", VISION_MODELS)
    def test_builds_with_classifier_output(self, name):
        g = build_model(name)
        assert g.desc(g.outputs[0]).shape == (1, 1000)
        g.validate()

    def test_unknown_model(self):
        with pytest.raises(KeyError, match="available"):
            build_model("alexnet")

    def test_published_mac_counts(self):
        """MUL totals must match the architectures' published MACs (+-10%)."""
        expected = {
            "mobilenet_v1": 569e6,
            "mobilenet_v2": 300e6,
            "squeezenet_v1.1": 352e6,
            "resnet18": 1.82e9,
            "resnet50": 4.1e9,
            "inception_v3": 5.7e9,
        }
        for name, macs in expected.items():
            got = total_muls(build_model(name))
            assert got == pytest.approx(macs, rel=0.10), name

    def test_squeezenet_v11_cheaper_than_v10(self):
        """The v1.1 redesign's whole point: ~2.4x fewer MACs."""
        v10 = total_muls(build_model("squeezenet_v1.0"))
        v11 = total_muls(build_model("squeezenet_v1.1"))
        assert v10 / v11 > 2.0

    def test_inception_has_asymmetric_convs(self):
        """Figure 8's premise: Inception-v3 contains 1x7 and 7x1 kernels."""
        g = build_model("inception_v3")
        kernels = {
            tuple(n.attrs["kernel"]) for n in g.nodes if n.op_type == Op.CONV2D
        }
        assert (1, 7) in kernels and (7, 1) in kernels

    def test_mobilenet_is_mostly_depthwise_separable(self):
        g = build_model("mobilenet_v1")
        hist = g.op_histogram()
        assert hist[Op.DEPTHWISE_CONV2D] == 13
        assert hist[Op.CONV2D] == 14  # stem + 13 pointwise

    def test_mobilenet_v2_has_residuals(self):
        g = build_model("mobilenet_v2")
        assert g.op_histogram().get(Op.ADD, 0) == 10  # v2's residual count

    def test_resnet_shortcut_structure(self):
        g = build_model("resnet18")
        hist = g.op_histogram()
        assert hist[Op.ADD] == 8  # 2 blocks x 4 stages
        assert hist[Op.CONV2D] == 20  # 16 block convs + 3 projections + stem

    def test_width_multiplier_scales_cost(self):
        full = total_muls(build_model("mobilenet_v1"))
        half = total_muls(build_model("mobilenet_v1", width=0.5))
        assert half < full * 0.4  # roughly quadratic in width

    def test_input_size_scales_cost(self):
        full = total_muls(build_model("mobilenet_v1"))
        small = total_muls(build_model("mobilenet_v1", input_size=128))
        assert small < full * 0.45  # quadratic in resolution

    def test_seeded_builds_reproducible(self):
        a = build_model("squeezenet_v1.1", seed=3)
        b = build_model("squeezenet_v1.1", seed=3)
        for name in a.constants:
            np.testing.assert_array_equal(a.constants[name], b.constants[name])


class TestExecution:
    """End-to-end runs on shrunken variants (full-size nets are bench-only)."""

    @pytest.mark.parametrize(
        "name,kwargs",
        [
            ("mobilenet_v1", {"input_size": 64, "width": 0.25}),
            ("mobilenet_v2", {"input_size": 64, "width": 0.35}),
            ("squeezenet_v1.1", {"input_size": 96}),
            ("resnet18", {"input_size": 64}),
        ],
    )
    def test_small_variant_inference(self, name, kwargs):
        g = build_model(name, classes=10, **kwargs)
        session = Session(g)
        size = kwargs.get("input_size", 224)
        out = session.run({"data": RNG.standard_normal((1, 3, size, size)).astype(np.float32)})
        probs = list(out.values())[0]
        assert probs.shape == (1, 10)
        assert probs.sum() == pytest.approx(1.0, abs=1e-4)
        assert (probs >= 0).all()

    def test_inception_tiny_inference(self):
        g = build_model("inception_v3", input_size=147, classes=10)
        session = Session(g)
        out = session.run(
            {"data": RNG.standard_normal((1, 3, 147, 147)).astype(np.float32)}
        )
        probs = list(out.values())[0]
        assert probs.sum() == pytest.approx(1.0, abs=1e-4)

    def test_scheme_mix_on_real_network(self):
        """MNN's premise: one network wants several conv schemes at once."""
        g = build_model("squeezenet_v1.1", input_size=128, classes=10)
        # The modeled picks, pinned: measurement may demote Winograd here.
        session = Session(g, SessionConfig(scheme_overrides=select_graph_schemes(g)))
        mix = session.scheme_summary()
        assert mix.get("gemm1x1", 0) > 0     # fire squeeze/expand 1x1s
        assert mix.get("winograd", 0) > 0    # 3x3 expands

    def test_gemm_runners_bind_their_weights_as_views(self):
        """No FC or 1x1-conv runner holds a copy of its weights: a copy per
        layer is a copy of most of the model (the ``peak_rss_mb`` fence)."""
        bound = {Op.FULLY_CONNECTED: 0, "gemm1x1": 0}
        for name in ("mobilenet_v1", "squeezenet_v1.1"):
            session = Session(build_model(name, input_size=64))
            for node in session.graph.nodes:
                kind = session.schemes[node.name].kind if node.name in session.schemes else None
                key = node.op_type if node.op_type == Op.FULLY_CONNECTED else kind
                if key not in bound:
                    continue
                operand = session._executions[node.name].runner.fn.__kwdefaults__["_w"]
                assert np.shares_memory(operand, session.graph.constants[node.inputs[1]]), node.name
                bound[key] += 1
        assert bound[Op.FULLY_CONNECTED] >= 1 and bound["gemm1x1"] >= 20

    def test_batch_norm_runners_bitwise_equal_kernel(self):
        """The runner binds K.batch_norm's scale and shift once; applying
        them as ``x * inv; += shift`` changes no bit of the result."""
        from repro.kernels import batch_norm

        session = Session(build_model("mobilenet_v1", input_size=64))
        checked = 0
        for node in session.graph.nodes:
            if node.op_type != Op.BATCH_NORM:
                continue
            x = RNG.standard_normal(session.graph.desc(node.inputs[0]).shape).astype(np.float32)
            consts = [session.graph.constants[name] for name in node.inputs[1:5]]
            want = batch_norm(x, *consts, float(node.attrs["epsilon"]))
            (got,) = session._executions[node.name].runner.fn([x])
            assert got.dtype == want.dtype, node.name
            assert np.array_equal(got.view(np.uint32), want.view(np.uint32)), node.name
            checked += 1
        assert checked == 27
