"""Adversarial fixtures for the graph linter: one broken graph per rule.

Each test builds a graph that violates exactly one static invariant
(bypassing the builder's incremental checks where needed) and asserts the
corresponding rule id fires.  A closing class lints the repo's own model
zoo (`-m lint_self`) to prove the rules are free of false positives.
"""

import re

import numpy as np
import pytest

from repro.analysis import lint as lint_module
from repro.analysis import (
    Severity,
    all_rules,
    format_diagnostics,
    has_errors,
    lint_graph,
)
from repro.ir import DataType, Graph, GraphBuilder, Op, TensorDesc
from repro.ir.graph import Node
from repro.models import build_model
from repro.tools.cli import main


def fired(graph, rule_id):
    """Rule ids raised on ``graph``, asserting ``rule_id`` is among them."""
    rules = {d.rule for d in lint_graph(graph)}
    assert rule_id in rules, f"expected {rule_id!r}, got {sorted(rules)}"
    return rules


def small_valid_graph():
    b = GraphBuilder("ok", seed=7)
    x = b.input("in", (1, 3, 8, 8))
    x = b.conv(x, oc=4, kernel=3, pad_mode="same", activation="relu")
    b.output(b.softmax(b.fc(b.global_avg_pool(x), units=3)))
    return b.finish()


def raw_node(op_type, inputs, outputs, attrs=None, name=None):
    """A Node appended without the builder's incremental inference."""
    return Node(name or outputs[0], op_type, list(inputs), list(outputs),
                dict(attrs or {}))


class TestStructuralRules:
    def test_dangling_input(self):
        g = Graph()
        g.add_input("x", (1, 4))
        g.nodes.append(raw_node(Op.RELU, ["ghost"], ["y"]))
        g.mark_output("y")
        fired(g, "dangling-input")

    def test_unproduced_output(self):
        g = Graph()
        g.add_input("x", (1, 4))
        g.mark_output("nothing")
        fired(g, "unproduced-output")

    def test_double_producer(self):
        g = Graph()
        g.add_input("x", (1, 4))
        g.nodes.append(raw_node(Op.RELU, ["x"], ["y"], name="a"))
        g.nodes.append(raw_node(Op.SIGMOID, ["x"], ["y"], name="b"))
        g.mark_output("y")
        fired(g, "double-producer")

    def test_duplicate_node_name(self):
        g = Graph()
        g.add_input("x", (1, 4))
        g.nodes.append(raw_node(Op.RELU, ["x"], ["y"], name="same"))
        g.nodes.append(raw_node(Op.SIGMOID, ["y"], ["z"], name="same"))
        g.mark_output("z")
        fired(g, "duplicate-node-name")

    def test_output_shadowing(self):
        g = Graph()
        g.add_input("x", (1, 4))
        g.nodes.append(raw_node(Op.RELU, ["x"], ["x"], name="shadow"))
        g.mark_output("x")
        fired(g, "output-shadowing")

    def test_cycle(self):
        g = Graph()
        g.add_input("x", (1, 4))
        g.nodes.append(raw_node(Op.ADD, ["x", "b"], ["a"]))
        g.nodes.append(raw_node(Op.RELU, ["a"], ["b"]))
        g.mark_output("b")
        fired(g, "cycle")


class TestReachabilityRules:
    def test_dead_node(self):
        g = Graph()
        g.add_input("x", (1, 4))
        g.add_node(Op.RELU, ["x"], ["y"])
        g.add_node(Op.SIGMOID, ["x"], ["unused"])
        g.mark_output("y")
        diags = lint_graph(g)
        dead = [d for d in diags if d.rule == "dead-node"]
        assert len(dead) == 1 and dead[0].node == "unused"
        assert dead[0].severity is Severity.WARNING

    def test_unused_constant(self):
        g = Graph()
        g.add_input("x", (1, 4))
        g.add_constant("w", np.zeros((4, 4), np.float32))
        g.add_node(Op.RELU, ["x"], ["y"])
        g.mark_output("y")
        fired(g, "unused-constant")


class TestDescriptorRules:
    def test_shape_mismatch_stale_descriptor(self):
        g = small_valid_graph()
        conv_out = g.nodes[0].outputs[0]
        old = g.tensor_descs[conv_out]
        g.tensor_descs[conv_out] = TensorDesc(conv_out, (1, 4, 2, 2), old.dtype)
        fired(g, "shape-mismatch")

    def test_shape_mismatch_on_inference_failure(self):
        g = Graph()
        g.add_input("x", (1, 4, 8, 8))
        # 9x9 window cannot sweep an 8x8 input without padding
        g.nodes.append(raw_node(Op.MAX_POOL, ["x"], ["y"],
                                {"kernel": (9, 9), "pad_mode": "valid"}))
        g.mark_output("y")
        fired(g, "shape-mismatch")

    def test_dtype_mismatch_across_binary_edge(self):
        g = Graph()
        g.add_input("x", (1, 4), DataType.FLOAT32)
        g.add_constant("c", np.zeros((1, 4), np.int32))
        g.add_node(Op.ADD, ["x", "c"], ["y"])
        g.mark_output("y")
        fired(g, "dtype-mismatch")


class TestAttrAndQuantRules:
    def test_attr_domain_zero_stride(self):
        g = Graph()
        g.add_input("x", (1, 4, 8, 8))
        g.add_constant("w", np.zeros((4, 4, 3, 3), np.float32))
        g.nodes.append(raw_node(Op.CONV2D, ["x", "w"], ["y"],
                                {"kernel": (3, 3), "stride": (0, 1),
                                 "has_bias": False}))
        g.mark_output("y")
        fired(g, "attr-domain")

    def test_attr_domain_groups_do_not_divide(self):
        g = Graph()
        g.add_input("x", (1, 6, 8, 8))
        g.add_constant("w", np.zeros((8, 1, 3, 3), np.float32))
        g.nodes.append(raw_node(Op.CONV2D, ["x", "w"], ["y"],
                                {"kernel": (3, 3), "groups": 4,
                                 "has_bias": False}))
        g.mark_output("y")
        fired(g, "attr-domain")

    def test_attr_domain_negative_pad(self):
        g = Graph()
        g.add_input("x", (1, 4, 8, 8))
        g.nodes.append(raw_node(Op.MAX_POOL, ["x"], ["y"],
                                {"kernel": (2, 2), "pad": (-1, 0, 0, 0)}))
        g.mark_output("y")
        fired(g, "attr-domain")

    def test_attr_domain_bad_dropout_ratio(self):
        g = Graph()
        g.add_input("x", (1, 4))
        g.nodes.append(raw_node(Op.DROPOUT, ["x"], ["y"], {"ratio": 1.5}))
        g.mark_output("y")
        fired(g, "attr-domain")

    def test_quant_boundary_int8_into_softmax(self):
        g = Graph()
        g.add_input("x", (1, 8), DataType.INT8)
        g.add_node(Op.SOFTMAX, ["x"], ["y"])
        g.mark_output("y")
        diags = lint_graph(g)
        hits = [d for d in diags if d.rule == "quant-boundary"
                and d.severity is Severity.ERROR]
        assert hits and "Dequantize" in (hits[0].hint or "")

    def test_quant_boundary_int8_weights_without_scales(self):
        g = Graph()
        g.add_input("x", (1, 4, 8, 8))
        g.add_constant("w", np.zeros((4, 4, 3, 3), np.int8))
        g.nodes.append(raw_node(Op.CONV2D, ["x", "w"], ["y"],
                                {"kernel": (3, 3), "has_bias": False}))
        g.mark_output("y")
        fired(g, "quant-boundary")

    def test_quant_boundary_double_quantize_warns(self):
        g = Graph()
        g.add_input("x", (1, 8), DataType.INT8)
        g.nodes.append(raw_node(Op.QUANTIZE, ["x"], ["y"], {"scale": 0.1}))
        g.mark_output("y")
        diags = [d for d in lint_graph(g) if d.rule == "quant-boundary"]
        assert any(d.severity is Severity.WARNING for d in diags)


class TestLintDriver:
    def test_rule_registry_has_the_advertised_rules(self):
        advertised = re.findall(r"^``([\w-]+)``\s+(?:error|warning)\s", lint_module.__doc__, re.M)
        assert len(advertised) == len(set(advertised))
        assert {r.rule_id for r in all_rules()} == set(advertised)

    def test_rule_subset_selection(self):
        g = Graph()
        g.add_input("x", (1, 4))
        g.add_constant("unused", np.zeros(1, np.float32))
        g.add_node(Op.RELU, ["x"], ["y"])
        g.mark_output("y")
        only = lint_graph(g, rules=["dead-node"])
        assert all(d.rule == "dead-node" for d in only)

    def test_clean_graph_is_clean(self):
        assert lint_graph(small_valid_graph()) == []

    def test_errors_sort_before_warnings(self):
        g = Graph()
        g.add_input("x", (1, 4))
        g.add_constant("unused", np.zeros(1, np.float32))   # warning
        g.nodes.append(raw_node(Op.RELU, ["ghost"], ["y"]))  # error
        g.mark_output("y")
        diags = lint_graph(g)
        assert diags[0].severity is Severity.ERROR
        assert diags[-1].severity is Severity.WARNING


@pytest.mark.lint_self
class TestLintSelf:
    """The linter must give the repo's own model zoo a clean bill."""

    @pytest.mark.parametrize("name,kwargs", [
        ("mobilenet_v1", {"input_size": 64}),
        ("mobilenet_v2", {"input_size": 64}),
        ("resnet18", {"input_size": 64}),
        ("squeezenet_v1.1", {"input_size": 64}),
        ("inception_v3", {}),
        ("tiny_transformer", {}),
        ("lstm_classifier", {}),
    ])
    def test_builtin_models_lint_clean(self, name, kwargs):
        diags = lint_graph(build_model(name, **kwargs))
        assert not has_errors(diags), format_diagnostics(diags)


class TestLintCli:
    @pytest.fixture()
    def model_path(self, tmp_path):
        from repro.ir import save_model

        path = str(tmp_path / "m.rmnn")
        save_model(build_model("squeezenet_v1.1", input_size=32, classes=5), path)
        return path

    def test_lint_clean_model_exits_zero(self, model_path, capsys):
        assert main(["lint", model_path]) == 0
        out = capsys.readouterr().out
        assert "no problems" in out and "memcheck" in out

    def test_lint_strict_flag_accepted(self, model_path):
        assert main(["lint", model_path, "--strict"]) == 0

    def test_invalid_model_reports_diagnostics_not_traceback(self, tmp_path, capsys):
        from repro.ir import save_model

        g = Graph("broken")
        g.add_input("x", (1, 4))
        g.nodes.append(raw_node(Op.RELU, ["ghost"], ["y"]))
        g.mark_output("y")
        g.mark_output("never")
        path = str(tmp_path / "broken.rmnn")
        save_model(g, path)
        assert main(["lint", path]) == 1
        err = capsys.readouterr().err
        assert "error[dangling-input]" in err
        assert "error[unproduced-output]" in err
        assert "Traceback" not in err
