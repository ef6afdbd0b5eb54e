"""Tests for graph construction, validation, toposort and the builder."""

import numpy as np
import pytest

from repro.ir import Graph, GraphBuilder, GraphError, Op, get_schema
from repro.ir.graph import Node


def tiny_graph():
    g = Graph("t")
    g.add_input("x", (1, 4, 8, 8))
    g.add_constant("w", np.zeros((8, 4, 3, 3), np.float32))
    g.add_node(Op.CONV2D, ["x", "w"], ["y"], {"kernel": (3, 3), "has_bias": False})
    g.add_node(Op.RELU, ["y"], ["z"])
    g.mark_output("z")
    return g


class TestNodeValidation:
    def test_unknown_op_rejected(self):
        g = Graph()
        g.add_input("x", (1,))
        with pytest.raises(KeyError, match="Nope"):
            g.add_node("Nope", ["x"], ["y"])

    def test_arity_checked(self):
        g = Graph()
        g.add_input("x", (1, 3, 8, 8))
        with pytest.raises(GraphError, match="inputs"):
            g.add_node(Op.CONV2D, ["x"], ["y"], {"kernel": (3, 3)})

    def test_missing_required_attr(self):
        g = Graph()
        g.add_input("x", (1, 3, 8, 8))
        g.add_constant("w", np.zeros((4, 3, 3, 3), np.float32))
        with pytest.raises(ValueError, match="kernel"):
            g.add_node(Op.CONV2D, ["x", "w"], ["y"], {})

    def test_unknown_attr_rejected(self):
        g = Graph()
        g.add_input("x", (1, 3, 8, 8))
        with pytest.raises(ValueError, match="bogus"):
            g.add_node(Op.RELU, ["x"], ["y"], {"bogus": 1})

    def test_defaults_applied(self):
        g = tiny_graph()
        conv = g.nodes[0]
        assert conv.attrs["stride"] == (1, 1)
        assert conv.attrs["groups"] == 1


class TestGraphStructure:
    def test_validate_ok(self):
        tiny_graph().validate()

    def test_duplicate_tensor_name(self):
        g = Graph()
        g.add_input("x", (1,))
        with pytest.raises(GraphError, match="duplicate"):
            g.add_input("x", (2,))
        with pytest.raises(GraphError, match="duplicate"):
            g.add_constant("x", np.zeros(1, np.float32))

    def test_undefined_input_caught(self):
        g = Graph()
        g.add_input("x", (1, 3, 8, 8))
        g.add_node(Op.RELU, ["ghost"], ["y"])
        g.mark_output("y")
        with pytest.raises(GraphError, match="undefined"):
            g.validate()

    def test_unproduced_output_caught(self):
        g = Graph()
        g.add_input("x", (1,))
        g.mark_output("nothing")
        with pytest.raises(GraphError, match="never produced"):
            g.validate()

    def test_double_producer_caught(self):
        g = Graph()
        g.add_input("x", (1, 3, 8, 8))
        g.add_node(Op.RELU, ["x"], ["y"])
        g.add_node(Op.SIGMOID, ["x"], ["y"])
        with pytest.raises(GraphError, match="two nodes"):
            g.producer_map()

    def test_double_producer_caught_by_validate(self):
        g = Graph()
        g.add_input("x", (1, 3, 8, 8))
        g.add_node(Op.RELU, ["x"], ["y"])
        g.add_node(Op.SIGMOID, ["x"], ["y"], name="dup")
        g.mark_output("y")
        with pytest.raises(GraphError, match="two nodes"):
            g.validate()

    def test_validate_aggregates_all_problems(self):
        g = Graph()
        g.add_input("x", (1, 3, 8, 8))
        g.add_node(Op.RELU, ["ghost"], ["y"])
        g.mark_output("y")
        g.mark_output("nothing")
        with pytest.raises(GraphError) as exc_info:
            g.validate()
        exc = exc_info.value
        # One raise reports every problem, as structured diagnostics.
        assert len(exc.diagnostics) >= 2
        rules = {d.rule for d in exc.diagnostics}
        assert {"dangling-input", "unproduced-output"} <= rules
        assert "undefined" in str(exc) and "never produced" in str(exc)

    def test_check_returns_empty_on_valid_graph(self):
        assert tiny_graph().check() == []

    def test_cycle_detected(self):
        g = Graph()
        g.add_input("x", (1, 3, 8, 8))
        g.add_node(Op.ADD, ["x", "b"], ["a"])
        g.add_node(Op.RELU, ["a"], ["b"])
        g.mark_output("b")
        with pytest.raises(GraphError, match="cycle"):
            g.validate()

    def test_toposort_respects_dependencies(self):
        g = tiny_graph()
        # scramble insertion order
        g.nodes.reverse()
        order = [n.name for n in g.toposort()]
        assert order.index("y") < order.index("z")

    def test_toposort_waits_for_every_producer_of_a_node(self):
        # "cat" reads two outputs of "s": that edge must count once, or
        # "cat" becomes ready before "r", its other producer, has run.
        g = Graph()
        g.add_input("x", (1, 4, 2, 2))
        g.nodes.append(Node("cat", Op.CONCAT, ["s_0", "s_1", "r"], ["cat"], {"axis": 1}))
        g.nodes.append(Node("s", Op.SPLIT, ["x"], ["s_0", "s_1"],
                            {"axis": 1, "sizes": (2, 2)}))
        g.nodes.append(Node("t", Op.RELU, ["x"], ["t"]))
        g.nodes.append(Node("r", Op.RELU, ["t"], ["r"]))
        assert [n.name for n in g.toposort()] == ["s", "t", "r", "cat"]

    def test_consumer_map(self):
        g = tiny_graph()
        consumers = g.consumer_map()
        assert [n.name for n in consumers["y"]] == ["z"]

    def test_op_histogram(self):
        g = tiny_graph()
        assert g.op_histogram() == {Op.CONV2D: 1, Op.RELU: 1}


class TestGraphBuilder:
    def test_builds_valid_graph_with_shapes(self):
        b = GraphBuilder("net", seed=3)
        x = b.input("in", (1, 3, 32, 32))
        x = b.conv(x, oc=16, kernel=3, stride=2, activation="relu")
        x = b.depthwise_conv(x, kernel=3)
        y = b.conv(x, oc=16, kernel=1)
        x = b.add(x, y)
        x = b.global_avg_pool(x)
        x = b.fc(x, units=10)
        b.output(b.softmax(x))
        g = b.finish()
        assert g.desc(g.outputs[0]).shape == (1, 10)

    def test_conv_tracks_channels_incrementally(self):
        b = GraphBuilder()
        x = b.input("in", (1, 5, 16, 16))
        y = b.conv(x, oc=7, kernel=3)
        assert b.graph.desc(y).shape == (1, 7, 16, 16)

    def test_concat_and_pool_shapes(self):
        b = GraphBuilder()
        x = b.input("in", (1, 4, 16, 16))
        a = b.conv(x, oc=8, kernel=1)
        c = b.conv(x, oc=8, kernel=3)
        cat = b.concat([a, c])
        p = b.max_pool(cat, 2)
        b.output(p)
        g = b.finish()
        assert g.desc(cat).shape == (1, 16, 16, 16)
        assert g.desc(p).shape == (1, 16, 8, 8)

    def test_weights_are_seeded_deterministic(self):
        def build():
            b = GraphBuilder("n", seed=11)
            x = b.input("in", (1, 3, 8, 8))
            b.output(b.conv(x, oc=4, kernel=3))
            return b.finish()

        g1, g2 = build(), build()
        for name in g1.constants:
            np.testing.assert_array_equal(g1.constants[name], g2.constants[name])


class TestSchemas:
    def test_conv_mul_count(self):
        schema = get_schema(Op.CONV2D)
        muls = schema.mul_count(
            [(1, 16, 32, 32), (32, 16, 3, 3)],
            (1, 32, 32, 32),
            {"kernel": (3, 3), "groups": 1},
        )
        assert muls == 1 * 32 * 32 * 32 * 16 * 9

    def test_depthwise_mul_count_ignores_ic(self):
        schema = get_schema(Op.DEPTHWISE_CONV2D)
        muls = schema.mul_count(
            [(1, 16, 32, 32), (16, 1, 3, 3)],
            (1, 16, 32, 32),
            {"kernel": (3, 3), "groups": 16},
        )
        assert muls == 16 * 32 * 32 * 9

    def test_activation_is_free(self):
        schema = get_schema(Op.RELU)
        assert schema.mul_count([(1, 8, 4, 4)], (1, 8, 4, 4), {}) == 0
