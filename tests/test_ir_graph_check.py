"""``Graph.check``/``validate`` are the linter's structural rules, and
``Graph.toposort`` and ``LintContext.order`` are one Kahn loop.

Defects are planted alone and in pairs (a cycle inside a double-produced
graph included) into small graphs whose node list is shuffled, so the
first-writer-wins producer map and the ready queue see every order.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.lint import STRUCTURAL_RULES, LintContext, lint_graph
from repro.ir import Graph, GraphError, Op
from repro.ir.graph import Node
from repro.models import build_model


def _node(name, op_type, inputs, outputs):
    return Node(name, op_type, list(inputs), list(outputs), {})


def _base(length):
    """``x -> t0 -> ... -> t{length-1}``, each step also adding ``t0`` back in."""
    g = Graph("base")
    g.add_input("x", (1, 4))
    g.nodes.append(_node("n0", Op.RELU, ["x"], ["t0"]))
    for i in range(1, length):
        g.nodes.append(_node(f"n{i}", Op.ADD, [f"t{i - 1}", "t0"], [f"t{i}"]))
    g.mark_output(f"t{length - 1}")
    return g


def _dangling(g):
    g.nodes.append(_node("dangle", Op.RELU, ["ghost"], ["dangle_out"]))


def _unproduced(g):
    g.mark_output("never")


def _double(g):
    g.nodes.append(_node("dbl", Op.SIGMOID, ["x"], ["t0"]))


def _duplicate_name(g):
    g.nodes.append(_node("n0", Op.SIGMOID, ["x"], ["dup_out"]))


def _cycle(g):
    g.nodes.append(_node("cyc_a", Op.ADD, ["t0", "cyc_b"], ["cyc_a"]))
    g.nodes.append(_node("cyc_b", Op.RELU, ["cyc_a"], ["cyc_b"]))


DEFECTS = {
    "dangling-input": _dangling,
    "unproduced-output": _unproduced,
    "double-producer": _double,
    "duplicate-node-name": _duplicate_name,
    "cycle": _cycle,
}
PLANTS = [(r,) for r in DEFECTS] + list(itertools.combinations(DEFECTS, 2))


def test_structural_rules_are_the_planted_five():
    assert set(STRUCTURAL_RULES) == set(DEFECTS)


@settings(max_examples=150, deadline=None)
@given(plant=st.sampled_from(PLANTS), length=st.integers(1, 5),
       seed=st.integers(0, 2**16))
def test_validate_raises_the_lint_findings(plant, length, seed):
    g = _base(length)
    for rule_id in plant:
        DEFECTS[rule_id](g)
    random.Random(seed).shuffle(g.nodes)
    with pytest.raises(GraphError) as exc_info:
        g.validate()
    exc = exc_info.value
    rules = [d.rule for d in exc.diagnostics]
    assert rules == [d.rule for d in lint_graph(g, STRUCTURAL_RULES)]
    assert set(plant) <= set(rules)
    for d in exc.diagnostics:
        assert d.format() in str(exc)


@settings(max_examples=30, deadline=None)
@given(length=st.integers(1, 5), seed=st.integers(0, 2**16))
def test_valid_graph_checks_clean_in_any_node_order(length, seed):
    g = _base(length)
    random.Random(seed).shuffle(g.nodes)
    assert g.check() == []
    g.validate()


ZOO = [
    ("mobilenet_v1", {"input_size": 64}),
    ("mobilenet_v2", {"input_size": 64}),
    ("resnet18", {"input_size": 64}),
    ("squeezenet_v1.1", {"input_size": 64}),
    ("inception_v3", {}),
    ("tiny_transformer", {}),
    ("tiny_decoder", {}),
    ("lstm_classifier", {}),
]


def _assert_valid_order(graph, order):
    assert sorted(map(id, order)) == sorted(map(id, graph.nodes))
    producers = graph.producer_map()
    position = {id(node): i for i, node in enumerate(order)}
    for node in order:
        for inp in node.inputs:
            if inp in producers:
                assert position[id(producers[inp])] < position[id(node)], node.name


@pytest.mark.parametrize("name,kwargs", ZOO, ids=[name for name, _ in ZOO])
def test_zoo_toposort_is_the_lint_order(name, kwargs):
    g = build_model(name, **kwargs)
    order = g.toposort()
    assert [id(n) for n in order] == [id(n) for n in LintContext(g).order]
    _assert_valid_order(g, order)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_shuffled_zoo_graph_orders_agree(seed):
    g = build_model("squeezenet_v1.1", input_size=32)
    random.Random(seed).shuffle(g.nodes)
    order = g.toposort()
    assert [id(n) for n in order] == [id(n) for n in LintContext(g).order]
    _assert_valid_order(g, order)


def test_validate_returns_the_toposort_order():
    g = build_model("squeezenet_v1.1", input_size=32)
    assert [id(n) for n in g.validate()] == [id(n) for n in g.toposort()]


def test_session_prepare_sorts_once(monkeypatch):
    """Prepare runs its graph through the one Kahn loop once: the order
    ``validate`` proved is the order the session executes."""
    import repro.analysis.lint as lint
    import repro.ir.graph as graph_module
    from repro.core import Session
    from repro.models import squeezenet_v1_1

    g = squeezenet_v1_1(input_size=32)
    calls = []
    kahn = graph_module.toposort

    def counting(nodes, producers):
        calls.append(len(nodes))
        return kahn(nodes, producers)

    # Both names the function is bound under: the linter imports it.
    monkeypatch.setattr(graph_module, "toposort", counting)
    monkeypatch.setattr(lint, "toposort", counting)
    Session(g)
    assert calls == [len(g.nodes)]
