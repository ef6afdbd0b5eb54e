"""Tests for the multi-output Split op."""

import numpy as np
import pytest

from repro.core import Session
from repro.core.reference import execute_reference
from repro.converter import convert_onnx_like
from repro.ir import GraphBuilder, GraphError, Op, dumps, loads

RNG = np.random.default_rng(111)


class TestSplitOp:
    def test_split_shapes_and_values(self):
        b = GraphBuilder()
        x = b.input("x", (1, 10, 4, 4))
        parts = b.split(x, sizes=(3, 3, 4), axis=1)
        b.output(*parts)
        g = b.finish()
        assert g.desc(parts[0]).shape == (1, 3, 4, 4)
        assert g.desc(parts[2]).shape == (1, 4, 4, 4)
        data = RNG.standard_normal((1, 10, 4, 4)).astype(np.float32)
        env = execute_reference(g, {"x": data})
        np.testing.assert_array_equal(env[parts[1]], data[:, 3:6])

    def test_split_sizes_must_sum(self):
        b = GraphBuilder()
        x = b.input("x", (1, 10, 4, 4))
        parts = b.split(x, sizes=(3, 3), axis=1)
        b.output(*parts)
        with pytest.raises(GraphError, match="sum"):
            b.finish()

    def test_split_then_concat_is_identity(self):
        b = GraphBuilder()
        x = b.input("x", (2, 8, 3, 3))
        parts = b.split(x, sizes=(2, 6), axis=1)
        y = b.concat(parts, axis=1)
        b.output(y)
        g = b.finish()
        data = RNG.standard_normal((2, 8, 3, 3)).astype(np.float32)
        out = execute_reference(g, {"x": data})[y]
        np.testing.assert_array_equal(out, data)

    def test_split_through_session_and_serialization(self):
        b = GraphBuilder(seed=1)
        x = b.input("x", (1, 8, 8, 8))
        lo, hi = b.split(x, sizes=(4, 4), axis=1)
        lo = b.conv(lo, oc=4, kernel=3)
        hi = b.relu(hi)
        b.output(b.concat([lo, hi], axis=1))
        g = loads(dumps(b.finish()))
        out = Session(g).run({"x": RNG.standard_normal((1, 8, 8, 8)).astype(np.float32)})
        assert list(out.values())[0].shape == (1, 8, 8, 8)

    def test_onnx_split_frontend(self):
        model = {
            "inputs": [{"name": "x", "shape": [1, 6, 4, 4]}],
            "outputs": ["a", "b"],
            "initializers": {},
            "nodes": [{"op_type": "Split", "inputs": ["x"], "outputs": ["a", "b"],
                       "attrs": {"axis": 1, "split": [2, 4]}}],
        }
        g = convert_onnx_like(model)
        assert g.desc("a").shape == (1, 2, 4, 4)
        assert g.desc("b").shape == (1, 4, 4, 4)
