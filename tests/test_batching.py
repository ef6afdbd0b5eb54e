"""Batch-size coverage: every kernel and the whole engine handle N > 1."""

import numpy as np
import pytest

from repro.core import Session, SessionConfig, select_graph_schemes
from repro.core.reference import execute_reference
from repro.models import build_model, mobilenet_v1, tiny_transformer

RNG = np.random.default_rng(131)


class TestBatchedInference:
    def test_batched_equals_stacked_singles(self):
        """Running a batch must equal running each sample alone."""
        g = mobilenet_v1(input_size=64, width=0.25, classes=7, batch=3, seed=2)
        session = Session(g)
        batch = RNG.standard_normal((3, 3, 64, 64)).astype(np.float32)
        got = list(session.run({"data": batch}).values())[0]

        g1 = mobilenet_v1(input_size=64, width=0.25, classes=7, batch=1, seed=2)
        single = Session(g1)
        for i in range(3):
            want = list(single.run({"data": batch[i : i + 1]}).values())[0]
            np.testing.assert_allclose(got[i : i + 1], want, atol=1e-4)

    def test_batched_transformer(self):
        g = tiny_transformer(vocab=80, seq_len=12, d_model=32, heads=2,
                             layers=1, classes=3, batch=4, seed=0)
        tokens = RNG.integers(0, 80, (4, 12)).astype(np.int32)
        probs = list(Session(g).run({"tokens": tokens}).values())[0]
        assert probs.shape == (4, 3)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-4)

    def test_batch_rows_independent(self):
        """Changing one sample must not perturb the others."""
        g = mobilenet_v1(input_size=64, width=0.25, classes=5, batch=2, seed=3)
        session = Session(g)
        a = RNG.standard_normal((2, 3, 64, 64)).astype(np.float32)
        base = list(session.run({"data": a}).values())[0]
        b = a.copy()
        b[1] = RNG.standard_normal((3, 64, 64))
        perturbed = list(session.run({"data": b}).values())[0]
        np.testing.assert_allclose(base[0], perturbed[0], atol=1e-5)
        assert not np.allclose(base[1], perturbed[1])

    @pytest.mark.parametrize("batch", [2, 5])
    def test_memory_plan_scales_with_batch(self, batch):
        from repro.core import plan_memory

        g1 = build_model("squeezenet_v1.1", input_size=64, batch=1)
        gn = build_model("squeezenet_v1.1", input_size=64, batch=batch)
        p1 = plan_memory(g1)
        pn = plan_memory(gn)
        pn.validate()
        assert pn.arena_bytes >= p1.arena_bytes * batch * 0.8

    def test_batched_winograd_path(self):
        """Batch dim flows through the Winograd tiling correctly."""
        from repro.ir import GraphBuilder

        b = GraphBuilder(seed=0)
        x = b.input("in", (4, 32, 20, 20))
        y = b.conv(x, oc=32, kernel=3, pad_mode="same")
        b.output(y)
        g = b.finish()
        # The modeled picks, pinned: measurement may demote Winograd here.
        session = Session(g, SessionConfig(scheme_overrides=select_graph_schemes(g)))
        assert any(d.kind == "winograd" for d in session.schemes.values())
        data = RNG.standard_normal((4, 32, 20, 20)).astype(np.float32)
        got = list(session.run({"in": data}).values())[0]
        want = execute_reference(g, {"in": data})[y]
        np.testing.assert_allclose(got, want, atol=1e-3)
