"""Regression tests for the session bugs the serving layer exposed.

Two latent bugs made ``Session`` unsafe for concurrent serving:

1. ``resize`` replaced the *shared* graph's descriptors before shape
   inference ran, so a failing resize left both the graph and the session
   half-resized — and corrupted every other session sharing the graph.
2. ``run`` promised ``GraphError`` on dtype mismatches but never checked
   dtypes, letting float64/int feeds flow silently into kernels.

Separate sessions over one graph, run from many threads at once, must
still answer exactly like one serial session.
"""

import threading

import numpy as np
import pytest

from repro.core import Session
from repro.ir import GraphBuilder, GraphError

RNG = np.random.default_rng(77)


def fc_net(hw=16):
    """Conv + flatten + fc: resizing the input changes the flattened
    feature count, so resize to a new spatial size *must* fail (the fc
    weight is fixed) — the perfect probe for resize atomicity."""
    b = GraphBuilder("fcnet", seed=0)
    x = b.input("data", (1, 3, hw, hw))
    x = b.conv(x, oc=8, kernel=3, pad_mode="same", activation="relu")
    x = b.fc(b.flatten(x), units=5)
    b.output(b.softmax(x))
    return b.finish()


def gap_net(hw=16):
    """Conv + global-avg-pool + fc: resizes cleanly to any spatial size."""
    b = GraphBuilder("gapnet", seed=0)
    x = b.input("data", (1, 3, hw, hw))
    x = b.conv(x, oc=8, kernel=3, pad_mode="same", activation="relu")
    x = b.fc(b.global_avg_pool(x), units=5)
    b.output(b.softmax(x))
    return b.finish()


def feed(hw=16, batch=1):
    return {"data": RNG.standard_normal((batch, 3, hw, hw)).astype(np.float32)}


class TestResizeAtomicity:
    def test_failing_resize_leaves_session_usable(self):
        session = Session(fc_net(16))
        before = list(session.run(feed(16)).values())[0]
        with pytest.raises(GraphError):
            session.resize({"data": (1, 3, 24, 24)})  # fc weight can't take it
        # descriptors are unchanged and the session still serves old shapes
        assert session.graph.desc("data").shape == (1, 3, 16, 16)
        after = list(session.run(feed(16)).values())[0]
        assert after.shape == before.shape

    def test_failing_resize_during_prepare_restores_state(self, monkeypatch):
        session = Session(gap_net(16))
        x = feed(16)
        gold = list(session.run(x).values())[0]
        old_plan = session.memory_plan

        import repro.core.session as session_mod

        def explode(*args, **kwargs):
            raise RuntimeError("planner exploded")

        monkeypatch.setattr(session_mod, "plan_memory", explode)
        with pytest.raises(RuntimeError, match="planner exploded"):
            session.resize({"data": (1, 3, 24, 24)})
        monkeypatch.undo()
        # every piece of pre-inference state rolled back
        assert session.graph.desc("data").shape == (1, 3, 16, 16)
        assert session.memory_plan is old_plan
        again = list(session.run(x).values())[0]
        np.testing.assert_array_equal(again, gold)

    def test_resize_does_not_clobber_shared_graph(self):
        graph = gap_net(16)
        a = Session(graph)
        b = Session(graph)
        a.resize({"data": (1, 3, 24, 24)})
        # b (and the original graph object) still see the old descriptors
        assert graph.desc("data").shape == (1, 3, 16, 16)
        assert b.graph.desc("data").shape == (1, 3, 16, 16)
        out_b = list(b.run(feed(16)).values())[0]
        out_a = list(a.run(feed(24)).values())[0]
        assert out_a.shape == out_b.shape == (1, 5)

    def test_unknown_input_rejected_before_any_mutation(self):
        session = Session(gap_net(16))
        with pytest.raises(GraphError, match="not a graph input"):
            session.resize({"nope": (1, 3, 8, 8)})
        assert session.graph.desc("data").shape == (1, 3, 16, 16)

    def test_successful_resize_still_works(self):
        session = Session(gap_net(16))
        session.resize({"data": (2, 3, 32, 32)})
        out = list(session.run(feed(32, batch=2)).values())[0]
        assert out.shape == (2, 5)


class TestDtypeValidation:
    def test_float64_feed_raises(self):
        session = Session(gap_net())
        with pytest.raises(GraphError, match="expected dtype float32"):
            session.run({"data": np.zeros((1, 3, 16, 16), np.float64)})

    def test_int_feed_raises(self):
        session = Session(gap_net())
        with pytest.raises(GraphError, match="expected dtype float32"):
            session.run({"data": np.zeros((1, 3, 16, 16), np.int32)})

    def test_correct_dtype_still_accepted(self):
        session = Session(gap_net())
        out = list(session.run(feed()).values())[0]
        assert out.dtype == np.float32


def two_branch_net():
    """Two independent conv branches joined at the end."""
    b = GraphBuilder("branches", seed=1)
    x = b.input("in", (1, 4, 12, 12))
    left = b.conv(x, oc=4, kernel=1, name="left")
    right = b.conv(x, oc=4, kernel=1, name="right")
    b.output(b.add(left, right))
    return b.finish()


class TestParallelExecutorFailures:
    def test_parallel_matches_serial_under_thread_storm(self):
        """Eight threads over four *separate* sessions agree with serial,
        bit for bit.  Threads sharing a session take turns on its lock: a
        session is single-checkout state."""
        g = two_branch_net()
        serial = Session(g)
        x = {"in": RNG.standard_normal((1, 4, 12, 12)).astype(np.float32)}
        want = list(serial.run(x).values())[0]

        sessions = [Session(g) for _ in range(4)]
        checkouts = [threading.Lock() for _ in sessions]
        results = [None] * 8

        def worker(i):
            with checkouts[i % 4]:
                results[i] = list(sessions[i % 4].run(x).values())[0]

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
        for got in results:
            assert got.tobytes() == want.tobytes()
