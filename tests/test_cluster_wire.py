"""The infer RPC's wire: one fixed-layout frame over tensor views bound once.

An infer request is a 26-byte ``struct`` frame (tag, crash marker,
generation, request sequence number, deadline) and its tensors sit in
views of the slot's segments that router and worker each bind once, from
the same graph.  These tests hold the frame to an exact round trip, a
worker to a typed answer on a frame it cannot decode, the bound views to
the generation guard and the shared layout rule, and the sanitizer to
its lifecycle check on a bound write.
"""

import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import (
    Cluster,
    ClusterConfig,
    ProtocolError,
    ShmSegment,
    StaleSegment,
    fork_available,
)
from repro.cluster.shm import (
    FRAME,
    INFER,
    OK,
    PICKLED,
    pack_frame,
    payload_bytes,
    tensor_offsets,
    unpack_frame,
)
from repro.core import Session
from repro.faults.chaos import default_chaos_graph
from repro.ir import DataType, TensorDesc
from repro.obs import MetricsRegistry

needs_fork = [
    pytest.mark.cluster,
    pytest.mark.skipif(not fork_available(),
                       reason="cluster tier needs the fork start method"),
]

DESCS = {
    "a": TensorDesc("a", (3, 5), DataType.FLOAT32),
    "b": TensorDesc("b", (7,), DataType.INT32),
    "c": TensorDesc("c", (), DataType.INT8),
}


def _arrays(seed=0):
    rng = np.random.default_rng(seed)
    return {
        "a": rng.standard_normal((3, 5)).astype(np.float32),
        "b": rng.integers(-99, 99, (7,)).astype(np.int32),
        "c": np.int8(-3).reshape(()),
    }


@pytest.fixture
def seg():
    s = ShmSegment.create(f"repro-test-wire-{os.getpid():x}", payload_bytes(DESCS))
    try:
        yield s
    finally:
        s.unlink()


class TestFrame:
    @given(
        tag=st.sampled_from([INFER, OK]),
        crash=st.sampled_from([None, "early", "mid"]),
        generation=st.integers(0, 2**64 - 1),
        seq=st.integers(0, 2**63 - 1),
        deadline_ms=st.one_of(st.none(), st.just(0.0),
                              st.floats(0.0, 1e9, allow_nan=False)),
    )
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, tag, crash, generation, seq, deadline_ms):
        data = pack_frame(tag, crash, generation, seq, deadline_ms)
        assert len(data) == FRAME.size == 26
        assert data[:1] == tag != PICKLED
        assert unpack_frame(data, tag) == (crash, generation, seq, deadline_ms)

    def test_truncated_unknown_or_wrong_tag_is_protocol_error(self):
        data = pack_frame(INFER, "mid", 7, 9, 12.5)
        for bad in (data[:-1], data + b"\0", b"", b"Z" + data[1:]):
            with pytest.raises(ProtocolError):
                unpack_frame(bad, INFER)
        with pytest.raises(ProtocolError):
            unpack_frame(data, OK)  # a request is not an answer
        with pytest.raises(ProtocolError):
            unpack_frame(data[:1] + b"\x03" + data[2:], INFER)  # no crash code 3

    def test_no_deadline_travels_as_nan(self):
        assert math.isnan(FRAME.unpack(pack_frame(INFER, None, 1, 1, None))[4])


class TestBoundViews:
    def test_bound_and_laid_out_tensors_share_one_layout(self, seg):
        seg.bind(DESCS)
        offsets, end = tensor_offsets(DESCS)
        assert end == payload_bytes(DESCS) == payload_bytes(_arrays())
        arrays = _arrays(1)
        specs = seg.write_tensors(arrays, generation=3)
        assert [spec.offset for spec in specs] == offsets
        got = seg.read_bound(3, copy=True)
        for name, want in arrays.items():
            assert got[name].dtype == want.dtype
            np.testing.assert_array_equal(got[name], want)
        seg.write_bound(_arrays(2), generation=4)
        for name, want in _arrays(2).items():
            np.testing.assert_array_equal(seg.read_tensors(specs, 4)[name], want)

    def test_attached_side_binds_the_same_views(self, seg):
        seg.bind(DESCS)
        other = ShmSegment.attach(seg.name)
        try:
            other.bind(DESCS)
            seg.write_bound(_arrays(3), generation=11)
            views = other.read_bound(11)
            assert views is other.read_bound(11)  # bound once, not rebuilt
            for name, want in _arrays(3).items():
                np.testing.assert_array_equal(views[name], want)
        finally:
            other.close()

    def test_stale_frame_generation_raises_through_bound_views(self, seg):
        seg.bind(DESCS)
        seg.write_bound(_arrays(), generation=5)
        _, generation, _, _ = unpack_frame(pack_frame(INFER, None, 4, 1, None), INFER)
        with pytest.raises(StaleSegment) as exc:
            seg.read_bound(generation, copy=True)
        assert (exc.value.expected, exc.value.found) == (4, 5)

    def test_bound_write_refuses_a_cast(self, seg):
        seg.bind(DESCS)
        arrays = _arrays()
        arrays["b"] = arrays["b"].astype(np.int64)
        with pytest.raises(TypeError):
            seg.write_bound(arrays, generation=1)

    def test_oversized_binding_is_refused(self):
        small = ShmSegment.create(f"repro-test-wire-small-{os.getpid():x}", 128)
        try:
            with pytest.raises(ValueError):
                small.bind({"x": TensorDesc("x", (1 << 12,))})
        finally:
            small.unlink()


@pytest.fixture(scope="module")
def net():
    return default_chaos_graph()


@pytest.fixture(scope="module")
def feeds(net):
    name = net.inputs[0]
    x = np.random.default_rng(23).standard_normal(net.desc(name).shape)
    return {name: x.astype(np.float32)}


class TestWorkerWire:
    pytestmark = needs_fork

    def test_undecodable_frames_get_a_typed_reply_and_the_worker_serves_on(
            self, net, feeds):
        gold = Session(net).run(feeds)
        with Cluster(net, ClusterConfig(workers=1, metrics=MetricsRegistry())) as cluster:
            handle = cluster.supervisor.wait_handle(0, 30.0)
            pid = handle.pid
            frame = pack_frame(INFER, None, 1, 1, None)
            # No request is in flight, so no thread holds the slot's lock
            # and reads this pipe.
            for bad in (frame[:-3], b"Z" + frame[1:], pack_frame(OK, None, 1, 1, None)):
                handle.conn.send_bytes(bad)
                kind, seq, etype, message, _ = handle.conn.recv()
                assert (kind, seq, etype) == ("err", 0, "ProtocolError"), message
            handle.conn.send({"kind": "bogus", "seq": 5})
            assert handle.conn.recv()[:3] == ("err", 5, "ProtocolError")
            for _ in range(2):
                out = cluster.infer(feeds)
                for key in gold:
                    np.testing.assert_array_equal(out[key], gold[key])
            assert cluster.supervisor.handle(0).pid == pid
            assert cluster.supervisor.restarts(0) == 0

    def test_bound_write_after_unlink_is_a_lifecycle_finding(self, net, feeds):
        cluster = Cluster(net, ClusterConfig(workers=1, sanitize=True,
                                             metrics=MetricsRegistry()))
        cluster.infer(feeds)
        assert not cluster.sanitizer.report().lifecycle
        request = cluster._segments[0]["req"]
        cluster.close()
        with pytest.raises(ValueError, match="closed"):
            request.write_bound(feeds, 99)
        findings = cluster.sanitizer.report().lifecycle
        assert [(f.rule, f.scope, f.key) for f in findings] == [
            ("use-after-free", "cluster.shm", request.name)]

