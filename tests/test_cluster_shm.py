"""Shared-memory tensor transport: round-trips, generation guards,
ownership rules and sizing from the graph's descriptors.

All within one process — attach maps the same segment a second time, so
writer-view / reader-view pairs exercise exactly the cross-process
layout without spawning workers (the router tests do that part).
"""

import numpy as np
import pytest

from repro.cluster import ShmSegment, StaleSegment, payload_bytes
from repro.cluster.shm import HEADER_BYTES
from repro.ir import DataType, TensorDesc

RNG = np.random.default_rng(5)


def _arrays():
    return {
        "a": RNG.standard_normal((3, 5)).astype(np.float32),
        "b": RNG.integers(0, 99, (7,)).astype(np.int64),
        "c": np.float32(2.5).reshape(()),  # 0-d tensors must survive too
    }


@pytest.fixture
def seg():
    s = ShmSegment.create("repro-test-shm", 1 << 16)
    try:
        yield s
    finally:
        s.unlink()


class TestRoundTrip:
    def test_write_read_bit_identical(self, seg):
        arrays = _arrays()
        specs = seg.write_tensors(arrays, generation=1)
        out = seg.read_tensors(specs, generation=1)
        assert set(out) == set(arrays)
        for name in arrays:
            assert out[name].dtype == arrays[name].dtype
            np.testing.assert_array_equal(out[name], arrays[name])

    def test_reader_view_is_zero_copy(self, seg):
        arrays = {"x": np.zeros((4,), dtype=np.float32)}
        specs = seg.write_tensors(arrays, generation=1)
        view = seg.read_tensors(specs, generation=1)["x"]
        # Mutating the segment through a fresh write is visible through
        # the earlier view — proof it maps the segment, not a copy.
        seg.write_tensors({"x": np.full((4,), 7.0, np.float32)}, generation=2)
        np.testing.assert_array_equal(view, np.full((4,), 7.0, np.float32))

    def test_copy_detaches_from_segment(self, seg):
        arrays = {"x": np.ones((4,), dtype=np.float32)}
        specs = seg.write_tensors(arrays, generation=1)
        out = seg.read_tensors(specs, generation=1, copy=True)["x"]
        seg.write_tensors({"x": np.zeros((4,), np.float32)}, generation=2)
        np.testing.assert_array_equal(out, np.ones((4,), np.float32))

    def test_attach_sees_owner_writes(self, seg):
        arrays = _arrays()
        specs = seg.write_tensors(arrays, generation=3)
        other = ShmSegment.attach(seg.name)
        try:
            out = other.read_tensors(specs, generation=3)
            for name in arrays:
                np.testing.assert_array_equal(out[name], arrays[name])
        finally:
            other.close()


class TestGenerationGuard:
    def test_stale_generation_is_typed(self, seg):
        specs = seg.write_tensors({"x": np.ones((2,), np.float32)}, generation=5)
        with pytest.raises(StaleSegment) as exc:
            seg.read_tensors(specs, generation=4)
        assert exc.value.expected == 4
        assert exc.value.found == 5

    def test_recycled_segment_refuses_old_specs(self, seg):
        # The exact bug the guard exists for: a reply referencing specs
        # from request N arriving after the segment was recycled for N+1.
        old_specs = seg.write_tensors({"x": np.ones((2,), np.float32)}, 1)
        seg.write_tensors({"x": np.zeros((8,), np.float32)}, 2)
        with pytest.raises(StaleSegment):
            seg.read_tensors(old_specs, generation=1)

    def test_stamp_round_trips_large_generations(self, seg):
        seg.stamp(2**40 + 17)
        assert seg.generation == 2**40 + 17


class TestSizing:
    def test_payload_bytes_accounts_header_and_alignment(self):
        arrays = {"x": np.zeros((1,), np.float32)}  # 4 bytes -> 1 aligned line
        assert payload_bytes(arrays) == HEADER_BYTES + 64
        assert payload_bytes({}) == HEADER_BYTES

    def test_payload_bytes_sizes_from_descriptors(self):
        # The router sizes segments from the graph before any tensor
        # exists: a descriptor counts exactly as the array it describes.
        arrays = {
            "a": np.zeros((3, 5), np.float32),
            "b": np.zeros((7,), np.int32),
            "c": np.zeros((), np.int8),
        }
        descs = {
            name: TensorDesc(name, arr.shape, DataType.from_numpy(arr.dtype))
            for name, arr in arrays.items()
        }
        assert payload_bytes(descs) == payload_bytes(arrays)

    def test_oversized_payload_is_refused(self):
        big = {"x": np.zeros((1 << 12,), np.float32)}
        seg = ShmSegment.create("repro-test-shm-small", HEADER_BYTES + 64)
        try:
            with pytest.raises(ValueError):
                seg.write_tensors(big, generation=1)
        finally:
            seg.unlink()
        exact = ShmSegment.create("repro-test-shm-exact", payload_bytes(big))
        try:
            specs = exact.write_tensors(big, generation=1)
            out = exact.read_tensors(specs, generation=1)
            np.testing.assert_array_equal(out["x"], big["x"])
        finally:
            exact.unlink()


class TestOwnership:
    def test_attached_segment_cannot_unlink(self, seg):
        other = ShmSegment.attach(seg.name)
        try:
            assert not other.owner
            with pytest.raises(RuntimeError):
                other.unlink()
        finally:
            other.close()

    def test_close_and_unlink_idempotent(self):
        seg = ShmSegment.create("repro-test-shm-idem", 1 << 12)
        seg.close()
        seg.close()
        seg.unlink()
        seg.unlink()

    def test_create_zeroes_header(self):
        seg = ShmSegment.create("repro-test-shm-hdr", 1 << 12)
        try:
            assert seg.generation == 0
        finally:
            seg.unlink()
