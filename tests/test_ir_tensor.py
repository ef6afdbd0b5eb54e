"""Tests for repro.ir.tensor: dtypes, descriptors, buffer sizes."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.ir import DataType, TensorDesc, element_count


class TestDataType:
    def test_numpy_round_trip(self):
        for dt in DataType:
            assert DataType.from_numpy(dt.np_dtype) is dt

    def test_itemsize(self):
        assert DataType.FLOAT32.itemsize == 4
        assert DataType.FLOAT16.itemsize == 2
        assert DataType.INT8.itemsize == 1
        assert DataType.INT32.itemsize == 4

    def test_from_numpy_rejects_unknown(self):
        with pytest.raises(ValueError, match="unsupported"):
            DataType.from_numpy(np.dtype("complex64"))


class TestTensorDesc:
    def test_basic_properties(self):
        d = TensorDesc("x", (1, 3, 224, 224))
        assert d.rank == 4
        assert d.size == 1 * 3 * 224 * 224
        assert d.nbytes == d.size * 4
        assert d.dtype is DataType.FLOAT32

    def test_negative_dim_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            TensorDesc("x", (1, -3, 4, 4))

    def test_shape_coerced_to_int_tuple(self):
        d = TensorDesc("x", [np.int64(2), np.int64(3)])
        assert d.shape == (2, 3)
        assert all(isinstance(v, int) for v in d.shape)


class TestBufferSizes:
    def test_element_count_empty_is_one(self):
        assert element_count(()) == 1

    @given(st.lists(st.integers(min_value=0, max_value=16), min_size=1, max_size=5))
    def test_element_count_matches_numpy(self, dims):
        assert element_count(dims) == int(np.prod(dims, dtype=np.int64))
