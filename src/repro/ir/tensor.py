"""Tensor descriptors and data types for the repro IR.

The engine describes data flowing through a graph with :class:`TensorDesc`
objects: a shape and a :class:`DataType`.  Actual numeric payloads are plain
``numpy.ndarray`` values held either in the graph's constant table (weights)
or in backend-managed buffers at execution time.

Every activation is stored in one layout, row-major NCHW (NC for matrices):
a descriptor's shape is its buffer's shape.  A kernel that wants another
order (depthwise conv runs channels-last) reorders inside its runner.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

__all__ = [
    "DataType",
    "TensorDesc",
    "element_count",
    "buffer_nbytes",
]

class DataType(enum.Enum):
    """Numeric element types supported by the engine."""

    FLOAT32 = "float32"
    FLOAT16 = "float16"
    INT32 = "int32"
    INT8 = "int8"
    UINT8 = "uint8"

    @property
    def np_dtype(self) -> np.dtype:
        """The numpy dtype used to store elements of this type."""
        return np.dtype(self.value)

    @property
    def itemsize(self) -> int:
        """Size in bytes of one element."""
        return self.np_dtype.itemsize

    @classmethod
    def from_numpy(cls, dtype: np.dtype) -> "DataType":
        """Map a numpy dtype to the engine's :class:`DataType`.

        Raises:
            ValueError: if the numpy dtype has no engine equivalent.
        """
        name = np.dtype(dtype).name
        for member in cls:
            if member.value == name:
                return member
        raise ValueError(f"unsupported numpy dtype {dtype!r}")


@dataclass(frozen=True)
class TensorDesc:
    """Static description of a tensor: name, shape and element type."""

    name: str
    shape: Tuple[int, ...]
    dtype: DataType = DataType.FLOAT32

    def __post_init__(self) -> None:
        object.__setattr__(self, "shape", tuple(int(d) for d in self.shape))
        for dim in self.shape:
            if dim < 0:
                raise ValueError(f"tensor {self.name!r} has negative dim in {self.shape}")

    @property
    def rank(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        """Number of logical elements."""
        return element_count(self.shape)

    @property
    def nbytes(self) -> int:
        """Bytes required to store the tensor."""
        return buffer_nbytes(self.shape, self.dtype)


def element_count(shape: Sequence[int]) -> int:
    """Product of the dims of ``shape`` (1 for a scalar / empty shape)."""
    count = 1
    for dim in shape:
        count *= int(dim)
    return count


def buffer_nbytes(shape: Sequence[int], dtype: DataType) -> int:
    """Bytes needed for a buffer holding ``shape`` elements of ``dtype``."""
    return element_count(shape) * dtype.itemsize
