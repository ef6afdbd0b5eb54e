"""The backend abstraction module (paper Section 3.4, Figure 5).

Every hardware/software target is wrapped in a :class:`Backend` exposing the
same uniform interface the paper's ``XPUBackend`` class sketches:

* ``on_create``           — build an :class:`Execution` for one operator;
* ``on_acquire_buffer`` / ``on_release_buffer`` / ``on_clear_buffer``
                          — tensor memory management;
* ``on_copy_buffer``      — data transmission between backends (used by
                            hybrid scheduling);
* ``on_execute_begin`` / ``on_execute_end``
                          — bracket one inference.

Resource management and scheduling are thereby disentangled from operator
implementations: the session never touches raw buffers or device queues.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from ..ir.graph import Graph, Node
from ..ir.tensor import TensorDesc

if TYPE_CHECKING:  # pragma: no cover
    from ..core.schemes import SchemeDecision

__all__ = ["StorageType", "Execution", "Backend", "BackendError"]


class BackendError(RuntimeError):
    """Raised for unsupported operators or misused backend APIs."""


class StorageType(enum.Enum):
    """Buffer lifetime classes (mirrors MNN's StorageType)."""

    #: Weights / pre-computed constants: live for the whole session.
    STATIC = "static"
    #: Activations managed by the memory pool, reusable across ops.
    DYNAMIC = "dynamic"
    #: Activations excluded from reuse (e.g. session outputs).
    DYNAMIC_SEPARATE = "dynamic_separate"


class Execution(abc.ABC):
    """A prepared operator instance on a specific backend.

    ``prepare`` runs once during pre-inference (this is where pre-computed
    constants such as Winograd-transformed weights are built); ``run``
    executes the operator on concrete tensors.
    """

    def __init__(self, backend: "Backend", node: Node) -> None:
        self.backend = backend
        self.node = node

    def prepare(self, graph: Graph) -> None:
        """Build pre-computed constants; default is nothing to do."""

    @abc.abstractmethod
    def run(self, inputs: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Execute the operator; returns one array per node output."""


class Backend(abc.ABC):
    """Uniform interface over a compute device (Figure 5).

    Attributes:
        forward_type: backend identifier (``"cpu"``, ``"vulkan"``, ...).
    """

    forward_type: str = "abstract"

    def __init__(self) -> None:
        self._buffers: Dict[str, np.ndarray] = {}
        self._storage: Dict[str, StorageType] = {}

    # -- operator creation ----------------------------------------------------
    @abc.abstractmethod
    def on_create(
        self,
        node: Node,
        graph: Graph,
        scheme: Optional["SchemeDecision"] = None,
    ) -> Execution:
        """Create an execution instance for ``node``.

        Raises:
            BackendError: if the op is not supported on this backend.
        """

    @abc.abstractmethod
    def supports(self, op_type: str) -> bool:
        """Whether this backend implements ``op_type`` (Table 4 coverage)."""

    def supported_ops(self) -> List[str]:
        """All registered op types this backend supports (Table 4 rows)."""
        from ..ir.ops import all_op_types

        return [op for op in all_op_types() if self.supports(op)]

    # -- memory management ------------------------------------------------------
    def on_acquire_buffer(self, desc: TensorDesc, storage: StorageType) -> bool:
        """Allocate backing memory for ``desc`` on this backend."""
        if desc.name in self._buffers:
            return True
        self._buffers[desc.name] = np.zeros(desc.shape, desc.dtype.np_dtype)
        self._storage[desc.name] = storage
        return True

    def on_release_buffer(self, desc: TensorDesc, storage: StorageType) -> bool:
        """Release a dynamic buffer (static buffers persist until clear)."""
        if storage is StorageType.STATIC:
            return False
        self._buffers.pop(desc.name, None)
        self._storage.pop(desc.name, None)
        return True

    def on_clear_buffer(self) -> None:
        """Drop every buffer, including static ones."""
        self._buffers.clear()
        self._storage.clear()

    def buffer(self, name: str) -> np.ndarray:
        """Access a previously acquired buffer.

        Raises:
            BackendError: if no buffer with that name exists.
        """
        try:
            return self._buffers[name]
        except KeyError:
            raise BackendError(f"{self.forward_type}: no buffer {name!r} acquired") from None

    # -- cross-backend copies --------------------------------------------------
    def on_copy_buffer(self, src: np.ndarray, dst_backend: "Backend") -> np.ndarray:
        """Move a tensor to ``dst_backend``; may account transfer cost."""
        return src

    # -- inference bracketing ----------------------------------------------------
    def on_execute_begin(self) -> None:
        """Called once before each inference run."""

    def on_execute_end(self) -> None:
        """Called once after each inference run."""
