"""The pre-inference cost model (paper Eq. 1, 4, 5).

Total cost of a computation scheme is ``C_total = C_algorithm + C_backend``
(Eq. 1).  The backend term sums per-operator costs (Eq. 4) where each op is

    C_op = MUL / FLOPS * 1000            (CPU, milliseconds)
    C_op = MUL / FLOPS * 1000 + t_sched  (GPU — extra command overhead)

``MUL`` is the operator's multiply count *under its chosen algorithm*:
Winograd genuinely lowers the count (that is the point of scheme search),
and Strassen shaves large 1x1-conv GEMMs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..devices.specs import DeviceSpec
from ..ir.graph import Graph, Node
from ..ir.ops import Op, get_schema
from ..kernels.matmul import strassen_should_recurse

__all__ = ["node_muls", "winograd_tile_cost", "strassen_mul_factor", "BackendCostModel"]

#: Strassen recursion bottoms out at the micro-kernel tile size (see
#: repro.kernels.matmul); the cost model mirrors that floor.
_STRASSEN_MIN_DIM = 256


def strassen_mul_factor(n: int, k: int, m: int) -> float:
    """Fraction of direct MULs Strassen performs on an [n,k]x[k,m] GEMM.

    Each recursion level multiplies the count by 7/8; the level count
    follows the paper's Eq. 9 gate plus the micro-kernel floor.
    """
    factor = 1.0
    while min(n, k, m) > _STRASSEN_MIN_DIM and strassen_should_recurse(n, k, m):
        factor *= 7.0 / 8.0
        n, k, m = n // 2, k // 2, m // 2
    return factor


def winograd_tile_cost(
    tile: Tuple[int, int], kernel: Tuple[int, int], ic: int, oc: int,
) -> Tuple[int, int]:
    """Per-tile MULs of Winograd F(nh x nw, kh x kw) — paper Eq. 2, per axis.

    Returns ``(transform, hadamard)``: the input and output transform
    terms, and the Hadamard-as-GEMM stage ``ic * oc * th * tw`` (``th =
    nh + kh - 1``, ``tw = nw + kw - 1``).  A ``k = 1`` axis has identity
    transforms, so it adds no transform term.  At a square tile ``(n, n)``
    of a square kernel the sum is the literal Eq. 2,

        ``C(n) = 2*ic*(n+k-1)^3  +  ic*oc*(n+k-1)^2  +  n*(n+k-1)*(2n+k-1)``.
    """
    (nh, nw), (kh, kw) = tile, kernel
    th, tw = nh + kh - 1, nw + kw - 1
    transform = 0
    if kh > 1:  # B_h^T X down the columns of a th x tw tile, then A_h^T M
        transform += ic * th * th * tw + nh * th * tw
    if kw > 1:
        transform += ic * th * tw * tw + nh * tw * nw
    return transform, ic * oc * th * tw


def node_muls(
    node: Node,
    graph: Graph,
    scheme_kind: Optional[str] = None,
    tile: Tuple[int, int] = (1, 1),
) -> int:
    """Multiply count of ``node`` under an optional conv scheme.

    Without a scheme this is the schema's direct count (what a naive engine
    executes); with ``scheme_kind`` the count reflects the chosen algorithm
    (``tile`` is the Winograd output tile ``(nh, nw)``).
    """
    schema = get_schema(node.op_type)
    if schema.mul_count is None:
        return 0
    input_shapes = [graph.desc(name).shape for name in node.inputs]
    output_shape = graph.desc(node.outputs[0]).shape
    direct = schema.mul_count(input_shapes, output_shape, node.attrs)
    if node.op_type != Op.CONV2D or scheme_kind in (None, "sliding"):
        return direct

    n_batch, oc, oh, ow = output_shape
    ic = input_shapes[0][1]
    if scheme_kind == "gemm1x1":
        factor = strassen_mul_factor(n_batch * oh * ow, ic, oc)
        return int(direct * factor)
    if scheme_kind == "winograd":
        nh, nw = tile
        tiles = -(-oh // nh) * (-(-ow // nw))
        return n_batch * tiles * sum(winograd_tile_cost(tile, node.attrs["kernel"], ic, oc))
    raise ValueError(f"unknown scheme kind {scheme_kind!r}")


@dataclass(frozen=True)
class BackendCostModel:
    """Eq. 5 evaluated against a concrete device.

    Attributes:
        device: the capability model supplying FLOPS and t_schedule.
        threads: CPU thread count (selects top-k core frequencies).
    """

    device: DeviceSpec
    threads: int = 4

    def cpu_cost_ms(self, muls: int) -> float:
        return muls / self.device.cpu_flops(self.threads) * 1000.0

    def gpu_cost_ms(self, muls: int, api: str) -> float:
        return muls / self.device.gpu_flops() * 1000.0 + self.device.t_schedule_ms(api)

    def op_cost_ms(self, muls: int, backend_kind: str) -> float:
        """Cost of one op on ``backend_kind`` ("cpu" or a GPU API name)."""
        if backend_kind == "cpu":
            return self.cpu_cost_ms(muls)
        return self.gpu_cost_ms(muls, backend_kind)

    def graph_cost_ms(self, graph: Graph, backend_kind: str, supports=None) -> float:
        """Eq. 4: total backend cost, falling back to CPU for unsupported ops.

        Args:
            supports: optional predicate ``op_type -> bool``; ops it rejects
                are costed on the CPU (the paper's fallback rule).
        """
        total = 0.0
        for node in graph.nodes:
            muls = node_muls(node, graph)
            if backend_kind != "cpu" and supports is not None and not supports(node.op_type):
                total += self.cpu_cost_ms(muls)
            else:
                total += self.op_cost_ms(muls, backend_kind)
        return total
