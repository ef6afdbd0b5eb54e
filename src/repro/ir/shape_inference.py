"""Per-operator shape inference.

``infer_shapes(graph)`` walks the graph in topological order and fills in
``graph.tensor_descs`` for every intermediate tensor.  This is the
foundation of the paper's *pre-inference* stage: because input sizes are
fixed, every buffer size in the network is known before the first real
inference, enabling memory pre-allocation and cost evaluation (Section 3.2).
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

import numpy as np

from .graph import Graph, GraphError, Node
from .ops import Op
from .tensor import DataType, TensorDesc

__all__ = [
    "infer_shapes",
    "infer_node",
    "infer_node_outputs",
    "resolve_padding",
    "conv_output_hw",
]

Shape = Tuple[int, ...]


def resolve_padding(
    pad_mode: str,
    pad: Sequence[int],
    in_hw: Tuple[int, int],
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    dilation: Tuple[int, int] = (1, 1),
) -> Tuple[int, int, int, int]:
    """Return explicit (top, bottom, left, right) padding.

    ``"same"`` pads so the output spatial size is ``ceil(in / stride)``;
    ``"valid"`` means no padding; ``"explicit"`` passes ``pad`` through.
    """
    if pad_mode == "explicit":
        top, bottom, left, right = (int(p) for p in pad)
        return top, bottom, left, right
    if pad_mode == "valid":
        return (0, 0, 0, 0)
    if pad_mode == "same":
        result = []
        for size, k, s, d in zip(in_hw, kernel, stride, dilation):
            eff_k = (k - 1) * d + 1
            out = math.ceil(size / s)
            total = max(0, (out - 1) * s + eff_k - size)
            result.append((total // 2, total - total // 2))
        (top, bottom), (left, right) = result
        return top, bottom, left, right
    raise GraphError(f"unknown pad_mode {pad_mode!r}")


def conv_output_hw(
    in_hw: Tuple[int, int],
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    pads: Tuple[int, int, int, int],
    dilation: Tuple[int, int] = (1, 1),
    ceil_mode: bool = False,
) -> Tuple[int, int]:
    """Output spatial size of a conv/pool window sweep.

    ``ceil_mode`` rounds the window count up but, as ONNX and PyTorch do,
    drops a last window that would start at or past the end of the input
    and its leading pad: such a window covers padding only.
    """
    ih, iw = in_hw
    kh, kw = kernel
    sh, sw = stride
    dh, dw = dilation
    top, bottom, left, right = pads
    eff_kh = (kh - 1) * dh + 1
    eff_kw = (kw - 1) * dw + 1
    rounder = math.ceil if ceil_mode else math.floor
    oh = rounder((ih + top + bottom - eff_kh) / sh) + 1
    ow = rounder((iw + left + right - eff_kw) / sw) + 1
    if ceil_mode and (oh - 1) * sh >= ih + top:
        oh -= 1
    if ceil_mode and (ow - 1) * sw >= iw + left:
        ow -= 1
    if oh <= 0 or ow <= 0:
        raise GraphError(
            f"window {kernel} stride {stride} does not fit input {in_hw} with pads {pads}"
        )
    return oh, ow


# ---------------------------------------------------------------------------
# Per-op inference functions: (node, input_descs) -> list of output descs.
# ---------------------------------------------------------------------------
InferFn = Callable[[Node, List[TensorDesc]], List[Tuple[Shape, DataType]]]
_INFER: Dict[str, InferFn] = {}


def _register(op_type: str):
    def deco(fn: InferFn) -> InferFn:
        _INFER[op_type] = fn
        return fn

    return deco


def _conv_like(node: Node, descs: List[TensorDesc], transposed: bool = False):
    x = descs[0]
    if x.rank != 4:
        raise GraphError(f"{node.op_type} {node.name!r}: expected rank-4 input, got {x.shape}")
    n, ic, ih, iw = x.shape
    w_shape = descs[1].shape
    attrs = node.attrs
    kernel = tuple(attrs["kernel"])
    stride = tuple(attrs["stride"])
    dilation = tuple(attrs["dilation"])
    groups = int(attrs["groups"])
    if node.op_type == Op.DEPTHWISE_CONV2D:
        oc = ic
        expected_w = (ic, 1, *kernel)
    elif transposed:
        oc = w_shape[1] * groups
        expected_w = (ic, oc // groups, *kernel)
    else:
        oc = w_shape[0]
        expected_w = (oc, ic // groups, *kernel)
        if ic % groups != 0:
            raise GraphError(f"{node.name!r}: channels {ic} not divisible by groups {groups}")
    if tuple(w_shape) != expected_w:
        raise GraphError(
            f"{node.name!r}: weight shape {tuple(w_shape)} != expected {expected_w}"
        )
    if transposed:
        out_pad = tuple(attrs.get("output_padding", (0, 0)))
        pads = resolve_padding(attrs["pad_mode"], attrs["pad"], (ih, iw), kernel, stride, dilation)
        eff_kh = (kernel[0] - 1) * dilation[0] + 1
        eff_kw = (kernel[1] - 1) * dilation[1] + 1
        oh = (ih - 1) * stride[0] + eff_kh - pads[0] - pads[1] + out_pad[0]
        ow = (iw - 1) * stride[1] + eff_kw - pads[2] - pads[3] + out_pad[1]
    else:
        pads = resolve_padding(attrs["pad_mode"], attrs["pad"], (ih, iw), kernel, stride, dilation)
        oh, ow = conv_output_hw((ih, iw), kernel, stride, pads, dilation)
    return [((n, oc, oh, ow), x.dtype)]


_register(Op.CONV2D)(lambda n, d: _conv_like(n, d))
_register(Op.DEPTHWISE_CONV2D)(lambda n, d: _conv_like(n, d))
_register(Op.CONV_TRANSPOSE2D)(lambda n, d: _conv_like(n, d, transposed=True))


@_register(Op.MATMUL)
def _matmul(node, descs):
    a, b = descs[0].shape, descs[1].shape
    if node.attrs["transpose_a"]:
        a = (*a[:-2], a[-1], a[-2])
    if node.attrs["transpose_b"]:
        b = (*b[:-2], b[-1], b[-2])
    if a[-1] != b[-2]:
        raise GraphError(f"{node.name!r}: matmul inner dims {a[-1]} != {b[-2]}")
    batch = np.broadcast_shapes(a[:-2], b[:-2])
    return [((*batch, a[-2], b[-1]), descs[0].dtype)]


@_register(Op.FULLY_CONNECTED)
def _fc(node, descs):
    x = descs[0]
    units = int(node.attrs["units"])
    in_features = int(np.prod(x.shape[1:]))
    w = descs[1].shape
    if tuple(w) != (units, in_features):
        raise GraphError(f"{node.name!r}: FC weight {tuple(w)} != ({units}, {in_features})")
    return [((x.shape[0], units), x.dtype)]


def _same_shape(node, descs):
    return [(descs[0].shape, descs[0].dtype)]


for _op in (
    Op.BATCH_NORM, Op.RELU, Op.RELU6, Op.PRELU, Op.SIGMOID, Op.TANH,
    Op.SOFTMAX, Op.DROPOUT, Op.IDENTITY, Op.SCALE, Op.QUANTIZE, Op.DEQUANTIZE,
):
    _register(_op)(_same_shape)


def _binary(node, descs):
    try:
        shape = np.broadcast_shapes(descs[0].shape, descs[1].shape)
    except ValueError:
        raise GraphError(
            f"{node.name!r}: shapes {descs[0].shape} and {descs[1].shape} do not broadcast"
        ) from None
    return [(tuple(int(d) for d in shape), descs[0].dtype)]


for _op in (Op.ADD, Op.SUB, Op.MUL, Op.ELTWISE_MAX):
    _register(_op)(_binary)


def _pool(node, descs):
    x = descs[0]
    if x.rank != 4:
        raise GraphError(f"{node.op_type} {node.name!r}: expected rank-4 input, got {x.shape}")
    n, c, ih, iw = x.shape
    attrs = node.attrs
    kernel = tuple(attrs["kernel"])
    stride = tuple(attrs["stride"])
    pads = resolve_padding(attrs["pad_mode"], attrs["pad"], (ih, iw), kernel, stride)
    oh, ow = conv_output_hw((ih, iw), kernel, stride, pads, ceil_mode=attrs["ceil_mode"])
    return [((n, c, oh, ow), x.dtype)]


_register(Op.MAX_POOL)(_pool)
_register(Op.AVG_POOL)(_pool)


@_register(Op.GLOBAL_AVG_POOL)
def _gap(node, descs):
    n, c = descs[0].shape[:2]
    return [((n, c, 1, 1), descs[0].dtype)]


@_register(Op.CONCAT)
def _concat(node, descs):
    axis = int(node.attrs["axis"])
    base = list(descs[0].shape)
    axis = axis % len(base)
    total = 0
    for d in descs:
        shape = list(d.shape)
        if len(shape) != len(base):
            raise GraphError(f"{node.name!r}: concat rank mismatch")
        for i, (a, b) in enumerate(zip(shape, base)):
            if i != axis and a != b:
                raise GraphError(f"{node.name!r}: concat dim {i} mismatch {a} != {b}")
        total += shape[axis]
    base[axis] = total
    return [(tuple(base), descs[0].dtype)]


@_register(Op.SLICE)
def _slice(node, descs):
    shape = list(descs[0].shape)
    axis = int(node.attrs["axis"]) % len(shape)
    start = int(node.attrs["start"])
    end = min(int(node.attrs["end"]), shape[axis])
    if not (0 <= start < end <= shape[axis]):
        raise GraphError(f"{node.name!r}: bad slice [{start}:{end}] on dim {shape[axis]}")
    shape[axis] = end - start
    return [(tuple(shape), descs[0].dtype)]


@_register(Op.RESHAPE)
def _reshape(node, descs):
    in_size = descs[0].size
    target = list(node.attrs["shape"])
    if target.count(-1) > 1:
        raise GraphError(f"{node.name!r}: at most one -1 in reshape target")
    if -1 in target:
        known = int(np.prod([d for d in target if d != -1])) or 1
        if in_size % known != 0:
            raise GraphError(f"{node.name!r}: cannot infer -1 for {target} from {in_size}")
        target[target.index(-1)] = in_size // known
    if int(np.prod(target)) != in_size:
        raise GraphError(f"{node.name!r}: reshape {target} incompatible with {in_size} elements")
    return [(tuple(int(d) for d in target), descs[0].dtype)]


@_register(Op.FLATTEN)
def _flatten(node, descs):
    shape = descs[0].shape
    axis = int(node.attrs["axis"]) % (len(shape) + 1)
    head = int(np.prod(shape[:axis])) or 1
    tail = int(np.prod(shape[axis:])) or 1
    return [((head, tail), descs[0].dtype)]


@_register(Op.PAD)
def _pad(node, descs):
    shape = list(descs[0].shape)
    pads = node.attrs["pads"]  # flat (before_0, after_0, before_1, after_1, ...)
    if len(pads) != 2 * len(shape):
        raise GraphError(f"{node.name!r}: pads length {len(pads)} != 2*rank")
    out = [shape[i] + pads[2 * i] + pads[2 * i + 1] for i in range(len(shape))]
    return [(tuple(out), descs[0].dtype)]


@_register(Op.RESIZE)
def _resize(node, descs):
    n, c, h, w = descs[0].shape
    sh, sw = node.attrs["scale"]
    return [((n, c, int(h * sh), int(w * sw)), descs[0].dtype)]


@_register(Op.REDUCE_MEAN)
def _reduce_mean(node, descs):
    shape = list(descs[0].shape)
    axes = [a % len(shape) for a in node.attrs["axes"]]
    if node.attrs["keepdims"]:
        out = [1 if i in axes else d for i, d in enumerate(shape)]
    else:
        out = [d for i, d in enumerate(shape) if i not in axes]
    return [(tuple(out or (1,)), descs[0].dtype)]


@_register(Op.SPLIT)
def _split(node, descs):
    shape = list(descs[0].shape)
    axis = int(node.attrs["axis"]) % len(shape)
    sizes = [int(s) for s in node.attrs["sizes"]]
    if sum(sizes) != shape[axis]:
        raise GraphError(
            f"{node.name!r}: split sizes {sizes} do not sum to dim {shape[axis]}"
        )
    if len(sizes) != len(node.outputs):
        raise GraphError(
            f"{node.name!r}: {len(sizes)} sizes but {len(node.outputs)} outputs"
        )
    results = []
    for size in sizes:
        out = list(shape)
        out[axis] = size
        results.append((tuple(out), descs[0].dtype))
    return results


@_register(Op.TRANSPOSE)
def _transpose(node, descs):
    shape = descs[0].shape
    perm = [p % len(shape) for p in node.attrs["perm"]]
    if sorted(perm) != list(range(len(shape))):
        raise GraphError(f"{node.name!r}: perm {perm} is not a permutation of rank {len(shape)}")
    return [(tuple(shape[p] for p in perm), descs[0].dtype)]


@_register(Op.GATHER)
def _gather(node, descs):
    data, indices = descs
    axis = int(node.attrs["axis"]) % data.rank
    out = data.shape[:axis] + indices.shape + data.shape[axis + 1 :]
    return [(out, data.dtype)]


@_register(Op.LAYER_NORM)
def _layer_norm(node, descs):
    x, gamma, beta = descs
    axis = int(node.attrs["axis"]) % x.rank
    if gamma.shape != (x.shape[axis],) or beta.shape != (x.shape[axis],):
        raise GraphError(
            f"{node.name!r}: gamma/beta must be ({x.shape[axis]},), "
            f"got {gamma.shape}/{beta.shape}"
        )
    return [(x.shape, x.dtype)]


_register(Op.GELU)(_same_shape)


@_register(Op.LSTM)
def _lstm(node, descs):
    x = descs[0]
    if x.rank != 3:
        raise GraphError(f"{node.name!r}: LSTM expects (N, T, features), got {x.shape}")
    n, t, features = x.shape
    hidden = int(node.attrs["hidden_size"])
    w_ih, w_hh = descs[1], descs[2]
    if w_ih.shape != (4 * hidden, features):
        raise GraphError(f"{node.name!r}: w_ih {w_ih.shape} != ({4 * hidden}, {features})")
    if w_hh.shape != (4 * hidden, hidden):
        raise GraphError(f"{node.name!r}: w_hh {w_hh.shape} != ({4 * hidden}, {hidden})")
    if node.attrs["return_sequences"]:
        return [((n, t, hidden), x.dtype)]
    return [((n, hidden), x.dtype)]


@_register(Op.ATTENTION)
def _attention(node, descs):
    q, k, v = descs[0], descs[1], descs[2]
    if q.rank != 4:
        raise GraphError(
            f"{node.name!r}: attention expects (N, H, Tq, dh) queries, got {q.shape}"
        )
    if k.shape != q.shape or v.shape != q.shape:
        raise GraphError(
            f"{node.name!r}: attention k/v must match q {q.shape}, "
            f"got {k.shape}/{v.shape}"
        )
    if len(descs) not in (3, 6):
        raise GraphError(
            f"{node.name!r}: attention takes (q, k, v) or "
            f"(q, k, v, lengths, k_cache, v_cache); got {len(descs)} inputs"
        )
    if len(descs) == 6:
        lengths, k_cache, v_cache = descs[3], descs[4], descs[5]
        if lengths.shape != (q.shape[0],):
            raise GraphError(
                f"{node.name!r}: lengths must be ({q.shape[0]},), got {lengths.shape}"
            )
        if not np.issubdtype(lengths.dtype.np_dtype, np.integer):
            raise GraphError(f"{node.name!r}: lengths must be integer-typed")
        expect = (q.shape[0], q.shape[1], k_cache.shape[2], q.shape[3])
        if k_cache.shape != expect or v_cache.shape != expect:
            raise GraphError(
                f"{node.name!r}: k/v cache must be (N, H, cap, dh) = {expect}, "
                f"got {k_cache.shape}/{v_cache.shape}"
            )
    return [(q.shape, q.dtype)]


def infer_node_outputs(graph: Graph, node: Node) -> List[Tuple[Shape, DataType]]:
    """Compute ``node``'s output ``(shape, dtype)`` pairs without mutating.

    This is the side-effect-free core of :func:`infer_node`; the graph
    linter uses it to re-derive shapes and cross-check the recorded
    descriptors.

    Raises:
        GraphError: if an input descriptor is missing, the op has no
            inference rule, or shapes mismatch.
    """
    if node.op_type == Op.INPUT:
        return []
    try:
        fn = _INFER[node.op_type]
    except KeyError:
        raise GraphError(f"no shape inference for op {node.op_type!r}") from None
    descs = []
    for inp in node.inputs:
        if inp not in graph.tensor_descs:
            raise GraphError(f"node {node.name!r}: input {inp!r} has no descriptor yet")
        descs.append(graph.tensor_descs[inp])
    results = fn(node, descs)
    if len(results) != len(node.outputs):
        raise GraphError(
            f"node {node.name!r}: inference produced {len(results)} shapes "
            f"for {len(node.outputs)} outputs"
        )
    return results


def infer_node(graph: Graph, node: Node) -> None:
    """Infer and record the output descriptors for a single node.

    Raises:
        GraphError: if an input descriptor is missing or shapes mismatch.
    """
    results = infer_node_outputs(graph, node)
    for out_name, (shape, dtype) in zip(node.outputs, results):
        existing = graph.tensor_descs.get(out_name)
        desc = TensorDesc(out_name, shape, dtype)
        if existing is not None and existing.shape != desc.shape:
            raise GraphError(
                f"tensor {out_name!r}: inferred {desc.shape} conflicts with {existing.shape}"
            )
        graph.tensor_descs[out_name] = desc


def infer_shapes(graph: Graph) -> Graph:
    """Run shape inference over the whole graph in topological order."""
    for node in graph.toposort():
        infer_node(graph, node)
    return graph
