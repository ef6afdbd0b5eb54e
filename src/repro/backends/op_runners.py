"""Shared operator dispatch: turn a graph node into a runnable closure.

Both the real CPU backend and the simulated GPU backends execute identical
NumPy numerics (so hybrid scheduling is numerically transparent, as in the
paper); they differ only in how time is accounted.  This module builds, for
one node, a ``runner(inputs) -> outputs`` closure with all static work done
up front:

* constants (weights) are bound at build time,
* padding is resolved from the static shapes (pre-inference!),
* Winograd kernels are pre-transformed (the "pre-computed constants" of
  Figure 2), depthwise taps are packed channels-last across the output
  width and BatchNorm's scale and shift are computed,
* GEMM-shaped weights are pre-reshaped — as views: no constant is ever
  copied or transposed, at build time or per run,
* average-pool divisors are computed from the static shapes,
* the bytes of kernel temporaries are sized from the static shapes.

The fp32 CNN runners (convolutions on every scheme, depthwise, BatchNorm,
ReLU/ReLU6, pooling and Concat) take ``out=`` and ``scratch=`` keywords:
a session binds them once per generation (:meth:`OpRunner.bind`) to the
output's planned arena slot and to its shared kernel scratch, so a run
writes into pre-allocated memory.  Unbound, they allocate as any kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from .. import kernels as K
from ..ir.graph import Graph, Node
from ..ir.ops import Op
from ..ir.shape_inference import resolve_padding
from .base import BackendError

__all__ = ["OpRunner", "build_runner"]

Runner = Callable[[Sequence[np.ndarray]], List[np.ndarray]]


@dataclass
class OpRunner:
    """A prepared operator closure.

    Attributes:
        node: the graph node this runner executes.
        dynamic_inputs: names of the non-constant inputs, in call order.
        fn: the closure; takes dynamic input arrays, returns output arrays.
        muls: multiply count under the *chosen scheme* (drives Eq. 5 cost).
    """

    node: Node
    dynamic_inputs: List[str]
    fn: Runner
    muls: int
    #: Bytes of kernel temporaries ``fn`` carves from a bound ``scratch``.
    scratch_bytes: int = 0

    @property
    def bindable(self) -> bool:
        """Whether ``fn`` can write its one output into a given array."""
        return "out" in (self.fn.__kwdefaults__ or ())

    def bind(self, out: Optional[np.ndarray], scratch: Optional[np.ndarray]) -> None:
        """Make ``out`` and ``scratch`` the defaults of ``fn``'s keywords.

        Every later call writes its output into ``out`` (``None``: a
        fresh array) and carves its temporaries from ``scratch``, exactly
        as weights are bound through ``fn``'s keyword defaults.
        """
        defaults = self.fn.__kwdefaults__
        defaults["out"] = out
        if "scratch" in defaults:
            defaults["scratch"] = scratch


def build_runner(node: Node, graph: Graph, scheme=None, use_strassen: bool = True) -> OpRunner:
    """Build the runnable closure for ``node``.

    Args:
        node: graph node.
        graph: owning graph (for constants and static shapes).
        scheme: optional conv :class:`~repro.core.schemes.SchemeDecision`.
        use_strassen: allow Strassen for large GEMMs.

    Raises:
        BackendError: if the op type has no runner.
    """
    constants = graph.constants
    dynamic = [name for name in node.inputs if name not in constants]
    const_arrays = {name: constants[name] for name in node.inputs if name in constants}
    attrs = node.attrs
    op = node.op_type

    def const_or_input(name: str, inputs: Sequence[np.ndarray]) -> np.ndarray:
        if name in const_arrays:
            return const_arrays[name]
        return inputs[dynamic.index(name)]

    from ..core.cost import node_muls

    muls = node_muls(node, graph)
    scratch_bytes = 0
    fn: Runner

    if op in (Op.CONV2D, Op.DEPTHWISE_CONV2D):
        x_desc = graph.desc(node.inputs[0])
        weights = const_arrays.get(node.inputs[1])
        bias = const_arrays.get(node.inputs[2]) if len(node.inputs) > 2 else None
        kernel = tuple(attrs["kernel"])
        stride = tuple(attrs["stride"])
        dilation = tuple(attrs["dilation"])
        groups = int(attrs["groups"])
        activation = attrs.get("activation")
        pads = resolve_padding(
            attrs["pad_mode"], attrs["pad"], x_desc.shape[2:], kernel, stride, dilation
        )
        if weights is None:
            raise BackendError(f"{node.name!r}: conv weights must be constant")
        if weights.dtype == np.int8:
            # Quantized path (converter-produced): int8 weights + scales.
            input_scale = attrs.get("input_scale")
            weight_scales = attrs.get("weight_scales")
            if input_scale is None or weight_scales is None:
                raise BackendError(
                    f"{node.name!r}: int8 weights need input_scale/weight_scales attrs"
                )
            scales = np.asarray(weight_scales, dtype=np.float32)
            packed = K.prepack_int8(weights, int(np.prod(weights.shape[1:])))

            def fn(inputs, *, _w=packed, _b=bias, _s=scales, _is=float(input_scale)):
                y = K.qconv2d(inputs[0], _w, _s, _is, _b, stride, pads, dilation, groups)
                return [K.apply_activation(y, activation)]

            return OpRunner(node=node, dynamic_inputs=dynamic, fn=fn, muls=muls)
        x_shape, x_dtype = x_desc.shape, x_desc.dtype.np_dtype
        y_dtype = np.result_type(x_dtype, weights.dtype)
        if op == Op.DEPTHWISE_CONV2D:
            scratch_bytes = K.workspace_bytes(
                K.depthwise_workspace(x_shape, kernel, stride, pads, dilation, y_dtype))

            # Taps repeated along the static output width: a resize
            # rebuilds the runner, so the packing always matches.
            ow = graph.desc(node.outputs[0]).shape[3]

            def fn(inputs, *, out=None, scratch=None,
                   _w=K.pack_depthwise_weights(weights, ow), _b=bias):
                y = K.depthwise_conv2d_packed(inputs[0], _w, _b, stride, pads, dilation,
                                              out, scratch)
                return [K.apply_activation(y, activation, out=y)]
        else:
            kind = getattr(scheme, "kind", None) or _default_conv_scheme(kernel, stride, dilation, groups)
            tile = getattr(scheme, "tile", (1, 1))
            if kind == "winograd":
                if stride != (1, 1) or dilation != (1, 1) or groups != 1:
                    raise BackendError(
                        f"{node.name!r}: Winograd needs stride 1, dilation 1, groups 1")
                # A k = 1 axis gets identity transforms; a k > 1 axis the
                # generator's memoized ones (the square case shares them).
                tr_h, tr_w = (K.axis_transforms(n, k) for n, k in zip(tile, kernel))
                packed = K.transform_kernel_rect(weights, tr_h, tr_w)
                scratch_bytes = K.workspace_bytes(K.winograd_workspace(
                    x_shape, weights.shape[0], tr_h, tr_w, pads, x_dtype))

                def fn(inputs, *, out=None, scratch=None, _p=packed, _h=tr_h, _tw=tr_w,
                       _b=bias):
                    y = K.winograd_conv2d_rect_with_kernel(inputs[0], _p, _h, _tw, _b, pads,
                                                           out, scratch)
                    return [K.apply_activation(y, activation, out=y)]
            elif kind == "gemm1x1":
                # A reshape view of the constant: the GEMM's W(oc, ic).
                def fn(inputs, *, out=None, _w=weights.reshape(weights.shape[0], -1), _b=bias):
                    y = K.conv2d_1x1(inputs[0], _w, _b, stride, use_strassen, pads=pads,
                                     out=out)
                    return [K.apply_activation(y, activation, out=y)]
            elif kind == "sliding":
                scratch_bytes = K.workspace_bytes(K.im2col_workspace(
                    x_shape, weights.shape, stride, pads, dilation, groups, y_dtype))

                def fn(inputs, *, out=None, scratch=None, _w=weights, _b=bias):
                    y = K.conv2d_im2col(inputs[0], _w, _b, stride, pads, dilation, groups,
                                        out=out, scratch=scratch)
                    return [K.apply_activation(y, activation, out=y)]
            else:
                raise BackendError(f"{node.name!r}: unknown conv scheme {kind!r}")
            muls = node_muls(node, graph, kind, tile)

    elif op == Op.CONV_TRANSPOSE2D:
        x_desc = graph.desc(node.inputs[0])
        weights = const_arrays[node.inputs[1]]
        bias = const_arrays.get(node.inputs[2]) if len(node.inputs) > 2 else None
        stride = tuple(attrs["stride"])
        pads = resolve_padding(
            attrs["pad_mode"], attrs["pad"], x_desc.shape[2:],
            tuple(attrs["kernel"]), stride, tuple(attrs["dilation"]),
        )
        out_pad = tuple(attrs.get("output_padding", (0, 0)))

        def fn(inputs, *, _w=weights, _b=bias):
            return [K.conv_transpose2d(inputs[0], _w, _b, stride, pads, out_pad)]

    elif op == Op.MATMUL:
        ta, tb = attrs["transpose_a"], attrs["transpose_b"]
        rowwise = bool(attrs.get("rowwise", False))
        w = const_arrays.get(node.inputs[1]) if len(node.inputs) > 1 else None
        if w is not None and w.dtype == np.int8:
            # Quantized path: int8 weights + per-output-channel scales,
            # validated here once; activations quantize dynamically per
            # row inside qmatmul_prepacked, which checks nothing per call.
            # Exact integer accumulation makes the batched kernel bitwise
            # token-invariant, so the rowwise contract needs no row loop.
            weight_scales = attrs.get("weight_scales")
            if weight_scales is None:
                raise BackendError(
                    f"{node.name!r}: int8 MatMul weights need weight_scales "
                    "(run repro.quant.quantize_graph to attach them)"
                )
            wq = w.T if tb else w
            scales = np.asarray(weight_scales, dtype=np.float32)
            if scales.shape != (wq.shape[1],):
                raise BackendError(
                    f"{node.name!r}: {scales.shape[0]} weight_scales for "
                    f"{wq.shape[1]} output channels"
                )

            def fn(inputs, *, _wq=K.prepack_int8(wq, wq.shape[0]), _s=scales):
                a = const_or_input(node.inputs[0], inputs)
                a = np.swapaxes(a, -1, -2) if ta else a
                return [K.qmatmul_prepacked(a, _wq, _s)]

            return OpRunner(node=node, dynamic_inputs=dynamic, fn=fn, muls=muls)

        def fn(inputs):
            a = const_or_input(node.inputs[0], inputs)
            b = const_or_input(node.inputs[1], inputs)
            a = np.swapaxes(a, -1, -2) if ta else a
            b = np.swapaxes(b, -1, -2) if tb else b
            if rowwise:
                return [_rowwise_matmul(node, a, b)]
            if a.ndim == 2 and b.ndim == 2:
                return [K.matmul(np.ascontiguousarray(a), np.ascontiguousarray(b),
                                 use_strassen=use_strassen)]
            return [a @ b]

    elif op == Op.FULLY_CONNECTED:
        weights = const_arrays[node.inputs[1]]
        bias = const_arrays.get(node.inputs[2]) if len(node.inputs) > 2 else None
        if weights.dtype == np.int8:
            input_scale = attrs.get("input_scale")
            weight_scales = attrs.get("weight_scales")
            if input_scale is None or weight_scales is None:
                raise BackendError(
                    f"{node.name!r}: int8 FC weights need input_scale/weight_scales"
                )
            scales = np.asarray(weight_scales, dtype=np.float32)

            def fn(inputs, *, _w=K.prepack_int8(weights.T, weights.shape[1]), _b=bias,
                   _s=scales, _is=float(input_scale)):
                x = inputs[0].reshape(inputs[0].shape[0], -1)
                out = K.exact_int_gemm(K.quantize_float(x, _is), _w).astype(np.float32, copy=False)
                out *= _is * _s
                if _b is not None:
                    out += _b
                return [out]
        else:
            def fn(inputs, *, _w=weights, _b=bias):
                return [K.fully_connected(inputs[0], _w, _b)]

    elif op == Op.BATCH_NORM:
        gamma, beta, mean, var = (const_arrays[name] for name in node.inputs[1:5])
        eps = float(attrs["epsilon"])
        # K.batch_norm's scale and shift, bound once: y = x * inv + shift.
        shape = (1, -1) + (1,) * (len(graph.desc(node.inputs[0]).shape) - 2)
        inv = gamma.reshape(shape) / np.sqrt(var.reshape(shape) + eps)
        shift = beta.reshape(shape) - mean.reshape(shape) * inv

        def fn(inputs, *, out=None, _inv=inv, _shift=shift):
            y = np.multiply(inputs[0], _inv, out=out)
            y += _shift
            return [y]

    elif op == Op.PRELU:
        slope = const_arrays[node.inputs[1]]

        def fn(inputs):
            return [K.prelu(inputs[0], slope)]

    elif op in (Op.RELU, Op.RELU6):
        def fn(inputs, *, out=None, _u=K.relu if op == Op.RELU else K.relu6):
            return [_u(inputs[0], out)]

    elif op in (Op.SIGMOID, Op.TANH, Op.GLOBAL_AVG_POOL, Op.DROPOUT, Op.IDENTITY):
        unary = {
            Op.SIGMOID: K.sigmoid,
            Op.TANH: K.tanh,
            Op.GLOBAL_AVG_POOL: K.global_avg_pool2d,
            Op.DROPOUT: lambda x: x,  # inference mode: identity
            Op.IDENTITY: lambda x: x,
        }[op]

        def fn(inputs, *, _u=unary):
            return [_u(inputs[0])]

    elif op == Op.SOFTMAX:
        axis = int(attrs["axis"])

        def fn(inputs):
            return [K.softmax(inputs[0], axis)]

    elif op in (Op.MAX_POOL, Op.AVG_POOL):
        x_desc = graph.desc(node.inputs[0])
        out_desc = graph.desc(node.outputs[0])
        kernel = tuple(attrs["kernel"])
        stride = tuple(attrs["stride"])
        pads = resolve_padding(attrs["pad_mode"], attrs["pad"], x_desc.shape[2:], kernel, stride)
        out_hw = out_desc.shape[2:]
        scratch_bytes = K.workspace_bytes(K.pool_workspace(
            x_desc.shape, kernel, stride, pads, out_hw, x_desc.dtype.np_dtype))
        if op == Op.MAX_POOL:
            def fn(inputs, *, out=None, scratch=None):
                return [K.max_pool2d(inputs[0], kernel, stride, pads, out_hw, out, scratch)]
        else:
            include_pad = bool(attrs["count_include_pad"])
            counts = None if include_pad else K.pool_counts(
                x_desc.shape[2:], kernel, stride, pads, out_hw, x_desc.dtype.np_dtype
            )

            def fn(inputs, *, out=None, scratch=None):
                return [K.avg_pool2d(inputs[0], kernel, stride, pads, out_hw, include_pad,
                                     counts, out, scratch)]

    elif op in (Op.ADD, Op.SUB, Op.MUL, Op.ELTWISE_MAX):
        binary = {Op.ADD: K.add, Op.SUB: K.sub, Op.MUL: K.mul, Op.ELTWISE_MAX: K.eltwise_max}[op]

        def fn(inputs, *, _b=binary):
            a = const_or_input(node.inputs[0], inputs)
            b = const_or_input(node.inputs[1], inputs)
            return [_b(a, b)]

    elif op == Op.CONCAT:
        axis = int(attrs["axis"])

        def fn(inputs, *, out=None):
            arrays = [const_or_input(name, inputs) for name in node.inputs]
            return [np.concatenate(arrays, axis=axis, out=out)]

    elif op == Op.SLICE:
        axis = int(attrs["axis"])
        start, end = int(attrs["start"]), int(attrs["end"])

        def fn(inputs):
            index = [slice(None)] * inputs[0].ndim
            index[axis] = slice(start, end)
            return [inputs[0][tuple(index)]]

    elif op == Op.RESHAPE:
        out_shape = graph.desc(node.outputs[0]).shape

        def fn(inputs):
            return [inputs[0].reshape(out_shape)]

    elif op == Op.FLATTEN:
        out_shape = graph.desc(node.outputs[0]).shape

        def fn(inputs):
            return [inputs[0].reshape(out_shape)]

    elif op == Op.PAD:
        pads = tuple(attrs["pads"])
        value = float(attrs["value"])

        def fn(inputs):
            return [K.pad_nd(inputs[0], pads, value)]

    elif op == Op.RESIZE:
        scale = tuple(attrs["scale"])
        mode = attrs["mode"]

        def fn(inputs):
            return [K.resize2d(inputs[0], scale, mode)]

    elif op == Op.REDUCE_MEAN:
        axes = tuple(attrs["axes"])
        keepdims = bool(attrs["keepdims"])

        def fn(inputs):
            return [K.reduce_mean(inputs[0], axes, keepdims)]

    elif op == Op.SCALE:
        weight = const_arrays[node.inputs[1]]
        bias = const_arrays.get(node.inputs[2]) if len(node.inputs) > 2 else None

        def fn(inputs):
            return [K.scale(inputs[0], weight, bias)]

    elif op == Op.QUANTIZE:
        scale_v = float(attrs["scale"])
        zero = int(attrs["zero_point"])

        def fn(inputs):
            q = np.round(inputs[0] / scale_v) + zero
            return [np.clip(q, -128, 127).astype(np.int8)]

    elif op == Op.DEQUANTIZE:
        scale_v = float(attrs["scale"])
        zero = int(attrs["zero_point"])

        def fn(inputs):
            return [(inputs[0].astype(np.float32) - zero) * scale_v]

    elif op == Op.SPLIT:
        axis = int(attrs["axis"])
        sizes = [int(s) for s in attrs["sizes"]]
        boundaries = np.cumsum(sizes)[:-1]

        def fn(inputs):
            return [np.ascontiguousarray(part)
                    for part in np.split(inputs[0], boundaries, axis=axis)]

    elif op == Op.TRANSPOSE:
        perm = tuple(attrs["perm"])

        def fn(inputs):
            return [np.ascontiguousarray(inputs[0].transpose(perm))]

    elif op == Op.GATHER:
        axis = int(attrs["axis"])

        def fn(inputs):
            data = const_or_input(node.inputs[0], inputs)
            indices = const_or_input(node.inputs[1], inputs)
            return [np.take(data, indices.astype(np.int64), axis=axis)]

    elif op == Op.LAYER_NORM:
        # Normalized axis, broadcast-shaped affine parameters and the
        # reduce count are all static: bind them here, not per call.
        x_shape = graph.desc(node.inputs[0]).shape
        axis = int(attrs["axis"]) % len(x_shape)
        shape = [1] * len(x_shape)
        shape[axis] = x_shape[axis]
        gamma = const_arrays[node.inputs[1]].reshape(shape)
        beta = const_arrays[node.inputs[2]].reshape(shape)
        count = np.intp(x_shape[axis])
        eps = float(attrs["epsilon"])

        def fn(inputs):
            return [K.layer_norm_bound(inputs[0], gamma, beta, axis, count, eps)]

    elif op == Op.GELU:
        def fn(inputs):
            return [K.gelu(inputs[0])]

    elif op == Op.ATTENTION:
        causal = bool(attrs["causal"])
        scale = attrs["scale"]
        has_cache = len(node.inputs) > 3

        def fn(inputs):
            q = const_or_input(node.inputs[0], inputs)
            k = const_or_input(node.inputs[1], inputs)
            v = const_or_input(node.inputs[2], inputs)
            lengths = k_cache = v_cache = None
            if has_cache:
                lengths = const_or_input(node.inputs[3], inputs)
                k_cache = const_or_input(node.inputs[4], inputs)
                v_cache = const_or_input(node.inputs[5], inputs)
            return [K.attention(q, k, v, lengths, k_cache, v_cache,
                                causal=causal, scale=scale)]

    elif op == Op.LSTM:
        w_ih = const_arrays[node.inputs[1]]
        w_hh = const_arrays[node.inputs[2]]
        bias = const_arrays.get(node.inputs[3]) if len(node.inputs) > 3 else None
        return_sequences = bool(attrs["return_sequences"])

        def fn(inputs):
            return [K.lstm_forward(inputs[0], w_ih, w_hh, bias, return_sequences)]

    else:
        raise BackendError(f"no runner for operator {op!r}")

    return OpRunner(node=node, dynamic_inputs=dynamic, fn=fn, muls=muls,
                    scratch_bytes=scratch_bytes)


def _rowwise_matmul(node: Node, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Token-invariant matmul: one GEMV per output row, in one call.

    BLAS GEMM picks different kernels (and summation orders) for different
    ``M``, so ``(A @ B)[t]`` is not bitwise equal to ``A[t:t+1] @ B`` in
    general.  Decode-step pre-inference needs exactly that equality, so a
    ``rowwise`` MatMul stacks the rows as ``(M, 1, K)`` items: NumPy's
    stacked matmul issues one ``(1, K) @ (K, N)`` GEMV per item — the same
    BLAS call for row ``i`` whether the activation carries 1 token or the
    whole sequence, and the same call a Python loop over rows would make.
    """
    if b.ndim != 2:
        raise BackendError(
            f"{node.name!r}: rowwise matmul requires a 2-D rhs, got {b.shape}"
        )
    rows = np.ascontiguousarray(a.reshape(-1, a.shape[-1]))
    return np.matmul(rows[:, None, :], b).reshape(*a.shape[:-1], b.shape[1])


def _default_conv_scheme(kernel, stride, dilation, groups) -> str:
    """Fallback scheme when pre-inference did not pick one."""
    if kernel == (1, 1) and dilation == (1, 1) and groups == 1:
        return "gemm1x1"
    return "sliding"
