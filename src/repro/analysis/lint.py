"""Graph linter: static rules over the IR producing structured diagnostics.

The paper's pre-inference pipeline (Section 3.2) assumes every static fact
about a graph — shapes, dtypes, attribute domains — is consistent
before the first run.  This linter *checks* those facts.  Each rule is a
small function registered under a stable rule id; :func:`lint_graph` runs
them all (or a chosen subset) and returns :class:`Diagnostic` records.

Rules
=====

========================  ========  ==================================================
rule id                   severity  checks
========================  ========  ==================================================
``dangling-input``        error     node reads a tensor nobody defines
``unproduced-output``     error     graph output is never produced
``double-producer``       error     tensor written by two nodes
``duplicate-node-name``   error     two nodes share a name
``output-shadowing``      error     node output shadows a graph input / constant
``cycle``                 error     graph is not a DAG
``shape-mismatch``        error     recorded descriptors disagree with re-inference
``dtype-mismatch``        error     edge dtypes inconsistent (binary ops, concat)
``attr-domain``           error     attribute outside its domain (stride < 1, ...)
``quant-boundary``        error     int8 tensor feeds a float-only op, and friends
``dead-node``             warning   node cannot reach any graph output
``unused-constant``       warning   constant consumed by nothing
``Q001``                  error     scale attr non-numeric, non-finite or <= 0
``Q002``                  error     zero-point outside int8 (warning if merely != 0)
``Q003``                  error     int8 weights with missing or mismatched scales
========================  ========  ==================================================

Usage::

    from repro.analysis import lint_graph, has_errors
    diags = lint_graph(graph)
    if has_errors(diags):
        ...
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from ..ir.graph import Graph, GraphError, Node, toposort
from ..ir.ops import Op, get_schema
from ..ir.shape_inference import infer_node_outputs
from ..ir.tensor import DataType, TensorDesc
from .diagnostics import Diagnostic, Severity, error, sort_diagnostics, warning

__all__ = [
    "LintRule", "LintContext", "STRUCTURAL_RULES", "lint_graph", "all_rules", "rule",
]


class LintContext:
    """Precomputed graph facts shared by every rule.

    Tolerant by construction: double producers, missing descriptors and
    cycles do not stop context building — the corresponding rules report
    them instead.
    """

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        #: first-writer-wins producer map (double producers are diagnosed
        #: by the ``double-producer`` rule, not here).
        self.producers: Dict[str, Node] = {}
        for node in graph.nodes:
            for out in node.outputs:
                self.producers.setdefault(out, node)
        self.consumers = graph.consumer_map()
        self.available = set(graph.inputs) | set(graph.constants)
        #: execution order over that map; nodes on a cycle are left out
        #: (the ``cycle`` rule compares lengths).
        self.order = toposort(graph.nodes, self.producers)

    def desc(self, tensor: str) -> Optional[TensorDesc]:
        return self.graph.tensor_descs.get(tensor)


RuleFn = Callable[[LintContext], Iterator[Diagnostic]]


@dataclass(frozen=True)
class LintRule:
    """A registered lint rule: stable id, description, checker function."""

    rule_id: str
    description: str
    fn: RuleFn


_RULES: Dict[str, LintRule] = {}


def rule(rule_id: str, description: str) -> Callable[[RuleFn], RuleFn]:
    """Register a lint rule under ``rule_id`` (decorator)."""

    def deco(fn: RuleFn) -> RuleFn:
        if rule_id in _RULES:
            raise ValueError(f"lint rule {rule_id!r} already registered")
        _RULES[rule_id] = LintRule(rule_id, description, fn)
        return fn

    return deco


def all_rules() -> Tuple[LintRule, ...]:
    """All registered rules, sorted by id."""
    return tuple(_RULES[k] for k in sorted(_RULES))


# ---------------------------------------------------------------------------
# Structural rules.  The five in STRUCTURAL_RULES are the only code that
# checks these invariants: Graph.check/validate run exactly them (every
# Session prepare, load_model, frontend and optimizer pass), and a full
# lint runs them with the rest, so the linter is a one-stop report even on
# structurally broken graphs.
# ---------------------------------------------------------------------------

#: The rule ids :meth:`repro.ir.Graph.check` runs.
STRUCTURAL_RULES: Tuple[str, ...] = (
    "dangling-input", "unproduced-output", "double-producer",
    "duplicate-node-name", "cycle",
)


@rule("dangling-input", "node reads a tensor nobody defines")
def _dangling_input(ctx: LintContext) -> Iterator[Diagnostic]:
    for node in ctx.graph.nodes:
        for inp in node.inputs:
            if inp not in ctx.producers and inp not in ctx.available:
                yield error(
                    "dangling-input",
                    f"reads undefined tensor {inp!r}",
                    node=node.name, tensor=inp,
                )


@rule("unproduced-output", "graph output is never produced")
def _unproduced_output(ctx: LintContext) -> Iterator[Diagnostic]:
    for tensor in ctx.graph.outputs:
        if tensor not in ctx.producers and tensor not in ctx.available:
            yield error(
                "unproduced-output",
                f"graph output {tensor!r} is never produced",
                tensor=tensor,
            )


@rule("double-producer", "tensor written by two nodes")
def _double_producer(ctx: LintContext) -> Iterator[Diagnostic]:
    for node in ctx.graph.nodes:
        for out in node.outputs:
            first = ctx.producers.get(out)
            if first is not None and first is not node:
                yield error(
                    "double-producer",
                    f"tensor {out!r} produced by two nodes ({first.name!r} and {node.name!r})",
                    node=node.name, tensor=out,
                    hint="rename one of the outputs",
                )


@rule("duplicate-node-name", "two nodes share a name")
def _duplicate_node_name(ctx: LintContext) -> Iterator[Diagnostic]:
    seen: Dict[str, Node] = {}
    for node in ctx.graph.nodes:
        if node.name in seen and seen[node.name] is not node:
            yield error(
                "duplicate-node-name",
                f"node name {node.name!r} used by two nodes "
                f"({seen[node.name].op_type} and {node.op_type})",
                node=node.name,
            )
        else:
            seen[node.name] = node


@rule("output-shadowing", "node output shadows a graph input or constant")
def _output_shadowing(ctx: LintContext) -> Iterator[Diagnostic]:
    graph = ctx.graph
    for node in graph.nodes:
        for out in node.outputs:
            if out in graph.inputs:
                yield error(
                    "output-shadowing",
                    f"output {out!r} shadows a graph input",
                    node=node.name, tensor=out,
                    hint="rename the node output",
                )
            elif out in graph.constants:
                yield error(
                    "output-shadowing",
                    f"output {out!r} shadows a constant",
                    node=node.name, tensor=out,
                    hint="rename the node output",
                )


@rule("cycle", "graph is not a DAG")
def _cycle(ctx: LintContext) -> Iterator[Diagnostic]:
    if len(ctx.order) != len(ctx.graph.nodes):
        ordered = {id(n) for n in ctx.order}
        stuck = [n.name for n in ctx.graph.nodes if id(n) not in ordered]
        yield error(
            "cycle",
            f"graph contains a cycle through {len(stuck)} node(s): "
            + ", ".join(repr(s) for s in stuck[:5])
            + ("..." if len(stuck) > 5 else ""),
        )


# ---------------------------------------------------------------------------
# Reachability rules.
# ---------------------------------------------------------------------------

@rule("dead-node", "node cannot reach any graph output")
def _dead_node(ctx: LintContext) -> Iterator[Diagnostic]:
    graph = ctx.graph
    if not graph.outputs:
        return
    live: set = set()
    frontier = deque(t for t in graph.outputs)
    seen_tensors = set(frontier)
    while frontier:
        tensor = frontier.popleft()
        node = ctx.producers.get(tensor)
        if node is None or id(node) in live:
            continue
        live.add(id(node))
        for inp in node.inputs:
            if inp not in seen_tensors:
                seen_tensors.add(inp)
                frontier.append(inp)
    for node in graph.nodes:
        if id(node) not in live:
            yield warning(
                "dead-node",
                f"{node.op_type} node does not contribute to any graph output",
                node=node.name,
                hint="remove it or mark one of its outputs as a graph output",
            )


@rule("unused-constant", "constant consumed by nothing")
def _unused_constant(ctx: LintContext) -> Iterator[Diagnostic]:
    graph = ctx.graph
    for name in graph.constants:
        if name not in ctx.consumers and name not in graph.outputs:
            yield warning(
                "unused-constant",
                f"constant {name!r} ({graph.constants[name].nbytes} bytes) is never used",
                tensor=name,
                hint="drop it to shrink the model file",
            )


# ---------------------------------------------------------------------------
# Descriptor consistency rules.
# ---------------------------------------------------------------------------

@rule("shape-mismatch", "recorded descriptors disagree with re-inference")
def _shape_mismatch(ctx: LintContext) -> Iterator[Diagnostic]:
    graph = ctx.graph
    for node in ctx.order:
        if node.op_type in (Op.INPUT, Op.CONSTANT):
            continue
        try:
            results = infer_node_outputs(graph, node)
        except GraphError as exc:
            yield error("shape-mismatch", str(exc), node=node.name)
            continue
        except Exception as exc:  # malformed attrs can break inference math
            yield error(
                "shape-mismatch",
                f"shape inference crashed: {exc}",
                node=node.name,
            )
            continue
        for out, (shape, dtype) in zip(node.outputs, results):
            recorded = ctx.desc(out)
            if recorded is None:
                continue
            if recorded.shape != tuple(shape):
                yield error(
                    "shape-mismatch",
                    f"descriptor for {out!r} records shape {recorded.shape} "
                    f"but inference derives {tuple(shape)}",
                    node=node.name, tensor=out,
                    hint="re-run infer_shapes after mutating the graph",
                )
            elif recorded.dtype is not dtype:
                yield error(
                    "shape-mismatch",
                    f"descriptor for {out!r} records dtype {recorded.dtype.value} "
                    f"but inference derives {dtype.value}",
                    node=node.name, tensor=out,
                )


_BINARY_OPS = (Op.ADD, Op.SUB, Op.MUL, Op.ELTWISE_MAX)


@rule("dtype-mismatch", "edge dtypes inconsistent across an op")
def _dtype_mismatch(ctx: LintContext) -> Iterator[Diagnostic]:
    for node in ctx.graph.nodes:
        if node.op_type not in _BINARY_OPS and node.op_type != Op.CONCAT:
            continue
        descs = [(inp, ctx.desc(inp)) for inp in node.inputs]
        known = [(inp, d) for inp, d in descs if d is not None]
        if len(known) < 2:
            continue
        base_name, base = known[0]
        for inp, d in known[1:]:
            if d.dtype is not base.dtype:
                yield error(
                    "dtype-mismatch",
                    f"inputs {base_name!r} ({base.dtype.value}) and "
                    f"{inp!r} ({d.dtype.value}) have different dtypes",
                    node=node.name, tensor=inp,
                    hint="insert a cast/Dequantize so both sides agree",
                )
                break


# ---------------------------------------------------------------------------
# Attribute-domain rules (beyond schema __post_init__, which only checks
# attribute *names* and arity).
# ---------------------------------------------------------------------------

def _check_pair(node: Node, attr: str, minimum: int) -> Iterator[Diagnostic]:
    value = node.attrs.get(attr)
    if value is None:
        return
    pair = value if isinstance(value, (tuple, list)) else (value, value)
    if any(int(v) < minimum for v in pair):
        yield error(
            "attr-domain",
            f"{attr}={tuple(pair)} must be >= {minimum} in every component",
            node=node.name,
            hint=f"set {attr} to positive integers",
        )


@rule("attr-domain", "attribute value outside its legal domain")
def _attr_domain(ctx: LintContext) -> Iterator[Diagnostic]:
    for node in ctx.graph.nodes:
        attrs = node.attrs
        if node.op_type in (Op.CONV2D, Op.DEPTHWISE_CONV2D, Op.CONV_TRANSPOSE2D,
                            Op.MAX_POOL, Op.AVG_POOL):
            yield from _check_pair(node, "kernel", 1)
            yield from _check_pair(node, "stride", 1)
            yield from _check_pair(node, "dilation", 1)
            pad = attrs.get("pad") or ()
            if any(int(p) < 0 for p in pad):
                yield error(
                    "attr-domain",
                    f"pad={tuple(pad)} has negative entries",
                    node=node.name,
                )
        if node.op_type in (Op.CONV2D, Op.CONV_TRANSPOSE2D):
            groups = int(attrs.get("groups", 1))
            if groups < 1:
                yield error("attr-domain", f"groups={groups} must be >= 1", node=node.name)
            else:
                d = ctx.desc(node.inputs[0]) if node.inputs else None
                if d is not None and d.rank == 4 and d.shape[1] % groups != 0:
                    yield error(
                        "attr-domain",
                        f"groups={groups} does not divide input channels {d.shape[1]}",
                        node=node.name,
                        hint="pick a group count dividing the channel dim",
                    )
        if node.op_type == Op.SPLIT:
            sizes = attrs.get("sizes") or ()
            if any(int(s) < 1 for s in sizes):
                yield error(
                    "attr-domain",
                    f"split sizes {tuple(sizes)} must all be >= 1",
                    node=node.name,
                )
        if node.op_type == Op.DROPOUT:
            ratio = float(attrs.get("ratio", 0.5))
            if not (0.0 <= ratio < 1.0):
                yield error(
                    "attr-domain",
                    f"dropout ratio {ratio} outside [0, 1)",
                    node=node.name,
                )
        if node.op_type == Op.RESIZE:
            scale = attrs.get("scale") or ()
            if any(float(s) <= 0 for s in scale):
                yield error(
                    "attr-domain",
                    f"resize scale {tuple(scale)} must be positive",
                    node=node.name,
                )
        if node.op_type in (Op.SOFTMAX, Op.FLATTEN, Op.CONCAT):
            d = ctx.desc(node.inputs[0]) if node.inputs else None
            if d is not None:
                axis = int(attrs.get("axis", 1))
                limit = d.rank + (1 if node.op_type == Op.FLATTEN else 0)
                if not (-d.rank <= axis < max(limit, 1)):
                    yield error(
                        "attr-domain",
                        f"axis={axis} outside rank-{d.rank} input",
                        node=node.name,
                    )


# ---------------------------------------------------------------------------
# Quantization-boundary rules.
# ---------------------------------------------------------------------------

#: ops with no int8 kernel path in this engine — an int8 activation
#: reaching one of these is a miscompile, not a slowdown.
_FLOAT_ONLY_OPS = (
    Op.SOFTMAX, Op.SIGMOID, Op.TANH, Op.GELU, Op.LAYER_NORM, Op.LSTM,
    Op.BATCH_NORM,
)

_QUANT_DTYPES = (DataType.INT8, DataType.UINT8)


@rule("quant-boundary", "int8/float boundary violations")
def _quant_boundary(ctx: LintContext) -> Iterator[Diagnostic]:
    graph = ctx.graph
    for node in graph.nodes:
        if node.op_type in _FLOAT_ONLY_OPS:
            d = ctx.desc(node.inputs[0]) if node.inputs else None
            if d is not None and d.dtype in _QUANT_DTYPES:
                yield error(
                    "quant-boundary",
                    f"{d.dtype.value} tensor {node.inputs[0]!r} feeds "
                    f"float-only op {node.op_type}",
                    node=node.name, tensor=node.inputs[0],
                    hint="insert a Dequantize before this op",
                )
        if node.op_type in (Op.CONV2D, Op.FULLY_CONNECTED):
            # int8 weights are only valid with calibration scales attached.
            if len(node.inputs) > 1:
                w = graph.constants.get(node.inputs[1])
                if w is not None and w.dtype.name == "int8" and \
                        node.attrs.get("input_scale") is None:
                    yield error(
                        "quant-boundary",
                        f"int8 weights {node.inputs[1]!r} without input_scale "
                        "(quantized weights need calibration scales)",
                        node=node.name, tensor=node.inputs[1],
                        hint="run repro.quant.quantize_graph with calibration feeds",
                    )
            d = ctx.desc(node.inputs[0]) if node.inputs else None
            if d is not None and d.dtype in _QUANT_DTYPES:
                yield error(
                    "quant-boundary",
                    f"{d.dtype.value} activation {node.inputs[0]!r} feeds "
                    f"{node.op_type} (this engine quantizes weights, not activations)",
                    node=node.name, tensor=node.inputs[0],
                    hint="insert a Dequantize before this op",
                )
        if node.op_type == Op.QUANTIZE:
            d = ctx.desc(node.inputs[0]) if node.inputs else None
            if d is not None and d.dtype in _QUANT_DTYPES:
                yield warning(
                    "quant-boundary",
                    f"Quantize applied to already-quantized tensor {node.inputs[0]!r}",
                    node=node.name, tensor=node.inputs[0],
                )
        if node.op_type == Op.DEQUANTIZE:
            d = ctx.desc(node.inputs[0]) if node.inputs else None
            if d is not None and d.dtype not in _QUANT_DTYPES:
                yield warning(
                    "quant-boundary",
                    f"Dequantize applied to {d.dtype.value} tensor {node.inputs[0]!r}",
                    node=node.name, tensor=node.inputs[0],
                )


# ---------------------------------------------------------------------------
# Quantization-metadata rules (Q0xx): the scale attrs stamped by
# repro.quant.quantize_graph are load-bearing numerics — a corrupt or
# missing scale is a silent miscompile, so these land as typed
# diagnostics instead of downstream garbage.
# ---------------------------------------------------------------------------

def _scale_values(raw) -> List[float]:
    """Flatten a scale attr (scalar or sequence) to a float list.

    Raises ``(TypeError, ValueError)`` on non-numeric junk — callers
    diagnose that as its own finding.
    """
    if isinstance(raw, (list, tuple)):
        return [float(v) for v in raw]
    return [float(raw)]


@rule("Q001", "quantization scale overflow / degenerate scale")
def _q001_scale_overflow(ctx: LintContext) -> Iterator[Diagnostic]:
    for node in ctx.graph.nodes:
        for attr in ("scale", "input_scale", "weight_scales"):
            raw = node.attrs.get(attr)
            if raw is None:
                continue
            try:
                values = _scale_values(raw)
            except (TypeError, ValueError):
                yield error(
                    "Q001",
                    f"attr {attr!r} is not numeric: {raw!r}",
                    node=node.name,
                    hint="scale metadata was corrupted; re-run quantization",
                )
                continue
            for i, v in enumerate(values):
                if not math.isfinite(v):
                    yield error(
                        "Q001",
                        f"attr {attr!r}[{i}] is non-finite ({v!r}) — "
                        f"dequantization would overflow every element",
                        node=node.name,
                    )
                elif v <= 0.0:
                    yield error(
                        "Q001",
                        f"attr {attr!r}[{i}] is {v!r}; symmetric scales must "
                        f"be positive (zero collapses the channel, negative "
                        f"flips its sign)",
                        node=node.name,
                    )


@rule("Q002", "zero-point outside int8 range / asymmetric zero-point")
def _q002_zero_point(ctx: LintContext) -> Iterator[Diagnostic]:
    for node in ctx.graph.nodes:
        if node.op_type not in (Op.QUANTIZE, Op.DEQUANTIZE):
            continue
        raw = node.attrs.get("zero_point")
        if raw is None:
            continue
        try:
            zp = int(raw)
        except (TypeError, ValueError):
            yield error(
                "Q002",
                f"zero_point is not an integer: {raw!r}",
                node=node.name,
            )
            continue
        if not -128 <= zp <= 127:
            yield error(
                "Q002",
                f"zero_point {zp} outside the int8 range [-128, 127]",
                node=node.name,
            )
        elif zp != 0:
            yield warning(
                "Q002",
                f"zero_point {zp} != 0: this engine's kernels are symmetric "
                f"(zero-point 0) and will ignore the offset",
                node=node.name,
            )


#: GEMM-family ops whose int8 weights carry per-output-channel scales.
_SCALED_WEIGHT_OPS = (Op.MATMUL, Op.CONV2D, Op.FULLY_CONNECTED)


@rule("Q003", "int8 weights with missing or mismatched scale metadata")
def _q003_weight_scales(ctx: LintContext) -> Iterator[Diagnostic]:
    graph = ctx.graph
    for node in graph.nodes:
        if node.op_type not in _SCALED_WEIGHT_OPS or len(node.inputs) < 2:
            continue
        w = graph.constants.get(node.inputs[1])
        if w is None or w.dtype.name != "int8":
            continue
        raw = node.attrs.get("weight_scales")
        if raw is None:
            yield error(
                "Q003",
                f"int8 weights {node.inputs[1]!r} without weight_scales "
                f"(the int8 kernels cannot dequantize the accumulator)",
                node=node.name, tensor=node.inputs[1],
                hint="run repro.quant.quantize_graph to attach per-channel scales",
            )
            continue
        if node.op_type == Op.MATMUL:
            if w.ndim != 2:
                continue  # shape rules own this
            out_axis = 0 if node.attrs.get("transpose_b") else 1
            oc = w.shape[out_axis]
        else:
            oc = w.shape[0]
        try:
            count = len(_scale_values(raw))
        except (TypeError, ValueError):
            continue  # Q001 owns non-numeric junk
        if count != oc:
            yield error(
                "Q003",
                f"weight_scales has {count} entries but {node.inputs[1]!r} "
                f"has {oc} output channels",
                node=node.name, tensor=node.inputs[1],
                hint="per-channel scales must match the output-channel axis",
            )


# ---------------------------------------------------------------------------
# Driver.
# ---------------------------------------------------------------------------

def lint_graph(
    graph: Graph,
    rules: Optional[Iterable[str]] = None,
) -> List[Diagnostic]:
    """Run lint rules over ``graph`` and return sorted diagnostics.

    Args:
        graph: the graph to check (shape inference need not have run; rules
            degrade gracefully when descriptors are missing).
        rules: optional subset of rule ids to run (default: all).

    Returns:
        diagnostics sorted errors-first; empty list means a clean bill.

    Raises:
        KeyError: if ``rules`` names an unregistered rule id.
    """
    return run_rules(LintContext(graph), rules)


def run_rules(ctx: LintContext, rules: Optional[Iterable[str]] = None) -> List[Diagnostic]:
    """:func:`lint_graph` over an already built context."""
    selected = (
        [_RULES[r] for r in rules] if rules is not None else list(all_rules())
    )
    diags: List[Diagnostic] = []
    for lint_rule in selected:
        try:
            diags.extend(lint_rule.fn(ctx))
        except Exception as exc:  # a crashing rule must not mask other findings
            diags.append(error(
                "lint-internal",
                f"rule {lint_rule.rule_id!r} crashed: {exc!r}",
            ))
    return sort_diagnostics(diags)
