"""Optimizer pass verifier: catch the pass that broke the graph.

SoftNeuro-style routine selection and MNN-style offline optimization share a
failure mode: a rewrite pass that is *plausible* but wrong produces a graph
that still runs — just computes something else.  This wrapper makes every
pass prove itself.  After each pass application that reports a change, the
verifier re-checks

1. **structure** — the full lint rule set, errors only (its structural
   rules are the ones :meth:`Graph.check` runs),
2. **shapes** — shape inference must still succeed and graph outputs must
   keep their descriptors' shapes/dtypes,
3. **numerics** — a reference execution on a fixed random input must match
   the pre-optimization baseline within tolerance,

and a failure is attributed to the exact pass (and round) that introduced
it via :class:`PassVerificationError`.

Usage::

    from repro.analysis import VerifyingPassManager
    VerifyingPassManager().run(graph)          # raises on a broken pass

    from repro.converter import optimize
    optimize(graph, verify=True)               # same, via the converter API
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..converter.optimizer.passes import Pass, PassManager
from ..ir.graph import Graph, GraphError
from ..ir.shape_inference import infer_shapes
from .diagnostics import Diagnostic, Severity, error, format_diagnostics
from .lint import lint_graph

__all__ = ["PassVerificationError", "VerifyingPassManager", "random_feeds"]


class PassVerificationError(GraphError):
    """An optimizer pass produced a broken graph.

    Attributes:
        pass_name: the pass that introduced the problem.
        round_idx: the fixpoint round it happened in.
    """

    def __init__(
        self,
        pass_name: str,
        round_idx: int,
        message: str,
        diagnostics: Optional[Sequence[Diagnostic]] = None,
    ) -> None:
        super().__init__(
            f"pass {pass_name!r} (round {round_idx}) broke the graph: {message}",
            diagnostics,
        )
        self.pass_name = pass_name
        self.round_idx = round_idx


def random_feeds(graph: Graph, seed: int = 0) -> Dict[str, np.ndarray]:
    """Deterministic random inputs matching the graph's input descriptors.

    Integer inputs (embedding indices and the like) draw from ``{0, 1}`` so
    they stay valid for any gather table with at least two rows.
    """
    rng = np.random.default_rng(seed)
    feeds: Dict[str, np.ndarray] = {}
    for name in graph.inputs:
        desc = graph.desc(name)
        if np.issubdtype(desc.dtype.np_dtype, np.integer):
            feeds[name] = rng.integers(0, 2, desc.shape).astype(desc.dtype.np_dtype)
        else:
            feeds[name] = rng.standard_normal(desc.shape).astype(desc.dtype.np_dtype)
    return feeds


class VerifyingPassManager(PassManager):
    """A :class:`PassManager` that validates the graph after every pass.

    Args:
        passes: pass pipeline (default: the converter's standard one).
        max_rounds: fixpoint bound, as in :class:`PassManager`.
        atol: numerical tolerance for the equivalence spot-check.  The
            default absorbs the float32 reassociation that legitimate
            fusions (Conv+BN) introduce on deep nets.
        seed: RNG seed for the spot-check input.
        check_numerics: set ``False`` to skip the reference executions
            (structure and shape checks still run) — useful when inputs
            cannot be synthesized meaningfully.
    """

    def __init__(
        self,
        passes: Optional[Sequence[Pass]] = None,
        max_rounds: int = 4,
        atol: float = 5e-2,
        seed: int = 0,
        check_numerics: bool = True,
    ) -> None:
        super().__init__(passes, max_rounds)
        self.atol = atol
        self.seed = seed
        self.check_numerics = check_numerics

    # -- checks ------------------------------------------------------------
    def _baseline(self, graph: Graph) -> Optional[Dict[str, np.ndarray]]:
        from ..core.reference import execute_reference

        if not self.check_numerics or not graph.inputs or not graph.outputs:
            return None
        feeds = random_feeds(graph, self.seed)
        env = execute_reference(graph, feeds)
        return {name: np.asarray(env[name]) for name in graph.outputs}

    def _check_after(
        self,
        graph: Graph,
        p: Pass,
        round_idx: int,
        baseline: Optional[Dict[str, np.ndarray]],
    ) -> None:
        from ..core.reference import execute_reference

        # (1) structure: every lint error, the structural rules included.
        diags = [d for d in lint_graph(graph) if d.severity is Severity.ERROR]
        if diags:
            raise PassVerificationError(
                p.name, round_idx, format_diagnostics(diags), diags
            )
        # (2) shapes: re-inference must succeed and keep output descriptors.
        before = {
            name: graph.tensor_descs.get(name) for name in graph.outputs
        }
        try:
            infer_shapes(graph)
        except GraphError as exc:
            raise PassVerificationError(
                p.name, round_idx, f"shape inference failed: {exc}",
                [error("shape-mismatch", str(exc))],
            ) from exc
        for name, old in before.items():
            new = graph.tensor_descs.get(name)
            if old is not None and new is not None and old.shape != new.shape:
                raise PassVerificationError(
                    p.name, round_idx,
                    f"output {name!r} changed shape {old.shape} -> {new.shape}",
                    [error("shape-mismatch",
                           f"output {name!r} changed shape {old.shape} -> {new.shape}",
                           tensor=name)],
                )
        # (3) numerics: spot-check against the pre-optimization baseline.
        if baseline is not None:
            feeds = random_feeds(graph, self.seed)
            env = execute_reference(graph, feeds)
            for name, want in baseline.items():
                got = np.asarray(env[name])
                if got.shape != want.shape:
                    raise PassVerificationError(
                        p.name, round_idx,
                        f"output {name!r} changed shape {want.shape} -> {got.shape}",
                    )
                err = float(np.max(np.abs(got.astype(np.float64)
                                          - want.astype(np.float64)))) if got.size else 0.0
                if not np.isfinite(err) or err > self.atol:
                    raise PassVerificationError(
                        p.name, round_idx,
                        f"output {name!r} diverged: max |delta| = {err:.3e} "
                        f"(tolerance {self.atol:.1e})",
                        [error("numeric-divergence",
                               f"output {name!r} max |delta| = {err:.3e}",
                               tensor=name)],
                    )

    # -- driver ------------------------------------------------------------
    def run(self, graph: Graph) -> Graph:
        """Apply passes to fixpoint, verifying the graph after each change.

        Raises:
            PassVerificationError: naming the pass (and round) that broke
                structure, shapes, or numerics.
        """
        from ..obs.tracer import get_tracer

        tracer = self.tracer if self.tracer is not None else get_tracer()
        with tracer.span("optimizer.verified", "optimizer", graph=graph.name):
            baseline = self._baseline(graph)
            for round_idx in range(self.max_rounds):
                changed = 0
                for p in self.passes:
                    result = self._apply(p, graph, round_idx)
                    if result:
                        self.log.append(
                            f"round {round_idx}: {p.name} changed {result.changed}"
                        )
                        with tracer.span(f"verify:{p.name}", "optimizer",
                                         round=round_idx):
                            self._check_after(graph, p, round_idx, baseline)
                    changed += result.changed
                if not changed:
                    break
            graph.validate()
            infer_shapes(graph)
        return graph
