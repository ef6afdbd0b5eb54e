"""Static analysis over the IR and pre-inference artifacts.

Three pluggable checkers guard the pipeline the paper's pre-inference
mechanism (Section 3.2) depends on:

* :mod:`repro.analysis.lint` — a graph linter (15 rules, tabled in its docstring) producing
  structured :class:`Diagnostic` records;
* :mod:`repro.analysis.memcheck` — an independent sanitizer proving the
  static memory plan alias-free, aligned and in-bounds;
* :mod:`repro.analysis.verify_passes` — a pass manager that re-checks
  structure, shapes and numerics after every optimizer pass and names the
  pass that broke the graph;
* :mod:`repro.analysis.concurrency` — a static AST lint (rule family
  ``C0xx``) over ``src/repro`` itself for locking-discipline violations,
  the compile-time companion of the dynamic :mod:`repro.sanitize`.

CLI entry points: ``python -m repro.tools.cli lint model.rmnn [--strict]``
and ``python -m repro.tools.cli sanitize``.
"""

from .diagnostics import (
    Diagnostic,
    Severity,
    format_diagnostics,
    has_errors,
    sort_diagnostics,
    summarize,
)
from .concurrency import C_RULES, lint_source_text, lint_source_tree
from .lint import LintContext, LintRule, all_rules, lint_graph, rule
from .memcheck import (
    Interval,
    MemCheckReport,
    check_memory_plan,
    check_slab_plan,
    derive_lifetimes,
)
from .verify_passes import PassVerificationError, VerifyingPassManager, random_feeds

__all__ = [
    "Diagnostic",
    "Severity",
    "format_diagnostics",
    "has_errors",
    "sort_diagnostics",
    "summarize",
    "C_RULES",
    "lint_source_text",
    "lint_source_tree",
    "LintContext",
    "LintRule",
    "all_rules",
    "lint_graph",
    "rule",
    "Interval",
    "MemCheckReport",
    "check_memory_plan",
    "check_slab_plan",
    "derive_lifetimes",
    "PassVerificationError",
    "VerifyingPassManager",
    "random_feeds",
]
