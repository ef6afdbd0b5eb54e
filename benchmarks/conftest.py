"""Shared fixtures for the paper-reproduction benchmarks.

Every bench records its paper-style result table through ``report_table``;
the tables are printed in the terminal summary (visible even under pytest's
output capture) so `pytest benchmarks/ --benchmark-only | tee` preserves
them.  Each recorded table is also appended as a machine-readable record to
``BENCH_<name>.json`` (see :func:`repro.bench.write_bench_result`), so
repeated benchmark runs accumulate a performance trajectory.

Benchmark graphs are sanity-checked three times before any timing: once
by the static linter (``_lint_or_fail``), once by a traced session
(``_trace_or_fail``) that proves the observability instrumentation still
covers pre-inference and every executed operator — tracing that silently
stopped recording would otherwise rot unnoticed — and once by a seeded
fault-storm session (``_chaos_or_fail``) that injects transient kernel
failures and NaN-poisons every Winograd convolution, asserting the
resilience layer still produces finite outputs matching a fault-free run.
The engine-level storms (serving, generation, cluster) are not repeated
here: ``repro.faults.chaos`` runs them, from ``tests/test_faults_chaos.py``
and ``cli chaos --sanitize``.

A fourth pre-flight (``_sanitize_or_fail``) runs each benchmark graph
once under the concurrency sanitizer (``Runtime.resolve(sanitize=True)``):
the race/lock-order/lifecycle report must come back clean, so BENCH records are only ever produced by code the
sanitizer vouches for.  The ``sanitize.*`` counters are pre-registered on
the process-wide registry, so every snapshot embedded in a BENCH record
carries them (zeros, unless something rotted).
"""

import os

import pytest

from repro.analysis import format_diagnostics, has_errors, lint_graph
from repro.models import build_model

_TABLES = []
_MODEL_CACHE = {}
_TRACED = set()
_STORMED = set()
_SANITIZED = set()


def _lint_or_fail(name, graph):
    """Fail fast on a broken benchmark fixture instead of timing garbage."""
    diags = lint_graph(graph)
    if has_errors(diags):
        pytest.fail(
            f"benchmark graph {name!r} failed lint:\n" + format_diagnostics(diags),
            pytrace=False,
        )


def _trace_or_fail(name, graph):
    """Run one traced session per benchmark graph; fail if coverage slipped.

    Asserts the two invariants every trace consumer relies on: the
    pre-inference stages appear as spans, and there is one ``op`` span per
    runnable node.
    """
    from repro.analysis.verify_passes import random_feeds
    from repro.core import Session, SessionConfig
    from repro.obs import Tracer
    from repro.runtime import Runtime

    tracer = Tracer()
    session = Session(
        graph, SessionConfig(threads=2), runtime=Runtime.resolve(trace=tracer)
    )
    session.run(random_feeds(graph))
    names = {span.name for span in tracer.spans}
    missing = {"session.prepare", "session.run"} - names
    if missing:
        pytest.fail(
            f"traced session over benchmark graph {name!r} recorded no "
            f"{sorted(missing)} spans — tracing instrumentation has rotted",
            pytrace=False,
        )
    op_spans = sum(1 for span in tracer.spans if span.category == "op")
    runnable = len(session._order)
    if op_spans != runnable:
        pytest.fail(
            f"traced session over benchmark graph {name!r} recorded "
            f"{op_spans} op spans for {runnable} runnable nodes",
            pytrace=False,
        )


def _chaos_or_fail(name, graph):
    """Run one seeded fault-storm session per benchmark graph.

    Transient kernel faults must be retried away and NaN-poisoned
    Winograd convolutions must be re-run on the direct scheme: the
    session has to return finite outputs numerically matching a
    fault-free run, or the resilience layer has rotted.
    """
    import numpy as np

    from repro.analysis.verify_passes import random_feeds
    from repro.core import Session, SessionConfig
    from repro.faults import FaultPlan, FaultRule
    from repro.runtime import Runtime

    feeds = random_feeds(graph)
    gold = Session(graph, SessionConfig(threads=2)).run(feeds)
    plan = FaultPlan([
        FaultRule("kernel.execute", "nan",
                  match={"scheme": "winograd"}),
        FaultRule("kernel.execute", "transient", p=0.1, times=8),
    ], seed=0)
    session = Session(
        graph, SessionConfig(threads=2), runtime=Runtime.resolve(faults=plan)
    )
    out = session.run(feeds)
    for key, arr in out.items():
        if not np.isfinite(arr).all():
            pytest.fail(
                f"fault-storm session over benchmark graph {name!r} produced "
                f"non-finite output {key!r} — numeric fallback has rotted",
                pytrace=False,
            )
        if not np.allclose(arr, gold[key], rtol=1e-4, atol=1e-5):
            pytest.fail(
                f"fault-storm session over benchmark graph {name!r} diverged "
                f"from the fault-free run on output {key!r} "
                f"({plan.injected} faults injected)",
                pytrace=False,
            )


def _sanitize_or_fail(name, graph):
    """Run one sanitized session per benchmark graph.

    A race, lock-order cycle or leaked extent in the code a benchmark is
    about to time would make its numbers meaningless (or flaky); the
    sanitizer report must be clean before any timing happens.
    """
    from repro.analysis.verify_passes import random_feeds
    from repro.core import Session, SessionConfig
    from repro.runtime import Runtime

    session = Session(
        graph, SessionConfig(threads=2, decouple=True),
        runtime=Runtime.resolve(sanitize=True),
    )
    session.run(random_feeds(graph))
    report = session.sanitizer.report()
    if not report.ok:
        pytest.fail(
            f"sanitized session over benchmark graph {name!r} reported "
            f"findings:\n{report.describe()}",
            pytrace=False,
        )


@pytest.fixture
def report_table(request):
    """Record a (title, headers, rows) table for the terminal summary.

    Also appends a machine-readable record to ``BENCH_<bench>.json``
    (``$REPRO_BENCH_DIR`` or the repo root).  Benches may pass extra
    keyword context — ``config=``, ``timing=``, ``metrics=`` — which lands
    in the JSON record under the shared schema.
    """
    from repro.bench import bench_record, write_bench_result

    bench_name = request.node.name

    def _record(title, headers, rows, **context):
        from repro.obs import get_metrics

        _TABLES.append((title, headers, [list(r) for r in rows]))
        metrics = context.pop("metrics", None)
        if metrics is None:
            # Default to the process-wide registry: sessions run by the
            # bench land their run/prepare histograms there.  Sanitizer
            # counters are pre-registered so every BENCH record carries
            # sanitize.races / .lock_cycles / .leaks — zeros expected.
            from repro.sanitize.sanitizer import COUNTER_NAMES

            registry = get_metrics()
            for counter_name in COUNTER_NAMES:
                registry.counter(counter_name)
            metrics = registry.snapshot()
        record = bench_record(
            context.pop("name", bench_name),
            config=context.pop("config", None),
            timing=context.pop("timing", None),
            metrics=metrics,
            title=title,
            table={"headers": list(headers), "rows": [list(r) for r in rows]},
            **context,
        )
        out_dir = os.environ.get("REPRO_BENCH_DIR") or os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))
        )
        write_bench_result(record, out_dir)

    return _record


@pytest.fixture
def model(request):
    """Cached model builder: ``model("mobilenet_v1", input_size=224)``."""

    def _get(name, **kwargs):
        key = (name, tuple(sorted(kwargs.items())))
        if key not in _MODEL_CACHE:
            graph = build_model(name, **kwargs)
            _lint_or_fail(name, graph)  # every benchmark graph is linted once
            _MODEL_CACHE[key] = graph
        if key not in _TRACED:
            _TRACED.add(key)
            _trace_or_fail(name, _MODEL_CACHE[key])  # ... and traced once
        if key not in _STORMED:
            _STORMED.add(key)
            _chaos_or_fail(name, _MODEL_CACHE[key])  # ... and stormed once
        if key not in _SANITIZED:
            _SANITIZED.add(key)
            _sanitize_or_fail(name, _MODEL_CACHE[key])  # ... and sanitized once
        return _MODEL_CACHE[key]

    return _get


def pytest_terminal_summary(terminalreporter):
    from repro.bench import format_table

    if not _TABLES:
        return
    terminalreporter.section("paper reproduction tables")
    for title, headers, rows in _TABLES:
        terminalreporter.write_line("")
        terminalreporter.write_line(format_table(headers, rows, title))
    _TABLES.clear()
