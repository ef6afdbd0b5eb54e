"""Benchmark harness: timing helpers, tables, MLPerf-style loadgen."""

from .harness import (
    TimingResult,
    bench_record,
    format_table,
    time_callable,
    write_bench_result,
)
from .loadgen import (
    ClosedLoopReport,
    LoadgenReport,
    run_closed_loop,
    run_single_stream,
)

__all__ = [
    "TimingResult",
    "bench_record",
    "format_table",
    "time_callable",
    "write_bench_result",
    "ClosedLoopReport",
    "LoadgenReport",
    "run_closed_loop",
    "run_single_stream",
]
