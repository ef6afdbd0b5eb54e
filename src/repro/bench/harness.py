"""Benchmark harness utilities: wall-clock timing, paper-style tables, and
machine-readable result records.

Besides the human-facing tables, every benchmark can persist a JSON record
(:func:`bench_record` + :func:`write_bench_result`) so repeated runs
accumulate a performance trajectory per benchmark — ``BENCH_<name>.json``
is a list of records, one appended per run.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.devices.host import host_fingerprint

__all__ = [
    "BENCH_SCHEMA",
    "TimingResult",
    "time_callable",
    "format_table",
    "bench_record",
    "write_bench_result",
]

#: Bumped when the BENCH record layout changes shape.  Schema 2 added the
#: provenance stamp (schema / git commit / host fingerprint) that the
#: regression gate keys comparability on.
BENCH_SCHEMA = 2


@dataclass
class TimingResult:
    """Wall-clock statistics over repeated runs, in milliseconds."""

    times_ms: List[float]

    @property
    def mean_ms(self) -> float:
        return float(np.mean(self.times_ms))

    @property
    def median_ms(self) -> float:
        return float(np.median(self.times_ms))

    @property
    def min_ms(self) -> float:
        return float(np.min(self.times_ms))

    @property
    def std_ms(self) -> float:
        return float(np.std(self.times_ms))

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly summary (for :func:`bench_record`)."""
        return {
            "repeats": len(self.times_ms),
            "mean_ms": self.mean_ms,
            "median_ms": self.median_ms,
            "min_ms": self.min_ms,
            "std_ms": self.std_ms,
        }


def time_callable(fn: Callable[[], object], repeats: int = 10, warmup: int = 1) -> TimingResult:
    """Time ``fn`` with the paper's protocol: warm-up runs, then averaging.

    (Section 4.1: "one warm-up inference is conducted", results "averaged
    by 10 runs".)
    """
    for _ in range(warmup):
        fn()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append((time.perf_counter() - start) * 1000.0)
    return TimingResult(times)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Render an aligned ASCII table like the paper's result tables."""
    cells = [[str(h) for h in headers]] + [[_fmt(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append(sep)
    for row in cells[1:]:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.1f}"
    return str(value)


# -- machine-readable bench results -----------------------------------------

_GIT_COMMIT: Optional[str] = None


def _git_commit() -> str:
    """The repo's HEAD commit, cached per process; "unknown" off-repo."""
    global _GIT_COMMIT
    if _GIT_COMMIT is None:
        try:
            _GIT_COMMIT = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=os.path.dirname(os.path.abspath(__file__)),
                capture_output=True,
                text=True,
                timeout=10,
                check=True,
            ).stdout.strip() or "unknown"
        except Exception:
            _GIT_COMMIT = "unknown"
    return _GIT_COMMIT


def _jsonable(value: object) -> object:
    """Best-effort coercion to a JSON-serializable value."""
    if isinstance(value, TimingResult):
        return value.as_dict()
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def bench_record(
    name: str,
    config: Optional[Dict[str, object]] = None,
    timing: Optional[TimingResult] = None,
    metrics: Optional[Dict[str, object]] = None,
    **extra: object,
) -> Dict[str, object]:
    """Build one machine-readable benchmark record.

    Schema (stable across benches so trajectories are comparable):
    ``name`` (the bench id), ``config`` (the knobs that shaped the run),
    ``timing`` (wall-clock stats from :class:`TimingResult`), ``metrics``
    (a :meth:`repro.obs.MetricsRegistry.snapshot`), plus any bench-specific
    ``extra`` keys.  Every record carries a provenance ``stamp`` — schema
    version, git commit, and the measuring host's fingerprint — so the
    regression gate (:mod:`repro.obs.regress`) can refuse to compare
    numbers from different machines or record layouts.
    """
    record: Dict[str, object] = {
        "name": name,
        "config": _jsonable(config or {}),
        "stamp": {
            "schema": BENCH_SCHEMA,
            "git_commit": _git_commit(),
            "host": host_fingerprint().as_dict(),
        },
    }
    if timing is not None:
        record["timing"] = timing.as_dict()
    if metrics is not None:
        record["metrics"] = _jsonable(metrics)
    for key, value in extra.items():
        record[key] = _jsonable(value)
    return record


def write_bench_result(
    record: Dict[str, object], out_dir: Optional[str] = None
) -> str:
    """Append ``record`` to ``BENCH_<name>.json`` and return the path.

    The file holds a JSON list — one record per historical run — so
    re-running a benchmark accumulates a trajectory instead of clobbering
    the previous result.  ``out_dir`` defaults to ``$REPRO_BENCH_DIR`` or
    the current directory; an unreadable/corrupt existing file is treated
    as empty rather than failing the bench.
    """
    out_dir = out_dir or os.environ.get("REPRO_BENCH_DIR") or "."
    os.makedirs(out_dir, exist_ok=True)
    safe = "".join(c if c.isalnum() or c in "-_" else "_" for c in str(record["name"]))
    path = os.path.join(out_dir, f"BENCH_{safe}.json")
    history: List[object] = []
    if os.path.exists(path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
            if isinstance(loaded, list):
                history = loaded
        except (OSError, ValueError):
            history = []
    history.append(record)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(history, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
