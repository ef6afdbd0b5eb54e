"""A fixed host-speed probe, and the normalisation built on it.

The shared VMs this benchmark runs on execute the *same* instructions
10-35 % (at times 3x) slower for seconds to minutes at a time, and the
guest cannot see it: no steal time, no page faults, no context switches,
CPU time equals wall time.  Ten runs of identical code then spread by
10-33 % on wall-clock throughput and latency, and their medians move by
12-34 % between a quiet and a noisy half hour — more than the
differences the benchmark exists to show.

So every timed stretch (a window of operations, a set-up) is bracketed by
two runs of :func:`probe`, a fixed computation that never calls the
program under test.  The stretch's *host factor* is the mean of the two
probe times over ``REFERENCE_S``, and its wall time is divided by that
factor: the reported time is the wall-clock time scaled to the speed at
which the host runs the probe in ``REFERENCE_S``.  On a quiet host of
the reference class the factor is ~1 and the reported numbers are plain
wall-clock; on a slowed host they are what the same run would have taken
without the slowdown.  Nothing is selected or dropped: every operation
counts, scaled by a number the program cannot influence.

Measured on one afternoon (ten seeds per workload, interquartile range
over median): in a noisy period wall-clock throughput spread 10-33 % and
normalised throughput 2-14 %; between a quiet and a noisy period
wall-clock medians moved 12-34 % and normalised ones 1-15 %.
"""

from __future__ import annotations

import time

import numpy as np

#: Seconds one :func:`probe` takes on the reference host (2 vCPUs of a
#: 2.1 GHz Xeon) when it is quiet.  Only a unit conversion: it makes the
#: normalised numbers read as that host's wall-clock.
REFERENCE_S = 0.0105

_RNG = np.random.default_rng(0)
_SQUARE = _RNG.standard_normal((96, 96)).astype(np.float32)
_BLOCK = _RNG.standard_normal(1 << 19).astype(np.float32)      # 2 MiB
_ROW = _RNG.standard_normal(64).astype(np.float32)


def probe() -> float:
    """Seconds a fixed mix of the engine's kinds of work takes right now.

    Four parts of ~2.5 ms each, one per way the workloads spend time:
    interpreter bytecode (the executor loop), BLAS GEMM (kernels), a
    memory copy (shm transport, im2col), and many tiny NumPy calls
    (per-step KV and scheduler bookkeeping).
    """
    start = time.perf_counter()
    acc = 0
    for i in range(60000):
        acc += i * i & 7
    for _ in range(150):
        _SQUARE @ _SQUARE
    for _ in range(12):
        _BLOCK.copy()
    row = _ROW
    for _ in range(2000):
        row = (row * 0.5 + _ROW)[::-1]
    return time.perf_counter() - start


def host_factor(before: float, after: float) -> float:
    """How much slower than the reference the host ran between two probes."""
    return 0.5 * (before + after) / REFERENCE_S
