"""Virtual time for simulated backends.

Simulated GPU/device backends compute real numerics on the host CPU but
account *modeled* execution time on a :class:`VirtualClock` using the
paper's cost model (Eq. 5).  Benchmarks that compare devices or engines
read the clock instead of the wall clock.
"""

from __future__ import annotations

__all__ = ["VirtualClock"]


class VirtualClock:
    """A monotonically advancing simulated clock, in milliseconds."""

    def __init__(self) -> None:
        self._now_ms = 0.0

    @property
    def now_ms(self) -> float:
        return self._now_ms

    def advance(self, delta_ms: float) -> None:
        """Advance the clock; negative deltas are a programming error."""
        if delta_ms < 0:
            raise ValueError(f"cannot advance clock by {delta_ms} ms")
        self._now_ms += delta_ms

    def reset(self) -> None:
        self._now_ms = 0.0
