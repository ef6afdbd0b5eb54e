"""Concurrent serving layer: pre-inference cache, session pool, batching.

The ROADMAP's production-scale goal meets the paper's semi-automated
search here: everything pre-inference computes (Section 3.2) is persisted
and replayed (:mod:`~repro.serving.cache`), N clients run concurrently on
pooled per-worker sessions (:mod:`~repro.serving.pool`), and
single-sample requests coalesce into shape-bucketed micro-batches
(:mod:`~repro.serving.batching`).  :class:`~repro.serving.Engine` is the
front door tying the three together.
"""

from .batching import BatchStats, MicroBatcher
from .cache import (
    CACHE_ENV_VAR,
    CACHE_VERSION,
    PreInferenceCache,
    default_cache_dir,
)
from .engine import Engine, EngineConfig
from .pool import SessionPool

__all__ = [
    "BatchStats",
    "MicroBatcher",
    "CACHE_ENV_VAR",
    "CACHE_VERSION",
    "PreInferenceCache",
    "default_cache_dir",
    "Engine",
    "EngineConfig",
    "SessionPool",
]
