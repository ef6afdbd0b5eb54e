"""Core engine: pre-inference, cost model, memory planning, sessions."""

from .cost import BackendCostModel, node_muls, strassen_mul_factor, winograd_tile_cost
from .memory import (
    MemoryPlan,
    TensorLifetime,
    bucket_for,
    compute_lifetimes,
    doubling_buckets,
    plan_memory,
)
from .autotune import bound_runner
from .schemes import (
    SchemeConfig,
    SchemeDecision,
    select_conv_scheme,
    select_graph_schemes,
    winograd_plane_cost,
)
from .session import (
    OpProfile,
    RunStats,
    Session,
    SessionArtifacts,
    SessionConfig,
    choose_backend,
)

__all__ = [
    "BackendCostModel",
    "node_muls",
    "strassen_mul_factor",
    "winograd_tile_cost",
    "MemoryPlan",
    "TensorLifetime",
    "compute_lifetimes",
    "plan_memory",
    "doubling_buckets",
    "bucket_for",
    "SchemeConfig",
    "SchemeDecision",
    "select_conv_scheme",
    "select_graph_schemes",
    "winograd_plane_cost",
    "bound_runner",
    "OpProfile",
    "RunStats",
    "Session",
    "SessionArtifacts",
    "SessionConfig",
    "choose_backend",
]
