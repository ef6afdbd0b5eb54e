"""repro.genai — autoregressive decoding on a fixed-shape engine.

The paper's pre-inference pipeline (Section 3.2) assumes static shapes;
token-by-token generation is the workload that most obviously violates
that.  This package closes the gap with three ideas, each its own
module:

* **KV-cache memory planning** (:mod:`~repro.genai.kvcache`): per-
  sequence K/V lives in page-granular, capacity-bucketed slabs inside
  one pre-allocated arena, allocated best-fit and reclaimed by LRU
  eviction under pressure — the dynamic sibling of the static arena
  planner, provable by the same memory sanitizer.
* **One token path** (:mod:`~repro.genai.decode`): prompts, prefix-hit
  suffixes and decode steps all append rows to KV slabs through one
  cached-attention graph.  Every shape the loop can see (batch size,
  new tokens per sequence, KV capacity) is bucketed and each bucket's
  session is prepared once, so the paper's prepare/execute split
  survives dynamic lengths.
* **Continuous batching** (:mod:`~repro.genai.scheduler`): requests
  join and leave the running batch at token boundaries, admitted only
  when the KV allocator can stake them a slab.

:class:`~repro.genai.GenerationEngine` ties them together behind one
``generate(prompts)`` call; :mod:`~repro.genai.sampling` keeps the only
intentionally random stage seeded per request.  Decoding with the cache
is *bit-identical* to full-sequence recompute (the kernels are strictly
per-row), which the acceptance tests assert for 32-token generations.
"""

from .decode import (
    DecodeRunner,
    batch_buckets,
    bucket_for_batch,
    bucket_for_length,
    length_buckets,
)
from .engine import GenerationConfig, GenerationEngine
from .kvcache import KVCacheAllocator, KVCacheConfig, KVCacheOOM, KVSlab
from .prefix import PrefixCache
from .sampling import Sampler, SamplingParams, greedy
from .scheduler import ContinuousBatchScheduler, GenRequest, GenResult

#: Prompts run through ``DecodeRunner.run``; the old name stays importable
#: because tooling that instruments ``PrefillRunner.run`` (perfbench's
#: ``genai.prefill_run`` span) keeps working unchanged through it.
PrefillRunner = DecodeRunner

__all__ = [
    "KVCacheAllocator",
    "KVCacheConfig",
    "KVCacheOOM",
    "KVSlab",
    "PrefillRunner",
    "DecodeRunner",
    "length_buckets",
    "bucket_for_length",
    "batch_buckets",
    "bucket_for_batch",
    "PrefixCache",
    "Sampler",
    "SamplingParams",
    "greedy",
    "ContinuousBatchScheduler",
    "GenRequest",
    "GenResult",
    "GenerationConfig",
    "GenerationEngine",
]
