"""KV prefix caching: the trie, COW sharing, and the bit-identity law.

The contract under test: turning the prefix cache on changes *which
memory* serves the shared rows, never the tokens.  Every property here
compares a prefix-enabled engine against a cold one (same config, same
seeds) and demands token-for-token equality — including when the COW
parent slab has been evicted out from under its children.
"""

import numpy as np
import pytest

from repro.genai import (
    GenerationConfig,
    GenerationEngine,
    GenRequest,
    KVCacheAllocator,
    KVCacheConfig,
    PrefixCache,
    SamplingParams,
)
from repro.genai import KVCacheOOM
from repro.genai.kvcache import KVCacheUseAfterFree
from repro.obs.metrics import MetricsRegistry, set_metrics

pytestmark = pytest.mark.genai


@pytest.fixture(autouse=True)
def _fresh_metrics():
    previous = set_metrics(MetricsRegistry())
    yield
    set_metrics(previous)


def make_allocator(**overrides):
    base = dict(layers=1, heads=2, d_head=8, page_tokens=4,
                capacity_tokens=64, max_seq=32)
    base.update(overrides)
    return KVCacheAllocator(KVCacheConfig(**base))


SMALL = dict(vocab=48, max_seq=32, d_model=16, heads=2, layers=1, seed=4,
             max_batch=2, page_tokens=4, capacity_tokens=128,
             smallest_bucket=8, retain_kv=True)


def small_engine(**overrides):
    cfg = dict(SMALL)
    cfg.update(overrides)
    return GenerationEngine(GenerationConfig(**cfg))


def shared_prefix_prompts(rng, n, prefix_len, vocab=48, suffix_lo=1, suffix_hi=5):
    shared = [int(t) for t in rng.integers(0, vocab, size=prefix_len)]
    return [
        shared + [int(t) for t in rng.integers(0, vocab, size=int(k))]
        for k in rng.integers(suffix_lo, suffix_hi, size=n)
    ]


class TestPrefixTrie:
    def _retired_slab(self, allocator, seq_id, tokens):
        slab = allocator.alloc(seq_id, len(tokens))
        slab.length = len(tokens)
        allocator.release(slab, evictable=True)
        return slab

    def test_match_finds_deepest_registered_prefix(self):
        allocator = make_allocator()
        cache = PrefixCache(min_prefix=4)
        path = [1, 2, 3, 4, 5, 6, 7, 8]
        slab = self._retired_slab(allocator, "a", path)
        cache.insert(path, slab)
        # Diverging after 6 tokens still finds depth 6.
        got = cache.match([1, 2, 3, 4, 5, 6, 40, 41])
        assert got == (slab, 6)
        # An identical prompt matches, but never the whole thing: the
        # caller must decode the last token itself for sampling logits.
        assert cache.match(path) == (slab, 7)

    def test_min_prefix_floor(self):
        allocator = make_allocator()
        cache = PrefixCache(min_prefix=4)
        slab = self._retired_slab(allocator, "a", [1, 2, 3, 4, 5, 6])
        cache.insert([1, 2, 3, 4, 5, 6], slab)
        assert cache.match([1, 2, 3, 9]) is None        # depth 3 < floor
        assert cache.match([1, 2, 3, 4]) is None        # limit 3 < floor
        assert cache.match([1, 2, 3, 4, 9]) == (slab, 4)

    def test_short_paths_never_registered(self):
        allocator = make_allocator()
        cache = PrefixCache(min_prefix=4)
        slab = self._retired_slab(allocator, "a", [7, 7, 7])
        cache.insert([7, 7, 7], slab)
        assert len(cache) == 0

    def test_freed_entries_pruned_lazily(self):
        allocator = make_allocator()
        cache = PrefixCache(min_prefix=4)
        path = [3, 1, 4, 1, 5, 9]
        slab = self._retired_slab(allocator, "a", path)
        cache.insert(path, slab)
        # Evict the parent: the registration goes stale, and the next
        # walk must skip (and unlink) it instead of handing it out.
        held = []
        while not slab.freed:
            try:
                held.append(allocator.alloc(f"fill-{len(held)}", 16))
            except KVCacheOOM:
                break
        assert slab.freed
        assert cache.match(path + [2]) is None

    def test_max_entries_drops_oldest_registration(self):
        allocator = make_allocator(capacity_tokens=256)
        cache = PrefixCache(min_prefix=4, max_entries=2)
        paths = [[i, i + 1, i + 2, i + 3, i + 4] for i in (10, 20, 30)]
        slabs = [self._retired_slab(allocator, f"s{i}", p)
                 for i, p in enumerate(paths)]
        for path, slab in zip(paths, slabs):
            cache.insert(path, slab)
        assert len(cache) == 2
        assert cache.match(paths[0] + [1]) is None      # oldest dropped
        assert cache.match(paths[2] + [1]) == (slabs[2], 5)


class TestCopyOnWriteSharing:
    def test_shared_views_are_read_only(self):
        allocator = make_allocator()
        parent = allocator.alloc("parent", 8)
        parent.length = 8
        allocator.release(parent, evictable=True)
        child = allocator.share(parent, "child", 6)
        assert child.shared and child.length == 6
        with pytest.raises(ValueError):
            child.k(0)[:, 0, :] = 1.0
        allocator.release(child)

    def test_materialize_copies_bit_identically(self):
        allocator = make_allocator()
        parent = allocator.alloc("parent", 8)
        rng = np.random.default_rng(0)
        for layer in range(allocator.config.layers):
            parent.k(layer)[:] = rng.standard_normal(parent.k(layer).shape)
            parent.v(layer)[:] = rng.standard_normal(parent.v(layer).shape)
        parent.length = 8
        want_k = parent.k(0)[:, :6, :].copy()
        allocator.release(parent, evictable=True)
        child = allocator.share(parent, "child", 6)
        owned = allocator.materialize(child, 12)
        assert not owned.shared
        assert owned.length == 6
        np.testing.assert_array_equal(owned.k(0)[:, :6, :], want_k)
        owned.k(0)[:, 6, :] = 7.0  # writable again
        allocator.release(owned)

    def test_parent_eviction_leaves_shared_pages_alive(self):
        allocator = make_allocator()
        parent = allocator.alloc("parent", 8)
        for layer in range(allocator.config.layers):
            parent.k(layer)[:] = 3.25
            parent.v(layer)[:] = -1.5
        parent.length = 8
        allocator.release(parent, evictable=True)
        child = allocator.share(parent, "child", 8)
        # Force the retired parent out via allocation pressure (the
        # child's ref keeps the pages off the free list, so this arena
        # eventually OOMs — by then the parent must have been evicted).
        held = []
        while not parent.freed:
            try:
                held.append(allocator.alloc(f"fill-{len(held)}", 16))
            except KVCacheOOM:
                break
        assert parent.freed
        for filler in held:  # free the pressure; the pin is what's under test
            allocator.release(filler, evictable=False)
        # The child's refcount pinned the extent: its rows still read.
        np.testing.assert_array_equal(
            child.k(0)[:, :8, :], np.full_like(child.k(0)[:, :8, :], 3.25)
        )
        owned = allocator.materialize(child, 10)
        np.testing.assert_array_equal(
            owned.v(0)[:, :8, :], np.full_like(owned.v(0)[:, :8, :], -1.5)
        )
        allocator.release(owned)
        assert allocator.check().ok

    def test_share_of_freed_parent_rejected(self):
        allocator = make_allocator()
        parent = allocator.alloc("parent", 8)
        parent.length = 8
        allocator.release(parent, evictable=False)
        with pytest.raises(KVCacheUseAfterFree):
            allocator.share(parent, "child", 4)

    def test_grow_on_shared_slab_materializes_first(self):
        allocator = make_allocator()
        parent = allocator.alloc("parent", 8)
        parent.k(0)[:] = 2.0
        parent.length = 8
        allocator.release(parent, evictable=True)
        child = allocator.share(parent, "child", 8)
        grown = allocator.grow(child, 9)
        assert not grown.shared
        np.testing.assert_array_equal(
            grown.k(0)[:, :8, :], np.full_like(grown.k(0)[:, :8, :], 2.0)
        )
        grown.k(0)[:, 8, :] = 5.0
        allocator.release(grown)


@pytest.mark.sanitize
class TestPrefixBitIdentity:
    """Prefix-cached generation == cold generation, token for token."""

    def _tokens(self, engine, prompts, params):
        try:
            requests = [
                GenRequest(f"r{i}", list(p), params)
                for i, p in enumerate(prompts)
            ]
            results = engine.generate(requests)
            assert all(r.finish_reason != "error" for r in results)
            return [r.tokens for r in results]
        finally:
            engine.close()

    def test_random_shared_prefixes_token_identical(self):
        rng = np.random.default_rng(29)
        params = SamplingParams(max_tokens=6, temperature=0.8, seed=7)
        for trial in range(3):
            prompts = shared_prefix_prompts(
                rng, n=5, prefix_len=int(rng.integers(8, 14))
            )
            cold = self._tokens(
                small_engine(sanitize=True), prompts, params
            )
            warm_engine = small_engine(prefix_cache=True, sanitize=True)
            sanitizer = warm_engine.sanitizer
            warm = self._tokens(warm_engine, prompts, params)
            assert warm == cold, f"trial {trial}: prefix cache changed tokens"
            stats = warm_engine.stats()
            assert stats["prefix_hits"] > 0
            assert stats["prefix_hit_tokens"] >= stats["prefix_hits"] * 4
            report = sanitizer.report()
            assert not report.races
            assert not report.lock_cycles
            assert not report.lifecycle

    def test_identical_after_parent_eviction(self):
        """A tiny arena evicts retired parents between requests; stale
        trie entries must fall back to cold prefill, shared children must
        survive via their page refcounts — tokens identical throughout."""
        rng = np.random.default_rng(31)
        prompts = shared_prefix_prompts(rng, n=8, prefix_len=10)
        params = SamplingParams(max_tokens=6, temperature=0.6, seed=3)
        tight = dict(capacity_tokens=64, max_batch=2)
        cold = self._tokens(small_engine(sanitize=True, **tight), prompts, params)
        warm_engine = small_engine(prefix_cache=True, sanitize=True, **tight)
        warm = self._tokens(warm_engine, prompts, params)
        assert warm == cold
        report = warm_engine.sanitizer.report()
        assert not report.races and not report.lock_cycles and not report.lifecycle

    def test_disjoint_prompts_never_hit(self):
        rng = np.random.default_rng(37)
        prompts = [
            [int(t) + 1 for t in rng.integers(0, 10, size=6) + 10 * i]
            for i in range(4)
        ]
        engine = small_engine(prefix_cache=True)
        self._tokens(engine, prompts, SamplingParams(max_tokens=4))
        assert engine.stats()["prefix_hits"] == 0


class TestPrefixHitRouting:
    @pytest.mark.parametrize("kv_dtype, want", [
        # fp32: the whole suffix extends the shared rows in one run.
        ("float32", [("run", 4, 10)]),
        # int8: the last prompt token still samples from its own step.
        ("int8", [("run", 3, 10), ("step", 1, 13)]),
    ])
    def test_prefix_hit_runs_the_suffix_once(self, kv_dtype, want):
        engine = small_engine(prefix_cache=True, kv_dtype=kv_dtype)
        shared = list(range(1, 11))
        engine.generate([shared + [20]], SamplingParams(max_tokens=3))
        calls = []
        run, step = engine.decode.run, engine.decode.step

        def counting_run(tokens, slab):
            calls.append(("run", len(tokens), slab.length))
            return run(tokens, slab)

        def counting_step(tokens, slabs):
            calls.append(("step", len(tokens), slabs[0].length))
            return step(tokens, slabs)

        engine.decode.run, engine.decode.step = counting_run, counting_step
        [result] = engine.generate(
            [shared + [30, 31, 32, 33]], SamplingParams(max_tokens=1)
        )
        assert result.finish_reason == "length"
        assert engine.stats()["prefix_hits"] == 1
        assert calls == want
        engine.close()
