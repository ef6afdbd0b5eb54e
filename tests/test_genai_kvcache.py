"""KV-cache memory planning: the extent free list, the page/bucket slab
allocator, its sanitizer integration, and the ``kvcache.alloc`` fault
site's eviction+retry resilience ladder."""

import threading

import numpy as np
import pytest

from repro.analysis import check_slab_plan, has_errors
from repro.core.memory import ALIGNMENT, ExtentFreeList
from repro.faults import FaultPlan, FaultRule
from repro.genai import KVCacheAllocator, KVCacheConfig, KVCacheOOM
from repro.genai.kvcache import KVCacheUseAfterFree
from repro.obs.metrics import MetricsRegistry, get_metrics, set_metrics
from repro.runtime import Runtime
from repro.sanitize import Sanitizer

pytestmark = pytest.mark.genai

RNG = np.random.default_rng(7)


@pytest.fixture(autouse=True)
def _fresh_metrics():
    previous = set_metrics(MetricsRegistry())
    yield
    set_metrics(previous)


def make_config(**overrides):
    base = dict(layers=2, heads=2, d_head=8, page_tokens=8,
                capacity_tokens=128, max_seq=64)
    base.update(overrides)
    return KVCacheConfig(**base)


class TestExtentFreeList:
    def test_alloc_free_round_trip(self):
        fl = ExtentFreeList(10)
        a = fl.alloc(4)
        b = fl.alloc(6)
        assert {a, b} == {0, 4}
        assert fl.free_units == 0
        assert fl.alloc(1) is None
        fl.free(a, 4)
        fl.free(b, 6)
        assert fl.free_units == 10
        assert fl.extents() == [(0, 10)]  # coalesced back to one extent

    def test_best_fit_prefers_smallest_hole(self):
        fl = ExtentFreeList(20)
        blocks = [fl.alloc(5) for _ in range(4)]
        fl.free(blocks[0], 5)    # hole [0, 5)
        fl.free(blocks[2], 5)    # hole [10, 15)
        fl.free(blocks[3], 5)    # merges -> hole [10, 20)
        assert fl.alloc(5) == 0  # the tight 5-unit hole, not the big one
        assert fl.alloc(10) == 10

    def test_coalescing_both_sides(self):
        fl = ExtentFreeList(12)
        a, b, c = fl.alloc(4), fl.alloc(4), fl.alloc(4)
        fl.free(a, 4)
        fl.free(c, 4)
        fl.free(b, 4)  # middle free must merge with both neighbours
        assert fl.extents() == [(0, 12)]

    def test_double_free_rejected(self):
        fl = ExtentFreeList(8)
        start = fl.alloc(4)
        fl.free(start, 4)
        with pytest.raises(ValueError, match="double free"):
            fl.free(start, 2)

    def test_out_of_range_free_rejected(self):
        fl = ExtentFreeList(8)
        with pytest.raises(ValueError, match="bad free"):
            fl.free(6, 4)

    def test_fragmentation_is_bounded_by_interleaving(self):
        """Random alloc/free churn never loses units to bookkeeping."""
        fl = ExtentFreeList(64)
        held = []
        rng = np.random.default_rng(3)
        for _ in range(300):
            if held and rng.random() < 0.45:
                start, units = held.pop(rng.integers(len(held)))
                fl.free(start, units)
            else:
                units = int(rng.integers(1, 9))
                start = fl.alloc(units)
                if start is not None:
                    held.append((start, units))
        assert fl.free_units + sum(u for _, u in held) == 64
        fl2_total = fl.free_units
        for start, units in held:
            fl.free(start, units)
        assert fl.free_units == 64
        assert fl.extents() == [(0, 64)]
        assert fl2_total <= 64


class TestKVCacheConfig:
    def test_buckets_double_to_max_seq(self):
        cfg = make_config(page_tokens=8, max_seq=48)
        assert cfg.buckets() == [8, 16, 32, 48]
        assert cfg.bucket_for(1) == 8
        assert cfg.bucket_for(17) == 32
        assert cfg.bucket_for(48) == 48
        with pytest.raises(ValueError, match="exceeds max_seq"):
            cfg.bucket_for(49)

    def test_page_bytes_aligned(self):
        cfg = make_config()
        assert cfg.page_bytes % ALIGNMENT == 0
        assert cfg.page_bytes >= cfg.page_tokens * cfg.per_token_bytes

    def test_empty_arena_rejected(self):
        with pytest.raises(ValueError, match="holds no"):
            KVCacheAllocator(make_config(capacity_tokens=4, page_tokens=8))


class TestKVCacheAllocator:
    def test_slab_views_are_arena_backed(self):
        alloc = KVCacheAllocator(make_config())
        slab = alloc.alloc("s0", 10)
        assert slab.capacity == 16  # bucketed up from 10
        k = slab.k(0)
        assert k.shape == (2, 16, 8)
        k[:] = 7.0
        # A second view must observe the write: zero-copy into the arena.
        np.testing.assert_array_equal(slab.k(0), 7.0)
        assert slab.v(1).base is not None

    def test_slabs_do_not_alias(self):
        alloc = KVCacheAllocator(make_config())
        a = alloc.alloc("a", 16)
        b = alloc.alloc("b", 16)
        a.k(0)[:] = 1.0
        b.k(0)[:] = 2.0
        np.testing.assert_array_equal(a.k(0), 1.0)
        np.testing.assert_array_equal(b.k(0), 2.0)

    def test_grow_preserves_rows_and_frees_old_pages(self):
        alloc = KVCacheAllocator(make_config())
        slab = alloc.alloc("s", 8)
        rows = RNG.standard_normal((2, 5, 8)).astype(np.float32)
        slab.k(0)[:, :5] = rows
        slab.length = 5
        before = alloc.free_pages
        grown = alloc.grow(slab, 20)
        assert grown.capacity == 32
        assert grown.length == 5
        np.testing.assert_array_equal(grown.k(0)[:, :5], rows)
        assert slab.freed
        assert alloc.free_pages == before + 1 - 4  # +1 old page, -4 new

    def test_grow_within_bucket_is_noop(self):
        alloc = KVCacheAllocator(make_config())
        slab = alloc.alloc("s", 3)
        assert alloc.grow(slab, slab.capacity) is slab

    def test_exhaustion_raises_oom(self):
        alloc = KVCacheAllocator(make_config(capacity_tokens=32))
        alloc.alloc("a", 16)
        alloc.alloc("b", 16)
        with pytest.raises(KVCacheOOM, match="arena exhausted"):
            alloc.alloc("c", 8)

    def test_release_returns_pages(self):
        alloc = KVCacheAllocator(make_config(capacity_tokens=32))
        a = alloc.alloc("a", 16)
        alloc.alloc("b", 16)
        alloc.release(a)
        c = alloc.alloc("c", 16)  # reuses a's pages
        assert c.page_start == a.page_start

    def test_retired_slabs_evict_lru_under_pressure(self):
        alloc = KVCacheAllocator(make_config(capacity_tokens=32))
        a = alloc.alloc("a", 16)
        b = alloc.alloc("b", 16)
        alloc.release(a, evictable=True)
        alloc.release(b, evictable=True)
        # Arena is fully retired; a new slab must evict a (the LRU) first.
        c = alloc.alloc("c", 16)
        assert a.freed and not b.freed
        assert c.page_start == a.page_start
        assert get_metrics().value("kvcache.evictions") == 1

    def test_duplicate_seq_id_rejected(self):
        alloc = KVCacheAllocator(make_config())
        alloc.alloc("s", 8)
        with pytest.raises(ValueError, match="already owns"):
            alloc.alloc("s", 8)

    def test_grow_oom_keeps_original_slab(self):
        alloc = KVCacheAllocator(make_config(capacity_tokens=32))
        a = alloc.alloc("a", 16)
        alloc.alloc("b", 16)
        a.length = 10
        with pytest.raises(KVCacheOOM):
            alloc.grow(a, 32)
        assert not a.freed
        assert alloc.grow(a, 16) is a  # still owned and usable

    def test_reused_id_frees_the_displaced_retired_slab(self):
        # A retired slab whose id is taken again can never be reached by
        # id; it used to drop out of the tables with its pages still held.
        sanitizer = Sanitizer(metrics=get_metrics())
        alloc = KVCacheAllocator(
            make_config(), runtime=Runtime.resolve(sanitize=sanitizer))
        total = alloc.free_pages
        first = alloc.alloc("s", 16)
        alloc.release(first, evictable=True)
        second = alloc.alloc("s", 16)
        assert not first.freed              # still the warm copy while "s" runs
        alloc.release(second, evictable=True)
        assert first.freed and not second.freed
        assert get_metrics().value("kvcache.evictions") == 1
        assert alloc.free_pages == total - second.pages
        alloc.release(second)
        assert alloc.free_pages == total
        assert alloc.close() == []

    def test_thread_safety_under_churn(self):
        alloc = KVCacheAllocator(make_config(capacity_tokens=256, max_seq=32))
        errors = []

        def worker(tid):
            rng = np.random.default_rng(tid)
            try:
                for i in range(40):
                    slab = alloc.alloc(f"t{tid}-{i}", int(rng.integers(1, 20)))
                    slab.k(0)[:] = tid
                    alloc.release(slab, evictable=bool(rng.integers(2)))
            except KVCacheOOM:
                pass
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        report = alloc.check()
        assert not has_errors(report.diagnostics)


class TestSlabViewCache:
    """Plane views are carved once per slab object; the lifecycle guard
    still runs on every access."""

    @pytest.mark.parametrize("kv_dtype", ["float32", "int8"])
    @pytest.mark.parametrize("how", ["release", "evict", "grow"])
    def test_freed_slab_raises_through_cached_views(self, how, kv_dtype):
        sanitizer = Sanitizer(metrics=get_metrics())
        alloc = KVCacheAllocator(
            make_config(capacity_tokens=32, kv_dtype=kv_dtype),
            runtime=Runtime.resolve(sanitize=sanitizer))
        slab = alloc.alloc("s", 8)
        slab.write_k(0, 0, RNG.standard_normal((2, 4, 8)).astype(np.float32))
        slab.length = 4
        slab.k_read(0, rows=4)
        slab.v(1)                                 # every plane's views cached
        if how == "release":
            alloc.release(slab)
        elif how == "evict":
            alloc.release(slab, evictable=True)
            alloc.alloc("big", 32)                # needs the whole arena
        else:
            alloc.grow(slab, slab.capacity + 1)
        assert slab.freed
        for read in (lambda: slab.k_read(0), lambda: slab.v(1),
                     lambda: slab.write_v(1, 0, np.zeros((2, 1, 8), np.float32))):
            with pytest.raises(KVCacheUseAfterFree):
                read()
        assert any(f.rule == "use-after-free" for f in sanitizer.report().lifecycle)

    def test_cow_child_cached_views_stay_read_only(self):
        alloc = KVCacheAllocator(make_config(kv_dtype="int8"))
        parent = alloc.alloc("p", 8)
        prefix = RNG.standard_normal((2, 6, 8)).astype(np.float32)
        parent.write_k(0, 0, prefix)
        parent.length = 6
        before = parent.k(0).copy()
        child = alloc.share(parent, "c", 4)
        child.k_read(0, rows=4)                   # cache the shared views
        row = RNG.standard_normal((2, 1, 8)).astype(np.float32)
        with pytest.raises(ValueError, match="read-only"):
            child.write_k(0, 4, row)
        with pytest.raises(ValueError, match="read-only"):
            child.k(0)[:, 0] = 0
        assert not child._scales_view(0, 0).flags.writeable
        own = alloc.materialize(child)
        own.write_k(0, 4, row)                    # the private copy is writable
        assert own._scales_view(0, 0).flags.writeable
        np.testing.assert_array_equal(own.k(0)[:, :4], before[:, :4])
        np.testing.assert_array_equal(parent.k(0), before)
        with pytest.raises(KVCacheUseAfterFree):
            child.k(0)


class TestSlabPlanSanitizer:
    def test_live_layout_passes(self):
        alloc = KVCacheAllocator(make_config())
        for i in range(3):
            alloc.alloc(f"s{i}", 16)
        report = alloc.check()
        assert not has_errors(report.diagnostics)
        assert report.checked_tensors == 3
        assert report.peak_bytes == 3 * 2 * make_config().page_bytes

    def test_overlap_detected(self):
        alloc = KVCacheAllocator(make_config())
        alloc.alloc("a", 16)
        alloc.alloc("b", 16)
        plan = alloc.to_memory_plan()
        # Forge an aliasing layout: move b onto a's offset.
        plan.offsets["b"] = plan.offsets["a"]
        report = check_slab_plan(plan, page_bytes=alloc.config.page_bytes)
        assert any(d.rule == "mem-overlap" for d in report.diagnostics)

    def test_misaligned_and_unpaged_detected(self):
        alloc = KVCacheAllocator(make_config())
        alloc.alloc("a", 8)
        plan = alloc.to_memory_plan()
        plan.offsets["a"] = 3
        report = check_slab_plan(plan, page_bytes=alloc.config.page_bytes)
        rules = {d.rule for d in report.diagnostics}
        assert "mem-misaligned" in rules and "mem-unpaged" in rules

    def test_out_of_bounds_detected(self):
        alloc = KVCacheAllocator(make_config())
        alloc.alloc("a", 8)
        plan = alloc.to_memory_plan()
        plan.offsets["a"] = plan.arena_bytes
        report = check_slab_plan(plan, page_bytes=alloc.config.page_bytes)
        assert any(d.rule == "mem-out-of-bounds" for d in report.diagnostics)


class TestAllocFaults:
    def test_transient_alloc_faults_are_retried(self):
        plan = FaultPlan([FaultRule("kvcache.alloc", "transient", times=2)], seed=1)
        alloc = KVCacheAllocator(make_config(),
                                 runtime=Runtime.resolve(faults=plan))
        slab = alloc.alloc("s", 8)  # retries absorb both transients
        assert slab.capacity == 8
        assert plan.injected == 2
        assert get_metrics().value("retry.attempts") == 2

    def test_fatal_alloc_fault_degrades_to_eviction(self):
        # skip=1 spares the setup allocation; the fatal hits "new".
        plan = FaultPlan([FaultRule("kvcache.alloc", "fatal", times=1, skip=1)],
                         seed=1)
        alloc = KVCacheAllocator(make_config(capacity_tokens=32),
                                 runtime=Runtime.resolve(faults=plan))
        victim = alloc.alloc("old", 16)
        alloc.release(victim, evictable=True)
        # The injected fatal is absorbed by evicting the retired slab and
        # retrying — allocation still succeeds, nothing crashes.
        slab = alloc.alloc("new", 16)
        assert slab.capacity == 16
        assert victim.freed
        assert get_metrics().value("fallback.evict") == 1
        assert get_metrics().value("kvcache.evictions") == 1

    def test_fatal_with_nothing_evictable_is_isolated_oom(self):
        plan = FaultPlan([FaultRule("kvcache.alloc", "fatal", times=1)], seed=1)
        alloc = KVCacheAllocator(make_config(),
                                 runtime=Runtime.resolve(faults=plan))
        with pytest.raises(KVCacheOOM, match="nothing left to evict"):
            alloc.alloc("s", 8)
        # The fault is accounted as isolated (typed failure, no crash) and
        # the allocator remains fully usable afterwards.
        assert get_metrics().value("faults.isolated") == 1
        assert alloc.alloc("s", 8).capacity == 8

    def test_eviction_ladder_walks_lru_until_fit(self):
        # skip=4 spares the setup allocations; the fatals hit "big"'s
        # attempts, each absorbed by evicting one more retired slab.
        plan = FaultPlan([FaultRule("kvcache.alloc", "fatal", times=3, skip=4)],
                         seed=1)
        alloc = KVCacheAllocator(make_config(capacity_tokens=64),
                                 runtime=Runtime.resolve(faults=plan))
        slabs = [alloc.alloc(f"s{i}", 16) for i in range(4)]
        for s in slabs:
            alloc.release(s, evictable=True)
        big = alloc.alloc("big", 16)
        assert big.capacity == 16
        assert plan.injected >= 1
