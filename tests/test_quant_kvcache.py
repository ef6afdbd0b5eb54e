"""Quantized KV-cache mode (``KVCacheConfig(kv_dtype="int8")``).

Contracts under test: per-row symmetric quantize-on-write / dequant-on-
read, the >= 3x capacity win at equal arena bytes, bit-verbatim payload
+ scales movement through grow/COW/materialize, the scale-table reset on
fresh carves, the memcheck extent rule for int8 arenas, and engine-level
determinism (seeded replay, prefix on/off identity, chaos storm).
"""

import numpy as np
import pytest

from repro.analysis import check_slab_plan, has_errors
from repro.genai import (
    DecodeRunner,
    GenerationConfig,
    GenerationEngine,
    KVCacheAllocator,
    KVCacheConfig,
    SamplingParams,
)
from repro.genai.kvcache import KVCacheUseAfterFree
from repro.models import tiny_decoder
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.quant import dequantize_rows, quantize_rows

pytestmark = pytest.mark.quant

RNG = np.random.default_rng(31)


@pytest.fixture(autouse=True)
def _fresh_metrics():
    previous = set_metrics(MetricsRegistry())
    yield
    set_metrics(previous)


def make_config(**overrides):
    base = dict(layers=2, heads=2, d_head=8, page_tokens=8,
                capacity_tokens=128, max_seq=64, kv_dtype="int8")
    base.update(overrides)
    return KVCacheConfig(**base)


def rows(heads, n, d_head, seed=0):
    return np.random.default_rng(seed).standard_normal(
        (heads, n, d_head)).astype(np.float32)


class TestConfig:
    def test_unknown_dtype_rejected(self):
        with pytest.raises(ValueError):
            make_config(kv_dtype="float16")

    def test_int8_requires_aligned_head_dim(self):
        with pytest.raises(ValueError):
            make_config(d_head=6)

    def test_capacity_ratio_at_least_3x(self):
        # both the bench geometry (d_head=16) and the chaos geometry
        # (d_head=8) must clear the acceptance bar
        for d_head in (8, 16):
            q = make_config(d_head=d_head)
            fp = make_config(d_head=d_head, kv_dtype="float32")
            assert fp.per_token_bytes / q.per_token_bytes >= 3.0

    def test_per_token_bytes_includes_row_scales(self):
        cfg = make_config()
        # layers * {k,v} * (heads*d_head int8 payload + one f32 scale)
        assert cfg.per_token_bytes == 2 * 2 * (2 * 8 * 1 + 4)


class TestRowCodec:
    def test_round_trip_error_bounded(self):
        x = rows(2, 6, 8, seed=1)
        q, scales = quantize_rows(x)
        back = dequantize_rows(q, scales)
        # symmetric per-row: error <= scale/2 = max_abs/254 per row
        per_row_bound = np.abs(x).max(axis=(0, 2)) / 254 + 1e-7
        err = np.abs(back - x).max(axis=(0, 2))
        assert (err <= per_row_bound).all()

    def test_zero_scale_sentinel_round_trips_to_zero(self):
        x = np.zeros((2, 3, 8), np.float32)
        q, scales = quantize_rows(x)
        assert not scales.any()
        np.testing.assert_array_equal(dequantize_rows(q, scales), x)


class TestSlab:
    def test_raw_view_is_int8_read_is_float32(self):
        alloc = KVCacheAllocator(make_config())
        slab = alloc.alloc("s0", 8)
        assert slab.k(0).dtype == np.int8
        assert slab.k_read(0).dtype == np.float32

    def test_write_read_round_trip_bounded(self):
        alloc = KVCacheAllocator(make_config())
        slab = alloc.alloc("s0", 8)
        x = rows(2, 5, 8, seed=2)
        slab.write_k(0, 0, x)
        got = slab.k_read(0)[:, :5]
        assert np.abs(got - x).max() <= np.abs(x).max() / 254 + 1e-7

    def test_fresh_carve_resets_recycled_scales(self):
        alloc = KVCacheAllocator(make_config(capacity_tokens=32))
        first = alloc.alloc("a", 32)
        # poison the whole arena through the first owner's raw bytes,
        # including where the next owner's scales table will land
        first.buffer[first.offset_bytes : first.offset_bytes + first.nbytes] = 0x7F
        alloc.release(first)
        second = alloc.alloc("b", 32)
        # unwritten rows must dequantize to exact zeros, not junk
        np.testing.assert_array_equal(
            second.k_read(0), np.zeros_like(second.k_read(0))
        )
        alloc.release(second)

    def test_grow_moves_rows_and_scales_verbatim(self):
        alloc = KVCacheAllocator(make_config(capacity_tokens=128))
        slab = alloc.alloc("s0", 8)
        x = rows(2, 8, 8, seed=3)
        for layer in range(2):
            slab.write_k(layer, 0, x)
            slab.write_v(layer, 0, -x)
        slab.length = 8
        before = slab.k_read(0)[:, :8].copy()
        raw_before = slab.k(0)[:, :8].copy()
        grown = alloc.grow(slab, 40)
        assert grown.capacity > 8
        np.testing.assert_array_equal(grown.k(0)[:, :8], raw_before)
        np.testing.assert_array_equal(grown.k_read(0)[:, :8], before)
        alloc.release(grown)

    def test_cow_share_and_materialize_are_bit_identical(self):
        alloc = KVCacheAllocator(make_config(capacity_tokens=128))
        parent = alloc.alloc("p", 16)
        x = rows(2, 16, 8, seed=4)
        for layer in range(2):
            parent.write_k(layer, 0, x)
            parent.write_v(layer, 0, 2 * x)
        parent.length = 16
        alloc.release(parent, evictable=True)
        child = alloc.share(parent, "c", 16)
        assert child.shared
        np.testing.assert_array_equal(child.k(1), parent.k(1))
        # a shared view must reject writes outright
        with pytest.raises((ValueError, RuntimeError)):
            child.write_k(0, 0, x[:, :1])
        owned = alloc.materialize(child, 24)
        assert not owned.shared
        np.testing.assert_array_equal(owned.k(1)[:, :16], parent.k(1)[:, :16])
        np.testing.assert_array_equal(
            owned.k_read(1)[:, :16], parent.k_read(1)[:, :16]
        )
        alloc.release(owned)

    def test_use_after_free_raises_through_read(self):
        alloc = KVCacheAllocator(make_config())
        slab = alloc.alloc("s0", 8)
        alloc.release(slab, evictable=False)
        with pytest.raises(KVCacheUseAfterFree):
            slab.k_read(0)


class TestBatchedDecodeCodec:
    """``DecodeRunner.step`` quantizes a whole step's new rows in one codec
    call; the bytes must be what per-sequence ``write_k``/``write_v`` store."""

    LAYERS, CAPACITY = 2, 16

    def config(self):
        return make_config(layers=self.LAYERS, capacity_tokens=256, max_seq=32)

    def seed_rows(self, slab, n, seed):
        for layer in range(self.LAYERS):
            slab.write_k(layer, 0, rows(2, n, 8, seed=seed + layer))
            slab.write_v(layer, 0, rows(2, n, 8, seed=seed + 10 + layer))
        slab.length = n

    def test_step_bytes_equal_per_sequence_writes(self):
        alloc, mirror = KVCacheAllocator(self.config()), KVCacheAllocator(self.config())
        lengths = {"plain-a": 3, "plain-b": 6, "grown": 8, "cow": 5}
        slabs, refs = [], []
        for seed, (name, n) in enumerate(lengths.items()):
            if name == "cow":       # materialized out of a shared parent
                parent = alloc.alloc("parent", n)
                self.seed_rows(parent, n, 100 * seed)
                alloc.release(parent, evictable=True)
                slab = alloc.grow(alloc.share(parent, name, n), n + 1)
                assert not slab.shared
            else:
                slab = alloc.alloc(name, n)
                self.seed_rows(slab, n, 100 * seed)
            slab = alloc.grow(slab, self.CAPACITY)   # "grown" re-buckets 8 -> 16
            assert slab.capacity == self.CAPACITY
            ref = mirror.alloc(name, self.CAPACITY)
            self.seed_rows(ref, n, 100 * seed)
            slabs.append(slab)
            refs.append(ref)

        runner = DecodeRunner(
            lambda batch, tokens, cap: tiny_decoder(
                mode="decode", batch=batch, seq_len=tokens, cache_len=cap, vocab=32,
                max_seq=32, d_model=16, heads=2, layers=self.LAYERS, seed=5),
            layers=self.LAYERS, max_batch=4, max_seq=32,
        )
        outputs = []
        prepared = runner._session

        class Recording:
            def __init__(self, session):
                self.session = session

            def run(self, feeds):
                outputs.append({k: v.copy() for k, v in self.session.run(feeds).items()})
                return outputs[-1]

        runner._session = lambda *cell: Recording(prepared(*cell))

        for step in range(5):
            runner.step([1 + step, 2, 3, 4], slabs)
            for i, ref in enumerate(refs):
                for layer in range(self.LAYERS):
                    ref.write_k(layer, ref.length, outputs[-1][f"l{layer}_k"][i, :, 0:1, :])
                    ref.write_v(layer, ref.length, outputs[-1][f"l{layer}_v"][i, :, 0:1, :])
                ref.length += 1

        for slab, ref in zip(slabs, refs):
            n = ref.length
            assert slab.length == n == lengths[slab.seq_id] + 5
            for layer in range(self.LAYERS):
                for which in (0, 1):
                    payload, want = slab._view(layer, which), ref._view(layer, which)
                    assert payload.dtype == np.int8
                    assert payload[:, :n].tobytes() == want[:, :n].tobytes()
                    assert (slab._scales_view(layer, which)[:n].tobytes()
                            == ref._scales_view(layer, which)[:n].tobytes())
                np.testing.assert_array_equal(slab.k_read(layer), ref.k_read(layer))
                np.testing.assert_array_equal(slab.v_read(layer), ref.v_read(layer))


class TestMemcheck:
    def test_live_int8_layout_is_clean(self):
        alloc = KVCacheAllocator(make_config(capacity_tokens=128))
        slabs = [alloc.alloc(f"s{i}", 8 * (i + 1)) for i in range(3)]
        report = alloc.check()
        assert not has_errors(report.diagnostics)
        for slab in slabs:
            alloc.release(slab)

    def test_under_carved_arena_flags_quant_extent(self):
        # an int8 slab carved without room for its scales table
        cfg = make_config()
        alloc = KVCacheAllocator(make_config(capacity_tokens=128))
        slab = alloc.alloc("s0", 8)
        plan = alloc.to_memory_plan()
        report = check_slab_plan(
            plan,
            page_bytes=cfg.page_bytes,
            per_token_bytes=cfg.per_token_bytes,
            token_capacities={slab.seq_id: slab.capacity * 2},  # lie: 2x rows
        )
        assert any(d.rule == "mem-quant-extent" for d in report.diagnostics)
        alloc.release(slab)

    def test_fp_bytes_on_int8_arena_flags_quant_extent(self):
        # fp32 accounting on an int8 arena over-carves ~3-4x: the rule
        # must notice nbytes >= 2*need + page
        fp = make_config(kv_dtype="float32")
        q = make_config()
        alloc = KVCacheAllocator(fp)
        slab = alloc.alloc("s0", 8)
        plan = alloc.to_memory_plan()
        report = check_slab_plan(
            plan,
            page_bytes=q.page_bytes,
            per_token_bytes=q.per_token_bytes,
            token_capacities={slab.seq_id: slab.capacity},
        )
        assert any(d.rule == "mem-quant-extent" for d in report.diagnostics)
        alloc.release(slab)


def engine_config(**overrides):
    base = dict(vocab=64, max_seq=24, d_model=16, heads=2, layers=1,
                seed=11, max_batch=2, page_tokens=4, capacity_tokens=64,
                smallest_bucket=8, kv_dtype="int8")
    base.update(overrides)
    return GenerationConfig(**base)


def generate(config, n_prompts=4, max_tokens=8, prompt_seed=11):
    engine = GenerationEngine(config)
    try:
        gen = np.random.default_rng(prompt_seed)
        prompts = [
            [int(t) for t in gen.integers(0, config.vocab, size=int(n))]
            for n in gen.integers(2, 7, size=n_prompts)
        ]
        results = engine.generate(prompts, SamplingParams(max_tokens=max_tokens))
        return [r.tokens for r in results]
    finally:
        engine.close()


class TestEngine:
    def test_seeded_replay_is_bit_identical(self):
        assert generate(engine_config()) == generate(engine_config())

    def test_quantized_weights_replay_is_bit_identical(self):
        cfg = dict(quantize_weights=True)
        assert generate(engine_config(**cfg)) == generate(engine_config(**cfg))

    def test_prefix_cache_on_off_identity(self):
        # single-layer: rows written by a multi-token run and by one-token
        # steps agree bitwise, so the prefix cache cannot perturb
        # quantized tokens
        off = generate(engine_config())
        on = generate(engine_config(prefix_cache=True, retain_kv=True))
        assert off == on

    def test_stats_report_quantized_bytes_per_token(self):
        engine = GenerationEngine(engine_config())
        try:
            q_bpt = engine.stats()["kv_bytes_per_token"]
        finally:
            engine.close()
        engine = GenerationEngine(engine_config(kv_dtype="float32"))
        try:
            fp_bpt = engine.stats()["kv_bytes_per_token"]
        finally:
            engine.close()
        assert fp_bpt / q_bpt >= 3.0


@pytest.mark.chaos
class TestQuantizedChaos:
    def test_small_storm_with_int8_kv_is_clean(self):
        from repro.faults.chaos import run_chaos_storm

        report = run_chaos_storm(seed=5, target_faults=12, max_rounds=12,
                                 kv_dtype="int8")
        assert report.ok, report.summary()
        assert report.injected >= 12
        assert report.mismatched == 0 and report.crashes == 0
