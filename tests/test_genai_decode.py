"""Incremental attention, the decoder-only model builder, and the
bucketed runner that appends prompts and decode steps to KV slabs.

The load-bearing contract everywhere here is *bit-identity*: attending
one query row against cached K/V must reproduce the exact bits of the
same row inside a full-sequence recompute, because the genai subsystem
reuses that equality to serve autoregressive decoding on prepared
fixed-shape graphs."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.backends.op_runners import _rowwise_matmul
from repro.core import Session, SessionConfig
from repro.genai import (
    DecodeRunner,
    KVCacheAllocator,
    KVCacheConfig,
    batch_buckets,
    bucket_for_batch,
    bucket_for_length,
    length_buckets,
)
from repro.ir import DataType, GraphBuilder, GraphError, Op
from repro.kernels import attention, attention_step
from repro.models import build_model, tiny_decoder
from repro.obs.metrics import MetricsRegistry, set_metrics

pytestmark = pytest.mark.genai

RNG = np.random.default_rng(21)


@pytest.fixture(autouse=True)
def _fresh_metrics():
    previous = set_metrics(MetricsRegistry())
    yield
    set_metrics(previous)


def qkv(n=1, h=2, t=6, dh=8):
    return (RNG.standard_normal((n, h, t, dh)).astype(np.float32) for _ in range(3))


# -- the parent's loop kernels, kept as bitwise oracles -----------------------------
def _attend_row_reference(q_row, keys, values, scale):
    scores = (keys @ q_row) * scale
    scores = scores - scores.max()
    weights = np.exp(scores)
    weights /= weights.sum(dtype=weights.dtype)
    return weights @ values


def _merged_kv_reference(cache, new, base):
    if cache is None or base == 0:
        return new if cache is None else np.ascontiguousarray(new)
    return np.concatenate([cache[:base], new], axis=0)


def attention_reference(q, k, v, lengths=None, k_cache=None, v_cache=None,
                        causal=True):
    """Per-sequence, per-head, per-row loop: one GEMV per (head, row)."""
    n, h, tq, dh = q.shape
    scale = np.float32(dh**-0.5)
    out = np.empty_like(q)
    for ni in range(n):
        base = 0 if lengths is None else int(lengths[ni])
        for hi in range(h):
            keys = _merged_kv_reference(
                None if k_cache is None else k_cache[ni, hi], k[ni, hi], base)
            values = _merged_kv_reference(
                None if v_cache is None else v_cache[ni, hi], v[ni, hi], base)
            for t in range(tq):
                valid = base + t + 1 if causal else base + tq
                out[ni, hi, t] = _attend_row_reference(
                    q[ni, hi, t], keys[:valid], values[:valid], scale)
    return out


def rowwise_matmul_reference(a, b):
    """One ``(K,) @ (K, N)`` call per output row."""
    rows = np.ascontiguousarray(a.reshape(-1, a.shape[-1]))
    out = np.empty((rows.shape[0], b.shape[1]), dtype=rows.dtype)
    for i in range(rows.shape[0]):
        out[i] = rows[i] @ b
    return out.reshape(*a.shape[:-1], b.shape[1])


_NODE = SimpleNamespace(name="rowwise")


@st.composite
def attention_cases(draw):
    n = draw(st.integers(1, 6))
    cap = draw(st.integers(8, 128))
    return dict(
        n=n, h=draw(st.integers(1, 8)), dh=draw(st.sampled_from([4, 8, 16, 32])),
        tq=draw(st.integers(1, 40)), cap=cap,
        lengths=draw(st.lists(st.integers(0, cap - 1), min_size=n, max_size=n)),
        cached=draw(st.booleans()), causal=draw(st.booleans()),
        seed=draw(st.integers(0, 2**16)),
    )


@st.composite
def rowwise_cases(draw):
    m, k, n = draw(st.integers(1, 64)), draw(st.integers(1, 512)), draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    layout = draw(st.sampled_from(["contiguous", "strided", "transposed", "stacked"]))
    if layout == "strided":
        a = rng.standard_normal((m, 2 * k)).astype(np.float32)[:, ::2]
    elif layout == "transposed":
        a = rng.standard_normal((k, m)).astype(np.float32).T
    elif layout == "stacked":
        a = rng.standard_normal((1, m, k)).astype(np.float32)
    else:
        a = rng.standard_normal((m, k)).astype(np.float32)
    if draw(st.booleans()):   # transpose_b: the runner swaps the rhs axes
        b = np.swapaxes(rng.standard_normal((n, k)).astype(np.float32), -1, -2)
    else:
        b = rng.standard_normal((k, n)).astype(np.float32)
    return a, b


class TestAttentionKernel:
    # The head-batched attention and stacked-GEMV rowwise MatMul are
    # bitwise equal to the per-head / per-row loops they replaced.
    @given(attention_cases())
    @settings(max_examples=60, deadline=None)
    def test_attention_matches_per_head_row_loop(self, case):
        rng = np.random.default_rng(case["seed"])
        n, h, tq, dh, cap = (case[key] for key in ("n", "h", "tq", "dh", "cap"))
        q, k, v = (rng.standard_normal((n, h, tq, dh)).astype(np.float32)
                   for _ in range(3))
        cache = {}
        if case["cached"]:
            cache = dict(
                lengths=np.asarray(case["lengths"], np.int32),
                k_cache=rng.standard_normal((n, h, cap, dh)).astype(np.float32),
                v_cache=rng.standard_normal((n, h, cap, dh)).astype(np.float32),
            )
        got = attention(q, k, v, causal=case["causal"], **cache)
        want = attention_reference(q, k, v, causal=case["causal"], **cache)
        np.testing.assert_array_equal(got, want)

    @given(rowwise_cases())
    @settings(max_examples=60, deadline=None)
    def test_rowwise_matmul_matches_per_row_loop(self, case):
        a, b = case
        got = _rowwise_matmul(_NODE, a, b)
        np.testing.assert_array_equal(got, rowwise_matmul_reference(a, b))
        # Row i of the M-row call is the 1-row call: M never leaks in.
        rows = a.reshape(-1, a.shape[-1])
        flat = got.reshape(rows.shape[0], -1)
        for i in range(rows.shape[0]):
            np.testing.assert_array_equal(
                flat[i], _rowwise_matmul(_NODE, rows[i : i + 1], b)[0])

    def test_causal_masks_the_future(self):
        q, k, v = qkv()
        out = attention(q, k, v, causal=True)
        # Row 0 sees only key 0; perturbing the last key must not move it.
        k2 = k.copy()
        k2[:, :, -1] += 100.0
        out2 = attention(q, k2, v, causal=True)
        np.testing.assert_array_equal(out[:, :, 0], out2[:, :, 0])
        assert not np.array_equal(out[:, :, -1], out2[:, :, -1])

    def test_non_causal_attends_everywhere(self):
        q, k, v = qkv()
        out = attention(q, k, v, causal=False)
        k2 = k.copy()
        k2[:, :, -1] += 100.0
        out2 = attention(q, k2, v, causal=False)
        assert not np.array_equal(out[:, :, 0], out2[:, :, 0])

    def test_matches_naive_softmax_reference(self):
        n, h, t, dh = 2, 2, 5, 4
        q = RNG.standard_normal((n, h, t, dh)).astype(np.float32)
        k = RNG.standard_normal((n, h, t, dh)).astype(np.float32)
        v = RNG.standard_normal((n, h, t, dh)).astype(np.float32)
        got = attention(q, k, v, causal=True)
        for ni in range(n):
            for hi in range(h):
                for ti in range(t):
                    scores = (k[ni, hi, : ti + 1] @ q[ni, hi, ti]) * dh**-0.5
                    w = np.exp(scores - scores.max())
                    w /= w.sum()
                    np.testing.assert_allclose(
                        got[ni, hi, ti], w @ v[ni, hi, : ti + 1], atol=1e-5
                    )

    def test_step_bit_identical_to_full_at_every_position(self):
        """The satellite contract: decode-with-cache == recompute, bitwise,
        at every step of the sequence."""
        n, h, t, dh = 2, 2, 12, 8
        q = RNG.standard_normal((n, h, t, dh)).astype(np.float32)
        k = RNG.standard_normal((n, h, t, dh)).astype(np.float32)
        v = RNG.standard_normal((n, h, t, dh)).astype(np.float32)
        full = attention(q, k, v, causal=True)

        k_cache = np.zeros((n, h, t, dh), np.float32)
        v_cache = np.zeros((n, h, t, dh), np.float32)
        for step in range(t):
            lengths = np.full((n,), step, np.int32)
            got = attention_step(
                q[:, :, step], k[:, :, step], v[:, :, step],
                k_cache, v_cache, lengths,
            )
            np.testing.assert_array_equal(got, full[:, :, step])
            k_cache[:, :, step] = k[:, :, step]
            v_cache[:, :, step] = v[:, :, step]

    def test_chunked_prefill_bit_identical_to_full(self):
        """Cached continuation of a half-prefilled sequence matches the
        one-shot full computation bitwise (prefill/decode boundary can
        fall anywhere)."""
        n, h, t, dh, split = 1, 2, 10, 4, 6
        q = RNG.standard_normal((n, h, t, dh)).astype(np.float32)
        k = RNG.standard_normal((n, h, t, dh)).astype(np.float32)
        v = RNG.standard_normal((n, h, t, dh)).astype(np.float32)
        full = attention(q, k, v, causal=True)
        cap = 16
        k_cache = np.zeros((n, h, cap, dh), np.float32)
        v_cache = np.zeros((n, h, cap, dh), np.float32)
        k_cache[:, :, :split] = k[:, :, :split]
        v_cache[:, :, :split] = v[:, :, :split]
        lengths = np.full((n,), split, np.int32)
        got = attention(
            q[:, :, split:], k[:, :, split:], v[:, :, split:],
            lengths=lengths, k_cache=k_cache, v_cache=v_cache, causal=True,
        )
        np.testing.assert_array_equal(got, full[:, :, split:])

    def test_cache_rows_beyond_length_are_ignored(self):
        n, h, dh, cap = 1, 2, 4, 8
        q = RNG.standard_normal((n, h, dh)).astype(np.float32)
        k_new = RNG.standard_normal((n, h, dh)).astype(np.float32)
        v_new = RNG.standard_normal((n, h, dh)).astype(np.float32)
        k_cache = RNG.standard_normal((n, h, cap, dh)).astype(np.float32)
        v_cache = RNG.standard_normal((n, h, cap, dh)).astype(np.float32)
        lengths = np.array([3], np.int32)
        a = attention_step(q, k_new, v_new, k_cache, v_cache, lengths)
        k_cache[:, :, 3:] = 999.0  # garbage beyond the valid prefix
        v_cache[:, :, 3:] = -999.0
        b = attention_step(q, k_new, v_new, k_cache, v_cache, lengths)
        np.testing.assert_array_equal(a, b)

    def test_kv_shape_mismatch_rejected(self):
        q, k, v = qkv()
        with pytest.raises(ValueError, match="k/v shape mismatch"):
            attention(q, k, v[:, :, :3])

    def test_cache_must_come_in_pairs(self):
        q, k, v = qkv()
        with pytest.raises(ValueError, match="together"):
            attention(q, k, v, k_cache=np.zeros_like(k))


class TestAttentionOp:
    def test_shape_inference_and_execution(self):
        b = GraphBuilder()
        q = b.input("q", (1, 2, 4, 8))
        k = b.input("k", (1, 2, 4, 8))
        v = b.input("v", (1, 2, 4, 8))
        out = b.attention(q, k, v, causal=True)
        b.output(out)
        g = b.finish()
        assert g.desc(out).shape == (1, 2, 4, 8)
        feeds = {name: RNG.standard_normal((1, 2, 4, 8)).astype(np.float32)
                 for name in ("q", "k", "v")}
        got = Session(g).run(feeds)[out]
        np.testing.assert_array_equal(
            got, attention(feeds["q"], feeds["k"], feeds["v"], causal=True)
        )

    def test_cached_variant_in_graph(self):
        b = GraphBuilder()
        q = b.input("q", (2, 2, 1, 8))
        k = b.input("k", (2, 2, 1, 8))
        v = b.input("v", (2, 2, 1, 8))
        lengths = b.input("lengths", (2,), DataType.INT32)
        kc = b.input("kc", (2, 2, 16, 8))
        vc = b.input("vc", (2, 2, 16, 8))
        out = b.attention(q, k, v, lengths, kc, vc)
        b.output(out)
        g = b.finish()
        assert g.desc(out).shape == (2, 2, 1, 8)

    def test_partial_cache_args_rejected(self):
        b = GraphBuilder()
        q = b.input("q", (1, 2, 4, 8))
        with pytest.raises(GraphError, match="together"):
            b.attention(q, q, q, lengths="q")

    def test_bad_cache_geometry_rejected(self):
        b = GraphBuilder()
        q = b.input("q", (2, 2, 1, 8))
        lengths = b.input("lengths", (2,), DataType.INT32)
        kc = b.input("kc", (2, 2, 16, 4))  # wrong d_head
        b.attention(q, q, q, lengths, kc, kc)
        with pytest.raises(GraphError, match="cache must be"):
            b.finish()

    def test_float_lengths_rejected(self):
        b = GraphBuilder()
        q = b.input("q", (2, 2, 1, 8))
        lengths = b.input("lengths", (2,))  # float32
        kc = b.input("kc", (2, 2, 16, 8))
        b.attention(q, q, q, lengths, kc, kc)
        with pytest.raises(GraphError, match="integer"):
            b.finish()


class TestBuckets:
    def test_length_buckets_end_at_max(self):
        assert length_buckets(48, smallest=8) == [8, 16, 32, 48]
        assert length_buckets(8, smallest=8) == [8]
        assert length_buckets(6, smallest=8) == [6]

    def test_bucket_for_length(self):
        buckets = length_buckets(64)
        assert bucket_for_length(1, buckets) == 8
        assert bucket_for_length(9, buckets) == 16
        assert bucket_for_length(64, buckets) == 64
        with pytest.raises(ValueError, match="exceeds"):
            bucket_for_length(65, buckets)

    def test_batch_buckets(self):
        assert batch_buckets(6) == [1, 2, 4, 6]
        assert bucket_for_batch(3, batch_buckets(6)) == 4


class TestTinyDecoder:
    def test_full_mode_outputs(self):
        g = tiny_decoder(vocab=50, max_seq=16, d_model=16, heads=2, layers=2,
                         seq_len=8)
        session = Session(g)
        out = session.run({
            "tokens": RNG.integers(0, 50, (1, 8)).astype(np.int32),
            "positions": np.arange(8, dtype=np.int32)[None],
        })
        assert out["logits"].shape == (1, 8, 50)
        for layer in range(2):
            assert out[f"l{layer}_k"].shape == (1, 2, 8, 8)
            assert out[f"l{layer}_v"].shape == (1, 2, 8, 8)

    def test_configurable_architecture(self):
        g = tiny_decoder(vocab=30, max_seq=8, d_model=24, heads=3, layers=3,
                         seq_len=4)
        hist = g.op_histogram()
        assert hist[Op.ATTENTION] == 3
        # 2 LN per layer + final
        assert hist[Op.LAYER_NORM] == 7
        out = Session(g).run({
            "tokens": RNG.integers(0, 30, (1, 4)).astype(np.int32),
            "positions": np.arange(4, dtype=np.int32)[None],
        })
        assert out["logits"].shape == (1, 4, 30)

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            tiny_decoder(d_model=30, heads=4)
        with pytest.raises(ValueError, match="mode"):
            tiny_decoder(mode="streaming")
        with pytest.raises(ValueError, match="exceeds max_seq"):
            tiny_decoder(max_seq=8, seq_len=16)

    def test_registry_build(self):
        g = build_model("tiny_decoder", seq_len=4, vocab=16, max_seq=8,
                        d_model=16, heads=2, layers=1)
        assert g.name.startswith("tiny_decoder")

    def test_causality_prefix_invariance(self):
        """Logits for a prefix are unchanged by what follows it."""
        kwargs = dict(vocab=40, max_seq=16, d_model=16, heads=2, layers=2, seed=5)
        g = tiny_decoder(seq_len=12, **kwargs)
        session = Session(g)
        base = RNG.integers(0, 40, (1, 12)).astype(np.int32)
        changed = base.copy()
        changed[0, 8:] = (changed[0, 8:] + 7) % 40
        positions = np.arange(12, dtype=np.int32)[None]
        a = session.run({"tokens": base, "positions": positions})["logits"]
        b = session.run({"tokens": changed, "positions": positions})["logits"]
        np.testing.assert_array_equal(a[0, :8], b[0, :8])
        assert not np.array_equal(a[0, 8:], b[0, 8:])

    def test_decode_mode_bit_identical_to_full(self):
        """One decode-mode step reproduces the full-mode logits row bitwise
        (same weights via the shared seed; same per-row kernels)."""
        kwargs = dict(vocab=32, max_seq=16, d_model=16, heads=2, layers=2, seed=9)
        tokens = RNG.integers(0, 32, 10).astype(np.int32)
        full = Session(tiny_decoder(seq_len=10, **kwargs)).run({
            "tokens": tokens[None],
            "positions": np.arange(10, dtype=np.int32)[None],
        })

        cap = 16
        decode_g = tiny_decoder(mode="decode", batch=1, cache_len=cap, **kwargs)
        session = Session(decode_g)
        k_cache = {l: np.zeros((1, 2, cap, 8), np.float32) for l in range(2)}
        v_cache = {l: np.zeros((1, 2, cap, 8), np.float32) for l in range(2)}
        for step in range(10):
            feeds = {
                "tokens": tokens[step].reshape(1, 1),
                "positions": np.array([[step]], np.int32),
                "lengths": np.array([step], np.int32),
            }
            for l in range(2):
                feeds[f"l{l}_k_cache"] = k_cache[l]
                feeds[f"l{l}_v_cache"] = v_cache[l]
            out = session.run(feeds)
            np.testing.assert_array_equal(
                out["logits"][0, 0], full["logits"][0, step],
                err_msg=f"decode step {step} diverged from full recompute",
            )
            for l in range(2):
                np.testing.assert_array_equal(
                    out[f"l{l}_k"][0, :, 0], full[f"l{l}_k"][0, :, step]
                )
                k_cache[l][0, :, step] = out[f"l{l}_k"][0, :, 0]
                v_cache[l][0, :, step] = out[f"l{l}_v"][0, :, 0]


def _kv_config(**overrides):
    base = dict(layers=1, heads=2, d_head=8, page_tokens=8,
                capacity_tokens=128, max_seq=32)
    base.update(overrides)
    return KVCacheConfig(**base)


MODEL = dict(vocab=32, max_seq=32, d_model=16, heads=2, layers=1, seed=3)


def _full_graph(seq_len, **model):
    return tiny_decoder(mode="full", seq_len=seq_len, batch=1, **{**MODEL, **model})


def _decode_graph(batch, tokens, capacity):
    return tiny_decoder(mode="decode", batch=batch, seq_len=tokens,
                        cache_len=capacity, **MODEL)


def _runner(**kwargs):
    return DecodeRunner(_decode_graph, layers=1, max_batch=4, max_seq=32, **kwargs)


def _slab_bytes(slab):
    return slab.buffer[slab.offset_bytes : slab.offset_bytes + slab.nbytes]


class TestRunners:
    def test_prefill_fills_slab_and_pads_freely(self):
        """Bucket padding must not change the prompt's logits or K/V."""
        alloc = KVCacheAllocator(_kv_config())
        runner = _runner(smallest_bucket=8)
        prompt = [int(t) for t in RNG.integers(0, 32, 5)]
        slab = alloc.alloc("s", len(prompt) + 1)
        logits = runner.run(prompt, slab)  # bucket 8, 3 rows of padding
        assert slab.length == len(prompt)
        assert runner.prepared == [(1, 8, 8)]  # the cold cell

        # Reference: an exact-length graph, no padding at all.
        ref = Session(_full_graph(len(prompt))).run({
            "tokens": np.asarray(prompt, np.int32)[None],
            "positions": np.arange(len(prompt), dtype=np.int32)[None],
        })
        np.testing.assert_array_equal(logits, ref["logits"][0, -1])
        np.testing.assert_array_equal(
            slab.k(0)[:, : len(prompt)], ref["l0_k"][0][:, : len(prompt)]
        )
        np.testing.assert_array_equal(
            slab.v(0)[:, : len(prompt)], ref["l0_v"][0][:, : len(prompt)]
        )

    def test_prefill_rejects_oversized_prompt(self):
        alloc = KVCacheAllocator(_kv_config())
        runner = _runner()
        slab = alloc.alloc("s", 4)
        with pytest.raises(ValueError, match="cannot hold"):
            runner.run(list(range(10)), slab)
        with pytest.raises(ValueError, match="empty"):
            runner.run([], slab)
        runner.run([1, 2, 3], slab)
        with pytest.raises(ValueError, match="cannot hold"):   # 3 + 6 > 8
            runner.run([1] * 6, slab)
        assert slab.length == 3

    def test_prefill_prepares_each_bucket_once(self):
        alloc = KVCacheAllocator(_kv_config())
        runner = _runner(smallest_bucket=8)
        for i, n in enumerate((3, 5, 8)):  # all land in the 8-bucket
            slab = alloc.alloc(f"s{i}", n + 1)
            runner.run([1] * n, slab)
        assert runner.prepared == [(1, 8, 8)]
        runner.warm()   # one cold cell per length bucket, nothing else
        assert runner.prepared == [(1, 8, 8), (1, 16, 16), (1, 32, 32)]
        assert runner.token_buckets == [8, 16, 32]

    def test_run_from_cached_rows_uses_slab_capacity(self):
        """A run over a non-empty slab reads its rows, so it runs the cell
        of the slab's capacity; one run equals the same tokens stepped."""
        prompt = [int(t) for t in RNG.integers(0, 32, 12)]

        def setup():
            alloc = KVCacheAllocator(_kv_config())
            slab = alloc.alloc("s", 16)
            runner = _runner()
            runner.run(prompt[:7], slab)
            return slab, runner

        slab, runner = setup()
        logits = runner.run(prompt[7:], slab)
        assert runner.prepared == [(1, 8, 8), (1, 8, 16)]
        stepped, stepper = setup()
        for token in prompt[7:]:
            want = stepper.step([token], [stepped])[0]
        np.testing.assert_array_equal(logits, want)
        assert slab.length == stepped.length == 12
        np.testing.assert_array_equal(_slab_bytes(slab), _slab_bytes(stepped))

    def test_decode_step_advances_all_slabs(self):
        alloc = KVCacheAllocator(_kv_config())
        decode = _runner()
        slabs = []
        for i in range(3):
            slab = alloc.alloc(f"s{i}", 4)
            decode.run([int(t) for t in RNG.integers(0, 32, 3)], slab)
            slabs.append(slab)
        logits = decode.step([1, 2, 3], slabs)
        assert logits.shape == (3, 32)
        assert all(s.length == 4 for s in slabs)
        # 3 sequences pad up to the 4-batch bucket; one prepared step cell.
        assert decode.prepared == [(1, 8, 8), (4, 1, 8)]

    def test_decode_rejects_full_slabs_and_mismatches(self):
        alloc = KVCacheAllocator(_kv_config())
        decode = _runner()
        small = alloc.alloc("small", 8)
        small.length = 4
        full = alloc.alloc("full", 16)
        full.length = 16
        with pytest.raises(ValueError, match="grow first"):
            decode.step([1, 2], [small, full])
        with pytest.raises(ValueError, match="mismatch"):
            decode.step([1, 2], [small])
        with pytest.raises(ValueError, match="mismatch"):
            decode.step([], [])

    @pytest.mark.parametrize("kv_dtype", ["float32", "int8"])
    def test_decode_step_mixes_capacity_buckets(self, kv_dtype):
        """One step over slabs of capacity 8 and 16 equals stepping each
        alone: same logits, same written K/V payload and scale bytes."""
        prompts = {"small": [int(t) for t in RNG.integers(0, 32, 5)],
                   "big": [int(t) for t in RNG.integers(0, 32, 11)]}

        def setup():
            alloc = KVCacheAllocator(_kv_config(kv_dtype=kv_dtype))
            runner = _runner()
            slabs = []
            for name, prompt in prompts.items():
                slab = alloc.alloc(name, len(prompt) + 1)
                runner.run(prompt, slab)
                slabs.append(slab)
            return slabs, runner

        joint_slabs, joint = setup()
        solo_slabs, solo = setup()
        assert [s.capacity for s in joint_slabs] == [8, 16]
        for tokens in ([3, 4], [5, 6]):
            together = joint.step(tokens, joint_slabs)
            alone = np.concatenate(
                [solo.step([t], [s]) for t, s in zip(tokens, solo_slabs)])
            np.testing.assert_array_equal(together, alone)
        assert [cell for cell in joint.prepared if cell[1] == 1] == [(2, 1, 16)]
        for a, b in zip(joint_slabs, solo_slabs):
            assert a.length == b.length
            np.testing.assert_array_equal(_slab_bytes(a), _slab_bytes(b))

    def test_decode_batch_composition_invariance(self):
        """A sequence's logits must not depend on its batch neighbours —
        the property that makes continuous batching output-transparent."""
        def run_pair(tokens, lengths, together):
            alloc = KVCacheAllocator(_kv_config())
            decode = _runner()
            slabs = []
            for i, (tok, ln) in enumerate(zip(tokens, lengths)):
                slab = alloc.alloc(f"s{i}", ln + 1)
                decode.run(tok[:ln], slab)
                slabs.append(slab)
            if together:
                return decode.step([5, 6], slabs)
            a = decode.step([5], [slabs[0]])
            b = decode.step([6], [slabs[1]])
            return np.concatenate([a, b], axis=0)

        toks = [[int(t) for t in RNG.integers(0, 32, 6)] for _ in range(2)]
        lens = [4, 6]
        joint = run_pair(toks, lens, together=True)
        solo = run_pair(toks, lens, together=False)
        np.testing.assert_array_equal(joint, solo)


@st.composite
def extend_cases(draw):
    layers = draw(st.integers(1, 3))
    max_seq = 32
    prefix = draw(st.integers(1, max_seq - 1))
    suffix = draw(st.integers(1, max_seq - prefix))
    return dict(layers=layers, prefix=prefix, suffix=suffix,
                seed=draw(st.integers(0, 2**16)))


class TestRunFromCache:
    @given(extend_cases())
    @example(dict(layers=3, prefix=31, suffix=1, seed=1))    # last position
    @example(dict(layers=2, prefix=27, suffix=3, seed=2))    # pads past max_seq
    @example(dict(layers=1, prefix=4, suffix=1, seed=3))
    @settings(max_examples=25, deadline=None)
    def test_run_from_slab_bitwise_equals_full_recompute(self, case):
        """fp32 ``run`` over a non-empty slab — any depth, suffix 1
        included, pad positions clamped near ``max_seq`` — gives logits and
        slab bytes bitwise equal to a ``full``-mode recompute."""
        layers, prefix, suffix = case["layers"], case["prefix"], case["suffix"]
        model = dict(MODEL, layers=layers)
        tokens = [int(t) for t in
                  np.random.default_rng(case["seed"]).integers(0, 32, prefix + suffix)]
        n = prefix + suffix
        alloc = KVCacheAllocator(_kv_config(layers=layers, max_seq=32, capacity_tokens=64))
        slab = alloc.alloc("s", n)
        runner = DecodeRunner(
            lambda b, t, c: tiny_decoder(mode="decode", batch=b, seq_len=t,
                                         cache_len=c, **model),
            layers=layers, max_batch=1, max_seq=32,
        )
        runner.run(tokens[:prefix], slab)
        logits = runner.run(tokens[prefix:], slab)
        assert slab.length == n

        full = Session(_full_graph(n, layers=layers)).run({
            "tokens": np.asarray(tokens, np.int32)[None],
            "positions": np.arange(n, dtype=np.int32)[None],
        })
        np.testing.assert_array_equal(logits, full["logits"][0, -1])
        ref = alloc.alloc("ref", n)
        for layer in range(layers):
            ref.write_k(layer, 0, full[f"l{layer}_k"][0])
            ref.write_v(layer, 0, full[f"l{layer}_v"][0])
        assert _slab_bytes(slab).tobytes() == _slab_bytes(ref).tobytes()
