"""GenAI — KV prefix caching: shared-prefix serving throughput.

Serving traffic repeats prompt prefixes (system prompts, few-shot
headers, chat history), and every repeat re-prefills K/V rows that are a
pure function of the shared tokens.  The prefix cache serves those rows
copy-on-write from retired sequences' slabs and decodes only the suffix.

Claims checked: on a shared-prefix workload, prefix-hit generation moves
tokens at least 1.3x faster than no-reuse generation, with *bit-identical
output tokens* — and the whole COW lifecycle (share, materialize, parent
eviction, release) comes up clean under the concurrency/lifecycle
sanitizer.
"""

import numpy as np

from repro.bench import TimingResult, time_callable
from repro.genai import (
    GenerationConfig,
    GenerationEngine,
    GenRequest,
    SamplingParams,
)
from repro.obs.metrics import MetricsRegistry

PREFIX_LEN = 48
N_PROMPTS = 8
MAX_TOKENS = 4
#: Alternating cold/warm timing pairs behind the speedup.
PAIRS = 5


def _config(prefix_cache, sanitize=False):
    return GenerationConfig(
        vocab=128, max_seq=96, d_model=32, heads=4, layers=2, seed=6,
        max_batch=2, page_tokens=8,
        prefix_cache=prefix_cache, min_prefix_tokens=8,
        metrics=MetricsRegistry(), sanitize=sanitize,
        # Track requests: SLO histograms (TTFT/TPOT) and the KV/prefix
        # counter tracks land in this engine's private registry and are
        # persisted into the BENCH record.
        requests=True,
    )


def _requests(seed=2020):
    rng = np.random.default_rng(seed)
    shared = [int(t) for t in rng.integers(0, 128, size=PREFIX_LEN)]
    params = SamplingParams(max_tokens=MAX_TOKENS, temperature=0.7, seed=9)
    return [
        GenRequest(
            f"p{i}",
            shared + [int(t) for t in rng.integers(0, 128, size=int(k))],
            params,
        )
        for i, k in enumerate(rng.integers(2, 6, size=N_PROMPTS))
    ]


def test_prefix_cache_tokens_per_sec(report_table, benchmark):
    requests = _requests()
    generated = N_PROMPTS * MAX_TOKENS

    no_reuse = GenerationEngine(_config(prefix_cache=False))
    prefix = GenerationEngine(_config(prefix_cache=True))
    try:
        # Warm every bucket/decode cell and (for the prefix engine)
        # populate the trie, so the timed runs measure steady state.
        gold = [r.tokens for r in no_reuse.generate(requests)]
        first = [r.tokens for r in prefix.generate(requests)]
        assert first == gold  # identical even while the trie fills

        # Alternating cold/warm pairs: a burst of host noise lands on
        # both sides of a pair instead of on all of one side's runs.
        cold_ms, warm_ms = [], []
        for _ in range(PAIRS):
            cold_ms.append(time_callable(
                lambda: no_reuse.generate(requests), repeats=1, warmup=0
            ).times_ms[0])
            warm_ms.append(time_callable(
                lambda: prefix.generate(requests), repeats=1, warmup=0
            ).times_ms[0])
        warm_timing = TimingResult(warm_ms)
        t_cold = float(np.median(cold_ms))
        t_warm = warm_timing.median_ms
        speedup = float(np.median([c / w for c, w in zip(cold_ms, warm_ms)]))
        benchmark(lambda: prefix.generate(requests))

        replay = [r.tokens for r in prefix.generate(requests)]
        assert replay == gold  # still identical at full hit rate

        stats = prefix.stats()
        assert stats["prefix_hits"] > 0
        no_reuse_tps = generated / (t_cold / 1000.0)
        prefix_tps = generated / (t_warm / 1000.0)
        snapshot = prefix.metrics.snapshot()
        assert "slo.ttft_ms" in snapshot["histograms"]
        assert "slo.tpot_ms" in snapshot["histograms"]
        counters = prefix.sampler.series()
        assert counters.get("res.kv.page_utilization"), (
            "resource sampler recorded no KV counter series"
        )
        assert counters.get("res.prefix.hit_rate"), (
            "resource sampler recorded no prefix-hit-rate series"
        )
    finally:
        no_reuse.close()
        prefix.close()

    # The whole COW lifecycle must come up sanitizer-clean on the same
    # workload (separate engine: the sanitizer instruments every lock).
    sanitized = GenerationEngine(_config(prefix_cache=True, sanitize=True))
    try:
        for _ in range(2):  # second pass serves from the trie
            clean = [r.tokens for r in sanitized.generate(requests)]
        assert clean == gold
        assert sanitized.stats()["prefix_hits"] > 0
        report = sanitized.sanitizer.report()
        assert not report.races
        assert not report.lock_cycles
        assert not report.lifecycle
    finally:
        sanitized.close()

    report_table(
        "GenAI — prefix-hit vs no-reuse generation "
        f"({N_PROMPTS} prompts, {PREFIX_LEN}-token shared prefix)",
        ["mode", "wall (ms)", "new tokens/s"],
        [
            ["no reuse (full prefill)", round(t_cold, 1), round(no_reuse_tps)],
            ["prefix cache (COW hits)", round(t_warm, 1), round(prefix_tps)],
            ["speedup (median of pair ratios)", "", f"{speedup:.2f}x"],
            ["prefix hits / hit tokens",
             int(stats["prefix_hits"]), int(stats["prefix_hit_tokens"])],
            ["cow materializes", int(stats["cow_materializes"]), ""],
        ],
        config={
            "prefix_len": PREFIX_LEN, "prompts": N_PROMPTS,
            "max_tokens": MAX_TOKENS,
            "prefix_hit_tokens_per_sec": prefix_tps,
            "no_reuse_tokens_per_sec": no_reuse_tps,
            "speedup_median_pair_ratio": speedup,
            "pairs": PAIRS,
        },
        timing=warm_timing,
        metrics=snapshot,
        counters=counters,
        headline={"prefix_hit_tokens_per_sec": {
            "value": prefix_tps, "direction": "higher"}},
    )
    # The headline acceptance criterion: reuse must actually pay, in
    # the median pair.
    assert speedup >= 1.3, (
        f"prefix cache speedup {speedup:.2f}x (median of {PAIRS} pair "
        f"ratios) < 1.3x"
    )
