"""Seeded sampling, the continuous-batching scheduler, the generation
engine front door, and the ``cli generate`` subcommand.

Includes the PR's acceptance test: a >= 32-token greedy generation whose
every token is bit-identical to a token-by-token full-sequence recompute
on exact-length graphs."""

import numpy as np
import pytest

from repro.core import Session
from repro.faults import FaultPlan, FaultRule
from repro.genai import (
    GenerationConfig,
    GenerationEngine,
    GenRequest,
    GenResult,
    Sampler,
    SamplingParams,
    greedy,
)
from repro.models import tiny_decoder
from repro.obs import Tracer
from repro.obs.metrics import MetricsRegistry, set_metrics

pytestmark = pytest.mark.genai

RNG = np.random.default_rng(13)


@pytest.fixture(autouse=True)
def _fresh_metrics():
    previous = set_metrics(MetricsRegistry())
    yield
    set_metrics(previous)


SMALL = dict(vocab=48, max_seq=24, d_model=16, heads=2, layers=1, seed=4,
             max_batch=2, page_tokens=4, capacity_tokens=64, smallest_bucket=8)


def small_engine(**overrides):
    cfg = dict(SMALL)
    cfg.update(overrides)
    return GenerationEngine(GenerationConfig(**cfg))


def prompts(n, lo=2, hi=7, vocab=48, seed=17):
    rng = np.random.default_rng(seed)
    return [[int(t) for t in rng.integers(0, vocab, size=int(ln))]
            for ln in rng.integers(lo, hi, size=n)]


class TestSampler:
    def test_greedy_is_argmax(self):
        logits = np.array([0.1, 3.0, -2.0, 3.0], np.float32)
        assert greedy(logits) == 1  # first max wins deterministically
        s = Sampler(SamplingParams(temperature=0.0))
        assert s.sample(logits) == 1

    def test_seeded_draws_replay(self):
        logits = RNG.standard_normal(32).astype(np.float32)
        params = SamplingParams(temperature=0.8, top_k=8, seed=42)
        a = [Sampler(params).sample(logits) for _ in range(5)]
        b = [Sampler(params).sample(logits) for _ in range(5)]
        assert a == b
        stream = Sampler(params)
        seq = [stream.sample(logits) for _ in range(20)]
        assert len(set(seq)) > 1  # actually stochastic within a stream

    def test_top_k_restricts_support(self):
        logits = np.arange(16, dtype=np.float32)
        s = Sampler(SamplingParams(temperature=1.0, top_k=3, seed=0))
        draws = {s.sample(logits) for _ in range(200)}
        assert draws <= {13, 14, 15}

    def test_different_seeds_diverge(self):
        logits = RNG.standard_normal(64).astype(np.float32)
        a = [Sampler(SamplingParams(temperature=1.5, seed=1)).sample(logits)
             for _ in range(1)]
        seqs = set()
        for seed in range(8):
            s = Sampler(SamplingParams(temperature=1.5, seed=seed))
            seqs.add(tuple(s.sample(logits) for _ in range(6)))
        assert len(seqs) > 1

    def test_param_validation(self):
        with pytest.raises(ValueError, match="max_tokens"):
            SamplingParams(max_tokens=0)
        with pytest.raises(ValueError, match="temperature"):
            SamplingParams(temperature=-0.1)
        with pytest.raises(ValueError, match="top_k"):
            SamplingParams(top_k=-1)

    def test_stop_tokens(self):
        s = Sampler(SamplingParams(stop_tokens=(7,)))
        assert s.is_stop(7) and not s.is_stop(8)


class TestAcceptance:
    def test_decode_bit_identical_to_full_recompute_32_tokens(self):
        """The headline criterion: >= 32 greedy tokens, every one bitwise
        equal to an exact-length full recompute (no padding, no cache)."""
        engine = small_engine(max_seq=44, capacity_tokens=128)
        prompt = [3, 1, 4, 1, 5]
        [result] = engine.generate([prompt], SamplingParams(max_tokens=32))
        assert result.finish_reason == "length"
        assert len(result.tokens) == 32

        toks = list(prompt)
        model = dict(vocab=SMALL["vocab"], max_seq=44, d_model=SMALL["d_model"],
                     heads=SMALL["heads"], layers=SMALL["layers"],
                     seed=SMALL["seed"])
        for step, want in enumerate(result.tokens):
            g = tiny_decoder(mode="full", seq_len=len(toks), **model)
            out = Session(g).run({
                "tokens": np.asarray(toks, np.int32)[None],
                "positions": np.arange(len(toks), dtype=np.int32)[None],
            })
            got = int(np.argmax(out["logits"][0, -1]))
            assert got == want, (
                f"token {step}: cached decode produced {want}, "
                f"full recompute produced {got}"
            )
            toks.append(want)


class TestScheduler:
    def test_results_in_input_order(self):
        engine = small_engine()
        reqs = prompts(5)
        results = engine.generate(reqs, SamplingParams(max_tokens=4))
        assert [r.request_id for r in results] == [f"req-{i}" for i in range(5)]
        assert all(r.finish_reason == "length" and len(r.tokens) == 4
                   for r in results)

    def test_output_independent_of_batch_seats(self):
        """Continuous batching is a throughput lever only: the same
        requests produce the same tokens whether they share seats or
        run effectively serial."""
        reqs = prompts(5)
        params = SamplingParams(max_tokens=6)
        wide = small_engine(max_batch=4, capacity_tokens=256)
        narrow = small_engine(max_batch=1)
        a = [r.tokens for r in wide.generate(reqs, params)]
        b = [r.tokens for r in narrow.generate(reqs, params)]
        assert a == b

    def test_one_decode_step_per_token_boundary(self):
        """A wave straddling capacity buckets still advances every live
        sequence in a single DecodeRunner.step per boundary, with the
        tokens of a one-seat engine."""
        reqs = [[1, 2], [3, 4, 5, 6, 7, 8, 9, 10, 11]]   # slabs of 4 and 16
        params = SamplingParams(max_tokens=6)
        engine = small_engine(max_batch=4)
        calls = []
        step = engine.decode.step

        def counting_step(tokens, slabs):
            calls.append(sorted(s.capacity for s in slabs))
            return step(tokens, slabs)

        engine.decode.step = counting_step
        got = [r.tokens for r in engine.generate(reqs, params)]
        # Both admitted at the first boundary, first token from prefill.
        assert len(calls) == params.max_tokens - 1
        assert all(len(caps) == 2 for caps in calls)
        assert any(caps[0] != caps[1] for caps in calls)
        want = [r.tokens for r in small_engine(max_batch=1).generate(reqs, params)]
        assert got == want

    def test_sampled_generations_replay(self):
        reqs = prompts(3)
        params = SamplingParams(max_tokens=6, temperature=0.9, top_k=6, seed=2)
        a = [r.tokens for r in small_engine().generate(reqs, params)]
        b = [r.tokens for r in small_engine().generate(reqs, params)]
        assert a == b

    def test_per_request_params_and_stop_tokens(self):
        engine = small_engine()
        probe = engine.generate([[1, 2, 3]], SamplingParams(max_tokens=3))[0]
        stop = probe.tokens[1]  # force an early stop on the 2nd token
        reqs = [
            GenRequest("stopper", [1, 2, 3],
                       SamplingParams(max_tokens=8, stop_tokens=(stop,))),
            GenRequest("runner", [4, 5], SamplingParams(max_tokens=3)),
        ]
        stopper, runner = engine.generate(reqs)
        assert stopper.finish_reason == "stop"
        assert stopper.tokens[-1] == stop and len(stopper.tokens) <= 2
        assert runner.finish_reason == "length" and len(runner.tokens) == 3

    def test_join_leave_trace_instants(self):
        tracer = Tracer()
        engine = GenerationEngine(GenerationConfig(**SMALL, trace=tracer))
        engine.generate(prompts(3), SamplingParams(max_tokens=3))
        names = [s.name for s in tracer.spans]
        assert names.count("genai.batch_join") == 3
        assert names.count("genai.batch_leave") == 3
        assert "genai.prefill" in names and "genai.decode_step" in names
        assert "genai.generate" in names

    def test_more_requests_than_seats_all_complete(self):
        engine = small_engine(max_batch=2)
        results = engine.generate(prompts(7), SamplingParams(max_tokens=5))
        assert len(results) == 7
        assert all(r.finish_reason == "length" for r in results)
        # Batch never exceeded its two seats.
        sizes = engine.metrics.histogram("genai.batch_size")
        assert max(sizes._values) <= 2

    def test_invalid_prompts_fail_alone(self):
        engine = small_engine()
        reqs = [
            GenRequest("ok", [1, 2, 3]),
            GenRequest("empty", []),
            GenRequest("huge", list(range(SMALL["max_seq"] + 1))),
        ]
        ok, empty, huge = engine.generate(reqs)
        assert ok.finish_reason == "length"
        assert empty.finish_reason == "error" and "outside" in empty.error
        assert huge.finish_reason == "error"
        assert engine.stats()["request_errors"] == 2

    def test_duplicate_request_ids_rejected(self):
        engine = small_engine()
        with pytest.raises(ValueError, match="duplicate"):
            engine.generate([GenRequest("a", [1]), GenRequest("a", [2])])

    def test_generation_budget_clamped_by_max_seq(self):
        engine = small_engine(max_seq=16, capacity_tokens=64)
        prompt = list(range(1, 13))  # 12 tokens; only 4 seats left
        [r] = engine.generate([prompt], SamplingParams(max_tokens=50))
        assert len(r.tokens) == 4
        assert r.finish_reason == "length"

    def test_tight_arena_serializes_but_completes(self):
        """Admission control: an arena with room for ~one sequence forces
        serial execution, never failure."""
        engine = small_engine(max_batch=4, capacity_tokens=16, page_tokens=4,
                              max_seq=12, retain_kv=False)
        results = engine.generate(prompts(4, lo=2, hi=5),
                                  SamplingParams(max_tokens=4))
        assert all(r.finish_reason == "length" for r in results)

    def test_retain_kv_retires_slabs_for_lazy_eviction(self):
        engine = small_engine(retain_kv=True, capacity_tokens=16, max_seq=12,
                              page_tokens=4, max_batch=1)
        engine.generate(prompts(4, lo=2, hi=5), SamplingParams(max_tokens=3))
        # Finished slabs were retired, and later admissions had to evict.
        assert engine.stats()["evictions"] > 0
        assert engine.allocator.free_pages >= 0


class TestEngineFrontDoor:
    def test_config_or_overrides_not_both(self):
        with pytest.raises(ValueError, match="not both"):
            GenerationEngine(GenerationConfig(), vocab=32)

    def test_stats_shape(self):
        engine = small_engine()
        engine.generate(prompts(2), SamplingParams(max_tokens=3))
        stats = engine.stats()
        assert stats["requests"] == 2
        assert stats["decode_tokens"] >= 4
        assert stats["prefill_tokens"] >= 4
        assert 0.0 <= stats["kv_page_utilization"] <= 1.0
        assert stats["decode_sessions"] >= 1

    def test_warm_prepares_prefill_buckets(self):
        engine = small_engine()
        engine.warm()
        # One cold prompt cell (1, T, T) per length bucket, nothing else.
        assert engine.decode.prepared == [(1, 8, 8), (1, 16, 16), (1, 24, 24)]

    @pytest.mark.parametrize("kv_dtype", ["float32", "int8"])
    def test_every_session_runs_the_cached_graph(self, kv_dtype, monkeypatch):
        """One graph family: no session the engine builds is a ``full``-mode
        graph — each one takes the cached-attention ``lengths`` input."""
        created = []
        init = Session.__init__

        def recording_init(self, graph, *args, **kwargs):
            init(self, graph, *args, **kwargs)
            created.append(graph)

        monkeypatch.setattr(Session, "__init__", recording_init)
        engine = small_engine(prefix_cache=True, kv_dtype=kv_dtype)
        engine.warm()
        shared = [5, 6, 7, 8, 9, 10]
        engine.generate([shared + [1], shared + [2, 3]], SamplingParams(max_tokens=4))
        engine.generate([shared + [4, 5, 6]], SamplingParams(max_tokens=4))
        assert engine.stats()["prefix_hits"] >= 1
        assert len(created) == len(engine.decode.prepared) > 3
        assert all("lengths" in graph.inputs for graph in created)

    def test_decode_grid_reused_across_requests(self):
        engine = small_engine()
        engine.generate(prompts(3), SamplingParams(max_tokens=4))
        first = set(engine.decode.prepared)
        engine.generate(prompts(3, seed=99), SamplingParams(max_tokens=4))
        assert set(engine.decode.prepared) == first  # no new cells

    def test_repeated_raw_prompt_calls_orphan_no_kv_pages(self):
        """Raw prompts used to be ``req-0..`` again on every call, and the
        reused id dropped the earlier retired slab with its pages held."""
        engine = small_engine(sanitize=True, retain_kv=True)
        alloc = engine.allocator
        total = alloc.config.total_pages
        first = engine.generate(prompts(3), SamplingParams(max_tokens=4))
        second = engine.generate(prompts(3), SamplingParams(max_tokens=4))
        assert [r.tokens for r in first] == [r.tokens for r in second]
        assert not {r.request_id for r in first} & {r.request_id for r in second}
        retained = list(alloc._retired.values())
        assert alloc.free_pages == total - sum(s.pages for s in retained)
        for slab in retained:               # what memory pressure would do
            alloc.release(slab)
        assert alloc.free_pages == total
        engine.close()
        assert engine.sanitizer.report().lifecycle == []

    def test_kv_layout_stays_sanitizer_clean_mid_flight(self):
        engine = small_engine()
        engine.generate(prompts(3), SamplingParams(max_tokens=4))
        from repro.analysis import has_errors

        report = engine.allocator.check()
        assert not has_errors(report.diagnostics)


class TestGenerateFaults:
    def test_alloc_storm_degrades_not_crashes(self):
        """kvcache.alloc faults during generation: transients retry,
        fatals evict or preempt; completed outputs match fault-free."""
        reqs = prompts(4)
        params = SamplingParams(max_tokens=5)
        gold = [r.tokens for r in small_engine().generate(reqs, params)]

        plan = FaultPlan([
            FaultRule("kvcache.alloc", "transient", times=2),
            FaultRule("kvcache.alloc", "fatal", p=0.5, times=3),
        ], seed=5)
        engine = GenerationEngine(GenerationConfig(**SMALL, faults=plan))
        results = engine.generate(reqs, params)
        assert plan.injected > 0
        for got, want in zip(results, gold):
            if got.finish_reason != "error":
                assert got.tokens == want  # memory churn never moves bits

    def test_exhausted_arena_with_no_runners_fails_typed(self):
        """A request that can never be admitted gets a typed error result,
        not a hang or a crash."""
        plan = FaultPlan([FaultRule("kvcache.alloc", "fatal")], seed=0)
        engine = GenerationEngine(GenerationConfig(**SMALL, faults=plan))
        [r] = engine.generate([[1, 2, 3]], SamplingParams(max_tokens=4))
        assert r.finish_reason == "error"
        assert "kv admission failed" in r.error


class TestCliGenerate:
    def test_selftest_greedy(self, capsys):
        from repro.tools.cli import main

        assert main(["generate", "--prompts", "2", "--max-tokens", "4",
                     "--max-seq", "16", "--d-model", "16", "--layers", "1",
                     "--selftest"]) == 0
        out = capsys.readouterr().out
        assert "bit-identical vs full recompute" in out
        assert "throughput:" in out

    def test_selftest_sampled_and_trace(self, tmp_path, capsys):
        import json

        from repro.tools.cli import main

        trace = str(tmp_path / "gen.json")
        assert main(["generate", "--prompts", "2", "--max-tokens", "4",
                     "--max-seq", "16", "--d-model", "16", "--layers", "1",
                     "--temperature", "0.7", "--top-k", "4",
                     "--selftest", "--trace", trace]) == 0
        out = capsys.readouterr().out
        assert "reproducible under reseeded replay" in out
        events = json.load(open(trace))["traceEvents"]
        assert any(e.get("name") == "genai.decode_step" for e in events)
