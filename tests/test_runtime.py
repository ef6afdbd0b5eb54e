"""One Runtime per front door: the same instruments reach every layer.

``Engine``, ``GenerationEngine`` and ``Cluster`` resolve their config's
five instrument fields once into a :class:`repro.Runtime` and hand that
object to everything they build.  These tests pin the two consequences:
every component and every worker session holds the *same* tracer, fault
plan, sanitizer and request tracker, and every counter still lands in
the registry it always did.
"""

import pytest

from repro.core import Session, SessionConfig
from repro.faults import FaultPlan, FaultRule
from repro.genai import GenerationConfig, GenerationEngine, SamplingParams
from repro.obs import RequestTracker, Tracer
from repro.obs.metrics import MetricsRegistry, get_metrics, set_metrics
from repro.sanitize import Sanitizer
from repro.serving import Engine, EngineConfig, PreInferenceCache
from tests.test_obs_integration import chain_feed, chain_net

GENAI = dict(vocab=48, max_seq=24, d_model=16, heads=2, layers=1, seed=4,
             max_batch=2, page_tokens=4, capacity_tokens=64, smallest_bucket=8)


@pytest.fixture(autouse=True)
def _fresh_process_registry():
    previous = set_metrics(MetricsRegistry())
    yield
    set_metrics(previous)


def _instruments():
    never = FaultRule("kernel.execute", "fatal", match={"node": "no-such-node"})
    return dict(
        trace=Tracer(),
        faults=FaultPlan([never]),
        sanitize=Sanitizer(enabled=True),
        requests=RequestTracker(),
    )


def _record_sessions(monkeypatch):
    created = []
    init = Session.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        created.append(self)

    monkeypatch.setattr(Session, "__init__", recording_init)
    return created


def _names(registry):
    snapshot = registry.snapshot()
    return set(snapshot["counters"]), set(snapshot["histograms"])


@pytest.mark.parametrize("front_door", ["engine", "engine_batching", "generation"])
def test_one_runtime_reaches_every_layer(front_door, tmp_path, monkeypatch):
    inst = _instruments()
    created = _record_sessions(monkeypatch)
    if front_door == "generation":
        engine = GenerationEngine(GenerationConfig(
            **GENAI, use_cache=True, cache_dir=str(tmp_path), **inst,
        ))
        engine.generate([[1, 2, 3], [4, 5]], SamplingParams(max_tokens=3))
        engine.close()
        components = [
            engine, engine.allocator, engine.cache, engine.decode, engine.scheduler,
        ]
        assert engine.decode.runtime is engine.runtime
    else:
        batching = front_door == "engine_batching"
        with Engine(chain_net(), EngineConfig(
            pool_size=2, cache_dir=str(tmp_path), batching=batching, **inst,
        )) as engine:
            engine.infer(chain_feed())
        # Batching builds the batcher instead of a pool, never both.
        assert (engine.pool is None) == batching == (engine.batcher is not None)
        components = [engine, engine.pool or engine.batcher, engine.cache]
    assert created
    want = {
        "tracer": inst["trace"], "faults": inst["faults"],
        "sanitizer": inst["sanitize"], "requests": inst["requests"],
    }
    for holder in components + created:
        held = [attr for attr in want if hasattr(holder, attr)]
        assert held, type(holder).__name__
        for attr in held:
            assert getattr(holder, attr) is want[attr], (type(holder).__name__, attr)
    names = {span.name for span in inst["trace"].spans}
    assert "session.prepare" in names
    assert any(span.category == "op" for span in inst["trace"].spans)


def test_counters_land_where_they_did(tmp_path):
    """Counter and histogram names per registry, as read before ``Runtime``
    existed, plus the pre-inference cache keys (which never held an
    instrument, so warm caches stay warm)."""
    m = MetricsRegistry()
    for _ in range(2):   # cold, then warm from the entry the first one wrote
        with Engine(chain_net(), EngineConfig(
            metrics=m, batching=True, cache_dir=str(tmp_path),
        )) as engine:
            engine.infer(chain_feed())
    assert _names(m) == (
        {"batch.batches", "batch.requests", "engine.cache.hits",
         "engine.cache.misses", "engine.requests"},
        {"batch.size", "engine.prepare.cold_ms", "engine.prepare.warm_ms"},
    )
    session_names = (
        {"session.prepares", "session.runs"},
        {"session.prepare_ms", "session.run_ms"},
    )
    assert _names(get_metrics()) == session_names

    set_metrics(MetricsRegistry())
    m = MetricsRegistry()
    engine = GenerationEngine(GenerationConfig(**GENAI, metrics=m))
    engine.generate([[1, 2, 3], [4, 5, 6, 7]], SamplingParams(max_tokens=4))
    engine.close()
    assert _names(m) == (
        {"genai.decode_tokens", "genai.prefill_tokens", "genai.requests"},
        {"genai.batch_size"},
    )
    assert _names(get_metrics()) == session_names

    cache = PreInferenceCache(tmp_path)
    assert cache.key(chain_net(), SessionConfig()) == (
        "5b66b652f13a10be2b049ab50403c988a11cd61a791b3c84fd80dac2274c63ec"
    )
    assert cache.key(chain_net(), SessionConfig(
        threads=2, use_strassen=False, check_feeds=False,
    )) == "4b421f05b204021372598e05706ee8f3e5d8e564690a0d80ada1edbd80872782"

