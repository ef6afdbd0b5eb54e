"""The six workloads: seeded inputs, set-up, one operation, output checks.

Each workload stresses a different ``src/repro`` layer (README.md has the
table).  A workload object owns everything a run needs:

* ``setup()`` — model build + prepare + warm-up to the first correct
  output (the gold input); timed by the harness as ``setup_s`` and
  repeated, so it must be re-runnable after ``teardown()``;
* ``next_input()`` / ``op()`` — one operation of the timed phase; input
  generation stays outside the timed call, and the program sees only the
  generated inputs, never the seed;
* ``verify()`` — after the timed phase, seeded inputs checked against an
  independent reference (the op-by-op reference executor, a serial
  ``max_batch=1`` engine, or a local ``Session.run``);
* ``counters()`` — the program's own public counters, for the layer report.

Every engine gets a private ``MetricsRegistry`` and a cache directory
under the run's scratch directory; nothing here reads the process-wide
registry's numbers or writes outside ``perfbench/out``.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from repro import models
from repro.cluster import Cluster, ClusterConfig
from repro.core import Session
from repro.core.reference import execute_reference
from repro.faults.chaos import default_chaos_graph
from repro.genai import GenerationConfig, GenerationEngine, GenRequest, SamplingParams
from repro.kernels import winograd
from repro.obs.metrics import MetricsRegistry
from repro.serving import Engine, EngineConfig

GOLD_DIR = Path(__file__).resolve().parent / "gold"

#: CNN and cluster outputs must sit this close to gold and to the reference.
MAX_ABS_ERROR = 1e-4
#: fp32 greedy tokens may differ from gold by this share (argmax near-ties
#: move with the BLAS build); int8 tokens and every serial-engine
#: comparison must match exactly.
MIN_TOKEN_MATCH = 0.99

#: Distinct seeded inputs a CNN-style workload cycles through.
INPUT_POOL = 8


class OutputError(Exception):
    """An operation returned, but its output failed the in-loop check."""


def gold_image(shape: Tuple[int, ...]) -> np.ndarray:
    """The fixed check input: a formula, so no RNG stream can move it."""
    n = int(np.prod(shape))
    return np.sin(np.arange(n, dtype=np.float64) * 0.37).astype(np.float32).reshape(shape)


def gold_tokens(length: int, salt: int, vocab: int) -> List[int]:
    return [(7 * i * i + 13 * i + 5 * salt + 3) % vocab for i in range(length)]


def load_gold(name: str):
    with open(GOLD_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def save_gold(name: str, value) -> Path:
    path = GOLD_DIR / f"{name}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(value, fh, separators=(",", ":"))
        fh.write("\n")
    return path


def _tensor_misses(actual: Dict[str, list], expected: Dict[str, list]) -> int:
    """Outputs further than ``MAX_ABS_ERROR`` from their expected values."""
    misses = 0
    for key, want in expected.items():
        got = np.asarray(actual.get(key, ()), np.float64)
        want = np.asarray(want, np.float64)
        if got.shape != want.shape or not np.all(np.abs(got - want) <= MAX_ABS_ERROR):
            misses += 1
    return misses


def _check_probabilities(out: np.ndarray, rows: int) -> None:
    """Cheap in-loop check: a finite softmax of the right batch size."""
    if out.shape[0] != rows or not np.isfinite(out).all():
        raise OutputError(f"bad output: shape {out.shape}")
    if abs(float(out.sum()) - rows) > 1e-3 * rows:
        raise OutputError(f"softmax rows sum to {float(out.sum())}, not {rows}")


class Workload:
    """Base class; see the module docstring for the contract."""

    name = ""
    clients = 1           # closed-loop client threads (<= nproc)

    def __init__(self, seed: int, scratch: Path) -> None:
        self.scratch = scratch
        self.rng = np.random.default_rng(seed)
        self.gold_actual = None

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def next_input(self, client: int, i: int):
        raise NotImplementedError

    def op(self, client: int, item) -> float:
        """Run one operation; return the work done (samples or generated tokens)."""
        raise NotImplementedError

    def verify(self) -> Tuple[int, int]:
        """(checked, failed) over seeded inputs against the reference."""
        raise NotImplementedError

    def counters(self) -> Dict[str, float]:
        return {}

    def local_run_ms(self) -> float:
        """Median in-process ``Session.run`` of the graph an RPC serves, if any."""
        return 0.0

    def gold_misses(self) -> int:
        """Mismatches between the last set-up's gold output and the gold file."""
        return _tensor_misses(self.gold_actual, load_gold(self.name))

    def _images(self, shape: Tuple[int, ...]) -> List[np.ndarray]:
        return [
            self.rng.standard_normal(shape).astype(np.float32)
            for _ in range(INPUT_POOL)
        ]


# -- CNN single stream ----------------------------------------------------------
class CnnStream(Workload):
    """batch-1 Session.run over SqueezeNet-v1.1 + MobileNet-v1: kernels do
    the work and the interpreter loop almost none; set-up is cold
    pre-inference."""

    name = "cnn_stream"
    #: 128x128, not the issue's 160x160: one pair must fit >= 100 times in a run.
    SIZE = 128
    BUILDERS = {"squeezenet_v1_1": models.squeezenet_v1_1,
                "mobilenet_v1": models.mobilenet_v1}

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        self.shape = (1, 3, self.SIZE, self.SIZE)
        self.inputs = self._images(self.shape)
        self.sessions: Dict[str, Session] = {}

    def setup(self):
        winograd.clear_transform_cache()      # cold: transforms are re-derived
        self.sessions = {
            key: Session(build(input_size=self.SIZE))
            for key, build in self.BUILDERS.items()
        }
        self.gold_actual = {
            key: out.ravel().tolist()
            for key, out in self._run(gold_image(self.shape)).items()
        }

    def _run(self, x: np.ndarray) -> Dict[str, np.ndarray]:
        outs = {}
        for key, session in self.sessions.items():
            graph = session.graph
            outs[key] = session.run({graph.inputs[0]: x})[graph.outputs[0]]
        return outs

    def next_input(self, client, i):
        return self.inputs[i % INPUT_POOL]

    def op(self, client, x):
        for out in self._run(x).values():
            _check_probabilities(out, 1)
        return 1.0

    def verify(self):
        failed = 0
        for x in self.inputs[:2]:
            reference = {
                key: execute_reference(s.graph, {s.graph.inputs[0]: x})[s.graph.outputs[0]]
                for key, s in self.sessions.items()
            }
            failed += _tensor_misses(self._run(x), reference)
        return 2 * len(self.sessions), failed


# -- micro-batched serving ------------------------------------------------------
class ServeClosed(Workload):
    """Engine.infer with micro-batching, 2 closed-loop clients: batch
    assembly, resize and queue wait are a visible share; set-up is the warm
    cache path."""

    name = "serve_closed"
    clients = 2
    SIZE = 96

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        self.shape = (1, 3, self.SIZE, self.SIZE)
        self.inputs = self._images(self.shape)
        self.cache_dir = str(scratch / "preinference-cache")
        self.engine = None
        # Prime the persistent cache once, untimed: every measured
        # set-up then takes the warm path a restarted server would.
        self.setup()
        self.teardown()

    def setup(self):
        winograd.clear_transform_cache()      # warm path reloads them from disk
        graph = models.squeezenet_v1_1(input_size=self.SIZE)
        self.input_name, self.output_name = graph.inputs[0], graph.outputs[0]
        self.graph = graph
        self.engine = Engine(graph, EngineConfig(
            batching=True, pool_size=2, max_batch=4,
            cache_dir=self.cache_dir, metrics=MetricsRegistry(),
        ))
        self.gold_actual = {"squeezenet_v1_1": self._infer(gold_image(self.shape)).ravel().tolist()}
        # Two concurrent clients once, so the batch-2 shape bucket is
        # prepared before the timed phase rather than inside it.
        threads = [
            threading.Thread(target=self._infer, args=(self.inputs[c],))
            for c in range(self.clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    def teardown(self):
        if self.engine is not None:
            self.engine.close()
            self.engine = None

    def _infer(self, x):
        return self.engine.infer({self.input_name: x})[self.output_name]

    def next_input(self, client, i):
        return self.inputs[(2 * i + client) % INPUT_POOL]

    def op(self, client, x):
        _check_probabilities(self._infer(x), 1)
        return 1.0

    def verify(self):
        failed = 0
        for x in self.inputs[:2]:
            reference = execute_reference(self.graph, {self.input_name: x})[self.output_name]
            failed += _tensor_misses({"y": self._infer(x)}, {"y": reference})
        return 2, failed

    def counters(self):
        stats = self.engine.batcher.stats
        return {
            "batch.requests": stats.requests,
            "batch.batches": stats.batches,
            "batch.resizes": stats.resizes,
        }


# -- continuous-batching decode ---------------------------------------------------
class _Decode(Workload):
    """Waves of 6 greedy requests on a 4-seat continuous-batching engine.

    Prompt lengths and token budgets are seeded *permutations* of fixed
    multisets: every wave does the same total work whatever the seed (so
    runs compare), while the staggered budgets make sequences leave and
    join mid-wave, which is what continuous batching is for.
    """

    MODEL = dict(vocab=256, d_model=64, heads=4, layers=2, max_seq=128, max_batch=4)
    EXTRA: Dict[str, object] = {}
    #: Sized so that the slowest variant (int8) still completes >= 100
    #: waves in a run; the issue's 8 x 48-token waves would complete ~30.
    PROMPT_LENS = (8, 10, 11, 13, 14, 16)
    BUDGETS = (8, 12, 16, 8, 12, 16)
    PREFIX_TOKENS = 0
    EXACT_GOLD = False

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        vocab = self.MODEL["vocab"]
        self.prefix = [int(t) for t in self.rng.integers(0, vocab, self.PREFIX_TOKENS)]
        self.warm_wave = self._wave(self.rng)
        self.check_wave = self._wave(self.rng)
        self.gold_wave = [
            (gold_tokens(self.PREFIX_TOKENS, 99, vocab) + gold_tokens(n, r, vocab), b)
            for r, (n, b) in enumerate(zip(self.PROMPT_LENS, self.BUDGETS))
        ]
        self._ids = itertools.count()
        self.engine = None
        self._serial = None

    def _build(self, **overrides) -> GenerationEngine:
        kwargs = {**self.MODEL, **self.EXTRA, **overrides}
        return GenerationEngine(GenerationConfig(metrics=MetricsRegistry(), **kwargs))

    def _wave(self, rng) -> List[Tuple[List[int], int]]:
        vocab = self.MODEL["vocab"]
        lens = rng.permutation(self.PROMPT_LENS)
        budgets = rng.permutation(self.BUDGETS)
        return [
            (self.prefix + [int(t) for t in rng.integers(0, vocab, int(n))], int(b))
            for n, b in zip(lens, budgets)
        ]

    def _generate(self, engine, wave) -> List[List[int]]:
        # Request ids are unique for the engine's lifetime: a retired slab
        # is keyed by its id, and reusing one orphans the older slab's pages.
        requests = [
            GenRequest(f"r{next(self._ids)}", prompt, SamplingParams(max_tokens=budget))
            for prompt, budget in wave
        ]
        vocab = self.MODEL["vocab"]
        tokens = []
        for result, (_, budget) in zip(engine.generate(requests), wave):
            if (result.finish_reason != "length" or len(result.tokens) != budget
                    or not all(0 <= t < vocab for t in result.tokens)):
                raise OutputError(
                    f"{result.request_id}: {result.finish_reason} after "
                    f"{len(result.tokens)}/{budget} tokens ({result.error})")
            tokens.append(list(result.tokens))
        return tokens

    def setup(self):
        self.engine = self._build()
        self.engine.warm()
        self._generate(self.engine, self.warm_wave)   # prepares the decode cells
        self.gold_actual = self._generate(self.engine, self.gold_wave)

    def teardown(self):
        if self.engine is not None:
            self.engine.close()
            self.engine = None

    def next_input(self, client, i):
        return self._wave(self.rng)

    def op(self, client, wave):
        return float(sum(len(t) for t in self._generate(self.engine, wave)))

    def verify(self):
        if self._serial is None:
            self._serial = self._build(max_batch=1, prefix_cache=False)
        checked = failed = 0
        for wave in (self.gold_wave, self.check_wave):
            want = self._generate(self._serial, wave)
            got = self._generate(self.engine, wave)
            checked += len(wave)
            failed += sum(1 for g, w in zip(got, want) if g != w)
        return checked, failed

    def token_match(self) -> float:
        """Position-wise share of gold tokens the last set-up reproduced."""
        pairs = [
            (g, w)
            for got, want in zip(self.gold_actual, load_gold(self.name))
            for g, w in itertools.zip_longest(got, want)
        ]
        return sum(1 for g, w in pairs if g == w) / len(pairs)

    def gold_misses(self):
        rate = self.token_match()
        return 0 if rate >= (1.0 if self.EXACT_GOLD else MIN_TOKEN_MATCH) else 1

    def counters(self):
        stats = self.engine.stats()
        return {
            "kv.evictions": stats["evictions"],
            "kv.page_utilization": stats["kv_page_utilization"],
            "kv.bytes_per_token": stats["kv_bytes_per_token"],
        }


class DecodeUnshared(_Decode):
    """fp32 decode, unshared prompts: tiny GEMMs and ~45 nodes per step, so
    the interpreter loop and KV bookkeeping dominate; no prefix is ever
    shared."""

    name = "decode_unshared"


class DecodeInt8(_Decode):
    """decode_unshared with int8 weights and int8 KV: qgemm and the KV codec
    dominate; its tokens/s over decode_unshared's is the int8 headline."""

    name = "decode_int8"
    EXTRA = dict(quantize_weights=True, kv_dtype="int8")
    EXACT_GOLD = True


class DecodePrefix(_Decode):
    """prefix cache on, every prompt = one 64-token system prefix + 4-8
    unique tokens: trie match and copy-on-write KV sharing instead of
    prefill."""

    name = "decode_prefix"
    EXTRA = dict(prefix_cache=True)
    PREFIX_TOKENS = 64
    PROMPT_LENS = (4, 5, 6, 6, 7, 8)
    BUDGETS = (8,) * 6


# -- cluster RPC ---------------------------------------------------------------------
class ClusterRpc(Workload):
    """Cluster.infer on a sub-millisecond graph, 2 workers, no dwell: router
    dispatch, pipe IPC and shm copies are the request; kernels negligible."""

    name = "cluster_rpc"
    clients = 2

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        self.graph = default_chaos_graph()
        self.input_name, self.output_name = self.graph.inputs[0], self.graph.outputs[0]
        self.shape = self.graph.desc(self.input_name).shape
        self.inputs = self._images(self.shape)
        self.local = Session(self.graph)
        self.expected = [self._local(x) for x in self.inputs]
        self.cluster = None

    def _local(self, x):
        return self.local.run({self.input_name: x})[self.output_name]

    def _infer(self, x):
        return self.cluster.infer({self.input_name: x})[self.output_name]

    def setup(self):
        self.cluster = Cluster(self.graph, ClusterConfig(
            workers=2, device_dwell_ms=0.0, metrics=MetricsRegistry(),
            cache_dir=str(self.scratch / "worker-cache"),
        ))
        x = gold_image(self.shape)
        out = self._infer(x)
        if not np.array_equal(out, self._local(x)):
            raise OutputError("Cluster.infer differs bitwise from a local Session.run")
        self.gold_actual = {"chaosnet": out.ravel().tolist()}

    def teardown(self):
        if self.cluster is not None:
            self.cluster.close()
            self.cluster = None

    def next_input(self, client, i):
        return (2 * i + client) % INPUT_POOL

    def op(self, client, index):
        if not np.array_equal(self._infer(self.inputs[index]), self.expected[index]):
            raise OutputError("Cluster.infer differs bitwise from a local Session.run")
        return 1.0

    def verify(self):
        failed = sum(
            1 for x, want in zip(self.inputs, self.expected)
            if not np.array_equal(self._infer(x), want)
        )
        return len(self.inputs), failed

    def local_run_ms(self):
        samples = []
        for i in range(200):
            begin = time.perf_counter()
            self._local(self.inputs[i % INPUT_POOL])
            samples.append((time.perf_counter() - begin) * 1e3)
        return float(np.median(samples))

    def counters(self):
        metrics = self.cluster.metrics
        return {
            "router.requests": metrics.value("router.requests"),
            "router.shed": (metrics.value("router.shed.backpressure")
                            + metrics.value("router.shed.overloaded")),
            "restarts": sum(h["restarts"] for h in self.cluster.health().values()),
        }


WORKLOADS = {
    cls.name: cls
    for cls in (CnnStream, ServeClosed, DecodeUnshared, DecodePrefix, DecodeInt8, ClusterRpc)
}
