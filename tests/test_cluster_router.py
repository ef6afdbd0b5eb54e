"""Router/worker tier end-to-end: real processes, real kills.

Everything here spawns actual forked worker processes (hence the
``cluster`` marker): cross-process serving must stay bit-identical to a
local in-process engine, session placement must be sticky and
deterministic, admission control must shed with the typed backpressure
taxonomy, and a SIGKILLed worker must be replaced by the supervisor with
the losses surfaced per the request's policy — including the satellite
rule that a deadline expiring around a dead worker is reported as
``DeadlineExceeded``, never ``WorkerLost``.
"""

import itertools
import json
import os
import tempfile
import threading
import time

import numpy as np
import pytest

from repro.cluster import (
    Backpressure,
    Cluster,
    ClusterConfig,
    ClusterError,
    Overloaded,
    WorkerLost,
    fork_available,
)
from repro.core import Session
from repro.faults import DeadlineExceeded, FaultPlan, FaultRule
from repro.faults.chaos import default_chaos_graph
from repro.genai import GenerationConfig, GenerationEngine, SamplingParams
from repro.ir import GraphBuilder, GraphError
from repro.obs import MetricsRegistry, Tracer
from repro.obs.requests import RequestTracker

pytestmark = [
    pytest.mark.cluster,
    pytest.mark.skipif(not fork_available(),
                       reason="cluster tier needs the fork start method"),
]

RNG = np.random.default_rng(17)

GENAI = dict(vocab=48, max_seq=24, d_model=16, heads=2, layers=1, seed=7,
             max_batch=2, page_tokens=4, capacity_tokens=64)


@pytest.fixture(scope="module")
def net():
    return default_chaos_graph()


@pytest.fixture(scope="module")
def feeds(net):
    return {
        net.inputs[0]: RNG.standard_normal(
            net.desc(net.inputs[0]).shape).astype(np.float32)
    }


@pytest.fixture(scope="module")
def gold(net, feeds):
    from repro.serving import Engine, EngineConfig

    engine = Engine(net, EngineConfig(pool_size=1))
    return engine.infer(feeds)


def _threads_named(prefix):
    return [t.name for t in threading.enumerate() if t.name.startswith(prefix)]


class _Client(threading.Thread):
    """One ``cluster.infer`` on a client thread of its own."""

    def __init__(self, cluster, feeds, **kw):
        super().__init__(name="test-client")
        self.outcome = None
        self._call = lambda: cluster.infer(feeds, **kw)
        self.start()

    def run(self):
        try:
            self.outcome = self._call()
        except BaseException as exc:  # judged by the test
            self.outcome = exc

    def result(self, timeout=30.0):
        """The outputs, or the request's error raised."""
        self.join(timeout)
        assert not self.is_alive(), "the request never finished"
        if isinstance(self.outcome, BaseException):
            raise self.outcome
        return self.outcome


def _wait_until(ready, what, timeout_s=30.0):
    t0 = time.monotonic()
    while not ready():
        assert time.monotonic() - t0 < timeout_s, what
        time.sleep(0.001)


def _wait_in_flight(cluster, slot=None):
    """Block until a request holds ``slot``'s lock (any slot's if
    ``None``): it is mid-RPC."""
    locks = cluster._slot_locks if slot is None else [cluster._slot_locks[slot]]
    _wait_until(lambda: any(lock.locked() for lock in locks),
                "no request reached a worker")


def _wait_admitted(cluster, n):
    """Block until ``n`` requests hold an admission (queued or in flight)."""
    _wait_until(lambda: sum(h["queue_depth"] for h in cluster.health().values()) == n,
                f"{n} requests were never admitted")


def _wait_recovered(cluster, slot, timeout_s=60.0):
    t0 = time.monotonic()
    while time.monotonic() - t0 < timeout_s:
        if (cluster.supervisor.restarts(slot) >= 1
                and cluster.supervisor.is_up(slot)):
            return True
        time.sleep(0.02)
    return False


#: Builds a 2-worker cluster, serves one request, reports the worker
#: pids and the segment prefix, then waits to be killed.
_DOOMED_ROUTER = """
import json, sys
import numpy as np
from repro.cluster import Cluster, ClusterConfig
from repro.faults.chaos import default_chaos_graph
from repro.obs import MetricsRegistry

net = default_chaos_graph()
cluster = Cluster(net, ClusterConfig(workers=2, metrics=MetricsRegistry()))
cluster.infer({net.inputs[0]: np.zeros(net.desc(net.inputs[0]).shape, np.float32)})
print(json.dumps({
    "pids": [h.proc.pid for h in cluster.supervisor._handles.values()],
    "uid": cluster._uid,
}), flush=True)
sys.stdin.read()
"""


def _live(pids):
    """The pids still running (a zombie nobody reaped has exited)."""
    live = []
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as f:
                state = f.read().rsplit(")", 1)[1].split()[0]
        except (OSError, IndexError):
            continue
        if state not in ("Z", "X"):
            live.append(pid)
    return live


def _segments_named(uid):
    return [n for n in os.listdir("/dev/shm") if uid in n] if uid else []


def _model_dirs():
    """The ``repro-cluster-*`` entries in the temp directory."""
    return {n for n in os.listdir(tempfile.gettempdir())
            if n.startswith("repro-cluster-")}


class TestBitIdentity:
    def test_infer_matches_local_engine(self, net, feeds, gold):
        with Cluster(net, ClusterConfig(
                workers=2, metrics=MetricsRegistry())) as cluster:
            out = cluster.infer(feeds)
            assert set(out) == set(gold)
            for name in gold:
                np.testing.assert_array_equal(out[name], gold[name])

    def test_generate_matches_local_engine(self):
        prompts = [[1, 2, 3], [4, 5], [6, 7, 8, 9]]
        local = GenerationEngine(GenerationConfig(**GENAI))
        gold = [list(r.tokens)
                for r in local.generate(prompts, SamplingParams(max_tokens=8))]
        with Cluster(config=ClusterConfig(
                workers=2, genai=dict(GENAI),
                metrics=MetricsRegistry())) as cluster:
            for i, prompt in enumerate(prompts):
                out = cluster.generate(prompt, {"max_tokens": 8},
                                       session_key=f"s{i}")
                assert out.tokens == gold[i]
                assert out.finish_reason in ("stop", "length")


class TestTransport:
    def test_payloads_over_one_mib_are_bitwise_and_segments_stay_put(self):
        # A 1x3x320x320 input (1.2 MB) and a 1x8x320x320 output (3.3 MB):
        # the router sizes both segments from the graph once, so neither
        # a request nor a respawn replaces a segment.
        b = GraphBuilder("wide", seed=2)
        b.output(b.conv(b.input("in", (1, 3, 320, 320)), oc=8, kernel=1))
        graph = b.finish()
        local = Session(graph)
        with Cluster(graph, ClusterConfig(
                workers=1, metrics=MetricsRegistry())) as cluster:
            names = {role: seg.name for role, seg in cluster._segments[0].items()}
            for round_ in range(3):
                if round_ == 2:
                    cluster.supervisor.kill(0)
                    assert _wait_recovered(cluster, 0)
                x = {"in": RNG.standard_normal((1, 3, 320, 320)).astype(np.float32)}
                out = cluster.infer(x)
                gold = local.run(x)
                assert out[graph.outputs[0]].nbytes > 1 << 20
                np.testing.assert_array_equal(out[graph.outputs[0]],
                                              gold[graph.outputs[0]])
                assert {role: seg.name for role, seg
                        in cluster._segments[0].items()} == names
        if os.path.isdir("/dev/shm"):
            assert not [entry for entry in os.listdir("/dev/shm")
                        if entry.startswith(cluster._uid)]

    def test_infer_pickles_nothing_and_lays_out_nothing(self, net, feeds, gold,
                                                        monkeypatch):
        """The router side of an infer RPC sends and reads one fixed-layout
        frame over views bound at spawn: the pipe's pickler is never
        called and no ``TensorSpec`` is built.  The pickler is spied on
        as ``pickle.dumps``/``loads``, as ``ForkingPickler.dumps``/
        ``loads`` (what ``Connection.send``/``recv`` call, under the name
        ``multiprocessing.connection._ForkingPickler``) and under any
        other module-level name in ``repro``; ``TensorSpec`` through its
        ``__init__``, which every name it is imported as shares."""
        import multiprocessing
        import pickle
        import sys
        from collections import Counter
        from multiprocessing import reduction

        from repro.cluster.shm import TensorSpec

        calls = Counter()

        def spy(label, fn):
            def counted(*args, **kwargs):
                calls[label] += 1
                return fn(*args, **kwargs)
            return counted

        originals = {pickle.dumps: "pickle.dumps", pickle.loads: "pickle.loads"}
        with Cluster(net, ClusterConfig(workers=2, metrics=MetricsRegistry())) as cluster:
            cluster.infer(feeds)  # warm: every worker up and serving
            forking = reduction.ForkingPickler
            assert sys.modules["multiprocessing.connection"]._ForkingPickler is forking
            monkeypatch.setattr(forking, "dumps", classmethod(
                spy("ForkingPickler.dumps", forking.dumps.__func__)))
            monkeypatch.setattr(forking, "loads", spy("ForkingPickler.loads", forking.loads))
            for fn, label in originals.items():
                monkeypatch.setattr(pickle, fn.__name__, spy(label, fn))
            for module in [m for name, m in sys.modules.items() if name.startswith("repro")]:
                for attr, value in list(vars(module).items()):
                    for fn, label in originals.items():
                        if value is fn:
                            monkeypatch.setattr(module, attr, spy(label, fn))
            monkeypatch.setattr(TensorSpec, "__init__", spy("TensorSpec", TensorSpec.__init__))

            outs = [cluster.infer(feeds) for _ in range(4)]
            assert dict(calls) == {}
            # The spies are live: a pipe message and a spec are counted.
            a, b = multiprocessing.Pipe()
            a.send({"kind": "probe"})
            b.recv()
            TensorSpec("x", (), "<f4", 64, 4)
            assert calls == {"ForkingPickler.dumps": 1, "ForkingPickler.loads": 1,
                             "TensorSpec": 1}
            monkeypatch.undo()
        for out in outs:
            for key in gold:
                np.testing.assert_array_equal(out[key], gold[key])

    def test_sync_rpc_runs_on_the_callers_thread(self, net, feeds, gold):
        """A synchronous ``infer`` or ``generate`` is served on the thread
        that called it: its ``cluster.rpc`` span carries the caller's
        thread id, and the router starts no per-slot dispatch thread."""
        tracer = Tracer()
        with Cluster(net, ClusterConfig(workers=2, trace=tracer,
                                        metrics=MetricsRegistry())) as cluster:
            assert _threads_named("cluster-w") == []
            out = cluster.infer(feeds)
        with Cluster(config=ClusterConfig(workers=1, genai=dict(GENAI), trace=tracer,
                                          metrics=MetricsRegistry())) as cluster:
            assert _threads_named("cluster-w") == []
            cluster.generate([1, 2, 3], {"max_tokens": 4})
        rpcs = [span for span in tracer.spans if span.name == "cluster.rpc"]
        assert [span.tid for span in rpcs] == [threading.get_ident()] * 2
        for key in gold:
            np.testing.assert_array_equal(out[key], gold[key])

    def test_malformed_feeds_fail_at_submit(self, net, feeds, gold):
        name = net.inputs[0]
        good = feeds[name]
        reg = MetricsRegistry()
        with Cluster(net, ClusterConfig(workers=1, metrics=reg)) as cluster:
            for bad in ({name: good[..., :-1]},
                        {name: good.astype(np.float64)},
                        {}):
                with pytest.raises(GraphError):
                    cluster.infer(bad)
            assert reg.value("router.requests") == 0
            out = cluster.infer(feeds)
            assert reg.value("router.requests") == 1
        for key in gold:
            np.testing.assert_array_equal(out[key], gold[key])

    def test_cached_workers_share_the_engine_cache_key(
            self, net, feeds, gold, tmp_path):
        from repro.serving import Engine, EngineConfig, PreInferenceCache

        cache_dir = str(tmp_path / "cache")
        config = ClusterConfig(workers=1, use_cache=True, cache_dir=cache_dir,
                               metrics=MetricsRegistry())
        with Cluster(net, config) as cluster:
            first = cluster.infer(feeds)
        # The worker stored its session under the key a local engine
        # computes, and that engine warms from it without a miss.
        engine = Engine(net, EngineConfig(use_cache=True, cache_dir=cache_dir))
        assert PreInferenceCache(cache_dir).entries() == [engine.cache_key]
        assert engine.metrics.value("engine.cache.misses") == 0
        with Cluster(net, config) as cluster:
            second = cluster.infer(feeds)
        for key in gold:
            np.testing.assert_array_equal(first[key], gold[key])
            np.testing.assert_array_equal(second[key], first[key])


class TestAffinity:
    def test_session_key_is_sticky(self, net, feeds, tmp_path):
        reg = MetricsRegistry()
        tracker = RequestTracker(metrics=reg, postmortem_dir=str(tmp_path))
        with Cluster(net, ClusterConfig(
                workers=2, metrics=reg, requests=tracker)) as cluster:
            for _ in range(5):
                cluster.infer(feeds, session_key="sticky-session")
        workers = set()
        for rid in (f"clu-{n}" for n in range(1, 6)):
            admitted = [e for e in tracker.events(rid) if e.name == "admitted"]
            assert admitted, f"no admitted event for {rid}"
            workers.add(admitted[0].args["worker"])
        assert len(workers) == 1  # every request went to the same slot

    def test_keyless_requests_spread(self, net, feeds):
        # Two keyless requests held in flight must occupy two workers
        # (least-loaded placement), observable via the depth gauges.
        reg = MetricsRegistry()
        with Cluster(net, ClusterConfig(
                workers=2, metrics=reg, device_dwell_ms=150.0)) as cluster:
            clients = [_Client(cluster, feeds) for _ in range(2)]
            _wait_admitted(cluster, 2)
            health = cluster.health()
            assert [health[s]["queue_depth"] for s in (0, 1)] == [1, 1]
            for client in clients:
                client.result()


class TestAdmissionControl:
    def test_backpressure_typed_with_postmortem(self, net, feeds, tmp_path):
        reg = MetricsRegistry()
        tracker = RequestTracker(metrics=reg, postmortem_dir=str(tmp_path))
        with Cluster(net, ClusterConfig(
                workers=2, max_queue_depth=1, device_dwell_ms=200.0,
                metrics=reg, requests=tracker)) as cluster:
            first = _Client(cluster, feeds, session_key="pinned")
            _wait_admitted(cluster, 1)
            with pytest.raises(Backpressure) as exc:
                cluster.infer(feeds, session_key="pinned")
            assert exc.value.bound == 1
            assert exc.value.depth >= 1
            first.result()  # the in-flight request is unaffected
        assert reg.value("router.shed.backpressure") == 1
        # The shed left a postmortem naming the error.
        dumps = [p for p in tracker.dumps if "Backpressure" in p]
        assert len(dumps) == 1
        with open(dumps[0], encoding="utf-8") as fh:
            payload = json.load(fh)
        assert payload["trigger"] == "Backpressure"
        assert payload["request"] is not None

    def test_overloaded_when_every_worker_full(self, net, feeds):
        reg = MetricsRegistry()
        with Cluster(net, ClusterConfig(
                workers=2, max_queue_depth=1, device_dwell_ms=200.0,
                metrics=reg)) as cluster:
            inflight = [_Client(cluster, feeds) for _ in range(2)]
            _wait_admitted(cluster, 2)
            with pytest.raises(Overloaded) as exc:
                cluster.infer(feeds)  # keyless, nowhere to go
            assert exc.value.capacity == 2
            for client in inflight:
                client.result()
        assert reg.value("router.shed.overloaded") == 1


    def test_a_request_parked_on_a_busy_slot_expires_typed(self, net, feeds, gold):
        """A request waiting for a slot whose lock another request holds
        gives up when its deadline does, as ``DeadlineExceeded``; the
        request in flight is unaffected."""
        with Cluster(net, ClusterConfig(workers=2, device_dwell_ms=300.0,
                                        metrics=MetricsRegistry())) as cluster:
            first = _Client(cluster, feeds, session_key="pinned")
            _wait_in_flight(cluster)
            t0 = time.monotonic()
            with pytest.raises(DeadlineExceeded):
                cluster.infer(feeds, session_key="pinned", deadline_ms=50.0)
            assert time.monotonic() - t0 < 0.2
            assert first.is_alive()
            out = first.result()
            assert [h["queue_depth"] for h in cluster.health().values()] == [0, 0]
        for key in gold:
            np.testing.assert_array_equal(out[key], gold[key])


class TestSupervision:
    def test_sigkill_is_recovered_bit_identical(self, net, feeds, gold):
        with Cluster(net, ClusterConfig(
                workers=2, metrics=MetricsRegistry())) as cluster:
            cluster.infer(feeds)
            cluster.supervisor.kill(0)
            assert _wait_recovered(cluster, 0)
            health = cluster.health()
            assert health[0]["up"] and health[0]["restarts"] == 1
            out = cluster.infer(feeds, session_key="post-recovery")
            for name in gold:
                np.testing.assert_array_equal(out[name], gold[name])

    def test_hang_is_detected_and_replaced(self, net, feeds, gold, monkeypatch):
        from repro.cluster import supervisor

        monkeypatch.setattr(supervisor, "HANG_TIMEOUT_S", 0.5)
        reg = MetricsRegistry()
        with Cluster(net, ClusterConfig(workers=2, metrics=reg)) as cluster:
            cluster.infer(feeds)
            assert cluster.supervisor.hang(0)
            assert _wait_recovered(cluster, 0, timeout_s=30.0)
            assert reg.value("cluster.down.hang") == 1
            assert cluster.supervisor.restarts(0) == 1
            out = cluster.infer(feeds, session_key="post-recovery")
            for name in gold:
                np.testing.assert_array_equal(out[name], gold[name])

    def test_death_wakes_the_supervisor_without_a_tick(
            self, net, feeds, gold, monkeypatch):
        # With the hang check paced at 30 s, only the dead worker's
        # sentinel can wake the monitor in time.
        from repro.cluster import supervisor

        monkeypatch.setattr(supervisor, "HEARTBEAT_INTERVAL_S", 30.0)
        with Cluster(net, ClusterConfig(
                workers=1, metrics=MetricsRegistry())) as cluster:
            cluster.infer(feeds)
            cluster.supervisor.kill(0)
            assert _wait_recovered(cluster, 0, timeout_s=5.0)
            assert cluster.supervisor.restarts(0) == 1
            out = cluster.infer(feeds)
            for name in gold:
                np.testing.assert_array_equal(out[name], gold[name])

    def test_workers_replay_the_routers_near_tie_pick(self, tmp_path, monkeypatch):
        """A near tie that goes Winograd's way only in this process: a
        worker timing its own verdict would run sliding window and answer
        other bits.  Every worker, the respawned one included, replays the
        router's schemes instead, and times nothing."""
        from repro.core import autotune

        b = GraphBuilder("near_tie", seed=2)
        x = b.conv(b.input("data", (1, 16, 24, 24)), oc=32, kernel=3, name="wino")
        b.output(b.global_avg_pool(x))
        g = b.finish()
        feeds = {"data": RNG.standard_normal((1, 16, 24, 24)).astype(np.float32)}

        router_pid, log = os.getpid(), tmp_path / "probes.log"

        def near_tie(kind, feed, repeats):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return 1.0 if (kind == "winograd") == (os.getpid() == router_pid) else 1.01

        monkeypatch.setattr(autotune, "_VERDICTS", {})
        monkeypatch.setattr(autotune, "bound_runner", lambda node, graph, scheme: scheme.kind)
        monkeypatch.setattr(autotune, "_measure", near_tie)
        local = Session(g)
        assert local.schemes["wino"].kind == "winograd"
        want = local.run(feeds)[g.outputs[0]]
        autotune._VERDICTS.clear()  # no worker inherits a verdict

        with Cluster(g, ClusterConfig(workers=1, metrics=MetricsRegistry())) as cluster:
            np.testing.assert_array_equal(cluster.infer(feeds)[g.outputs[0]], want)
            cluster.supervisor.kill(0)
            assert _wait_recovered(cluster, 0)
            np.testing.assert_array_equal(cluster.infer(feeds)[g.outputs[0]], want)
        assert {int(pid) for pid in log.read_text().split()} == {router_pid}


class TestWorkerLoss:
    def test_error_policy_surfaces_typed_loss_with_postmortem(
            self, net, feeds, tmp_path):
        reg = MetricsRegistry()
        tracker = RequestTracker(metrics=reg, postmortem_dir=str(tmp_path))
        plan = FaultPlan([FaultRule("worker.crash", "transient", times=1)],
                         seed=3)
        with Cluster(net, ClusterConfig(
                workers=2, metrics=reg, requests=tracker,
                faults=plan)) as cluster:
            with pytest.raises(WorkerLost) as exc:
                cluster.infer(feeds, session_key="doomed",
                              on_worker_lost="error")
            assert exc.value.request_id.startswith("clu-")
            assert exc.value.replays == 0
            # The router survives and keeps serving on live workers.
            cluster.infer(feeds, session_key="doomed", on_worker_lost="error")
        assert plan.injected == 1
        assert reg.value("cluster.lost") == 1
        dumps = [p for p in tracker.dumps if "WorkerLost" in p]
        assert len(dumps) == 1
        with open(dumps[0], encoding="utf-8") as fh:
            payload = json.load(fh)
        assert payload["trigger"] == "WorkerLost"

    def test_replay_policy_is_transparent_and_bit_identical(
            self, net, feeds, gold):
        reg = MetricsRegistry()
        plan = FaultPlan([FaultRule("worker.crash", "transient", times=1)],
                         seed=3)
        with Cluster(net, ClusterConfig(
                workers=2, metrics=reg, faults=plan)) as cluster:
            out = cluster.infer(feeds, session_key="survivor",
                                on_worker_lost="replay")
            for name in gold:
                np.testing.assert_array_equal(out[name], gold[name])
        assert plan.injected == 1
        assert reg.value("cluster.replays") == 1

    def test_expired_deadline_on_dead_worker_is_deadline_exceeded(
            self, net, feeds, monkeypatch):
        # Satellite rule: the budget ran out; which worker was going to
        # serve the request is an implementation detail.  A request whose
        # deadline expires while its (only) slot is dead and awaiting a
        # supervisor replacement must surface DeadlineExceeded, never
        # WorkerLost — even under the replay policy, which would happily
        # keep re-queueing it on the dead slot otherwise.
        from repro.cluster import router

        monkeypatch.setattr(router, "REPLAY_BUDGET", 1000)
        with Cluster(net, ClusterConfig(
                workers=1, metrics=MetricsRegistry())) as cluster:
            cluster.infer(feeds)
            # Hold the replacement back until the request has expired,
            # so the budget always runs out while the slot is down.
            release = threading.Event()
            spawn_cfg = cluster.supervisor.spawn_cfg

            def held(slot):
                release.wait()
                return spawn_cfg(slot)

            monkeypatch.setattr(cluster.supervisor, "spawn_cfg", held)
            cluster.supervisor.kill(0)
            try:
                with pytest.raises(DeadlineExceeded):
                    cluster.infer(feeds, session_key="late", deadline_ms=8.0,
                                  on_worker_lost="replay")
            finally:
                release.set()
            assert _wait_recovered(cluster, 0)  # the slot still comes back


class TestLifecycle:
    def test_closed_cluster_refuses_submissions(self, net, feeds):
        cluster = Cluster(net, ClusterConfig(
            workers=2, metrics=MetricsRegistry()))
        cluster.close()
        cluster.close()  # idempotent
        with pytest.raises(RuntimeError):
            cluster.infer(feeds)

    def test_close_with_work_in_flight(self, net, feeds, gold):
        """``close()`` while one caller is mid-RPC and another is parked
        on another slot, behind a third caller's RPC: every caller ends
        with a result or a typed error (the ones talking to a worker with
        the gold), no segment is used after it is unlinked, and no thread
        the test or the cluster started outlives ``close()``."""
        threads_before = set(threading.enumerate())
        cluster = Cluster(net, ClusterConfig(workers=2, device_dwell_ms=200.0,
                                             sanitize=True, metrics=MetricsRegistry()))
        keys = {}  # one session key per slot
        for n in itertools.count():
            keys.setdefault(cluster._ring.assign(f"k{n}"), f"k{n}")
            if len(keys) == 2:
                break
        try:
            mid_rpc = _Client(cluster, feeds, session_key=keys[0])
            _wait_in_flight(cluster, 0)
            busy = _Client(cluster, feeds, session_key=keys[1])
            _wait_in_flight(cluster, 1)
            parked = _Client(cluster, feeds, session_key=keys[1])
            _wait_admitted(cluster, 3)
        finally:
            cluster.close()
        outcomes = {}
        for name, client in (("mid_rpc", mid_rpc), ("busy", busy), ("parked", parked)):
            try:
                outcomes[name] = client.result()
            except BaseException as exc:  # judged below
                outcomes[name] = exc
        for name in ("mid_rpc", "busy"):  # they were talking to a worker
            assert isinstance(outcomes[name], dict), outcomes[name]
        for outcome in outcomes.values():
            if isinstance(outcome, dict):
                for key in gold:
                    np.testing.assert_array_equal(outcome[key], gold[key])
            else:
                assert isinstance(outcome, (ClusterError, RuntimeError)), outcome
        assert not [f for f in cluster.sanitizer.report().lifecycle
                    if f.scope == "cluster.shm"]
        assert set(threading.enumerate()) <= threads_before

    def test_a_dead_routers_workers_exit(self):
        """SIGKILL the process holding a 2-worker cluster: each worker's
        pipe to the router reaches EOF, so both exit, and the last one
        out releases the cluster's shared-memory segments.  The cluster
        wrote no file, so none is left behind."""
        import signal
        import subprocess
        import sys

        import repro

        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
            os.path.dirname(os.path.dirname(repro.__file__)),
            os.environ.get("PYTHONPATH")])))
        dirs_before = _model_dirs()
        router = subprocess.Popen([sys.executable, "-c", _DOOMED_ROUTER],
                                  stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                  env=env)
        info = {"pids": [], "uid": None}
        try:
            info = json.loads(router.stdout.readline())
            assert len(_live(info["pids"])) == 2
            router.kill()
            router.wait(timeout=30)
            stop = time.monotonic() + 5.0
            while ((_live(info["pids"]) or _segments_named(info["uid"]))
                   and time.monotonic() < stop):
                time.sleep(0.05)
            assert _live(info["pids"]) == []
            assert _segments_named(info["uid"]) == []
            assert _model_dirs() <= dirs_before
        finally:
            router.kill()
            router.wait(timeout=30)
            for pid in _live(info["pids"]):
                os.kill(pid, signal.SIGKILL)
            for name in _segments_named(info["uid"]):
                os.unlink(os.path.join("/dev/shm", name))

    def test_a_worker_that_cannot_start_fails_the_cluster(self, net, monkeypatch):
        """A worker that cannot load the model bytes in its spawn config
        reports ``start_failed`` on every attempt; the constructor then
        raises naming the loader's error and unlinks its segments."""
        from repro.cluster.supervisor import START_RETRIES

        monkeypatch.setattr("repro.cluster.router.dumps", lambda graph: b"junk")
        prefix = f"rc{os.getpid():x}-"
        reg = MetricsRegistry()
        with pytest.raises(RuntimeError, match="FormatError: not a .rmnn model"):
            Cluster(net, ClusterConfig(workers=1, metrics=reg))
        assert reg.value("cluster.start_failed") == START_RETRIES + 1
        assert [n for n in os.listdir("/dev/shm") if n.startswith(prefix)] == []

    def test_a_failed_start_stops_the_workers_that_started(self, net, monkeypatch):
        """Slot 0 starts and slot 1 never does: the constructor raises and
        leaves no worker process running."""
        import multiprocessing

        spawn_cfg = Cluster._spawn_cfg

        def junk_for_slot_1(cluster, slot):
            cfg = spawn_cfg(cluster, slot)
            if slot == 1:
                cfg["model"] = b"junk"
            return cfg

        monkeypatch.setattr(Cluster, "_spawn_cfg", junk_for_slot_1)
        children_before = set(multiprocessing.active_children())
        with pytest.raises(RuntimeError, match="slot 1 failed to start"):
            Cluster(net, ClusterConfig(workers=2, metrics=MetricsRegistry()))
        assert set(multiprocessing.active_children()) <= children_before

    def test_health_reports_every_slot(self, net):
        with Cluster(net, ClusterConfig(
                workers=3, metrics=MetricsRegistry())) as cluster:
            health = cluster.health()
            assert sorted(health) == [0, 1, 2]
            assert all(health[s]["up"] for s in health)
            assert all(health[s]["queue_depth"] == 0 for s in health)
