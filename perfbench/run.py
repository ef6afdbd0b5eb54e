#!/usr/bin/env python3
"""perfbench: one measured, layer-attributed benchmark for the four headline paths.

Driver form (one run, one workload; the last stdout line is the result)::

    python3 perfbench/run.py --workload cnn_stream --seed 1 --seconds 16 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrapper installed,
over every operation of the run: nothing is selected or dropped.  Times
are divided by a host factor measured beside them (:mod:`perfbench.probe`),
because the shared hosts this runs on slow down by 10-35 % for minutes
at a time; the plain wall-clock figures are printed on the same line.
``--trace 1`` installs the span wrappers of :mod:`perfbench.trace`,
measures a traced phase, removes them, measures an untraced phase (their
ratio is the tracing overhead) and reports the per-layer metrics.

Without ``--workload`` the command runs every workload, each in a fresh
subprocess, in 3 interleaved untraced rounds (medians are reported) and
one traced pass, prints every metric by name and unit and checks that
the workloads separate the layers.  ``--selfcheck`` runs the untraced
set on the same code as A B, then B A, and fails when the two disagree by
more than a metric's bound; ``--regen-gold`` rewrites ``gold/``.

Every number is measured on this host (wall-clock, or wall-clock over a
measured host factor), except the one labelled computed
(``kernels.muls_per_run``).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: BLAS pools are pinned to one thread before NumPy loads: on a 2-core
#: host two worker processes with 2 BLAS threads each measure the
#: scheduler (10.6 req/s), not the program (164.8 req/s).  Forked cluster
#: workers inherit the environment.
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Timed rounds per untraced run, each on a freshly set-up program;
#: throughput is the median of the rounds' rates.
ROUNDS = 3
#: A round is a chain of windows this long, with a host-speed probe
#: (:mod:`perfbench.probe`) before the first and after each: the host's
#: speed moves within seconds, so each window is scaled by its own probes.
WINDOW_S = 0.5
#: Set-ups per batch.  An untraced run measures one batch before the first
#: round and one after every round, spread over the run for the same
#: reason; ``setup_s`` is the median of them all.
SETUP_BATCH = 2
#: Share of ``--seconds`` a traced run spends with the wrappers installed.
TRACED_SHARE = 0.6


# -- substrate ----------------------------------------------------------------------
def _openblas():
    """(thread count, config string) of the OpenBLAS NumPy loaded, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = set(re.findall(r"(/\S*openblas\S*\.so\S*)", fh.read()))
    except OSError:
        return None, None
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                try:
                    threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
                    config = getattr(lib, f"{prefix}get_config{suffix}")
                except AttributeError:
                    continue
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                return int(threads()), config().decode()
    return None, None


def pin_substrate() -> None:
    """One BLAS thread per process, decided before NumPy is imported."""
    if "numpy" in sys.modules:
        threads, _ = _openblas()
        if threads is not None and threads > 1:
            raise SystemExit(
                f"perfbench: NumPy is already imported with {threads} BLAS threads; "
                f"start it with {'='.join((PINNED[0], '1'))} or let run.py import NumPy")
    for key in PINNED:
        os.environ[key] = "1"


def stamp(seed: int) -> dict:
    import numpy

    threads, config = _openblas()
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"      # the driver's checkout is not a git repository
    return {
        "nproc": os.cpu_count(),
        "blas_threads": threads,
        "openblas": config,
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
        "commit": commit,
        "seed": seed,
    }


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


# -- one run of one workload ---------------------------------------------------------
def timed_window(wl, seconds: float, first: int, pool, rec=None) -> dict:
    """Closed loop: each client sends its next operation when the last returns.

    ``first`` is the per-client index of the first operation, so that
    consecutive windows continue one input sequence; ``pool`` holds the
    round's client threads (``None`` for a single client, which runs on
    the caller's thread).  Returns every completed operation as
    ``(begin, end, units)``.
    """
    ops, errors = [], []
    attempted = [0] * wl.clients
    start = time.perf_counter()
    deadline = start + seconds

    def client(c: int) -> None:
        i = first
        while True:
            item = wl.next_input(c, i)
            begin = time.perf_counter()
            if begin >= deadline:
                return
            attempted[c] += 1
            try:
                if rec is not None:
                    with rec.span("op", op=i * wl.clients + c):
                        units = wl.op(c, item)
                else:
                    units = wl.op(c, item)
            except Exception:       # the loop must keep running; the op counts as failed
                errors.append(traceback.format_exc())
            else:
                ops.append((begin, time.perf_counter(), units))
            i += 1

    if pool is None:
        client(0)
    else:
        for future in [pool.submit(client, c) for c in range(wl.clients)]:
            future.result()
    for text in errors[:3]:
        print(text, file=sys.stderr)
    return {
        "window": (start, time.perf_counter()),
        "ops": ops,
        "next": first + max(attempted),
        "attempted": sum(attempted),
        "failed": len(errors),
    }


def timed_round(wl, seconds: float, rec=None) -> dict:
    """Windows of operations until ``seconds`` are spent, probes between them.

    Every operation of every window counts; each is scaled by the host
    factor of its own window (see :mod:`perfbench.probe`).  ``rate`` and
    ``latencies_ms`` are the normalised figures, ``wall_*`` the plain
    wall-clock ones.
    """
    from perfbench.probe import host_factor, probe

    start = time.perf_counter()
    units = wall = scaled = 0.0
    first = attempted = failed = 0
    latencies, wall_latencies, factors = [], [], []
    # The client threads live as long as the round, not one per window.
    clients = ThreadPoolExecutor(wl.clients, "client") if wl.clients > 1 else nullcontext()
    with clients as pool:
        before = probe()
        while seconds - wall > 0.1 * WINDOW_S:      # no sliver of a window at the end
            w = timed_window(wl, min(WINDOW_S, seconds - wall), first, pool, rec)
            after = probe()
            factor = host_factor(before, after)
            before = after
            length = w["window"][1] - w["window"][0]
            wall += length
            scaled += length / factor
            factors.append(factor)
            units += sum(u for _, _, u in w["ops"])
            wall_latencies += [(end - begin) * 1e3 for begin, end, _ in w["ops"]]
            latencies += [(end - begin) * 1e3 / factor for begin, end, _ in w["ops"]]
            first = w["next"]
            attempted += w["attempted"]
            failed += w["failed"]
    if not latencies:
        raise SystemExit("perfbench: no operation completed")
    return {
        "window": (start, time.perf_counter()),
        "rate": units / scaled,
        "latencies_ms": latencies,
        "wall_rate": units / wall,
        "wall_latencies_ms": wall_latencies,
        "host_factor": statistics.median(factors),
        "attempted": attempted,
        "failed": failed,
    }


def pooled(rounds, key: str) -> list:
    """One list of every round's ``key`` samples."""
    return [value for r in rounds for value in r[key]]


def measure_setups(wl, rec=None, regen_gold: bool = False):
    """Set up ``SETUP_BATCH`` times; each must reproduce the gold output.

    Returns the set-ups' wall windows, their host-normalised durations
    (seconds) and the number of gold misses.
    """
    from perfbench.probe import host_factor, probe
    from perfbench.workloads import save_gold

    windows, scaled, misses = [], [], 0
    before = probe()
    for _ in range(SETUP_BATCH):
        wl.teardown()
        begin = time.perf_counter()
        if rec is not None:
            with rec.span("setup"):
                wl.setup()
        else:
            wl.setup()
        end = time.perf_counter()
        after = probe()
        windows.append((begin, end))
        scaled.append((end - begin) / host_factor(before, after))
        before = after
        if regen_gold:
            print(f"wrote {save_gold(wl.name, wl.gold_actual)}")
            regen_gold = False
        misses += wl.gold_misses()
    return windows, scaled, misses


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child, MiB."""
    usage = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
             + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return usage / 1024.0


def stop_resource_tracker() -> None:
    """Reap the helper process ``multiprocessing.shared_memory`` started.

    It would exit by itself once this process does, but then nobody has
    waited for it; a benchmark run ends with every process it started.
    """
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if hasattr(tracker, "_stop"):
        tracker._stop()


def run_workload(args) -> int:
    pin_substrate()
    sys.path[0] = str(ROOT)
    sys.path.insert(1, str(ROOT / "src"))
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if Path(repro.__file__).resolve().parent.parent != ROOT / "src":
        print(f"perfbench: 'repro' resolved to {repro.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    scratch = OUT / f"run-{args.workload}-{os.getpid()}"
    (scratch / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(scratch / "tmp")             # Cluster's model dir
    os.environ["REPRO_CACHE_DIR"] = str(scratch / "cache")  # never ~/.cache/repro
    try:
        return _run_workload(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure_end_to_end(wl, args):
    """Tracing off: the numbers a user of the system would see.

    ``--seconds`` is split into ``ROUNDS`` timed rounds with a batch of
    set-ups before, between and after them.  Latency percentiles are
    taken over every operation of every round, pooled; throughput is the
    median of the rounds' rates; set-up time is the median of all
    set-ups.  All times are host-normalised (:mod:`perfbench.probe`); the
    plain wall-clock figures are printed beside them.
    """
    from perfbench import stats

    _, setups, gold_misses = measure_setups(wl, None, args.regen_gold)
    rounds = []
    for _ in range(ROUNDS):
        rounds.append(timed_round(wl, args.seconds / ROUNDS))
        _, more, more_misses = measure_setups(wl)
        setups += more
        gold_misses += more_misses
    rss = peak_rss_mb()         # before verify(): its references are not the program
    latencies = pooled(rounds, "latencies_ms")
    wall = pooled(rounds, "wall_latencies_ms")
    tail = stats.tail_percentile(len(latencies))
    print(f"{len(latencies)} operations in {ROUNDS} rounds (highest percentile with "
          f"{stats.MIN_SAMPLES_BEYOND} samples beyond it: p{tail}); host factor "
          + ", ".join(f"{r['host_factor']:.3f}" for r in rounds)
          + "; wall-clock: "
          + ", ".join(f"{r['wall_rate']:.2f}/s" for r in rounds)
          + f", p50 {stats.percentile(wall, 50.0):.3f} ms, p90 {stats.percentile(wall, 90.0):.3f} ms")
    if tail is None or tail < 90.0:
        print(f"perfbench: only {len(latencies)} operations; a p90 needs 100",
              file=sys.stderr)
    values = {
        "throughput_per_s": statistics.median(r["rate"] for r in rounds),
        "latency_ms_p50": stats.percentile(latencies, 50.0),
        "latency_ms_p90": stats.percentile(latencies, 90.0),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
    }
    return values, gold_misses, rounds, len(setups)


def measure_layers(wl, args, rec):
    """Traced phase, then an untraced one; spans become the per-layer metrics."""
    from perfbench import layers, stats

    setups, _, gold_misses = measure_setups(wl, rec)
    before = wl.counters()
    traced = timed_round(wl, args.seconds * TRACED_SHARE, rec)
    after = wl.counters()
    rec.restore()
    # Replay now: every session still has the shapes of its last feeds.
    profiles = layers.profile_sessions(rec, traced["window"])
    untraced = timed_round(wl, args.seconds * (1.0 - TRACED_SHARE))
    values = layers.layer_metrics(
        rec, setups, traced["window"], profiles, before, after,
        traced["rate"], untraced["rate"], wl.local_run_ms())
    values.update(layers.micro_timings())
    # What the normalisation was applied to: this run's plain wall-clock.
    phases = [traced, untraced]
    wall = pooled(phases, "wall_latencies_ms")
    values["host.factor"] = statistics.median(p["host_factor"] for p in phases)
    values["wall.throughput_per_s"] = untraced["wall_rate"]
    values["wall.latency_ms_p50"] = stats.percentile(wall, 50.0)
    values["wall.latency_ms_p90"] = stats.percentile(wall, 90.0)
    OUT.mkdir(exist_ok=True)
    rec.write_chrome_trace(OUT / f"trace-{args.workload}.json")
    return values, gold_misses, phases, len(setups)


def _run_workload(args, scratch: Path) -> int:
    from perfbench.workloads import WORKLOADS

    spec = load_spec()
    info = stamp(args.seed)
    if info["blas_threads"] not in (None, 1):
        raise SystemExit(f"perfbench: BLAS runs {info['blas_threads']} threads, not 1")
    print("stamp " + json.dumps(info))

    rec = None
    if args.trace:
        from perfbench.trace import Recorder

        rec = Recorder()
        rec.install()       # before the workload exists: set-up is traced too
    wl = WORKLOADS[args.workload](args.seed, scratch)
    try:
        if rec is None:
            values, gold_misses, phases, setups = measure_end_to_end(wl, args)
        else:
            values, gold_misses, phases, setups = measure_layers(wl, args, rec)
        if hasattr(wl, "token_match"):
            print(f"gold token match rate {wl.token_match():.4f}")
        checked, mismatched = wl.verify()
    finally:
        if rec is not None:
            rec.restore()
        wl.teardown()
    stop_resource_tracker()     # safe only now: no worker holds its pipe open
    attempted = setups + checked + sum(p["attempted"] for p in phases)
    failed = gold_misses + mismatched + sum(p["failed"] for p in phases)

    expected = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in expected}
    if set(values) != set(units):
        raise SystemExit(
            f"perfbench: emitted metrics differ from BENCHMARK.json: "
            f"{sorted(set(values) ^ set(units))}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(values[k]), "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


# -- every workload, each in a fresh subprocess ----------------------------------------
def run_child(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["stamp"] = next(
        (json.loads(l[6:]) for l in lines if l.startswith("stamp ")), None)
    if not result["correct"]:
        sys.stderr.write(proc.stderr)
    return result


def one_round(names, seed, seconds, runs, label="") -> None:
    """Run every workload once (w1..w6), appending to ``runs[name]``."""
    for name in names:
        print(f"  {label}{name}", flush=True)
        runs[name].append(run_child(name, seed, seconds, 0))


def _merge(results) -> dict:
    """Several runs of one workload as one: counts summed, metrics' medians."""
    keys = results[0]["metrics"]
    return {
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "stamp": results[0]["stamp"],
        "metrics": {
            k: {"value": statistics.median(r["metrics"][k]["value"] for r in results),
                "unit": keys[k]["unit"]}
            for k in keys
        },
    }


def print_metrics(title: str, per_workload: dict) -> None:
    names = list(per_workload)
    print(f"\n{title}")
    print(f"{'metric':<34}{'unit':<8}" + "".join(f"{n:>16}" for n in names))
    for key in per_workload[names[0]]["metrics"]:
        unit = per_workload[names[0]]["metrics"][key]["unit"]
        row = "".join(f"{per_workload[n]['metrics'][key]['value']:>16.4f}" for n in names)
        print(f"{key:<34}{unit:<8}{row}")
    row = "".join(
        f"{per_workload[n]['failed'] / per_workload[n]['attempted']:>16.4f}" for n in names)
    print(f"{'failed_share':<34}{'share':<8}{row}")


def check_separation(layer: dict) -> None:
    """The predictions the workloads were sized for, with measured values."""
    def v(workload, key):
        return layer[workload]["metrics"][key]["value"]

    kernel_share = 1.0 - v("cnn_stream", "core.framework_overhead_share")
    decode_fw = v("decode_unshared", "core.framework_overhead_share")
    cnn_fw = v("cnn_stream", "core.framework_overhead_share")
    rpc = v("cluster_rpc", "cluster.rpc_overhead_ms")
    p50 = rpc + v("cluster_rpc", "cluster.local_run_ms")    # traced Cluster.infer p50
    worst = max(v(n, "trace.unattributed_share") for n in layer)
    checks = [
        (f"kernel op time is {kernel_share:.3f} of Session.run wall on cnn_stream (>= 0.8)",
         kernel_share >= 0.8),
        (f"framework overhead share {decode_fw:.3f} on decode_unshared vs {cnn_fw:.3f} "
         f"on cnn_stream (>= 2x)", decode_fw >= 2.0 * cnn_fw),
        (f"prefix hit token share {v('decode_prefix', 'genai.prefix.hit_token_share'):.3f} "
         f"on decode_prefix (> 0.5), {v('decode_unshared', 'genai.prefix.hit_token_share')} "
         f"on decode_unshared (== 0)",
         v("decode_prefix", "genai.prefix.hit_token_share") > 0.5
         and v("decode_unshared", "genai.prefix.hit_token_share") == 0.0),
        (f"rpc overhead {rpc:.3f} ms of {p50:.3f} ms p50 on cluster_rpc (>= 0.5)",
         rpc >= 0.5 * p50),
        (f"largest unattributed share {worst:.4f} (< 0.10)", worst < 0.10),
    ]
    print("\nlayer separation")
    for text, ok in checks:
        print(f"  {'ok  ' if ok else 'MISS'} {text}")
    for name in layer:
        print(f"  trace.overhead_share on {name}: {v(name, 'trace.overhead_share'):.4f}")


def run_all(args) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    rounds = args.rounds or 3
    print(f"untraced pass: {rounds} interleaved round(s) of {args.seconds} s per workload")
    runs = {name: [] for name in names}
    for r in range(rounds):
        one_round(names, args.seed, args.seconds, runs, f"round {r + 1}/{rounds} ")
    e2e = {name: _merge(results) for name, results in runs.items()}
    print("traced pass")
    layer = {}
    for name in names:
        print(f"  {name}", flush=True)
        layer[name] = _merge([run_child(name, args.seed, args.seconds, 1)])
    print("\nstamp " + json.dumps(e2e[names[0]]["stamp"]))
    print_metrics("end-to-end (tracing off)", e2e)
    print_metrics("per layer (traced pass)", layer)
    check_separation(layer)
    OUT.mkdir(exist_ok=True)
    with open(OUT / "report.json", "w", encoding="utf-8") as fh:
        json.dump({"end_to_end": e2e, "per_layer": layer}, fh, indent=1)
    failed = sum(r["failed"] for r in list(e2e.values()) + list(layer.values()))
    return 0 if failed == 0 else 1


def selfcheck(args) -> int:
    """Two sets on the same code, A B then B A; they must agree within bounds."""
    from perfbench.stats import worse_by

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    sets = {side: {name: [] for name in names} for side in "AB"}
    for r in range(max(2, args.rounds or 2)):       # at least A B, then B A
        for side in ("AB", "BA")[r % 2]:
            one_round(names, args.seed, args.seconds, sets[side], f"set {side} ")
    merged = {
        side: {name: _merge(results) for name, results in runs.items()}
        for side, runs in sets.items()
    }
    print_metrics("set A", merged["A"])
    print_metrics("set B", merged["B"])
    bad = 0
    for metric in spec["end_to_end"]:
        for n in names:
            a = merged["A"][n]["metrics"][metric["name"]]["value"]
            b = merged["B"][n]["metrics"][metric["name"]]["value"]
            diff = abs(worse_by(a, b, metric["better"]))
            if diff > metric["bound"]:
                bad += 1
                print(f"DISAGREE {n} {metric['name']}: {a:.4f} vs {b:.4f} "
                      f"({diff:.3f} > {metric['bound']})")
    failed = sum(m[n]["failed"] for m in merged.values() for n in names)
    print(f"\nselfcheck: {bad} metric(s) outside their bound, {failed} failed operation(s)")
    return 0 if bad == 0 and failed == 0 else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=load_spec()["run_seconds"],
                        help="timed phase per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int,
                        help="interleaved rounds when running every workload (default 3; "
                             "--selfcheck: pairs of sets, default and at least 2)")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--regen-gold", action="store_true",
                        help="rewrite perfbench/gold/ from this checkout's outputs")
    args = parser.parse_args()
    if args.workload:
        return run_workload(args)
    sys.path[0] = str(ROOT)
    if args.regen_gold:
        for name in (w["name"] for w in load_spec()["workloads"]):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seconds", "1", "--regen-gold"]
            subprocess.run(cmd, cwd=ROOT, check=True)
        return 0
    return selfcheck(args) if args.selfcheck else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
