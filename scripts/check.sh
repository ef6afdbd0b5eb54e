#!/usr/bin/env bash
# Pre-merge gate: every correctness tool in the repo, end to end.
#
#   ./scripts/check.sh
#
# Twelve stages, each of which must pass:
#
#   1. Static concurrency lint (rule family C0xx) over src/repro itself,
#      in strict mode — warnings fail too.
#   2. Strict graph lint + memory-plan sanitizer over every registered
#      zoo model (each one is built fresh, then linted).
#   3. The lint_self and sanitize pytest markers: the repo lints its own
#      fixtures, the race / lock-order / lifecycle detectors prove they
#      both catch seeded defects and come up clean on real code, and the
#      prefix-cache bit-identity properties run under the sanitizer.
#   4. A 50-fault sanitized chaos storm: fault injection with the
#      dynamic sanitizer live across serving, batching, generation and
#      COW prefix sharing — any race, lock cycle or leaked slab fails
#      the storm.
#   5. The cold-start guard: on the serving bench graph, an incremental
#      (lazy-prepare) cold session must come up in under 2x the warm
#      (artifact-replay) time — the regression that motivated the
#      incremental-prepare work.
#   6. Prometheus self-test: a tracked generation workload is exported
#      as text exposition and re-ingested by the validating parser; the
#      SLO and resource families must all be present and well-formed.
#   7. Request-timeline overhead guard: disabled request tracking must
#      cost under 5% of a small-model run.
#   8. Bench-regression gate: a micro-benchmark writes two consecutive
#      BENCH records into a scratch trajectory and `cli regress` must
#      pass it — exercising the stamp, headline extraction and the
#      noise threshold end to end.
#   9. Cluster supervision self-test: spawn the multi-process serving
#      tier, SIGKILL a worker mid-run, and require the supervisor to
#      replace it with the post-recovery response bit-identical to the
#      pre-kill gold.
#  10. Quantization self-test: per-channel int8 weights must hold the
#      logits max-abs-error contract and pass the Q-rule lint, seeded
#      replay over int8 weights + int8 KV must be bit-identical, and
#      the int8 KV layout must fit >= 3x the tokens per arena byte.
#  11. Greedy decode == full recompute, twice.  First, eight generations
#      whose slabs straddle KV-capacity buckets (4-token pages), so the
#      one-step-per-token-boundary decode runs mixed-capacity steps.
#      Second, a two-layer model with the prefix cache on and a shared
#      12-token prefix, so prefix hits run their multi-token suffix from
#      cached rows in one call.  Every token must equal a token-by-token
#      full-sequence recompute.
#  12. Benchmark smoke: perfbench's smoke tests, all six workloads, each
#      untraced and traced.  perfbench wraps Session.__init__/run and the
#      serving/genai/cluster entry points from outside, builds every
#      front door from its config, and replays sessions through
#      run_profiled, so an executor or config change can break the
#      benchmark without failing any unit test.
#
# Total runtime is a few minutes on a laptop.

set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH=src

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

echo "== [1/12] static concurrency lint (C0xx, strict) =="
python -m repro.tools.cli sanitize --static-only --strict

echo
echo "== [2/12] strict model lint over the registered zoo =="
models=$(python -c "from repro.models import MODEL_REGISTRY; print(' '.join(sorted(MODEL_REGISTRY)))")
for name in $models; do
    echo "-- $name"
    python -m repro.tools.cli build "$name" -o "$tmpdir/$name.rmnn" >/dev/null
    python -m repro.tools.cli lint --strict "$tmpdir/$name.rmnn"
done

echo
echo "== [3/12] lint_self + sanitize pytest markers =="
python -m pytest -q -m "lint_self or sanitize"

echo
echo "== [4/12] 50-fault sanitized chaos storm =="
python -m repro.tools.cli chaos --faults 50 --sanitize

echo
echo "== [5/12] cold-start guard (incremental cold < 2x warm) =="
python - <<'PY'
from repro.converter import optimize
from repro.core import SessionConfig
from repro.core.schemes import clear_scheme_memo
from repro.kernels.winograd import clear_transform_cache
from repro.models import squeezenet_v1_1
from repro.serving import Engine, EngineConfig

import tempfile

net = optimize(squeezenet_v1_1(input_size=96, classes=10))
with tempfile.TemporaryDirectory() as cache_dir:
    clear_transform_cache(); clear_scheme_memo()
    seeder = Engine(net, EngineConfig(pool_size=1, cache_dir=cache_dir))

    clear_transform_cache(); clear_scheme_memo()
    warm = Engine(net, EngineConfig(pool_size=1, cache_dir=cache_dir))
    warm_ms = warm.stats.warm_prepare_ms[0]

with tempfile.TemporaryDirectory() as cold_dir:
    clear_transform_cache(); clear_scheme_memo()
    cold = Engine(net, EngineConfig(
        pool_size=1, cache_dir=cold_dir,
        session=SessionConfig(lazy_prepare=True),
    ))
    cold_ms = cold.stats.cold_prepare_ms[0]

print(f"incremental cold prepare: {cold_ms:.1f} ms, warm: {warm_ms:.1f} ms "
      f"(ratio {cold_ms / max(warm_ms, 1e-9):.2f}x, budget 2x)")
assert cold_ms < 2.0 * warm_ms, (
    f"cold-start regression: incremental cold prepare {cold_ms:.1f} ms is "
    f">= 2x the warm {warm_ms:.1f} ms"
)
PY

echo
echo "== [6/12] prometheus export self-test =="
python -m repro.tools.cli metrics --prom --selftest >/dev/null
python -m repro.tools.cli metrics --prom --selftest | tail -n 1

echo
echo "== [7/12] request-timeline overhead guard (<5% disabled) =="
python -m pytest -q tests/test_obs_requests.py -k overhead

echo
echo "== [8/12] bench-regression gate (two-run trajectory) =="
export REPRO_BENCH_DIR="$tmpdir/bench"
python -m pytest -q benchmarks/bench_prefix_cache.py
python -m pytest -q benchmarks/bench_prefix_cache.py
python -m repro.tools.cli regress "$REPRO_BENCH_DIR"/BENCH_*.json
unset REPRO_BENCH_DIR

echo
echo "== [9/12] cluster supervision self-test (kill a worker, stay bit-identical) =="
python -m repro.tools.cli cluster --selftest

echo
echo "== [10/12] quantization self-test (accuracy, determinism, capacity) =="
python -m repro.tools.cli quantize --selftest

echo
echo "== [11/12] greedy decode == full recompute (mixed-capacity steps, prefix-hit runs) =="
python -m repro.tools.cli generate --selftest --prompts 8 --page-tokens 4 --max-tokens 16 | tail -n 1
python -m repro.tools.cli generate --selftest --layers 2 --prefix-cache --shared-prefix 12 \
    --prompts 8 --page-tokens 4 --max-tokens 16 | tail -n 1

echo
echo "== [12/12] benchmark smoke (perfbench, all six workloads, traced and untraced) =="
python -m pytest -q perfbench/tests/test_smoke.py

echo
echo "check.sh: all gates passed"
